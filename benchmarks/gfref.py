"""Reference GF(p^r) arithmetic for the benchmark's output checks.

Built from nothing but the field's characteristic, degree and defining
polynomial (``FieldSpec.modulus``): element index i stands for the polynomial
whose coefficients are the base-p digits of i, and products are polynomial
products reduced by the modulus.  None of the library's arithmetic is used, so
a check made here is independent of the code it checks.
"""

from __future__ import annotations

import numpy as np


class RefField:
    """Multiplication table and orthogonality test for one GF(p^r)."""

    def __init__(self, p: int, r: int, modulus):
        self.p, self.r, self.q = p, r, p**r
        self.weights = p ** np.arange(r, dtype=np.int64)
        idx = np.arange(self.q, dtype=np.int64)
        digits = (idx[:, None] // self.weights[None, :]) % p  # (q, r)
        prod = np.zeros((self.q, self.q, 2 * r - 1), dtype=np.int64)
        for i in range(r):
            for j in range(r):
                prod[:, :, i + j] += digits[:, None, i] * digits[None, :, j]
        prod %= p
        mod = [int(c) for c in modulus]
        # X^r = -(m_0 + ... + m_{r-1} X^{r-1}) for the monic modulus m
        for top in range(2 * r - 2, r - 1, -1):
            lead = prod[:, :, top].copy()
            for i in range(r + 1):
                prod[:, :, top - r + i] -= lead * mod[i]
            prod %= p
        self.mul = prod[:, :, :r] @ self.weights  # (q, q) element indices

    def orthogonal(self, G: np.ndarray, H: np.ndarray) -> bool:
        """True iff every row of G has zero inner product with every row of H."""
        G = np.asarray(G, dtype=np.int64)
        H = np.asarray(H, dtype=np.int64)
        for g in G:  # one row at a time keeps the product array to kH x n
            products = self.mul[g[None, :], H]
            for w in self.weights:
                if np.any(((products // w) % self.p).sum(axis=1) % self.p):
                    return False
        return True
