"""Internal matrix kernels over GF(q).

Matrices are numpy int64 arrays of element indices (see galois.py).  Row
reduction dispatches to a Python-int bitset path for GF(2) (rows packed into
arbitrary-precision ints, elimination by XOR) and a vectorized table path for
every other field.  Everything returns fully reduced row-echelon forms with
pivot columns in increasing order, so RREF equality is code equality.
"""

from __future__ import annotations

import numpy as np

from evalcode.galois import FieldSpec


# ---------------------------------------------------------------------------
# GF(2) bitset helpers


def pack_rows(M: np.ndarray) -> list[int]:
    """Pack each 0/1 row of M into a Python int (bit j = column j)."""
    M = np.ascontiguousarray(M.astype(np.uint8))
    if M.ndim == 1:
        M = M[None, :]
    packed = np.packbits(M, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def unpack_rows(bits: list[int], n: int) -> np.ndarray:
    nbytes = (n + 7) // 8
    if not bits:
        return np.zeros((0, n), dtype=np.int64)
    buf = b"".join(b.to_bytes(nbytes, "little") for b in bits)
    arr = np.frombuffer(buf, dtype=np.uint8).reshape(len(bits), nbytes)
    return np.unpackbits(arr, axis=1, bitorder="little")[:, :n].astype(np.int64)


def rref_bits(rows: list[int]) -> tuple[list[int], list[int]]:
    """Reduced row echelon form of GF(2) rows; returns (rows, pivot columns)."""
    piv_rows: dict[int, int] = {}  # pivot column -> row (1 << column cached with it)
    piv_bits: dict[int, int] = {}
    for r in rows:
        for c, bit in piv_bits.items():
            if r & bit:
                r ^= piv_rows[c]
        if r:
            c = (r & -r).bit_length() - 1
            bit = 1 << c
            for pc in piv_rows:
                if piv_rows[pc] & bit:
                    piv_rows[pc] ^= r
            piv_rows[c] = r
            piv_bits[c] = bit
    pivots = sorted(piv_rows)
    return [piv_rows[c] for c in pivots], pivots


# ---------------------------------------------------------------------------
# generic path


def _rref_generic(M: np.ndarray, spec: FieldSpec) -> tuple[np.ndarray, list[int]]:
    A = np.array(M, dtype=np.int64)
    nrows, ncols = A.shape
    r = 0
    pivots: list[int] = []
    for c in range(ncols):
        if r == nrows:
            break
        col = A[r:, c]
        nzi = np.nonzero(col)[0]
        if nzi.size == 0:
            continue
        piv = r + int(nzi[0])
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        pv = int(A[r, c])
        if pv != 1:
            A[r] = spec.scale_arr(spec.inv(pv), A[r])
        other = A[:, c].copy()
        other[r] = 0
        hit = np.nonzero(other)[0]
        if hit.size:
            A[hit] = spec.sub_arr(A[hit], spec.mul_arr(other[hit][:, None], A[r][None, :]))
        pivots.append(c)
        r += 1
    return A[: len(pivots)], pivots


def rref(M: np.ndarray, spec: FieldSpec) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(q); returns (matrix, pivot columns)."""
    M = np.asarray(M, dtype=np.int64)
    if M.ndim != 2:
        M = np.atleast_2d(M)
    if M.shape[0] == 0:
        return M.copy(), []
    if spec.q == 2:
        bits, pivots = rref_bits(pack_rows(M))
        return unpack_rows(bits, M.shape[1]), pivots
    return _rref_generic(M, spec)


def rank(M: np.ndarray, spec: FieldSpec) -> int:
    return len(rref(M, spec)[1])


def reduce_vector(R: np.ndarray, pivots: list[int], v: np.ndarray, spec: FieldSpec) -> np.ndarray:
    """Residual of v after elimination against an RREF basis."""
    res = np.array(v, dtype=np.int64)
    for i, c in enumerate(pivots):
        coef = int(res[c])
        if coef:
            res = spec.sub_arr(res, spec.scale_arr(coef, R[i]))
    return res


def in_row_space(R: np.ndarray, pivots: list[int], v: np.ndarray, spec: FieldSpec) -> bool:
    return not np.any(reduce_vector(R, pivots, v, spec))


def nullspace(M: np.ndarray, spec: FieldSpec) -> np.ndarray:
    """RREF basis of {v : M @ v = 0} (the dual code of the row space)."""
    M = np.asarray(M, dtype=np.int64)
    n = M.shape[1]
    R, pivots = rref(M, spec)
    free = [c for c in range(n) if c not in set(pivots)]
    out = np.zeros((len(free), n), dtype=np.int64)
    out[np.arange(len(free)), free] = 1
    out[:, pivots] = spec.neg_arr(R[:, free].T)
    # rows are already echelon-ordered by free column; reduce for canonical form
    return rref(out, spec)[0]


def matmul(A: np.ndarray, B: np.ndarray, spec: FieldSpec) -> np.ndarray:
    """A @ B over GF(q)."""
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    if spec.r == 1:
        return np.asarray(
            np.round(A.astype(np.float64) @ B.astype(np.float64)), dtype=np.int64
        ) % spec.p
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for t in range(A.shape[1]):
        col = A[:, t]
        if np.any(col):
            out = spec.add_arr(out, spec.mul_arr(col[:, None], B[t][None, :]))
    return out


def schur_rows(A: np.ndarray, B: np.ndarray, spec: FieldSpec) -> np.ndarray:
    """All componentwise products of a row of A with a row of B, deduplicated."""
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    if A is B or (A.shape == B.shape and np.array_equal(A, B)):
        iu, ju = np.triu_indices(A.shape[0])
        prod = spec.mul_arr(A[iu], B[ju])
    else:
        prod = spec.mul_arr(A[:, None, :], B[None, :, :]).reshape(-1, A.shape[1])
    if prod.shape[0] > 64:
        prod = np.unique(prod, axis=0)
    return prod
