"""Exact arithmetic in GF(p^r): field construction, traces, roots of unity.

Elements are encoded by their index ``sum(c_i * p**i)`` where ``(c_0, ..., c_{r-1})``
are the coordinates in the polynomial basis ``{1, x, ..., x^{r-1}}`` modulo a fixed
irreducible polynomial.  The modulus is the first irreducible monic polynomial of
degree r in element-index order, which makes every field construction deterministic
and reproducible across runs.  ``FieldSpec.digits_arr`` is the one map from indices
to these coordinates, and ``from_digits_arr`` its inverse.

Each operation has one rule.  Multiplication, inversion and powers read a
discrete-log table pair (exp/log), built for q <= 2^20.  Addition is XOR of
indices in characteristic 2 and a digit-wise sum mod p otherwise.  Negation is
one gather from a q-entry table of (p - 1) * x, the identity in characteristic
2, and subtraction adds the negation.  The rules are numpy ops on index arrays,
which the matrix kernels use; the scalar add, neg, sub and pow call them.  For
q <= 2^10, products and odd-characteristic sums are single gathers from q x q
int64 tables built by the same rules.

The matrix kernels store elements in ``FieldSpec.dtype``, the narrowest
unsigned dtype that holds q - 1 (uint8 for q <= 256), and change a matrix
through one row update, ``sub_scaled_rows(X, c, y)`` = the rows X[i] - c[i] * y.
For q <= 2^10 it reads narrow copies of the tables, built on first use: the
products are row gathers from the product table, and the difference is XOR in
characteristic 2 or, for odd p, one gather from a flat table of x - z keyed
x + q * z.  Above 2^10 it takes the log rule.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Sequence

import numpy as np

_LOG_TABLE_LIMIT = 1 << 20
# q x q operation tables cost 8 q^2 bytes each (8 MiB at the bound)
_OP_TABLE_LIMIT = 1 << 10


class FieldError(ValueError):
    """Raised for invalid field constructions or cross-field arithmetic."""


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p) (coefficient lists, ascending degree)


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mod(a: list[int], m: Sequence[int], p: int) -> list[int]:
    """Remainder of a modulo the monic polynomial m, over GF(p)."""
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, c in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * c) % p
        a.pop()
    return _poly_trim(a)


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _poly_trim(out)


def _is_irreducible(f: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg(f)//2."""
    r = len(f) - 1
    if r <= 0:
        return False
    for d in range(1, r // 2 + 1):
        for idx in range(p**d):
            div = _digits(idx, p, d) + [1]
            if not _poly_mod(f, div, p):
                return False
    # degree-1 factors are covered above for r >= 2; for r == 1 everything monic
    # of degree 1 is irreducible
    return True


def _digits(idx: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(idx % p)
        idx //= p
    return out


def _ilog(n: int, base: int) -> int | None:
    """k with base**k == n, or None when n is not a power of base."""
    k = 0
    while base > 1 and n > 1 and n % base == 0:
        n, k = n // base, k + 1
    return k if n == 1 else None


def _order_mod(a: int, n: int) -> int:
    """Multiplicative order of a modulo n (1 when n = 1)."""
    if math.gcd(a, n) != 1:
        raise FieldError(f"{a} is not invertible mod {n}")
    k = 1
    while pow(a, k, n) != 1 % n:
        k += 1
    return k


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------


class FieldSpec:
    """Immutable description of GF(p^r) with precomputed arithmetic tables.

    Do not construct directly; use :func:`make_field` (cached, one instance per
    (p, r) pair, so identity comparison works for spec-mismatch checks).
    """

    __slots__ = (
        "p", "r", "q", "dtype", "modulus", "_exp", "_log", "_gidx",
        "_neg", "_add", "_mul", "_row_tables", "_frob_table",
    )

    def __init__(self, p: int, r: int, modulus: tuple[int, ...]):
        self.p = p
        self.r = r
        self.q = p**r
        # the narrowest unsigned dtype that holds an element index
        self.dtype = np.min_scalar_type(self.q - 1)
        self.modulus = modulus
        self._build_tables()
        self._row_tables = None  # sub_scaled_rows' narrow tables, built on first use
        self._frob_table: dict[int, np.ndarray] = {}

    # -- construction ------------------------------------------------------

    def _raw_mul(self, a: int, b: int) -> int:
        pa = _digits(a, self.p, self.r)
        pb = _digits(b, self.p, self.r)
        prod = _poly_mod(_poly_mul(pa, pb, self.p), self.modulus, self.p)
        return sum(c * self.p**i for i, c in enumerate(prod))

    def _raw_pow(self, a: int, e: int) -> int:
        out, base = 1, a
        while e:
            if e & 1:
                out = self._raw_mul(out, base)
            base = self._raw_mul(base, base)
            e >>= 1
        return out

    def _build_tables(self) -> None:
        q = self.q
        if q > _LOG_TABLE_LIMIT:
            raise FieldError(f"field GF({q}) exceeds the table limit 2^20")
        # over GF(p) the index is the integer itself, so products are mod p
        # and need no polynomial helpers
        if self.r == 1:
            power, mul = (lambda a, e: pow(a, e, q)), (lambda a, b: a * b % q)
        else:
            power, mul = self._raw_pow, self._raw_mul
        # least element index of multiplicative order q-1
        factors = _prime_factors(q - 1) if q > 2 else []
        g = 1
        if q > 2:
            for cand in range(2, q):
                if all(power(cand, (q - 1) // f) != 1 for f in factors):
                    g = cand
                    break
        self._gidx = g
        powers = [1] * (q - 1)  # powers[k] = g^k
        for k in range(1, q - 1):
            powers[k] = mul(powers[k - 1], g)
        exp = np.zeros(max(2 * (q - 1), 1), dtype=np.int64)
        exp[: q - 1] = powers
        exp[q - 1:] = exp[: q - 1][: exp.size - (q - 1)]
        log = np.zeros(q, dtype=np.int64)
        log[exp[: q - 1]] = np.arange(q - 1)
        log[0] = -1  # sentinel; log of zero must never be used unmasked
        self._exp = exp
        self._log = log
        idxs = np.arange(q, dtype=np.int64)
        self._neg = self._mul_log(self.p - 1, idxs)  # index p - 1 is -1; identity in char 2
        self._add = self._mul = None
        if q <= _OP_TABLE_LIMIT:
            a, b = idxs[:, None], idxs[None, :]
            self._mul = self._mul_log(a, b)
            if self.p != 2:
                self._add = self._add_digits(a, b)

    # -- scalar ops on element indices ------------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self.add_arr(a, b))

    def neg(self, a: int) -> int:
        return int(self.neg_arr(a))

    def sub(self, a: int, b: int) -> int:
        return int(self.sub_arr(a, b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self._exp[self._log[a] + self._log[b]])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("division by zero in " + self.name)
        return int(self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0 and e < 0:
            raise ZeroDivisionError("0 to a negative power")
        return int(self.pow_arr(a, e))

    def order(self, a: int) -> int:
        """Multiplicative order of a nonzero element."""
        if a == 0:
            raise FieldError("zero has no multiplicative order")
        return (self.q - 1) // math.gcd(int(self._log[a]), self.q - 1)

    # -- vectorized ops on numpy index arrays ------------------------------

    def digits_arr(self, a) -> np.ndarray:
        """The GF(p) coordinates of each index on a new last axis, in the
        narrowest unsigned dtype that holds p - 1."""
        a = np.asarray(a, dtype=np.uint32)  # q <= 2^20; 32-bit division is the fast one
        out = np.empty(a.shape + (self.r,), dtype=np.min_scalar_type(self.p - 1))
        for i in range(self.r):
            quot = a // self.p
            out[..., i] = a - quot * self.p
            a = quot
        return out

    def from_digits_arr(self, d) -> np.ndarray:
        """Indices of the GF(p) coordinates on the last axis of d (at most r)."""
        d = np.asarray(d)
        out = np.zeros(d.shape[:-1], dtype=np.int64)
        for i in reversed(range(d.shape[-1])):
            out *= self.p
            out += d[..., i]
        return out

    def _add_digits(self, a, b) -> np.ndarray:
        """a + b digit by digit; each digit sum, below 2p, drops p once it reaches p."""
        s = np.add(self.digits_arr(a), self.digits_arr(b), dtype=np.min_scalar_type(2 * self.p - 2))
        s -= (s >= self.p) * s.dtype.type(self.p)
        return self.from_digits_arr(s)

    def _mul_log(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
        out = np.zeros(a.shape, dtype=np.int64)
        nz = (a != 0) & (b != 0)
        out[nz] = self._exp[self._log[a[nz]] + self._log[b[nz]]]
        return out

    def add_arr(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.p == 2:  # XOR is far cheaper than a table gather
            return a ^ b
        if self._add is not None:
            return self._add[a, b]
        return self._add_digits(a, b)

    def sub_arr(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.add_arr(a, self.neg_arr(b))

    def neg_arr(self, a: np.ndarray) -> np.ndarray:
        return self._neg[a]

    def mul_arr(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self._mul is not None:
            return self._mul[a, b]
        return self._mul_log(a, b)

    def scale_arr(self, c: int, a: np.ndarray) -> np.ndarray:
        """c * a for a scalar c and index array a: a gather from row c of the table."""
        if self._mul is not None:
            return self._mul[c][a]
        return self._mul_log(c, a)

    def sub_scaled_rows(self, X: np.ndarray, c: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The rows X[i] - c[i] * y, for X in ``self.dtype``, in that dtype (see
        the module docstring).  For odd p the product table holds q * (a * b)
        as keys, 16-bit up to q = 256, so a key x + q * z needs one add."""
        if self.q > _OP_TABLE_LIMIT:
            prod = self._mul_log(np.asarray(c)[:, None], y)
            if self.p == 2:
                return X ^ prod.astype(X.dtype)
            return self._add_digits(X, self._neg[prod]).astype(X.dtype)
        if self._row_tables is None:
            if self.p == 2:
                self._row_tables = (self._mul.astype(self.dtype), None)
            else:
                # row z of _add[_neg] is x - z over x, so x - z sits at x + q * z
                diff = self._add[self._neg].astype(self.dtype).ravel()
                keys = (self._mul * self.q).astype(np.min_scalar_type(diff.size - 1))
                self._row_tables = (keys, diff)
        prod, diff = self._row_tables
        z = prod.take(c, axis=0).take(y, axis=1)
        if diff is None:
            return X ^ z
        z += X
        return diff.take(z)

    def inv_arr(self, a: np.ndarray) -> np.ndarray:
        if np.any(a == 0):
            raise ZeroDivisionError("division by zero in " + self.name)
        return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]

    def pow_arr(self, a: np.ndarray, e: int) -> np.ndarray:
        """Elementwise a**e with the 0**0 == 1 convention."""
        a = np.asarray(a)
        out = np.zeros(a.shape, dtype=np.int64)
        nz = a != 0
        out[nz] = self._exp[self._log[a[nz]] * (e % (self.q - 1)) % (self.q - 1)]
        if e == 0:
            out[~nz] = 1
        return out

    def frobenius_arr(self, a: np.ndarray, qprime: int) -> np.ndarray:
        """Elementwise a**qprime via a cached permutation table."""
        tab = self._frob_table.get(qprime)
        if tab is None:
            idxs = np.arange(self.q, dtype=np.int64)
            tab = self.pow_arr(idxs, qprime)
            self._frob_table[qprime] = tab
        return tab[a]

    # -- structure ---------------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        return tuple(self.digits_arr(a).tolist())

    def from_coeffs(self, coeffs: Iterable[int]) -> int:
        c = [ci % self.p for ci in coeffs]
        if len(c) > self.r:
            raise FieldError(f"too many coefficients for {self.name}")
        return int(self.from_digits_arr(np.array(c, dtype=np.int64)))

    def trace(self, a: int) -> int:
        """tr(a) = a + a^p + ... + a^{p^{r-1}}, an element of the prime field."""
        out, t = 0, a
        for _ in range(self.r):
            out = self.add(out, t)
            t = self.pow(t, self.p)
        return out

    def subfield_indices(self, s: int) -> np.ndarray:
        """Indices of all elements of the subfield GF(p^s), s | r."""
        if self.r % s != 0:
            raise FieldError(f"GF({self.p}^{s}) is not a subfield of {self.name}")
        idxs = np.arange(self.q, dtype=np.int64)
        return idxs[self.frobenius_arr(idxs, self.p**s) == idxs]

    @property
    def name(self) -> str:
        return f"GF({self.p})" if self.r == 1 else f"GF({self.p}^{self.r})"

    def __repr__(self) -> str:
        return f"FieldSpec({self.name}, modulus={list(self.modulus)})"

    def __call__(self, value: int | Iterable[int]) -> "FieldElement":
        if isinstance(value, (int, np.integer)):
            if not 0 <= value < self.q:
                value = value % self.p if self.r == 1 else value
                if not 0 <= value < self.q:
                    raise FieldError(f"index {value} out of range for {self.name}")
            return FieldElement(self, int(value))
        return FieldElement(self, self.from_coeffs(value))


class FieldElement:
    """A single element of a :class:`FieldSpec`, with operator overloads."""

    __slots__ = ("spec", "idx")

    def __init__(self, spec: FieldSpec, idx: int):
        self.spec = spec
        self.idx = idx

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.spec is not self.spec:
                raise FieldError("elements live in different fields")
            return other
        if isinstance(other, (int, np.integer)):
            return self.spec(int(other))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        return FieldElement(self.spec, self.spec.add(self.idx, other.idx))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return FieldElement(self.spec, self.spec.sub(self.idx, other.idx))

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        other = self._coerce(other)
        return FieldElement(self.spec, self.spec.mul(self.idx, other.idx))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        return FieldElement(self.spec, self.spec.div(self.idx, other.idx))

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __pow__(self, e: int):
        return FieldElement(self.spec, self.spec.pow(self.idx, e))

    def __neg__(self):
        return FieldElement(self.spec, self.spec.neg(self.idx))

    def __eq__(self, other):
        if isinstance(other, (int, np.integer)):
            other = self.spec(int(other))
        return (
            isinstance(other, FieldElement)
            and other.spec is self.spec
            and other.idx == self.idx
        )

    def __hash__(self):
        return hash((id(self.spec), self.idx))

    def __bool__(self):
        return self.idx != 0

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.spec.coeffs(self.idx)

    def trace(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec.trace(self.idx))

    def order(self) -> int:
        return self.spec.order(self.idx)

    def __repr__(self):
        if self.spec.r == 1:
            return f"{self.idx}"
        return f"{self.spec.name}[{self.idx}]"


# ---------------------------------------------------------------------------
# module-level operations


@functools.lru_cache(maxsize=None)
def make_field(p: int, r: int = 1) -> FieldSpec:
    """Construct GF(p^r) with the deterministic least irreducible modulus."""
    if _prime_factors(p) != [p]:
        raise FieldError(f"{p} is not prime")
    if r < 1:
        raise FieldError("extension degree must be >= 1")
    if p**r >= 2**63:
        raise FieldError("field too large")
    for idx in range(p**r):  # for r = 1 this is x, which no product of constants meets
        cand = tuple(_digits(idx, p, r)) + (1,)
        if _is_irreducible(cand, p):
            return FieldSpec(p, r, cand)
    raise FieldError("no irreducible polynomial found")  # pragma: no cover


def arith(a: FieldElement, b: FieldElement, op: str) -> FieldElement:
    """Dispatch one of {add, sub, mul, div} on two elements of the same field."""
    if a.spec is not b.spec:
        raise FieldError("elements live in different fields")
    try:
        fn = {"add": a.__add__, "sub": a.__sub__, "mul": a.__mul__, "div": a.__truediv__}[op]
    except KeyError:
        raise FieldError(f"unknown operation {op!r}") from None
    return fn(b)


def trace_to_prime(x: FieldElement) -> FieldElement:
    """Absolute trace down to GF(p); always lies in the prime field."""
    return x.trace()


def primitive_element(spec: FieldSpec) -> FieldElement:
    """Least-index element of multiplicative order q-1 (1 for GF(2))."""
    return FieldElement(spec, spec._gidx)


def subgroup_roots(spec: FieldSpec, n: int) -> list[FieldElement]:
    """All n-th roots of unity, n | q-1, as increasing powers of g^{(q-1)/n}."""
    if n < 1 or (spec.q - 1) % n != 0:
        raise FieldError(f"{n} does not divide q-1 = {spec.q - 1}")
    h = spec.pow(spec._gidx, (spec.q - 1) // n)
    out, acc = [], 1
    for _ in range(n):
        out.append(FieldElement(spec, acc))
        acc = spec.mul(acc, h)
    return out
