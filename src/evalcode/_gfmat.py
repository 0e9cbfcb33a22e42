"""Internal matrix kernels over GF(q).

Matrices are numpy int64 arrays of element indices (see galois.py); rref
rejects an entry that is not one (field_array).  rref, matmul and schur_rows
split the fields one way: Python-int bitsets for GF(2), a vectorized table
path for every other field.  Every product is exact integer arithmetic, with
no floating point or BLAS.  rref returns fully reduced row-echelon forms with
pivot columns in increasing order, so RREF equality is code equality.

The GF(2) path (rref_bits) packs each row into an arbitrary-precision int and
eliminates by XOR in two passes: an echelon pass keyed by each row's lowest
set bit, then one back-substitution from the highest pivot down.

The table path holds the matrix in the field's narrow storage dtype
(FieldSpec.dtype, uint8 for q <= 256) and returns it as int64.  At pivot
column c the pivot row is zero left of c, so each step changes only the
columns from c on, all through the one row update FieldSpec.sub_scaled_rows;
matmul over every field but GF(2) accumulates through it too.  A step probes
one column, and a column with no pivot sends one search to the next column
that has one, so runs of pivot-free columns cost one call.  nullspace reads
the dual off a basis that is the identity on an information set, from one
elimination of M with its columns reversed; nullspace_of_rref, given an RREF
already, eliminates the side with fewer rows.

kernel_image gives the RREF basis of {x @ V : x @ K = 0} from one elimination
of the wide matrix [K | V], with no nullspace and no product: the reduced rows
that pivot past K's columns are zero on K and span the set.  It takes K and V
in their own integer dtype (the narrow GF(p) digits of subfield_subcode) and
widens only the rows it keeps.

Membership has one rule: an RREF R is the identity on its pivot columns, so
a row of V lies in R's row space iff its row of residual(R, pivots, V) =
V - V[:, pivots] @ R is zero; in_row_space asks it of a vector or a matrix.

Schur products (schur_rows) are deduplicated exactly on byte keys, one per
product row: GF(2) rows are bit-packed and multiplied by a bytewise AND, and
other fields key the int64 product rows of FieldSpec.mul_arr.
"""

from __future__ import annotations

import functools
import itertools
import operator

import numpy as np

from evalcode.galois import FieldSpec


# ---------------------------------------------------------------------------
# GF(2) bitset helpers


def pack_rows(M: np.ndarray) -> list[int]:
    """Pack each 0/1 row of the matrix M into a Python int (bit j = column j)."""
    M = np.ascontiguousarray(M, dtype=np.uint8)
    packed = np.packbits(M, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def unpack_rows(bits: list[int], n: int) -> np.ndarray:
    nbytes = (n + 7) // 8
    buf = b"".join(b.to_bytes(nbytes, "little") for b in bits)
    arr = np.frombuffer(buf, dtype=np.uint8).reshape(len(bits), nbytes)
    return np.unpackbits(arr, axis=1, bitorder="little")[:, :n].astype(np.int64)


def rref_bits(rows: list[int]) -> tuple[list[int], list[int]]:
    """Reduced row echelon form of GF(2) rows; returns (rows, pivot columns).

    Two passes.  The echelon pass keeps one row per pivot column, keyed by
    that row's lowest set bit: an incoming row takes away the row stored under
    its lowest set bit until that bit is new or the row is zero.  Each XOR
    clears the lowest bit and changes only higher bits, so a row meets only
    the pivots it holds.  Back-substitution then runs from the highest pivot
    down, and clears each row at `row & done`, the pivot bits of the rows
    already finished: one XOR per set bit, since a finished row is zero at
    every other finished pivot.
    """
    piv: dict[int, int] = {}  # pivot column -> row whose lowest set bit it is
    for r in rows:
        while r:
            c = (r & -r).bit_length() - 1
            other = piv.get(c)
            if other is None:
                piv[c] = r
                break
            r ^= other
    pivots = sorted(piv)
    done = 0
    for c in reversed(pivots):
        r = piv[c]
        hit = r & done
        while hit:
            bit = hit & -hit
            r ^= piv[bit.bit_length() - 1]
            hit ^= bit
        piv[c] = r
        done |= 1 << c
    return [piv[c] for c in pivots], pivots


# ---------------------------------------------------------------------------
# generic path


def _rref_generic(M: np.ndarray, spec: FieldSpec) -> tuple[np.ndarray, list[int]]:
    """rref by the table path; the reduced rows stay in ``spec.dtype``.

    Each step probes only column c below row r.  On a miss one call finds the
    next column that holds a pivot, the first nonzero column of A[r:, c:], and
    the loop stops when there is none: a run of pivot-free columns, or the
    tail of a rank-deficient matrix, costs one call.
    """
    A = np.array(M, dtype=spec.dtype)
    nrows, ncols = A.shape
    r = c = 0
    pivots: list[int] = []
    while r < nrows and c < ncols:
        nzi = A[r:, c].nonzero()[0]
        if not nzi.size:
            nxt = A[r:, c:].any(axis=0).nonzero()[0]
            if not nxt.size:
                break
            c += int(nxt[0])
            nzi = A[r:, c].nonzero()[0]
        piv = r + int(nzi[0])
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        pv = int(A[r, c])
        if pv != 1:
            A[r, c:] = spec.mul_arr(spec.inv(pv), A[r, c:])
        col = A[:, c].copy()  # row i takes away col[i] times the pivot row
        col[r] = 0
        hit = col.nonzero()[0]
        if hit.size:
            A[hit, c:] = spec.sub_scaled_rows(A.take(hit, axis=0)[:, c:], col.take(hit), A[r, c:])
        pivots.append(c)
        r += 1
        c += 1
    return A[:r], pivots


def field_array(M, spec: FieldSpec) -> np.ndarray | None:
    """M as int64 if every entry is an element index 0..q-1, else None.  The
    cast alone would truncate 1.5 or turn NaN into some integer."""
    M = np.asarray(M)
    with np.errstate(invalid="ignore"):
        A = M.astype(np.int64, copy=False)
    if A is not M and not np.array_equal(A, M):
        return None
    # a negative entry reads as at least 2^63 unsigned: one max checks both ends
    return A if not A.size or A.view(np.uint64).max() < spec.q else None


def rref(M: np.ndarray, spec: FieldSpec) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(q); returns (matrix, pivot columns).
    A vector is one row.  Raises ValueError if M has more than two dimensions
    or an entry is not an element index 0..q-1."""
    M = field_array(M, spec)
    if M is None:
        raise ValueError(f"matrix entries over {spec.name} must be integers in 0..{spec.q - 1}")
    if M.ndim > 2:
        raise ValueError(f"rref takes a vector or a matrix, not an array of shape {M.shape}")
    M = np.atleast_2d(M)
    if M.shape[0] == 0:
        return M.copy(), []
    if spec.q == 2:
        bits, pivots = rref_bits(pack_rows(M))
        return unpack_rows(bits, M.shape[1]), pivots
    R, pivots = _rref_generic(M, spec)
    return R.astype(np.int64), pivots


def residual(R: np.ndarray, pivots: list[int], V: np.ndarray, spec: FieldSpec) -> np.ndarray:
    """V - V[:, pivots] @ R for R in RREF, a vector or matrix V; it multiplies
    only the rows of R that some row of V uses."""
    V = np.asarray(V, dtype=np.int64)
    coef = np.atleast_2d(V)[:, pivots]
    used = np.any(coef, axis=0)
    return spec.sub_arr(V, matmul(coef[:, used], R[used], spec).reshape(V.shape))


def in_row_space(R: np.ndarray, pivots: list[int], v: np.ndarray, spec: FieldSpec) -> bool:
    """Whether v, or every row of a matrix v, lies in the row space of R."""
    return not np.any(residual(R, pivots, v, spec))


def _dual_basis(S: np.ndarray, pivots: list[int], spec: FieldSpec) -> np.ndarray:
    """Basis of {v : S @ v = 0} for S with S[:, pivots] the identity: the row
    for free column f is e_f - sum_i S[i, f] e_{pivots[i]}, in increasing f."""
    free = np.delete(np.arange(S.shape[1]), pivots)
    out = np.zeros((free.size, S.shape[1]), dtype=np.int64)
    out[np.arange(free.size), free] = 1
    out[:, pivots] = spec.neg_arr(S[:, free].T)
    return out


def nullspace(M: np.ndarray, spec: FieldSpec) -> np.ndarray:
    """RREF basis of {v : M @ v = 0} (the dual code of the row space), from
    one elimination: of M with its columns reversed.

    That reduction S is the identity on its pivots P, and each row of S is
    zero after its pivot.  So the dual row of a column f off P, e_f minus
    S[:, f] on P, leads with 1 at f and is nonzero only at f and at pivots
    after f, and the dual basis is already in RREF, whatever M's rank.
    """
    M = np.atleast_2d(np.asarray(M))
    n = M.shape[1]
    Rrev, rpiv = rref(M[:, ::-1], spec)
    return _dual_basis(Rrev[:, ::-1], [n - 1 - c for c in rpiv], spec)


def nullspace_of_rref(R: np.ndarray, pivots: list[int], spec: FieldSpec) -> np.ndarray:
    """RREF basis of {v : R @ v = 0}, for R in RREF with the given pivots.

    A basis S of the row space, of rank k, with S[:, P] the identity gives a
    dual basis: the identity off P and -S^T on P.  The one elimination takes
    the side with fewer rows: if k <= n - k, nullspace(R); otherwise it
    reduces the n - k dual rows built from R.
    """
    n = R.shape[1]
    k = len(pivots)
    if k <= n - k:
        return nullspace(R, spec)
    return rref(_dual_basis(R, pivots, spec), spec)[0]


def kernel_image(K: np.ndarray, V: np.ndarray, spec: FieldSpec) -> np.ndarray:
    """RREF basis of {x @ V : x @ K = 0}, for K and V with one row per x;
    entries are element indices in any integer dtype.

    One elimination of the wide matrix [K | V].  The reduced rows that pivot
    in K have independent K parts, so a combination is zero on K exactly when
    it uses only the rows that pivot past K; those rows are zero on K, and
    their V parts are already in RREF.  Only the kept rows are widened to
    int64 (over GF(2), only they are unpacked).
    """
    kc = K.shape[1]
    W = np.concatenate([K, V], axis=1)
    if spec.q == 2:
        bits, pivots = rref_bits(pack_rows(W))
        return unpack_rows([b >> kc for b, c in zip(bits, pivots) if c >= kc], V.shape[1])
    R, pivots = _rref_generic(W, spec)
    return R[sum(c < kc for c in pivots) :, kc:].astype(np.int64)


def matmul(A: np.ndarray, B: np.ndarray, spec: FieldSpec) -> np.ndarray:
    """A @ B over GF(q), exact, for matrices A and B that multiply (else
    ValueError).  Over GF(2) a product row is the XOR of the bitset rows of B
    that the row of A selects; over every other field the product takes one
    row update per nonzero column t of A, out - (-A[:, t]) * B[t], in the
    narrow storage dtype."""
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise ValueError(f"cannot multiply a matrix of shape {A.shape} by one of shape {B.shape}")
    if spec.q == 2:
        rows = pack_rows(B)
        bits = [functools.reduce(operator.xor, itertools.compress(rows, a), 0) for a in A.tolist()]
        return unpack_rows(bits, B.shape[1])
    out = np.zeros((A.shape[0], B.shape[1]), dtype=spec.dtype)
    negT = spec.neg_arr(A.T)  # row t is -A[:, t]
    for t in np.flatnonzero(negT.any(axis=1)):
        out = spec.sub_scaled_rows(out, negT[t], B[t])
    return out.astype(np.int64)


def schur_rows(A: np.ndarray, B: np.ndarray, spec: FieldSpec) -> np.ndarray:
    """All componentwise products of a row of A with a row of B, deduplicated.

    A square (A equal to B) forms only the products of row pairs i <= j.  The
    products are deduplicated exactly as byte keys, one per row.  Over GF(2)
    the rows are bit-packed (bit j = column j) and a product is their bytewise
    AND, so a key is ceil(n/8) bytes; other fields key the int64 product row.
    The kept rows come back as int64 in key order; RREF makes them canonical.
    """
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    n = A.shape[1]
    square = A is B or (A.shape == B.shape and np.array_equal(A, B))
    mul = spec.mul_arr
    if spec.q == 2:
        A, B = (np.packbits(M.astype(np.uint8), axis=1, bitorder="little") for M in (A, B))
        mul = np.bitwise_and
    if square:
        i, j = np.triu_indices(A.shape[0])
        prod = mul(A[i], B[j])
    else:
        prod = mul(A[:, None, :], B[None, :, :]).reshape(-1, A.shape[1])
    prod = np.ascontiguousarray(prod)
    # np.unique by hand: its first call imports numpy.ma, and a signal handler
    # that calls np.unique during that import recurses in numpy's lazy loader
    keys = np.sort(prod.view(np.dtype((np.void, prod.shape[1] * prod.itemsize))).ravel())
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    kept = keys[first].view(prod.dtype).reshape(-1, prod.shape[1])
    if spec.q == 2:
        kept = np.unpackbits(kept, axis=1, count=n, bitorder="little")
    return kept.astype(np.int64)
