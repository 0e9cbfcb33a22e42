"""Linear codes over GF(q): canonical generator matrices, duals, Schur products,
subfield subcodes, and bounded minimum-distance machinery.

A :class:`LinearCode` stores its generator in reduced row echelon form, so two
codes are equal iff their stored matrices are equal.  Distance work never claims
exactness without a certified lower bound *and* an explicit codeword witness:
the engines here either enumerate exhaustively, exclude all supports of a
given size, or search for witnesses (deterministic seeded search), and
min_distance is the one planner over them.  The enumeration is exact over
every field and holds at most _TABLE_ENTRIES word entries at once.  The
support search is one syndrome split search that works over every field;
when its budget runs out it returns the levels it has excluded, never raising.
"""

from __future__ import annotations

import itertools
import math
import os
import weakref
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from evalcode import _gfmat
from evalcode.galois import FieldError, FieldSpec, make_field

_ENUMERATION_CAP = 1 << 26  # most codewords min_distance enumerates
_TABLE_ENTRIES = 1 << 20  # most entries in the enumeration's table of words
_SUPPORT_LEVEL_CAP = {True: 6, False: 5}  # exhaustive support search depth, keyed by q == 2
_ISD_SEED, _ISD_ITERS = 7, 400  # information-set search: permutation seed, iterations
_SPLIT_TABLE_BYTES = 1 << 30  # most bytes of one split-search level's high half-table
_WINDOW_CELLS = 1 << 20  # most word entries of one window-search block


def _steps_from_env() -> int:
    try:
        return int(os.environ.get("EVALCODE_BUDGET_STEPS", ""))
    except ValueError:
        return 10**9


@dataclass(frozen=True)
class SearchBudget:
    """Step cap for the support and witness searches; exhaustion degrades
    results, never errors.  The enumeration size, the support level cap and the split
    search's table memory are the module constants _ENUMERATION_CAP, _SUPPORT_LEVEL_CAP
    and _SPLIT_TABLE_BYTES."""

    steps: int = 0

    def __post_init__(self):
        if self.steps <= 0:
            object.__setattr__(self, "steps", _steps_from_env())


class DistanceResult:
    """Certified bracket [lower, upper] on a code's minimum distance; `how`
    names the route that certified it."""

    __slots__ = ("lower", "upper", "exact", "witness", "how")

    def __init__(self, lower: int, upper: int, witness: np.ndarray | None = None, *, how: str):
        if lower > upper:
            raise ValueError(f"invalid distance bracket [{lower}, {upper}]")
        self.lower = int(lower)
        self.upper = int(upper)
        self.exact = lower == upper
        self.witness = witness
        self.how = how

    def __repr__(self):
        if self.exact:
            return f"d={self.lower}"
        return f"d in [{self.lower},{self.upper}]"


class LinearCode:
    """A linear code over GF(q), canonically represented by its RREF generator."""

    __slots__ = ("spec", "n", "gen", "pivots", "_dual_cache", "__weakref__")

    def __init__(self, spec: FieldSpec, rows, *, _reduced: bool = False):
        self.spec = spec
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim == 1:
            rows = rows[None, :]
        self.n = rows.shape[1]
        if _reduced:
            self.gen = rows
            self.pivots = np.argmax(rows != 0, axis=1).tolist() if self.n else []
        else:
            self.gen, self.pivots = _gfmat.rref(rows, spec)
        self._dual_cache = None

    @classmethod
    def zero(cls, spec: FieldSpec, n: int) -> "LinearCode":
        return cls(spec, np.zeros((0, n), dtype=np.int64), _reduced=True)

    @classmethod
    def full(cls, spec: FieldSpec, n: int) -> "LinearCode":
        return cls(spec, np.eye(n, dtype=np.int64), _reduced=True)

    @property
    def k(self) -> int:
        return self.gen.shape[0]

    def __eq__(self, other):
        return (
            isinstance(other, LinearCode)
            and self.spec is other.spec
            and self.n == other.n
            and self.gen.shape == other.gen.shape
            and np.array_equal(self.gen, other.gen)
        )

    def __hash__(self):
        return hash((id(self.spec), self.n, self.gen.tobytes()))

    def __contains__(self, v) -> bool:
        v = np.asarray(v, dtype=np.int64)
        if v.shape != (self.n,):
            return False
        return _gfmat.in_row_space(self.gen, self.pivots, v, self.spec)

    def __repr__(self):
        return f"[{self.n},{self.k}]_{self.spec.q}"


# ---------------------------------------------------------------------------
# spec operations


def dual(C: LinearCode) -> LinearCode:
    """Nullspace code; involution with dim(C) + dim(dual(C)) = n.

    C keeps its dual alive, but the dual refers back to C only weakly, so the
    pair forms no reference cycle; once C is gone its dual is recomputed.
    """
    D = C._dual_cache
    if isinstance(D, weakref.ref):
        D = D()
    if D is None:
        D = LinearCode(C.spec, _gfmat.nullspace(C.gen, C.spec), _reduced=True)
        D._dual_cache = weakref.ref(C)
        C._dual_cache = D
    return D


def schur(C: LinearCode, D: LinearCode) -> LinearCode:
    """Componentwise-product span C * D."""
    if C.spec is not D.spec or C.n != D.n:
        raise FieldError("Schur product needs codes of equal length over one field")
    if C.k == 0 or D.k == 0:
        return LinearCode.zero(C.spec, C.n)
    return LinearCode(C.spec, _gfmat.schur_rows(C.gen, D.gen, C.spec))


def contains(outer: LinearCode, inner: LinearCode) -> bool:
    if outer.spec is not inner.spec or outer.n != inner.n:
        raise FieldError("containment needs codes of equal length over one field")
    if inner.k > outer.k:
        return False
    return all(
        _gfmat.in_row_space(outer.gen, outer.pivots, row, outer.spec) for row in inner.gen
    )


def puncture(C: LinearCode, positions: Iterable[int]) -> LinearCode:
    pos = sorted(set(int(i) for i in positions))
    if pos and not (0 <= pos[0] and pos[-1] < C.n):
        raise IndexError(f"puncture position out of range for length {C.n}")
    keep = [i for i in range(C.n) if i not in set(pos)]
    return LinearCode(C.spec, C.gen[:, keep])


def shorten(C: LinearCode, positions: Iterable[int]) -> LinearCode:
    pos = sorted(set(int(i) for i in positions))
    if pos and not (0 <= pos[0] and pos[-1] < C.n):
        raise IndexError(f"shorten position out of range for length {C.n}")
    if not pos:
        return LinearCode(C.spec, C.gen)
    if C.k == 0:
        return LinearCode.zero(C.spec, C.n - len(pos))
    sub = C.gen[:, pos]  # k x |pos|
    coeffs = _gfmat.nullspace(sub.T, C.spec)  # rows x with x @ sub == 0
    keep = [i for i in range(C.n) if i not in set(pos)]
    if coeffs.shape[0] == 0:
        return LinearCode.zero(C.spec, len(keep))
    rows = _gfmat.matmul(coeffs, C.gen, C.spec)
    return LinearCode(C.spec, rows[:, keep])


# ---------------------------------------------------------------------------
# subfield subcodes (matrix-level route)


def _subfield_relabel_maps(spec: FieldSpec, s: int) -> tuple[FieldSpec, np.ndarray, np.ndarray]:
    """Index maps between GF(p^s) inside spec and the canonical GF(p^s).

    The subfield copy inside GF(p^r) is generated by g^((q-1)/(q'-1)); it is
    identified with the standalone field by sending that generator to the least
    root of its minimal polynomial over GF(p) — a field isomorphism either way.
    """
    sub = make_field(spec.p, s)
    qp = sub.q
    to_sub = np.full(spec.q, -1, dtype=np.int64)
    from_sub = np.zeros(qp, dtype=np.int64)
    to_sub[0] = 0
    if qp == 2:
        to_sub[1] = 1
        from_sub[1] = 1
        return sub, to_sub, from_sub
    g_in = spec.pow(spec._gidx, (spec.q - 1) // (qp - 1))
    # minimal polynomial of g_in over GF(p): prod over conjugates (X - g_in^{p^t})
    conj, x = [], g_in
    while True:
        conj.append(x)
        x = spec.pow(x, spec.p)
        if x == g_in:
            break
    poly = [1]  # coefficients in spec, ascending
    for c in conj:
        nxt = [0] * (len(poly) + 1)
        for i, a in enumerate(poly):
            nxt[i + 1] = spec.add(nxt[i + 1], a)
            nxt[i] = spec.sub(nxt[i], spec.mul(a, c))
        poly = nxt
    assert all(v < spec.p for v in poly), "minimal polynomial must have prime-field coefficients"
    root = None
    for cand in range(1, qp):
        acc, powc = 0, 1
        for coef in poly:
            acc = sub.add(acc, sub.mul(coef, powc))
            powc = sub.mul(powc, cand)
        if acc == 0:
            root = cand
            break
    assert root is not None
    a_in, a_out = 1, 1
    for _ in range(qp - 1):
        to_sub[a_in] = a_out
        from_sub[a_out] = a_in
        a_in = spec.mul(a_in, g_in)
        a_out = sub.mul(a_out, root)
    return sub, to_sub, from_sub


def subfield_subcode(C: LinearCode, s: int) -> LinearCode:
    """S(C) = C ∩ GF(p^s)^n, returned over the canonical GF(p^s).

    Computed at the matrix level: C is flattened to a GF(p)-space, the
    coordinatewise q'-power Frobenius is imposed as a linear constraint, and
    the fixed vectors are relabeled into GF(p^s).  This route is deliberately
    independent of any monomial/coset structure, so it can serve as an oracle.
    """
    spec = C.spec
    if spec.r % s != 0:
        raise FieldError(f"{s} does not divide the extension degree {spec.r}")
    if s == spec.r:
        return C
    qp = spec.p**s
    sub, to_sub, _ = _subfield_relabel_maps(spec, s)
    if C.k == 0:
        return LinearCode.zero(sub, C.n)
    # GF(p)-basis of C: x^t * row for the polynomial basis elements x^t
    basis = []
    for t in range(spec.r):
        xt = spec.p**t
        basis.append(spec.scale_arr(xt, C.gen) if xt != 1 else C.gen.copy())
    B = np.concatenate(basis, axis=0)  # (r*k) x n over GF(q)
    F = spec.frobenius_arr(B, qp)
    D = spec.sub_arr(F, B)  # rows must be killed by the combination
    # expand each GF(q) entry into r GF(p) digits -> (r*k) x (r*n)
    prime = make_field(spec.p, 1)
    digs = spec.digits_arr(D).reshape(D.shape[0], -1)
    lam = _gfmat.nullspace(digs.T, prime)  # combos over GF(p)
    if lam.shape[0] == 0:
        return LinearCode.zero(sub, C.n)
    fixed = _gfmat.matmul(lam, B, spec) if spec.p != 2 else _xor_combine(lam, B)
    assert np.all(to_sub[fixed] >= 0), "fixed vectors must have subfield entries"
    return LinearCode(sub, to_sub[fixed])


def _xor_combine(lam: np.ndarray, B: np.ndarray) -> np.ndarray:
    """lam @ B over GF(2) scalars acting on GF(2^r) index vectors (XOR add)."""
    out = np.zeros((lam.shape[0], B.shape[1]), dtype=np.int64)
    for t in range(lam.shape[1]):
        rows = lam[:, t] != 0
        if np.any(rows):
            out[rows] ^= B[t]
    return out


# ---------------------------------------------------------------------------
# distance machinery


def min_weight_from(G: np.ndarray, spec: FieldSpec, start: int) -> tuple[int, np.ndarray] | None:
    """Least weight of m @ G over GF(q) for the messages m whose index (base-q
    digits, lowest first) is at least `start`, and a word attaining it; None
    when G has more than _ENUMERATION_CAP messages.

    Exact in every field: the words of the first `a` rows of G are tabulated
    once, with q^a * n <= _TABLE_ENTRIES, and each combination of the other
    rows adds its word to the whole table, so memory stays bounded whatever
    q^k is.
    """
    k, n = G.shape
    q = spec.q
    if q**k > _ENUMERATION_CAP:
        return None
    a = 0
    while a < k and q ** (a + 1) * n <= _TABLE_ENTRIES:
        a += 1
    table = np.zeros((1, n), dtype=np.int64)
    scalars = np.arange(q, dtype=np.int64)[:, None, None]
    for row in G[:a]:  # table index d * len(table) + i holds d * row + table[i]
        table = spec.add_arr(spec.mul_arr(scalars, row), table[None]).reshape(-1, n)
    size = len(table)
    best, best_word = n + 1, None
    for outer in range(start // size, q ** (k - a)):
        word = np.zeros(n, dtype=np.int64)
        for j, row in enumerate(G[a:]):
            if digit := outer // q**j % q:
                word = spec.add_arr(word, spec.scale_arr(digit, row))
        wts = np.count_nonzero(spec.add_arr(table, word), axis=1)
        wts[: max(0, start - outer * size)] = n + 1
        i = int(np.argmin(wts))
        if wts[i] < best:
            best, best_word = int(wts[i]), spec.add_arr(table[i], word)
    return best, best_word


def exhaustive_min_weight(C: LinearCode) -> DistanceResult:
    """Exact minimum weight by enumerating all q^k <= _ENUMERATION_CAP
    codewords, over every field and in bounded memory; the witness is verified."""
    if C.k == 0:
        raise ValueError("minimum distance of the zero code is undefined")
    found = min_weight_from(C.gen, C.spec, 1)
    if found is None:
        raise ValueError(f"enumeration size {C.spec.q**C.k} exceeds cap {_ENUMERATION_CAP}")
    best, word = found
    return DistanceResult(best, best, _verify_word(C, word, best), how="exhaustive enumeration")


def _verify_word(C: LinearCode, word: np.ndarray, w: int) -> np.ndarray:
    """Return word after checking it is a weight-w codeword of C.

    Raises RuntimeError: an assert would vanish under ``python -O``, and
    min_distance and the command line catch ValueError.
    """
    if np.count_nonzero(word) != w:
        raise RuntimeError(f"witness has weight {np.count_nonzero(word)}, expected {w}")
    if word not in C:
        raise RuntimeError("witness not in code")
    return word


def low_weight_search(
    C: LinearCode, w_max: int, budget: SearchBudget | None = None
) -> tuple[int, np.ndarray | None]:
    """Exhaustive support search for codewords of weight <= w_max.

    The syndrome split search stopped at the per-field level cap (5 in
    general, 6 for binary codes); levels above it are not attempted.  Returns
    (excluded, word): every weight <= excluded is certified absent; word is a
    verified codeword of weight excluded+1 if one was found.
    """
    return syndrome_split_search(C, min(w_max, _SUPPORT_LEVEL_CAP[C.spec.q == 2]), budget)


def find_weight_witness(
    C: LinearCode, w: int, budget: SearchBudget | None = None
) -> np.ndarray | None:
    """A verified codeword of weight exactly w, or None.

    Small weights go through the exhaustive support search; larger ones use a
    seeded information-set search (random column permutations, codewords from
    at most two reduced generator rows).  Deterministic.
    """
    budget = budget or SearchBudget()
    if w <= _SUPPORT_LEVEL_CAP[C.spec.q == 2]:
        excluded, word = low_weight_search(C, w, budget)
        if word is not None and int(np.count_nonzero(word)) == w:
            return word
        if word is None and excluded >= w:
            return None
    return _isd_witness(C, w, budget)


def _isd_witness(C, w, budget):
    spec, k, n = C.spec, C.k, C.n
    if k == 0:
        return None
    rng = np.random.default_rng(_ISD_SEED)
    units = range(1, spec.q)
    steps = 0
    for _ in range(_ISD_ITERS):
        perm = rng.permutation(n)
        R, piv = _gfmat.rref(C.gen[:, perm], spec)
        if len(piv) < k:
            continue
        wts = np.count_nonzero(R, axis=1)
        # a row of R is a codeword with its coordinates in perm's order
        for i in np.nonzero(wts == w)[0]:
            return _verify_word(C, R[i][np.argsort(perm)], w)
        if spec.q == 2:
            bits = _gfmat.pack_rows(R)
            for i in range(k):
                for j in range(i + 1, k):
                    steps += 1
                    if steps > budget.steps:
                        return None
                    v = bits[i] ^ bits[j]
                    if v.bit_count() == w:
                        return _verify_word(C, _gfmat.unpack_rows([v], n)[0][np.argsort(perm)], w)
        else:
            for i in range(k):
                for j in range(i + 1, k):
                    for lam in units:
                        steps += 1
                        if steps > budget.steps:
                            return None
                        v = spec.add_arr(R[i], spec.scale_arr(lam, R[j]))
                        if int(np.count_nonzero(v)) == w:
                            return _verify_word(C, v[np.argsort(perm)], w)
    return None


def is_cyclic(C: LinearCode) -> bool:
    """True iff the code is invariant under the cyclic coordinate shift: the
    shifted generator rows are all orthogonal to the dual's."""
    shifted = np.roll(C.gen, 1, axis=1)
    return not np.any(_gfmat.matmul(shifted, dual(C).gen.T, C.spec))


def cyclic_min_weight_upto(C: LinearCode, w_cap: int) -> DistanceResult:
    """Minimum weight of a cyclic code, certified up to w_cap.

    Every weight-w codeword of a cyclic [n,k] code has a cyclic shift with at
    most floor(w*k/n) nonzero entries inside a fixed window of k consecutive
    information positions, so enumerating all such sparse messages certifies:
    if the minimum found is <= w_cap it is the exact distance, otherwise the
    distance exceeds w_cap.  Prime fields only.  Scalar multiples have equal
    weight, so a message's first nonzero coefficient is fixed to 1: a
    t-support has (p-1)^(t-1) coefficient grids.  Words are sums of small
    integers reduced once mod p, exact in every prime field.
    """
    spec = C.spec
    if spec.r != 1:
        raise FieldError("window enumeration implemented for prime fields")
    if not is_cyclic(C):
        raise ValueError("code is not cyclic; window bound does not apply")
    n, k, p = C.n, C.k, spec.p
    G = None
    for off in range(n):
        colorder = [(off + t) % n for t in range(n)]
        R, piv = _gfmat.rref(C.gen[:, colorder], spec)
        if len(piv) == k and piv[-1] == k - 1:
            G = np.empty_like(R)
            G[:, colorder] = R
            window = colorder[:k]
            break
    if G is None:
        raise ValueError("no consecutive information window found")
    omega = (w_cap * k) // n
    out_cols = [c for c in range(n) if c not in set(window)]
    Gout = G[:, out_cols]
    best, best_word = n + 1, None
    for t in range(1, min(omega, k) + 1):
        for sup, grids, wts in _window_weights(Gout, t, p):
            i = int(np.argmin(wts))
            if wts[i] + t < best:
                best = int(wts[i]) + t
                msg = np.zeros(k, dtype=np.int64)
                msg[sup[i // len(grids)]] = np.append(1, grids[i % len(grids)] + 1)
                best_word = _gfmat.matmul(msg[None, :], G, spec)[0]
    if best <= w_cap:
        return DistanceResult(best, best, _verify_word(C, best_word, best), how="cyclic window")
    return DistanceResult(w_cap + 1, C.n, how="cyclic window")


def _window_weights(Gout, t, p):
    """Yield (supports, grids, weights) over all t-supports of the window.

    A word's message is 1 on a support's first position and the grid's units
    (stored as u - 1) on the others; weights[s * len(grids) + g] counts its
    nonzero entries outside the window.  Rows of Gout and of a table of their
    unit multiples, built from level 2 on, are summed in the narrowest dtype
    and reduced once, in blocks of at most _WINDOW_CELLS entries.
    """
    k, m = Gout.shape
    dtype = np.min_scalar_type(t * (p - 1)).type
    lead = Gout.astype(dtype)
    if t > 1:  # row (u-1)*k + i holds u * Gout[i] mod p
        units = np.arange(1, p, dtype=np.int64)[:, None, None]
        table = (units * Gout % p).astype(dtype).reshape(-1, m)
    ngrids = (p - 1) ** (t - 1)
    gstep = max(1, min(ngrids, _WINDOW_CELLS // max(m, 1)))
    sstep = max(1, _WINDOW_CELLS // (gstep * max(m, 1)))
    places = (p - 1) ** np.arange(t - 1, dtype=np.int64)
    for sup in _combination_chunks(k, t, sstep):
        for g0 in range(0, ngrids, gstep):
            flat = np.arange(g0, min(g0 + gstep, ngrids), dtype=np.int64)
            grids = flat[:, None] // places % (p - 1)
            acc = np.zeros((len(sup), len(grids), m), dtype=dtype)
            acc += lead[sup[:, 0], None, :]
            for j in range(t - 1):
                acc += table[grids[None, :, j] * k + sup[:, None, j + 1]]
            acc %= dtype(p)
            yield sup, grids, np.count_nonzero(acc, axis=2).reshape(-1)


def _combination_chunks(n: int, t: int, rows: int):
    """All t-subsets of range(n), in lexicographic order, as arrays of <= rows rows."""
    it = itertools.combinations(range(n), t)
    total = math.comb(n, t)
    for lo in range(0, total, rows):
        m = min(rows, total - lo)
        flat = itertools.chain.from_iterable(itertools.islice(it, m))
        yield np.fromiter(flat, dtype=np.int64, count=m * t).reshape(m, t)


def _syndrome_sketch(C: LinearCode) -> np.ndarray:
    """Per-unit syndrome rows, as GF(p) digits that pack into int64 keys.

    Row [u-1, i] holds the GF(p) digits of u * s_i, for s_i column i of a
    parity check matrix, so a syndrome's key is a sum of rows mod p in every
    field.  When those digits do not fit one key, s_i is first mapped by a
    fixed random GF(q)-linear projection, which commutes with the scalings and
    sums of the search; equal keys are then only candidates, to be confirmed
    by membership in C.
    """
    spec = C.spec
    p, width = spec.p, 1
    while p ** (width + 1) <= 1 << 63:
        width += 1
    S = dual(C).gen
    if S.shape[0] * spec.r > width:
        proj = np.random.default_rng(0).integers(0, spec.q, size=(width // spec.r, S.shape[0]))
        S = _gfmat.matmul(proj, S, spec)
    units = np.arange(1, spec.q, dtype=np.int64)
    scaled = spec.mul_arr(units[:, None, None], S.T[None, :, :])  # (q-1, n, rows of S)
    return spec.digits_arr(scaled).reshape(spec.q - 1, C.n, -1)


def _half_keys(rows, sup, grids, p, negate):
    """int64 keys of the syndromes of every (support, unit grid) pair, support-major.

    A key packs the GF(p) digits base p, lowest first, by Horner's rule in place.
    """
    dtype = np.min_scalar_type(sup.shape[1] * (p - 1)).type  # holds the unreduced sums
    rows = rows.astype(dtype, copy=False)
    step = max(1, (1 << 22) // (len(grids) * (rows.shape[2] + 1)))
    out = np.zeros((len(sup), len(grids)), dtype=np.int64)
    for lo in range(0, len(sup), step):
        part = sup[lo : lo + step]
        acc = np.zeros((len(part), len(grids), rows.shape[2]), dtype=dtype)
        for j in range(sup.shape[1]):
            acc += rows[grids[None, :, j], part[:, None, j]]
        acc %= dtype(p)
        if negate:
            acc = (dtype(p) - acc) % dtype(p)
        keys = out[lo : lo + step]
        for d in range(rows.shape[2] - 1, -1, -1):
            keys *= p
            keys += acc[:, :, d]
    return out.reshape(-1)


def syndrome_split_search(
    C: LinearCode, w_max: int, budget: SearchBudget | None = None
) -> tuple[int, np.ndarray | None]:
    """Exact search for codewords of weight <= w_max via syndrome collisions.

    Works over every field.  Each weight-w support splits uniquely into its
    ceil(w/2) lowest and floor(w/2) highest positions.  Both halves are
    enumerated as arrays of syndrome keys (the low half with leading
    coefficient 1, the high half negated), and a sorted join finds every
    cancelling pair; a key match counts only once the word passes membership
    in C, so each completed level is an exhaustive certificate.  When
    is_cyclic(C) holds, only low halves whose lowest position is 0 are
    enumerated: every word has a cyclic shift of equal weight whose support
    holds 0, and 0 is then in its low half.  Returns (excluded, word) like
    low_weight_search.  A level whose two half-tables would hold more than
    budget.steps entries (counting every low half, reduced or not), or whose
    high half-table would take more than _SPLIT_TABLE_BYTES, is not
    attempted: the search returns (w-1, None) there and never raises for lack
    of budget or memory.
    """
    spec = C.spec
    budget = budget or SearchBudget()
    n, p, units = C.n, spec.p, range(spec.q - 1)  # unit u is stored as u - 1
    rows = cyclic = None
    for w in range(1, min(w_max, n) + 1):
        a, b = (w + 1) // 2, w // 2
        a_count = math.comb(n, a) * (spec.q - 1) ** (a - 1)
        b_count = math.comb(n, b) * (spec.q - 1) ** b
        # the high half peaks at four int64 per entry while bfirst is gathered
        # (sorted key, order, order // len(bgrids), first position), plus b
        # int64 positions per support
        table_bytes = 8 * (4 * b_count + b * math.comb(n, b))
        if a_count + b_count > budget.steps or table_bytes > _SPLIT_TABLE_BYTES:
            return w - 1, None
        if rows is None:
            rows, cyclic = _syndrome_sketch(C), is_cyclic(C)
        bgrids = np.array(list(itertools.product(units, repeat=b)), dtype=np.int64)
        bsup = np.concatenate(list(_combination_chunks(n, b, 1 << 16)))
        bkeys = _half_keys(rows, bsup, bgrids, p, negate=True)
        # stable, so within a run of equal keys the high halves start in
        # increasing position and the run's last entry starts latest
        order = np.argsort(bkeys, kind="stable")
        bkeys = bkeys[order]
        bfirst = (bsup[:, 0] if b else np.full(len(bsup), n))[order // len(bgrids)]
        agrids = np.array(list(itertools.product([0], *[units] * (a - 1))), dtype=np.int64)
        arows = max(1, (1 << 18) // len(agrids))
        if cyclic:  # the (a-1)-subsets of 1..n-1, each with 0 prepended
            tails = _combination_chunks(n - 1, a - 1, arows)
            achunks = (np.insert(tail + 1, 0, 0, axis=1) for tail in tails)
        else:
            achunks = _combination_chunks(n, a, arows)
        for asup in achunks:
            akeys = _half_keys(rows, asup, agrids, p, negate=False)
            aorder = np.argsort(akeys)  # sorted needles keep the searches cache-local
            lo = np.searchsorted(bkeys, akeys[aorder])
            hi = np.searchsorted(bkeys, akeys[aorder], side="right")
            alast = asup[aorder // len(agrids), -1]
            for i in np.flatnonzero((hi > lo) & (bfirst[hi - 1] > alast)):
                x = aorder[i]
                for pos in range(hi[i] - 1, lo[i] - 1, -1):
                    if bfirst[pos] <= alast[i]:
                        break
                    y = order[pos]
                    word = np.zeros(n, dtype=np.int64)
                    word[asup[x // len(agrids)]] = agrids[x % len(agrids)] + 1
                    word[bsup[y // len(bgrids)]] = bgrids[y % len(bgrids)] + 1
                    if word in C:  # equal keys may be a collision of the sketch
                        return w - 1, _verify_word(C, word, w)
    return w_max, None


def min_distance(
    C: LinearCode,
    budget: SearchBudget | None = None,
    *,
    lower: int | None = None,
    target: int | None = None,
) -> DistanceResult:
    """Certified bracket on d(C): the one distance planner.

    1. A code with at most _ENUMERATION_CAP codewords is enumerated, exactly.
    2. Otherwise the lower end is `lower`, a bound the caller has proved, or
       else one more than the weight the support search excluded, searching
       up to `target` (or its level cap); a word it finds closes the bracket.
    3. When `target` is given and the lower end is at most `target`, the
       seeded information-set search looks for a weight-`target` codeword for
       the upper end.  Without one the upper end is n.

    The result's `how` is "exhaustive enumeration", "proved bound", "low-weight
    support search" (a word closed the bracket) or "support exclusion".
    """
    if C.k == 0:
        raise ValueError("minimum distance of the zero code is undefined")
    if C.spec.q**C.k <= _ENUMERATION_CAP:
        return exhaustive_min_weight(C)
    budget = budget or SearchBudget()
    how = "proved bound"
    if lower is None:
        excluded, word = low_weight_search(C, target or C.n, budget)
        lower = excluded + 1
        if word is not None:
            return DistanceResult(lower, lower, word, how="low-weight support search")
        how = "support exclusion"
    wit = _isd_witness(C, target, budget) if target is not None and lower <= target else None
    return DistanceResult(lower, C.n if wit is None else target, wit, how=how)
