"""Linear codes over GF(q): canonical generator matrices, duals, Schur products,
subfield subcodes, and bounded minimum-distance machinery.

A :class:`LinearCode` stores its generator in reduced row echelon form, so two
codes are equal iff their stored matrices are equal.  Distance work never claims
exactness without a certified lower bound *and* an explicit codeword witness:
the engines here either enumerate exhaustively, exclude all supports of a
given size, or search for witnesses (deterministic seeded search), and
min_distance is the one planner over them.  Its first step applies that rule
directly: when the caller's proved lower bound equals the target weight, a
verified witness of that weight makes the distance exact ("proved bound")
before anything is enumerated; a bound that is not tight costs up to
_ISD_ITERS witness iterations before the enumeration.  The enumeration is
exact over every field and holds at most _TABLE_ENTRIES word entries at once.
The support search is one syndrome split search that works over every field;
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
_BLOCK_CELLS = 1 << 21  # most digits in one block of _unit_sums


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
        if _reduced:  # an int64 matrix in RREF
            self.gen = rows
            self.pivots = np.argmax(rows != 0, axis=1).tolist() if rows.shape[1] else []
        else:
            self.gen, self.pivots = _gfmat.rref(rows, spec)
        self.n = self.gen.shape[1]
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
        v = _gfmat.field_array(v, self.spec)
        if v is None or v.shape != (self.n,):
            return False
        return _gfmat.in_row_space(self.gen, self.pivots, v, self.spec)

    def __repr__(self):
        return f"[{self.n},{self.k}]_{self.spec.q}"


# ---------------------------------------------------------------------------
# spec operations


def dual(C: LinearCode) -> LinearCode:
    """Nullspace code; involution with dim(C) + dim(dual(C)) = n.

    Read off C's stored RREF and pivots (_gfmat.nullspace_of_rref), by one
    elimination of min(k, n - k) rows.  C keeps its dual alive, but the dual
    refers back to C only weakly, so the pair forms no reference cycle; once C
    is gone its dual is recomputed.
    """
    D = C._dual_cache
    if isinstance(D, weakref.ref):
        D = D()
    if D is None:
        D = LinearCode(C.spec, _gfmat.nullspace_of_rref(C.gen, C.pivots, C.spec), _reduced=True)
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
    return _gfmat.in_row_space(outer.gen, outer.pivots, inner.gen, outer.spec)


def _positions(C: LinearCode, positions: Iterable[int], op: str) -> list[int]:
    """The distinct positions, sorted, after checking each lies in range(C.n)."""
    pos = sorted(set(int(i) for i in positions))
    if pos and not (0 <= pos[0] and pos[-1] < C.n):
        raise IndexError(f"{op} position out of range for length {C.n}")
    return pos


def puncture(C: LinearCode, positions: Iterable[int]) -> LinearCode:
    return LinearCode(C.spec, np.delete(C.gen, _positions(C, positions, "puncture"), axis=1))


def shorten(C: LinearCode, positions: Iterable[int]) -> LinearCode:
    pos = _positions(C, positions, "shorten")
    if not pos:
        return LinearCode(C.spec, C.gen)
    if C.k == 0:
        return LinearCode.zero(C.spec, C.n - len(pos))
    coeffs = _gfmat.nullspace(C.gen[:, pos].T, C.spec)  # rows x with x @ gen[:, pos] == 0
    if coeffs.shape[0] == 0:
        return LinearCode.zero(C.spec, C.n - len(pos))
    rows = _gfmat.matmul(coeffs, C.gen, C.spec)
    return LinearCode(C.spec, np.delete(rows, pos, axis=1))


# ---------------------------------------------------------------------------
# subfield subcodes (matrix-level route)


def _subfield_relabel_maps(spec: FieldSpec, s: int) -> tuple[FieldSpec, np.ndarray]:
    """The index map from GF(p^s) inside spec to the canonical GF(p^s).

    The subfield copy inside GF(p^r) is the powers of g_in = g^((q-1)/(q'-1)).
    For each primitive c of GF(p^s) in index order, g_in^t -> c^t is
    multiplicative; it is kept once it sends x + 1 to phi(x) + 1 on the
    subfield, which makes it additive too, as phi(x + y) = phi(y)(phi(x/y) + 1).
    The isomorphisms are the roots of g_in's minimal polynomial over GF(p), so
    the map kept sends g_in to the least root.
    """
    sub = make_field(spec.p, s)
    units = np.arange(sub.q - 1)
    inner = spec._exp[units * ((spec.q - 1) // (sub.q - 1))]  # g_in^t
    to_sub = np.full(spec.q, -1, dtype=np.int64)
    to_sub[0] = 0
    for c in range(1, sub.q):
        if sub.order(c) == sub.q - 1:
            to_sub[inner] = sub._exp[units * sub._log[c] % (sub.q - 1)]
            if np.array_equal(to_sub[spec.add_arr(inner, 1)], sub.add_arr(to_sub[inner], 1)):
                return sub, to_sub
    raise AssertionError("no primitive element of the subfield is an isomorphic image")


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
    sub, to_sub = _subfield_relabel_maps(spec, s)
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
    # a GF(p)-combination of GF(q) entries combines their GF(p) digits
    combined = _gfmat.matmul(lam, spec.digits_arr(B).reshape(len(B), -1), prime)
    fixed = spec.from_digits_arr(combined.reshape(len(lam), C.n, spec.r))
    assert np.all(to_sub[fixed] >= 0), "fixed vectors must have subfield entries"
    return LinearCode(sub, to_sub[fixed])


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
    """A verified weight-w codeword of C from a seeded information-set search,
    or None; deterministic for given (C, w, budget).

    Each of _ISD_ITERS random column permutations gives R, the RREF of C's
    permuted generator; its rows, then the sums R[i] + u * R[j] (i < j, u a
    unit), are tried until budget.steps sums are spent.  When 2k > n, R is
    the nullspace of the permuted dual generator: two eliminations of n - k
    rows instead of one of k, and the same matrix, since an RREF is unique
    given its row space.
    """
    spec, k, n = C.spec, C.k, C.n
    if k == 0:
        return None
    rng = np.random.default_rng(_ISD_SEED)
    units = range(1, spec.q)
    small_side = dual(C).gen if 2 * k > n else None
    steps = 0
    for _ in range(_ISD_ITERS):
        perm = rng.permutation(n)
        if small_side is None:
            R = _gfmat.rref(C.gen[:, perm], spec)[0]
        else:
            R = _gfmat.nullspace(small_side[:, perm], spec)
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
    """True iff the code is invariant under the cyclic coordinate shift.  A
    code is cyclic iff its dual is, so the side with fewer rows is shifted:
    its shifted generator rows must all be orthogonal to the other side's."""
    small, other = sorted((C, dual(C)), key=lambda code: code.k)
    shifted = np.roll(small.gen, 1, axis=1)
    return not np.any(_gfmat.matmul(shifted, other.gen.T, C.spec))


def cyclic_min_weight_upto(C: LinearCode, w_cap: int) -> DistanceResult:
    """Minimum weight of a cyclic code, certified up to w_cap.

    Every weight-w codeword of a cyclic [n,k] code has a cyclic shift with at
    most floor(w*k/n) nonzero entries inside a fixed window of k consecutive
    information positions, so enumerating all such sparse messages certifies:
    if the minimum found is <= w_cap it is the exact distance, otherwise the
    distance exceeds w_cap.  Prime fields only.  Any k cyclically consecutive
    positions of a cyclic code are an information set, so the window is
    positions 0..k-1, the pivots of the stored RREF.  Scalar multiples have
    equal weight, so a message's first nonzero coefficient is fixed to 1: a
    t-support has (p-1)^(t-1) coefficient grids, summed by _unit_sums.
    """
    spec = C.spec
    if spec.r != 1:
        raise FieldError("window enumeration implemented for prime fields")
    if not is_cyclic(C):
        raise ValueError("code is not cyclic; window bound does not apply")
    n, k, p = C.n, C.k, spec.p
    G = C.gen
    if C.pivots != list(range(k)):
        raise RuntimeError(f"cyclic code {C} has pivots {C.pivots}, not 0..k-1")
    omega = (w_cap * k) // n
    rows = np.arange(1, p, dtype=np.int64)[:, None, None] * G[:, k:] % p
    best, best_word = n + 1, None
    for t in range(1, min(omega, k) + 1):
        for sup, grids, acc in _unit_sums(rows, k, t, p, lead_one=True):
            wts = np.count_nonzero(acc, axis=2).reshape(-1)
            i = int(np.argmin(wts))
            if wts[i] + t < best:
                best = int(wts[i]) + t
                msg = np.zeros(k, dtype=np.int64)
                msg[sup[i // len(grids)]] = grids[i % len(grids)] + 1
                best_word = _gfmat.matmul(msg[None, :], G, spec)[0]
    if best <= w_cap:
        return DistanceResult(best, best, _verify_word(C, best_word, best), how="cyclic window")
    return DistanceResult(w_cap + 1, C.n, how="cyclic window")


def _unit_sums(rows, n, t, p, *, lead_one=False, through_zero=False):
    """Yield (supports, grids, acc) blocks over every t-subset of range(n), in
    lexicographic order, and every grid of units on it.

    rows[u - 1, i] holds the GF(p) digits of u times column i.  A grid lists
    a support's units as u - 1, in itertools.product order (the last position
    varies fastest); with lead_one the first unit is 1.  With through_zero
    only the subsets holding position 0 are enumerated.  acc[s, g] is the sum
    of rows[grids[g, j], supports[s, j]] over j, reduced mod p, built by
    _prefix_sums at one add an entry.  A block holds at most _BLOCK_CELLS
    digits, or one entry; a block that splits the grids holds one support, so
    the blocks' entries, concatenated, are in support-major order.
    """
    units, _, m = rows.shape
    # table[i, u - 1], unsigned and wide enough for the sum of two reduced digits
    table = rows.transpose(1, 0, 2).astype(np.min_scalar_type(2 * (p - 1)), order="C")
    free = t - lead_one
    ngrids = units**free
    gstep = max(1, min(ngrids, _BLOCK_CELLS // max(m, 1)))
    sstep = max(1, _BLOCK_CELLS // (gstep * max(m, 1))) if gstep == ngrids else 1
    places = units ** np.arange(free - 1, -1, -1, dtype=np.int64)
    grids = None
    for sup in _combination_chunks(n - through_zero, t - through_zero, sstep):
        if through_zero:
            sup = np.concatenate((np.zeros((len(sup), 1), dtype=np.int64), sup + 1), axis=1)
        for g0 in range(0, ngrids, gstep):
            g1 = min(g0 + gstep, ngrids)
            if grids is None or gstep < ngrids:  # else one grid block serves every support block
                grids = np.zeros((g1 - g0, t), dtype=np.int64)
                grids[:, lead_one:] = np.arange(g0, g1, dtype=np.int64)[:, None] // places % units
            yield sup, grids, _prefix_sums(table, sup, g0, g1, lead_one, p)


def _prefix_sums(table, sup, g0, g1, lead_one, p):
    """The acc of _unit_sums for the supports sup and the grids of rank g0 to
    g1 - 1, from table[i, u - 1], the digits of u times column i.

    The sums of sup's distinct (t-1)-prefixes are built one position at a
    time, each level's from the last by broadcasting one table row per
    (position, unit); only the grids that some grid of the block extends are
    kept.  Each support then adds one row per last unit to its prefix's sums.
    A sum of two digits below p is reduced by min(x, x - p), since in an
    unsigned dtype x - p wraps above x when x < p.
    """
    s, t = sup.shape
    units, m = table.shape[1:]
    if t == 0:
        return np.zeros((s, 1, m), dtype=table.dtype)
    free = t - lead_one
    p = table.dtype.type(p)
    if t > 1:
        # a lexicographic run of subsets leaves a (t-1)-prefix only after
        # position n - 1, and within one the last position rises
        new = np.ones(s, dtype=bool)
        np.less_equal(sup[1:, -1], sup[:-1, -1], out=new[1:])
        first, parent = np.flatnonzero(new), np.cumsum(new) - 1
    acc, lo = None, 0  # the prefix sums, and the rank of their first grid
    for j in range(t):
        u = 1 if lead_one and j == 0 else units
        span = units ** (free - (j + 1 - lead_one))  # grids of the block per prefix grid
        last = j == t - 1
        nxt = table[sup[slice(None) if last else first, j], None, :u]
        if j:
            nxt = np.add((acc[parent] if last else acc)[:, :, None], nxt)
            np.minimum(nxt, nxt - p, out=nxt)
        nxt = nxt.reshape(len(nxt), nxt.shape[1] * u, m)
        acc, lo = nxt[:, g0 // span - lo * u : (g1 - 1) // span + 1 - lo * u], g0 // span
    return acc


def _combination_chunks(n: int, t: int, rows: int):
    """All t-subsets of range(n), in lexicographic order, as int64 arrays of
    `rows` rows (the last one may be shorter).

    Each chunk is unranked in numpy, a position at a time.  Let rem count the
    subsets at or after one.  Its first position c is the least with
    C(n - 1 - c, t) < rem, and the rest is a (t-1)-subset above c with
    rem - C(n - 1 - c, t) at or after it.  The searches run on -rem, which
    rises along a chunk.
    """
    total = math.comb(n, t)
    # counts above total compare alike, and so are clipped to it, inside int64
    cap = min(total, (1 << 63) - 1)
    # tails[j - 1][c] = -C(n - 1 - c, j), nondecreasing in c, by Pascal's rule
    col, tails = [1] * n, []  # col[x] = C(x, j), clipped at cap
    for _ in range(t):
        col = [0, *itertools.accumulate(col[:-1], lambda x, y: min(x + y, cap))]
        tails.append(-np.array(col[::-1], dtype=np.int64))
    for lo in range(0, total, rows):
        key = np.arange(lo - total, min(lo + rows, total) - total, dtype=np.int64)  # -rem
        sup = np.empty((len(key), t), dtype=np.int64)
        for j, tail in enumerate(reversed(tails)):
            sup[:, j] = c = np.searchsorted(tail, key, side="right")
            key -= tail[c]
        yield sup


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


def _keys(acc: np.ndarray, p: int) -> np.ndarray:
    """int64 key of each entry of a _unit_sums block, support-major: its GF(p)
    digits packed base p, lowest first, by Horner's rule in place."""
    keys = np.zeros(acc.shape[:2], dtype=np.int64)
    for d in range(acc.shape[2] - 1, -1, -1):
        keys *= p
        keys += acc[:, :, d]
    return keys.reshape(-1)


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """np.argsort(keys, kind="stable") for int64 keys, from the faster
    default argsort.

    The default sort leaves each run of equal keys in some order; numbering
    the runs and sorting run << bits | index once puts every run back in
    index order.  Needs fewer than 2^31 keys.  Besides keys it holds two
    int64 and one bool per entry: the order, the sorted keys (overwritten by
    their run numbers) and the comparison that numbers the runs.
    """
    order = np.argsort(keys)
    runs = keys[order]
    np.cumsum(runs[1:] != runs[:-1], out=runs[1:])
    runs[:1] = 0
    bits = len(keys).bit_length()
    runs <<= bits
    runs |= order
    runs.sort()
    runs &= (1 << bits) - 1
    return runs


def _high_half(rows, n, b, p, bgrids):
    """The split search's high half-table at level b: its sorted keys, their
    order (each an entry's index in enumeration order, support-major), the
    supports and, per sorted key, its support's first position (n for b = 0).
    Ties keep enumeration order, so a run's last entry starts latest."""
    keys, sups = [], []
    for sup, grids, acc in _unit_sums((p - rows) % p, n, b, p):  # negated syndromes
        keys.append(_keys(acc, p))
        if not grids[0].any():  # the grids start over: a new block of supports
            sups.append(sup)
    keys, sups = np.concatenate(keys), np.concatenate(sups)
    order = _stable_order(keys)
    keys = keys[order]
    first = (sups[:, 0] if b else np.full(len(sups), n))[order // bgrids]
    return keys, order, sups, first


def syndrome_split_search(
    C: LinearCode, w_max: int, budget: SearchBudget | None = None
) -> tuple[int, np.ndarray | None]:
    """Exact search for codewords of weight <= w_max via syndrome collisions.

    Works over every field.  Each weight-w support splits uniquely into its
    ceil(w/2) lowest and floor(w/2) highest positions.  Both halves are
    enumerated by _unit_sums as arrays of syndrome keys (the low half with
    leading coefficient 1, the high half negated; levels 2b and 2b + 1 share
    one high half), and a sorted join finds every cancelling pair; a key match counts only once the word passes
    membership in C, so each completed level is an exhaustive certificate.
    When is_cyclic(C) holds, only low halves whose lowest position is 0 are
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
    n, p = C.n, spec.p
    rows = cyclic = None
    held = -1  # the level b of the high half-table held
    for w in range(1, min(w_max, n) + 1):
        a, b = (w + 1) // 2, w // 2
        a_count = math.comb(n, a) * (spec.q - 1) ** (a - 1)
        b_count = math.comb(n, b) * (spec.q - 1) ** b
        # the high half peaks at four int64 per entry while bfirst is gathered
        # (sorted key, order, order // bgrids, first position), plus b int64
        # positions per support; _stable_order peaks at three and a bit
        table_bytes = 8 * (4 * b_count + b * math.comb(n, b))
        if a_count + b_count > budget.steps or table_bytes > _SPLIT_TABLE_BYTES:
            return w - 1, None
        if rows is None:
            rows, cyclic = _syndrome_sketch(C), is_cyclic(C)
        bgrids = (spec.q - 1) ** b
        if b != held:  # levels 2b and 2b + 1 share one high half-table
            bkeys = order = bsup = bfirst = None  # freed before the next one is built
            bkeys, order, bsup, bfirst = _high_half(rows, n, b, p, bgrids)
            held = b
        for asup, agrids, acc in _unit_sums(rows, n, a, p, lead_one=True, through_zero=cyclic):
            akeys = _keys(acc, p)
            aorder = np.argsort(akeys)  # sorted needles keep the searches cache-local
            lo = np.searchsorted(bkeys, akeys[aorder])
            hi = np.searchsorted(bkeys, akeys[aorder], side="right")
            alast = asup[aorder // len(agrids), -1]
            # matches in enumeration order, so the word is the first low half
            # with a verified completion whatever the block size
            cand = np.flatnonzero((hi > lo) & (bfirst[hi - 1] > alast))
            for i in cand[np.argsort(aorder[cand])]:
                x = aorder[i]
                for pos in range(hi[i] - 1, lo[i] - 1, -1):
                    if bfirst[pos] <= alast[i]:
                        break
                    y = order[pos]
                    word = np.zeros(n, dtype=np.int64)
                    word[asup[x // len(agrids)]] = agrids[x % len(agrids)] + 1
                    bgrid = np.unravel_index(y % bgrids, (spec.q - 1,) * b)  # product order
                    word[bsup[y // bgrids]] = np.add(bgrid, 1)
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

    1. When `lower`, a bound the caller has proved, equals `target`, the
       seeded information-set search first looks for a weight-`target`
       codeword; one it finds makes d = `lower` exact ("proved bound") and
       nothing is enumerated.  Without a word, a code too large for step 2
       gets [`lower`, n], the bracket step 4 would give; a small code is
       enumerated, so a `lower` that is not tight costs up to _ISD_ITERS
       witness iterations before the enumeration.
    2. A code with at most _ENUMERATION_CAP codewords is enumerated, exactly.
    3. Otherwise the lower end is `lower`, or else one more than the weight
       the support search excluded, searching up to `target` (or its level
       cap); a word it finds closes the bracket.
    4. When `target` is given and the lower end is at most `target`, the
       seeded information-set search looks for a weight-`target` codeword for
       the upper end.  Without one the upper end is n.

    The result's `how` is "exhaustive enumeration", "proved bound", "low-weight
    support search" (a word closed the bracket) or "support exclusion".
    """
    if C.k == 0:
        raise ValueError("minimum distance of the zero code is undefined")
    budget = budget or SearchBudget()
    if lower is not None and lower == target:
        # lower <= d, and a weight-target word gives d <= target = lower
        wit = _isd_witness(C, target, budget)
        if wit is not None or C.spec.q**C.k > _ENUMERATION_CAP:
            return DistanceResult(lower, C.n if wit is None else target, wit, how="proved bound")
    if C.spec.q**C.k <= _ENUMERATION_CAP:
        return exhaustive_min_weight(C)
    how = "proved bound"
    if lower is None:
        excluded, word = low_weight_search(C, target or C.n, budget)
        lower = excluded + 1
        if word is not None:
            return DistanceResult(lower, lower, word, how="low-weight support search")
        how = "support exclusion"
    wit = _isd_witness(C, target, budget) if target is not None and lower <= target else None
    return DistanceResult(lower, C.n if wit is None else target, wit, how=how)
