"""Private information retrieval schemes built from star products of codes.

A scheme stores files with a storage code C and retrieves with a retrieval
code D over the same field and point set.  Its download rate is
dim((C * D)^perp) / n, its storage overhead is dim(C) / n, and it resists
collusion of up to d(D^perp) - 1 servers; the schemes here take C and D to
be evaluation codes (or their subfield codes) on a common grid, so the star
product and the dual distance can be controlled through defining sets.

Three transitivity grades qualify how server symmetry was established:
``proved-by-structure`` (the defining set satisfies a structural criterion
that forces a transitive permutation group), ``verified-by-permutations``
(an explicit permutation subgroup was checked to preserve the code and act
transitively), and ``unverified``.

``table(kind)`` rebuilds the stored benchmark tables cell by cell; distance
cells carry certified lower bounds together with matching codewords wherever
a witness was found, and stored values judged to be transcription errors are
matched against their derived corrections (the original value is preserved
for reporting).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._report import Cell, TableRow
from .cartesian import (
    DefiningSet,
    JAffineFamily,
    delta_dual,
    delta_hyperbolic,
    delta_rm,
    evaluate,
    field_from_order,
    footprint_bound,
    footprint_distance,
    footprint_witness,
    full_affine_family,
    is_decreasing,
    minkowski_schur,
)
from .csst import hyperbolic_dual_certificate
from .cyclotomic import (
    closure,
    consecutive_union,
    dual_bch_bound,
    is_coset_closed,
    representatives,
    subfield_code,
    schur_subfield,
)
from .galois import primitive_element
from .linear_code import (
    DistanceResult,
    LinearCode,
    SearchBudget,
    certify_distance,
    cyclic_min_weight_upto,
    dual,
    exhaustive_min_weight,
    min_distance,
    puncture,
    schur,
    shorten,
    syndrome_split_search,
)

__all__ = [
    "PROVED",
    "VERIFIED",
    "UNVERIFIED",
    "PirScheme",
    "pir_params",
    "transitivity_premises",
    "verify_transitive",
    "te_pir_subfield",
    "one_var_scheme",
    "table",
]

PROVED = "proved-by-structure"
VERIFIED = "verified-by-permutations"
UNVERIFIED = "unverified"

_STATUS_RANK = {PROVED: 2, VERIFIED: 1, UNVERIFIED: 0}


def combine_transitivity(a: str, b: str) -> str:
    """The weaker of two transitivity grades (a scheme is only as symmetric
    as the less certified of its two codes)."""
    return a if _STATUS_RANK[a] <= _STATUS_RANK[b] else b


@dataclass(frozen=True, eq=False)
class PirScheme:
    """Certified parameters of a storage/retrieval code pair.

    ``privacy_lower`` is a certified lower bound on d(D^perp) - 1: the query
    distribution leaks nothing to that many colluding servers.  ``rate`` and
    ``storage_rate`` are exact rationals with denominator dividing n.
    """

    n: int
    storage: LinearCode
    retrieval: LinearCode
    privacy_lower: int
    rate: Fraction
    storage_rate: Fraction
    transitivity: str = UNVERIFIED

    def __post_init__(self):
        if self.transitivity not in _STATUS_RANK:
            raise ValueError(f"unknown transitivity grade {self.transitivity!r}")
        if self.privacy_lower < 1:
            raise ValueError("a scheme must certify privacy against at least one server")
        for f in (self.rate, self.storage_rate):
            if not isinstance(f, Fraction) or (f * self.n).denominator != 1:
                raise ValueError("rates must be fractions with denominator dividing n")
        if not (0 <= self.rate < 1 and 0 < self.storage_rate <= 1):
            raise ValueError("rates out of range")

    @classmethod
    def of(cls, C, D, CD, privacy_lower: int, transitivity: str = UNVERIFIED) -> "PirScheme":
        """The scheme storing with C and retrieving with D, whose star product is CD."""
        n = C.n
        return cls(n, C, D, privacy_lower, Fraction(n - CD.k, n), Fraction(C.k, n), transitivity)

    @property
    def rate_string(self) -> str:
        return f"{int(self.rate * self.n)}/{self.n}"

    @property
    def storage_rate_string(self) -> str:
        return f"{int(self.storage_rate * self.n)}/{self.n}"


def pir_params(
    C: LinearCode,
    D: LinearCode,
    budget: SearchBudget | None = None,
    *,
    transitivity: str = UNVERIFIED,
) -> PirScheme:
    """Scheme parameters for an arbitrary storage/retrieval pair.

    The rate is exact (a rank computation on the star product); privacy is
    the certified lower bound on d(D^perp) - 1 that `min_distance` can
    establish within the given budget.
    """
    if C.spec.q != D.spec.q or C.n != D.n:
        raise ValueError("storage and retrieval codes must share a field and length")
    CD = schur(C, D)
    dres = min_distance(dual(D), budget)
    if dres.lower < 2:
        raise ValueError("retrieval code gives no certified privacy: d(D^perp) bound is 1")
    return PirScheme.of(C, D, CD, dres.lower - 1, transitivity)


# ---------------------------------------------------------------------------
# transitivity


def _is_power_of(N: int, p: int) -> bool:
    while N % p == 0:
        N //= p
    return N == 1


def transitivity_premises(
    family: JAffineFamily, delta: DefiningSet, qprime: int | None = None
) -> str:
    """Structural criteria that force a transitive permutation action.

    Returns ``proved-by-structure`` when either (a) the grid keeps all zeros,
    every coordinate ranges over a subfield, and the defining set is
    decreasing — the affine maps x_j -> a x_j + b then preserve the code and
    act transitively — or (b) the code is a one-variable cyclic code whose
    defining set is a consecutive union of q'-classes, so the cyclic shift
    is an automorphism.  Anything else returns ``unverified``.
    """
    p = family.spec.p
    if (
        not family.J
        and all(_is_power_of(N, p) for N in family.N)
        and is_decreasing(delta)
    ):
        return PROVED
    if qprime is not None and family.m == 1 and set(family.J) == {1}:
        for i in range(len(representatives(family, qprime))):
            cu = consecutive_union(family, qprime, i)
            if tuple(cu) == tuple(delta):
                return PROVED
            if len(cu) >= len(delta):
                break
    return UNVERIFIED


def _additive_basis(spec, elems: list[int]) -> list[int] | None:
    """A basis of `elems` as an additive group over the prime subfield, or
    None when the set is not an additively closed subfield-subspace."""
    target = set(elems)
    if 0 not in target:
        return None
    span = {0}
    basis: list[int] = []
    for v in elems:
        if v in span:
            continue
        basis.append(v)
        span = {spec.add(s, spec.mul(c, v)) for s in span for c in range(spec.p)}
        if not span <= target:
            return None
    return basis if span == target else None


def _coordinate_maps(family: JAffineFamily):
    """Candidate coordinate symmetries: per-coordinate scalings by a root of
    unity of maximal order, and translations by an additive basis whenever
    the coordinate's point set is additively closed."""
    spec = family.spec
    g = primitive_element(spec).idx
    maps = []  # (coordinate index, {point value -> point value})
    for j in range(family.m):
        Nj = family.N[j]
        zs = [int(v) for v in family.root_lists()[j]]
        zset = set(zs)
        if Nj > 1 and (spec.q - 1) % (Nj - 1) == 0:
            u = spec.pow(g, (spec.q - 1) // (Nj - 1))
            if u != 1:
                table = {v: spec.mul(u, v) for v in zs}
                if set(table.values()) == zset:
                    maps.append((j, table))
        if (j + 1) not in family.J:
            basis = _additive_basis(spec, zs)
            for t in basis or ():
                maps.append((j, {v: spec.add(v, t) for v in zs}))
    return maps


def _point_permutations(family: JAffineFamily, maps) -> list[np.ndarray]:
    """Turn per-coordinate value maps into permutations of the flat point
    index (points are enumerated in row-major product order)."""
    roots = family.root_lists()
    sizes = [len(r) for r in roots]
    n = family.n_points
    perms = []
    for j, table in maps:
        stride = math.prod(sizes[j + 1 :])
        index_of = {int(v): i for i, v in enumerate(roots[j])}
        mapped = np.array([index_of[table[int(v)]] for v in roots[j]], dtype=np.int64)
        flat = np.arange(n, dtype=np.int64)
        cj = (flat // stride) % sizes[j]
        perms.append(flat + (mapped[cj] - cj) * stride)
    return perms


def verify_transitive(
    code: LinearCode,
    generators=None,
    *,
    family: JAffineFamily | None = None,
) -> str:
    """Certify coordinate transitivity of a code's automorphism group.

    Candidate permutations come from explicit `generators` (arrays mapping
    position i to its image) and/or from the structural symmetries of the
    point grid when `family` is given.  A candidate counts only if it maps
    the code onto itself (checked on row spaces); the verdict is
    ``verified-by-permutations`` exactly when the accepted permutations move
    coordinate 0 onto every coordinate.  A failed search returns
    ``unverified`` — this routine can miss symmetries but never invents one.
    """
    n = code.n
    if n > 1024:
        raise ValueError("transitivity verification is capped at length 1024")
    if n == 1:
        return VERIFIED
    perms: list[np.ndarray] = []
    if generators is not None:
        for gsrc in generators:
            arr = np.asarray(gsrc, dtype=np.int64)
            if arr.shape != (n,) or not np.array_equal(np.sort(arr), np.arange(n)):
                raise ValueError("generator is not a permutation of the coordinates")
            perms.append(arr)
    if family is not None:
        if family.n_points != n:
            raise ValueError("family point count does not match code length")
        perms.extend(_point_permutations(family, _coordinate_maps(family)))
    preserving = [
        perm for perm in perms if LinearCode(code.spec, code.gen[:, perm]) == code
    ]
    if not preserving:
        return UNVERIFIED
    seen = bytearray(n)
    seen[0] = 1
    frontier = [0]
    count = 1
    while frontier:
        nxt = []
        for x in frontier:
            for perm in preserving:
                y = int(perm[x])
                if not seen[y]:
                    seen[y] = 1
                    count += 1
                    nxt.append(y)
        frontier = nxt
    return VERIFIED if count == n else UNVERIFIED


def _pair_transitivity(
    family: JAffineFamily,
    qprime: int | None,
    dC: DefiningSet,
    C: LinearCode,
    dD: DefiningSet,
    D: LinearCode,
) -> str:
    """Best certified grade for the (C, D) pair: structural criteria first,
    explicit permutation search as a fallback where the length permits."""
    grades = []
    for delta, code in ((dC, C), (dD, D)):
        g = transitivity_premises(family, delta, qprime)
        if g == UNVERIFIED and family.n_points <= 1024:
            g = verify_transitive(code, family=family)
        grades.append(g)
    return combine_transitivity(*grades)


# ---------------------------------------------------------------------------
# named constructions


def _orbit_min(a: int, qprime: int, modulus: int) -> int:
    best = x = a % modulus
    while True:
        x = x * qprime % modulus
        if x == a % modulus:
            return best
        best = min(best, x)


def te_pir_subfield(
    family: JAffineFamily,
    qprime: int,
    a1: int | None = None,
    a2: int | None = None,
    *,
    budget: SearchBudget | None = None,
) -> PirScheme:
    """Two-variable subfield scheme with certified privacy exactly 3.

    On a full grid Z1 x Z2 (both zeros kept) with N2 - 1 dividing q' - 1,
    store with the subfield code of the three singleton classes (0,0), (0,1),
    (0,2) and retrieve with the code that adds the classes of (a1, 0) and
    (a2, 0) for two distinct nonzero first-coordinate classes.  The dual
    retrieval distance is certified to be exactly 4: a product-structure
    lower bound plus an explicit weight-4 word on a 2 x 2 subgrid.  The rate
    is checked against the guaranteed floor (n - (6 r + 5)) / n, where the
    ambient field has order q'^r.
    """
    spec = family.spec
    if family.m != 2 or family.J:
        raise ValueError("construction needs a two-coordinate grid with zeros kept")
    r, qq = 0, 1
    while qq < spec.q:
        qq *= qprime
        r += 1
    if qq != spec.q:
        raise ValueError("ambient field order must be a power of the subfield order")
    N1, N2 = family.N
    if N2 < 3:
        raise ValueError("second coordinate needs exponents 0, 1 and 2")
    if (qprime - 1) % (N2 - 1):
        raise ValueError("N2 - 1 must divide q' - 1 so second-coordinate classes are singletons")
    n1 = N1 - 1
    ladder = sorted({_orbit_min(a, qprime, n1) for a in range(1, n1)})
    if a1 is None:
        a1 = ladder[0]
    if a2 is None:
        a2 = next(a for a in ladder if a != a1 % n1 and a != _orbit_min(a1, qprime, n1))
    if a1 % n1 == 0 or a2 % n1 == 0:
        raise ValueError("retrieval classes must be nonzero")
    if _orbit_min(a1, qprime, n1) == _orbit_min(a2, qprime, n1):
        raise ValueError("the two retrieval classes must be distinct")

    dC = closure(family, qprime, DefiningSet(family, [(0, 0), (0, 1), (0, 2)]))
    assert len(dC) == 3
    dD = closure(family, qprime, DefiningSet(family, list(dC) + [(a1, 0), (a2, 0)]))
    C = subfield_code(family, qprime, dC)
    D = subfield_code(family, qprime, dD)
    n = family.n_points
    CD = schur(C, D)
    assert CD.k == len(schur_subfield(family, qprime, dC, dD))
    assert CD.k <= 6 * r + 5

    Dd = dual(D)
    bound, _ = hyperbolic_dual_certificate(family, qprime, dD, 4)
    s2 = len(family.root_lists()[1])
    wit = np.zeros(n, dtype=np.int64)
    neg = Dd.spec.neg(1)
    wit[[0, 1, s2, s2 + 1]] = [1, neg, neg, 1]
    assert int(np.count_nonzero(wit)) == 4 and wit in Dd
    if bound == 4:
        privacy = 3
    else:  # fall back to a generic certificate if the structural bound fails
        privacy = min_distance(Dd, budget).lower - 1

    return PirScheme.of(C, D, CD, privacy, _pair_transitivity(family, qprime, dC, C, dD, D))


def one_var_scheme(
    N: int,
    qprime: int,
    variant: str = "multiples",
    i: int = 1,
    *,
    budget: SearchBudget | None = None,
) -> PirScheme:
    """One-variable cyclic scheme on the q'^r - 1 points of the punctured
    line, where r is the multiplicative order of q' modulo N.

    The retrieval defining set is the union of the first i + 1 cyclotomic
    classes in minimal-representative order, so the dual distance is at
    least a_{i+1} + 1 by the consecutive-roots bound (a_{i+1} the next class
    representative) and the scheme's privacy is at least a_{i+1}.  The
    storage set is either the nu = (q'^r - 1)/N multiples of N
    (``variant="multiples"``) or the classes of 0 and N (``"two-cosets"``).
    For i = 0 the retrieval code is the repetition-like class of 0 and the
    star product equals the storage code.
    """
    if N < 2 or math.gcd(N, qprime) != 1:
        raise ValueError("N must be at least 2 and coprime to the subfield order")
    r, x = 1, qprime % N
    while x != 1:
        x = x * qprime % N
        r += 1
    q = qprime**r
    if q > 1 << 20:
        raise ValueError(f"ambient field order {q} exceeds the supported 2^20")
    family = JAffineFamily(field_from_order(q), (q,), (1,))
    n = q - 1
    nu = n // N
    if variant == "multiples":
        dC = DefiningSet(family, [(j * N,) for j in range(nu)])
    elif variant == "two-cosets":
        dC = closure(family, qprime, DefiningSet(family, [(0,), (N % n,)]))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    assert is_coset_closed(family, qprime, dC)
    ladder = representatives(family, qprime)
    if not 0 <= i < len(ladder) - 1:
        raise ValueError("class index out of range for this field")
    dD = consecutive_union(family, qprime, i)
    designed = ladder[i + 1].rep[0]

    C = subfield_code(family, qprime, dC)
    D = subfield_code(family, qprime, dD)
    CD = schur(C, D)
    if i == 0:
        assert CD == C
    bound = dual_bch_bound(family, qprime, dD)
    assert bound >= designed + 1
    assert CD.k <= len(dC) * len(dD)
    return PirScheme.of(C, D, CD, bound - 1, _pair_transitivity(family, qprime, dC, C, dD, D))


# ---------------------------------------------------------------------------
# reproduced tables

# The columns of every PIR table, in this order; each table prints a
# subsequence of them.  Stored rows list their cells in the order of the
# table's own column tuple, with rates as numerators over n.
_COLUMNS = (
    "k_C", "d_C", "k_D", "d_D", "k_Dperp", "d_Dperp", "k_CD", "d_CD",
    "k_CDperp", "d_CDperp", "storage_rate", "privacy", "rate",
)


def _row(label, style, scheme: PirScheme, printed, distances, corrections) -> TableRow:
    """A table row with one cell per printed column, in `_COLUMNS` order.

    Dimensions, rates and privacy are read from the scheme; distance cells
    from `distances`, an int or a DistanceResult per column (">=lower"
    unless exact).  Printed rates and their corrections are numerators over n.
    """
    n = scheme.n
    k_CDperp = int(scheme.rate * n)
    computed = {
        "k_C": scheme.storage.k,
        "k_D": scheme.retrieval.k,
        "k_Dperp": n - scheme.retrieval.k,
        "k_CD": n - k_CDperp,
        "k_CDperp": k_CDperp,
        "storage_rate": scheme.storage_rate_string,
        "privacy": scheme.privacy_lower,
        "rate": scheme.rate_string,
    }
    for name, d in distances.items():
        if isinstance(d, DistanceResult):
            d = d.lower if d.exact else f">={d.lower}"
        computed[name] = d
    cells = {}
    for name in _COLUMNS:
        if name not in printed:
            continue
        value, correction = printed[name], corrections.get(name)
        if name.endswith("rate"):
            value = f"{value}/{n}"
            correction = None if correction is None else f"{correction}/{n}"
        cells[name] = Cell(printed=value, computed=computed[name], correction=correction)
    return TableRow(label=label, style=style, cells=cells, scheme=scheme)


# --- full-affine tables (lengths 49 and 343) -------------------------------

_TABLE_I_COLUMNS = (
    "k_D", "k_Dperp", "k_CD", "k_CDperp", "d_D", "d_Dperp", "d_CD", "d_CDperp", "privacy", "rate",
)
_TABLE_I = [
    ("shaded", 3, (10, 39, 15, 34, 28, 5, 21, 6, 4, 34), {}),
    ("bold", 5, (8, 41, 14, 35, 28, 5, 21, 6, 4, 35), {}),
    ("shaded", 4, (15, 34, 21, 28, 21, 6, 14, 7, 5, 28), {}),
    ("bold", 6, (10, 39, 18, 31, 21, 6, 14, 7, 5, 31), {}),
    ("shaded", 5, (21, 28, 28, 21, 14, 7, 7, 14, 6, 21), {}),
    ("bold", 7, (14, 35, 23, 26, 14, 7, 7, 12, 6, 26), {}),
    ("shaded", 6, (28, 21, 34, 15, 7, 14, 6, 21, 13, 15), {}),
    ("bold", 14, (25, 24, 32, 17, 7, 14, 6, 20, 13, 17), {}),
    ("shaded", 7, (34, 15, 39, 10, 6, 21, 5, 28, 20, 10), {}),
    ("bold", 21, (34, 15, 39, 10, 6, 21, 5, 28, 20, 10), {}),
]

# product distances are not stored for this table
_TABLE_II_COLUMNS = ("k_D", "k_Dperp", "k_CD", "k_CDperp", "d_D", "d_Dperp", "privacy", "rate")
_TABLE_II = [
    ("shaded", 2, (10, 333, 20, 323, 245, 4, 3, 323), {}),
    ("bold", 4, (7, 336, 19, 324, 245, 4, 3, 324), {}),
    ("shaded", 3, (20, 323, 35, 308, 196, 5, 4, 308), {}),
    ("bold", 5, (13, 330, 29, 314, 21, 5, 4, 314), {"d_D": 196}),
    ("shaded", 4, (35, 308, 56, 287, 147, 6, 5, 287), {}),
    ("bold", 6, (16, 327, 38, 305, 147, 6, 5, 305), {}),
    ("shaded", 5, (56, 287, 84, 259, 98, 7, 6, 259), {}),
    ("bold", 7, (25, 318, 53, 290, 98, 7, 6, 290), {}),
    ("shaded", 6, (84, 259, 117, 226, 49, 14, 13, 226), {}),
    ("bold", 14, (59, 284, 98, 245, 49, 14, 13, 245), {}),
    ("shaded", 7, (117, 226, 153, 190, 42, 21, 20, 190), {}),
    ("bold", 21, (95, 248, 144, 199, 42, 21, 20, 199), {}),
    ("shaded", 8, (153, 190, 190, 153, 35, 28, 27, 153), {}),
    ("bold", 28, (120, 223, 154, 169, 35, 28, 27, 169), {"k_CD": 174}),
    ("shaded", 9, (190, 153, 226, 117, 28, 35, 34, 117), {}),
    ("bold", 35, (144, 199, 201, 142, 28, 35, 34, 142), {}),
    ("shaded", 10, (226, 117, 259, 84, 21, 42, 41, 84), {}),
    ("bold", 42, (168, 175, 225, 118, 21, 42, 41, 118), {}),
    ("shaded", 11, (259, 84, 287, 56, 14, 49, 48, 56), {}),
    ("bold", 49, (192, 151, 244, 99, 14, 49, 48, 99), {}),
    ("shaded", 12, (287, 56, 308, 35, 7, 98, 97, 35), {}),
    ("bold", 98, (265, 78, 295, 48, 7, 98, 97, 48), {}),
]


def _table_affine(m: int, fixture, columns) -> list[TableRow]:
    fam = full_affine_family(7, m)
    dC = delta_rm(7, m, 1)
    C = evaluate(fam, dC)
    d_C = footprint_distance(fam, dC)
    rows = []
    for style, s, values, corrections in fixture:
        dD = delta_rm(7, m, s) if style == "shaded" else delta_dual(fam, delta_hyperbolic(7, m, s))
        D = evaluate(fam, dD)
        dCD = minkowski_schur(fam, dC, dD)
        CD = schur(C, D)
        assert CD.k == len(dCD)
        distances = {
            "d_C": d_C,
            "d_D": footprint_distance(fam, dD),
            "d_Dperp": footprint_distance(fam, delta_dual(fam, dD)),
        }
        if "d_CD" in columns:
            distances["d_CD"] = footprint_distance(fam, dCD)
            distances["d_CDperp"] = footprint_distance(fam, delta_dual(fam, dCD))
        scheme = PirScheme.of(
            C, D, CD, distances["d_Dperp"] - 1,
            combine_transitivity(transitivity_premises(fam, dC), transitivity_premises(fam, dD)),
        )
        printed = {"k_C": m + 1, "d_C": 6 * 7 ** (m - 1), **dict(zip(columns, values))}
        rows.append(_row(f"s={s}", style, scheme, printed, distances, corrections))
    return rows


def _table_I() -> list[TableRow]:
    return _table_affine(2, _TABLE_I, _TABLE_I_COLUMNS)


def _table_II() -> list[TableRow]:
    return _table_affine(3, _TABLE_II, _TABLE_II_COLUMNS)


# --- length-48 cyclic table -------------------------------------------------

_CYC48_BOLD_REPS = {
    1: (24, 25, 32),
    2: (25, 32, 33, 34),
    3: (24, 25, 32, 33, 34, 40),
    4: (24, 25, 32, 33, 34, 40, 5, 18),
    5: (25, 32, 33, 34, 40, 5, 18, 12, 19),
    6: (25, 32, 33, 34, 40, 5, 18, 12, 19, 26),
    7: (25, 32, 33, 34, 40, 5, 18, 12, 19, 26, 41),
    8: (25, 32, 33, 34, 40, 5, 18, 12, 19, 26, 41, 11),
    9: (24, 25, 32, 33, 34, 40, 5, 18, 12, 19, 26, 41, 11, 4, 27),
}
_CYC48_BOLD_REPS[10] = _CYC48_BOLD_REPS[9] + (6,)
_CYC48_BOLD_REPS[11] = _CYC48_BOLD_REPS[10] + (17,)
_CYC48_BOLD_REPS[12] = _CYC48_BOLD_REPS[11] + (10,)
_CYC48_BOLD_REPS[13] = _CYC48_BOLD_REPS[12] + (13,)
_CYC48_BOLD_REPS[14] = _CYC48_BOLD_REPS[13] + (20, 0, 3)
_CYC48_BOLD_REPS[15] = _CYC48_BOLD_REPS[14] + (1,)
_CYC48_BOLD_REPS[16] = _CYC48_BOLD_REPS[15] + (16,)

_CYC48_BOLD_COLUMNS = ("k_D", "k_Dperp", "d_Dperp", "k_CD", "k_CDperp", "privacy", "rate")
_CYC48_BOLD = {
    1: ((4, 44, 4, 8, 40, 3, 40), {}),
    2: ((7, 41, 5, 14, 34, 4, 34), {}),
    3: ((9, 39, 6, 15, 33, 5, 33), {}),
    4: ((13, 35, 8, 23, 25, 7, 25), {}),
    5: ((16, 32, 9, 26, 22, 8, 21), {"rate": 22}),
    6: ((18, 30, 12, 28, 19, 11, 19), {"k_CDperp": 20, "rate": 20}),
    7: ((20, 28, 13, 29, 18, 12, 18), {"k_CDperp": 19, "rate": 19}),
    8: ((22, 26, 14, 31, 17, 13, 17), {}),
    9: ((27, 21, 19, 34, 14, 18, 14), {}),
    10: ((29, 19, 20, 36, 12, 19, 12), {}),
    11: ((31, 17, 21, 38, 10, 20, 10), {}),
    12: ((33, 15, 22, 40, 8, 21, 8), {}),
    13: ((35, 13, 24, 42, 6, 23, 6), {}),
    14: ((40, 8, 33, 44, 4, 32, 4), {}),
    15: ((42, 6, 34, 45, 3, 33, 3), {}),
    16: ((43, 5, 35, 46, 2, 34, 2), {}),
}

# d(D^perp) = s on these rows
_CYC48_SHADED_COLUMNS = ("k_D", "k_Dperp", "k_CD", "k_CDperp", "privacy", "rate")
_CYC48_SHADED = {
    4: (5, 43, 10, 38, 3, 38),
    5: (8, 40, 14, 34, 4, 34),
    6: (10, 38, 18, 30, 5, 30),
    8: (16, 32, 25, 23, 7, 23),
    9: (18, 30, 27, 21, 8, 21),
    12: (21, 27, 29, 19, 11, 19),
    14: (25, 23, 32, 16, 13, 16),
    20: (32, 16, 38, 10, 19, 10),
    21: (34, 14, 39, 9, 20, 9),
    24: (36, 12, 41, 7, 23, 7),
    35: (43, 5, 46, 2, 34, 2),
}

_CYC48_ORDER = [
    ("shaded", 4), ("bold", 1), ("shaded", 5), ("bold", 2), ("shaded", 6),
    ("bold", 3), ("shaded", 8), ("bold", 4), ("shaded", 9), ("bold", 5),
    ("shaded", 12), ("bold", 6), ("bold", 7), ("shaded", 14), ("bold", 8),
    ("bold", 9), ("shaded", 20), ("bold", 10), ("shaded", 21), ("bold", 11),
    ("bold", 12), ("shaded", 24), ("bold", 13), ("bold", 14), ("bold", 15),
    ("shaded", 35), ("bold", 16),
]

# How each bold row certifies d(D^perp).  "exhaustive" enumerates the code and
# "window" runs the fixed-window search that cyclicity allows; both are exact.
# The other routes differ only in where the lower bound comes from: the
# support search ("search"), an uncapped syndrome split search ("split"), or
# the consecutive-roots bound (the default, "bch"); the witness search of
# `certify_distance` supplies the upper end.
_CYC48_STRATEGY = {
    1: "search", 3: "search", 4: "split", 13: "window",
    14: "exhaustive", 15: "exhaustive", 16: "exhaustive",
}


def _certify_distance(
    Dd: LinearCode, target: int, strategy: str, budget: SearchBudget,
    *, family=None, qprime=None, delta=None,
) -> DistanceResult:
    """Certified bracket on d(Dd) aimed at the stored value `target`."""
    if strategy == "exhaustive":
        return exhaustive_min_weight(Dd)
    if strategy == "window":
        return cyclic_min_weight_upto(Dd, target)
    lower = None
    if strategy == "split":
        excluded, word = syndrome_split_search(Dd, target - 1, budget)
        if word is not None:
            return DistanceResult(excluded + 1, int(np.count_nonzero(word)), word)
        lower = excluded + 1
    elif strategy != "search":
        lower = dual_bch_bound(family, qprime, delta)
    return certify_distance(Dd, target, budget, lower=lower)


def _table_cyclic48() -> list[TableRow]:
    budget = SearchBudget()
    fam = JAffineFamily(field_from_order(49), (49,), (1,))
    dC = closure(fam, 7, DefiningSet(fam, [(24,), (25,)]))
    C = subfield_code(fam, 7, dC)
    tC = verify_transitive(C, family=fam)

    famA = full_affine_family(7, 2)
    CA = evaluate(famA, delta_rm(7, 2, 1))

    rows = []
    for style, key in _CYC48_ORDER:
        if style == "bold":
            values, corrections = _CYC48_BOLD[key]
            printed = dict(zip(_CYC48_BOLD_COLUMNS, values))
            dD = closure(fam, 7, DefiningSet(fam, [(e,) for e in _CYC48_BOLD_REPS[key]]))
            D = subfield_code(fam, 7, dD)
            CD = schur(C, D)
            assert CD.k == len(schur_subfield(fam, 7, dC, dD))
            res = _certify_distance(
                dual(D), corrections.get("d_Dperp", printed["d_Dperp"]),
                _CYC48_STRATEGY.get(key, "bch"), budget, family=fam, qprime=7, delta=dD,
            )
            tD = verify_transitive(D, family=fam)
            scheme = PirScheme.of(C, D, CD, res.lower - 1, combine_transitivity(tC, tD))
            label = f"b{key}"
        else:
            s = key
            printed = {**dict(zip(_CYC48_SHADED_COLUMNS, _CYC48_SHADED[s])), "d_Dperp": s}
            corrections = {}
            hyp = delta_hyperbolic(7, 2, s)
            H = evaluate(famA, hyp)
            word, wt = footprint_witness(famA, hyp)
            assert wt == footprint_bound(famA, hyp) == s
            idx = int(np.flatnonzero(word == 0)[0])
            Dp = puncture(dual(H), [idx])
            Cp = puncture(CA, [idx])
            Dpd = dual(Dp)
            assert Dpd == shorten(H, [idx])
            restricted = np.delete(word, idx)
            # d(Dp^perp) = s: shortening cannot lower the minimum weight of H
            # (whole-code distance s), and the witness survives restriction.
            assert int(np.count_nonzero(restricted)) == s and restricted in Dpd
            res = s
            scheme = PirScheme.of(Cp, Dp, schur(Cp, Dp), s - 1)
            label = f"s={s}"
        printed["k_C"] = 3
        rows.append(_row(label, style, scheme, printed, {"d_Dperp": res}, corrections))
    return rows


# --- length-255 binary table ------------------------------------------------

# (class index, then the stored cells in _TABLE_IV_COLUMNS order); the stored
# rate numerator is k_CDperp.
_TABLE_IV_COLUMNS = ("k_D", "k_Dperp", "d_Dperp", "k_CD", "k_CDperp", "privacy")
_TABLE_IV_ROWS = [
    (1, 9, 246, 4, 27, 228, 3),
    (2, 17, 238, 6, 51, 204, 5),
    (3, 25, 230, 8, 75, 180, 7),
    (4, 33, 222, 10, 99, 156, 9),
    (6, 49, 206, 14, 123, 132, 13),
    (7, 57, 198, 16, 147, 108, 15),
    (8, 65, 190, 18, 171, 84, 17),
    (9, 69, 186, 20, 183, 72, 19),
]


def _table_IV() -> list[TableRow]:
    budget = SearchBudget()
    fam = JAffineFamily(field_from_order(256), (256,), (1,))
    dC = DefiningSet(fam, [(0,), (85,), (170,)])
    assert is_coset_closed(fam, 2, dC)
    C = subfield_code(fam, 2, dC)
    d_C = exhaustive_min_weight(C)
    tC = verify_transitive(C, family=fam)
    rows = []
    for i, *values in _TABLE_IV_ROWS:
        printed = dict(zip(_TABLE_IV_COLUMNS, values))
        dD = consecutive_union(fam, 2, i)
        D = subfield_code(fam, 2, dD)
        CD = schur(C, D)
        assert CD.k == len(schur_subfield(fam, 2, dC, dD))
        bound = dual_bch_bound(fam, 2, dD)
        res = certify_distance(dual(D), printed["d_Dperp"], budget, lower=bound)
        tD = transitivity_premises(fam, dD, 2)
        scheme = PirScheme.of(C, D, CD, res.lower - 1, combine_transitivity(tC, tD))
        printed.update(k_C=3, d_C=85, rate=printed["k_CDperp"])
        rows.append(_row(f"i={i}", "bold", scheme, printed, {"d_C": d_C, "d_Dperp": res}, {}))
    return rows


# --- length-49 binary table -------------------------------------------------

_B1_SEEDS = ((0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (4, 0), (0, 4))
_B2_SEEDS = _B1_SEEDS + ((1, 1), (2, 2), (4, 4))

# (label, style, closure seeds, stored cells in _BERMAN_COLUMNS order)
_BERMAN_COLUMNS = ("k_D", "d_D", "k_Dperp", "d_Dperp", "k_CD", "k_CDperp", "privacy", "rate")
_BERMAN_ROWS = [
    ("B1", "bold", _B1_SEEDS, (7, 21, 42, 4, 7, 42, 3, 42)),
    ("B2", "bold", _B2_SEEDS, (10, 20, 39, 4, 10, 39, 3, 39)),
    # The stored comparison row comes from a construction whose defining set is
    # not recorded here.  B2's set plus the class of (1, 2) reproduces every
    # stored cell of the row; it is not claimed to be that construction's set.
    ("reference", "shaded", _B2_SEEDS + ((1, 2),), (13, 16, 36, 4, 13, 36, 3, 36)),
]


def _table_berman49() -> list[TableRow]:
    budget = SearchBudget()
    fam = JAffineFamily(field_from_order(8), (8, 8), (1, 2))
    dC = DefiningSet(fam, [(0, 0)])
    C = subfield_code(fam, 2, dC)
    tC = verify_transitive(C, family=fam)
    rows = []
    for label, style, seeds, values in _BERMAN_ROWS:
        printed = {"k_C": 1, "storage_rate": 1, **dict(zip(_BERMAN_COLUMNS, values))}
        dD = closure(fam, 2, DefiningSet(fam, seeds))
        D = subfield_code(fam, 2, dD)
        res = certify_distance(dual(D), printed["d_Dperp"], budget)
        CD = schur(C, D)
        assert CD == D  # the storage code is the repetition code
        tD = verify_transitive(D, family=fam)
        scheme = PirScheme.of(C, D, CD, res.lower - 1, combine_transitivity(tC, tD))
        distances = {"d_D": exhaustive_min_weight(D), "d_Dperp": res}
        rows.append(_row(label, style, scheme, printed, distances, {}))
    return rows


# --- degree-2 comparison at lengths 256 and 512 -----------------------------

_RM_CMP_SEEDS = ((0, 0), (0, 1), (1, 1), (1, 0), (3, 0), (5, 0))

# (r, style, stored cells in _RM_CMP_COLUMNS order, corrections); the stored
# privacy is 7 on every row.
_RM_CMP_COLUMNS = ("k_C", "k_D", "k_Dperp", "d_Dperp", "k_CDperp", "rate")
_RM_CMP_ROWS = [
    (7, "shaded", (1, 37, 219, 8, 219, 219), {}),
    (7, "bold", (1, 30, 228, 8, 228, 228), {"k_Dperp": 226, "k_CDperp": 226, "rate": 226}),
    (8, "shaded", (1, 46, 466, 8, 466, 466), {}),
    (8, "bold", (1, 34, 478, 8, 478, 478), {}),
]


def _table_rm_comparison() -> list[TableRow]:
    budget = SearchBudget()
    rows = []
    for r, style, values, corrections in _RM_CMP_ROWS:
        if style == "shaded":
            fam = full_affine_family(2, r + 1)
            dC = delta_rm(2, r + 1, 0)
            dD = delta_rm(2, r + 1, 2)
            C = evaluate(fam, dC)
            D = evaluate(fam, dD)
            d_exact = footprint_distance(fam, delta_dual(fam, dD))
            res = DistanceResult(d_exact, d_exact)
            tD = transitivity_premises(fam, dD)
        else:
            fam = JAffineFamily(field_from_order(2**r), (2**r, 2), ())
            dC = DefiningSet(fam, [(0, 0)])
            dD = closure(fam, 2, DefiningSet(fam, _RM_CMP_SEEDS))
            C = subfield_code(fam, 2, dC)
            D = subfield_code(fam, 2, dD)
            assert D.k <= 4 * r + 2
            bound, _ = hyperbolic_dual_certificate(fam, 2, dD, 8)
            res = certify_distance(dual(D), 8, budget, lower=bound)
            tD = verify_transitive(D, family=fam)
        CD = schur(C, D)
        assert CD == D  # degree-0 storage: the product adds nothing
        scheme = PirScheme.of(
            C, D, CD, res.lower - 1, combine_transitivity(transitivity_premises(fam, dC), tD)
        )
        printed = {"privacy": 7, **dict(zip(_RM_CMP_COLUMNS, values))}
        rows.append(_row(f"r={r}", style, scheme, printed, {"d_Dperp": res}, corrections))
    return rows


_BUILDERS = {
    "I": _table_I,
    "II": _table_II,
    "cyclic48": _table_cyclic48,
    "IV": _table_IV,
    "berman49": _table_berman49,
    "rm_comparison": _table_rm_comparison,
}


@functools.lru_cache(maxsize=None)
def table(kind: str) -> list[TableRow]:
    """Rebuild one of the stored benchmark tables.

    Kinds: "I", "II", "cyclic48", "IV", "berman49", "rm_comparison".
    Every cell pairs the stored value with the recomputed one, and every row
    carries a certified scheme.  For the "reference" row of "berman49" that
    scheme reproduces the stored parameters; it is not claimed to be the
    construction the stored row was taken from.
    """
    try:
        builder = _BUILDERS[kind]
    except KeyError:
        raise ValueError(
            f"unknown table kind {kind!r}; choose from {sorted(_BUILDERS)}"
        ) from None
    return builder()
