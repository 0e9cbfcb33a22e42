"""Monomial-Cartesian evaluation codes on mixed affine/multiplicative grids.

A family fixes per-coordinate point sets Z_j: either all roots of X^{N_j} - X
(coordinate j not in J: the zero point plus the (N_j-1)-th roots of unity) or
all roots of X^{N_j-1} - 1 (j in J: units only).  Codes are spans of monomial
evaluations over the Cartesian product of the Z_j; exponents live in the box
E_J and are reduced back into it by the relations the grids impose.

The combinatorial layer mirrors the matrix layer exactly: Schur products are
reduced Minkowski sums, duals are computed by removing every exponent whose
evaluation pairs nonzero against the set, and distances are bounded by the
footprint product.  Matrix-level counterparts in linear_code serve as oracles.

The pairing rule is one sum per coordinate, of z^(a+b) over the points of
Z_j.  The same sums give the inverse of the n x n evaluation matrix in closed
form: family.dual_row(e) is the point vector u_e with <ev(X^a), u_e> = [a = e]
for every a in the box, a product of one factor per coordinate (M^-1·h^(-e·i)
on the units, with M = N_j - 1, and 0, 1 or -1 at a zero point).  dual(C_Δ)
is the span of u_e over the box outside Δ, so evaluate eliminates whichever
of the |Δ| monomial rows and the n - |Δ| dual rows is fewer.  dual_row is
the matrix form of the pairing rule: in the basis of the u_e, ev(X^b) has
the pairings <ev(X^b), ev(X^a)> as coordinates, so it lies in dual(C_Δ) iff
b pairs zero with every member of Δ, which is what delta_dual tests.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from evalcode.galois import FieldElement, FieldError, FieldSpec, make_field, subgroup_roots
from evalcode.galois import _ilog, _prime_factors
from evalcode.linear_code import LinearCode, dual


def field_from_order(q: int) -> FieldSpec:
    """GF(q) for a prime power q."""
    primes = _prime_factors(q)
    if len(primes) != 1:
        raise FieldError(f"{q} is not a prime power")
    return make_field(primes[0], _ilog(q, primes[0]))


class JAffineFamily:
    """Ambient data (q, m, N_1..N_m, J) fixing the grid, the box E_J, and n_J."""

    __slots__ = ("spec", "m", "N", "J", "T", "shape", "_coords", "_root_lists", "_footprints")

    def __init__(self, spec: FieldSpec, N: Sequence[int], J: Iterable[int] = ()):
        self.spec = spec
        self.N = tuple(int(v) for v in N)
        self.m = len(self.N)
        self.J = frozenset(int(j) for j in J)
        if not self.J <= set(range(1, self.m + 1)):
            raise ValueError(f"J must be a subset of 1..{self.m}")
        for j, Nj in enumerate(self.N, start=1):
            if Nj < 2:
                raise ValueError(f"N_{j} = {Nj} must be at least 2")
            if (spec.q - 1) % (Nj - 1) != 0:
                raise ValueError(f"N_{j}-1 = {Nj - 1} does not divide q-1 = {spec.q - 1}")
        self.T = tuple(
            Nj - 2 if j in self.J else Nj - 1 for j, Nj in enumerate(self.N, start=1)
        )
        self.shape = tuple(t + 1 for t in self.T)  # T_j + 1 = |Z_j| on every coordinate
        self._coords = None
        self._root_lists = None
        self._footprints = None

    # -- structure ---------------------------------------------------------

    @property
    def n_points(self) -> int:
        return math.prod(self.shape)

    def box(self) -> list[tuple[int, ...]]:
        """E_J, the full exponent box, in lexicographic order."""
        return list(itertools.product(*(range(n) for n in self.shape)))

    def e_prime_box(self) -> list[tuple[int, ...]]:
        """E' = prod {0..N_j-2}, the sub-box where duality is combinatorial."""
        return list(itertools.product(*(range(Nj - 1) for Nj in self.N)))

    def root_lists(self) -> list[list[int]]:
        """Per-coordinate point sets as element indices, in evaluation order."""
        if self._root_lists is None:
            out = []
            for j, Nj in enumerate(self.N, start=1):
                mu = [x.idx for x in subgroup_roots(self.spec, Nj - 1)]
                out.append(mu if j in self.J else [0] + mu)
            self._root_lists = out
        return self._root_lists

    def coords(self) -> list[np.ndarray]:
        """m arrays of length n_J: coordinate values of every evaluation point."""
        if self._coords is None:
            roots = [np.array(r, dtype=np.int64) for r in self.root_lists()]
            grids = np.meshgrid(*roots, indexing="ij")
            self._coords = [g.reshape(-1) for g in grids]
        return self._coords

    def footprints(self) -> np.ndarray:
        """prod_j (|Z_j| - e_j) at every box entry: the footprint of each monomial."""
        if self._footprints is None:
            axes = (np.arange(z, z - t - 1, -1) for z, t in zip(self.shape, self.T))
            fp = functools.reduce(np.multiply, np.ix_(*axes))
            fp.flags.writeable = False
            self._footprints = fp
        return self._footprints

    def bar_reduce(self, e: Sequence[int]) -> tuple[int, ...]:
        """Canonical representative of an exponent vector inside E_J."""
        out = []
        for j, (ej, Nj) in enumerate(zip(e, self.N), start=1):
            if ej < 0:
                raise ValueError("negative exponent")
            if j in self.J:
                out.append(ej % (Nj - 1))
            else:
                out.append(0 if ej == 0 else (ej - 1) % (Nj - 1) + 1)
        return tuple(out)

    def bar_reduce_arr(self, e: np.ndarray) -> np.ndarray:
        """bar_reduce on each row of an int array of exponent vectors."""
        e = np.asarray(e, dtype=np.int64)
        if np.any(e < 0):
            raise ValueError("negative exponent")
        mod = np.array(self.N, dtype=np.int64) - 1
        units = np.array([j in self.J for j in range(1, self.m + 1)])
        return np.where(units | (e == 0), e % mod, (e - 1) % mod + 1)

    def monomial_row(self, e) -> np.ndarray:
        """ev(X^e), or one row per exponent vector of an (..., m) array.

        root_lists() puts h^0 .. h^(N_j - 2) after any zero point, so (h^i)^a is
        unit a·i mod (N_j - 1) and 0^a is [a = 0]; one mul_arr per coordinate
        spreads these factors over the points, in evaluation order."""
        return self._coordinate_product(e, inverse=False)

    def dual_row(self, e) -> np.ndarray:
        """u_e with <ev(X^a), u_e> = [a = e] for every a in the box, or one row
        per exponent vector of an (..., m) array: the columns of the inverse
        of the evaluation matrix, and the matrix form of delta_dual's pairing
        rule.

        On coordinate j, with M = N_j - 1, the sum of (h^i)^(a - e) over the
        units is M·[a ≡ e mod M], so a units coordinate's factor is
        M^-1·h^(-e·i).  A full coordinate adds the zero point, where X^a is
        [a = 0]: for 1 <= e <= M - 1 the factor is 0 there and M^-1·h^(-e·i)
        elsewhere, for e = 0 it is the indicator of the zero point, and for
        e = M it is -1 at the zero point and M^-1 elsewhere.  The factors
        are spread over the points by monomial_row's loop."""
        return self._coordinate_product(e, inverse=True)

    def _coordinate_product(self, e, *, inverse: bool) -> np.ndarray:
        """Rows that are products of one factor per coordinate: monomial_row's
        factor, or with inverse dual_row's."""
        spec = self.spec
        e = np.asarray(e, dtype=np.int64)
        lead = e.shape[:-1]
        row = np.ones(lead + (1,), dtype=np.int64)
        for j, roots in enumerate(self.root_lists()):
            mod = self.N[j] - 1
            a = e[..., j, None]
            power = -a if inverse else a
            factor = np.asarray(roots[len(roots) - mod :])[power % mod * np.arange(mod) % mod]
            zero = (a == 0).astype(np.int64)
            if inverse:  # the factors dual_row's docstring derives
                factor = spec.scale_arr(spec.inv(mod % spec.p), factor)
                if len(roots) > mod:
                    factor = factor * (1 - zero)
                    zero = np.where(a == mod, spec.neg(1), zero)
            if len(roots) > mod:  # the zero point
                factor = np.concatenate([zero, factor], axis=-1)
            outer = spec.mul_arr(row[..., :, None], factor[..., None, :])
            row = outer.reshape(lead + (outer.shape[-2] * outer.shape[-1],))
        return row

    def __eq__(self, other):
        return (
            isinstance(other, JAffineFamily)
            and self.spec is other.spec
            and self.N == other.N
            and self.J == other.J
        )

    def __hash__(self):
        return hash((id(self.spec), self.N, self.J))

    def __repr__(self):
        Js = "{" + ",".join(map(str, sorted(self.J))) + "}"
        return f"JAffineFamily(q={self.spec.q}, N={list(self.N)}, J={Js})"


class DefiningSet:
    """A finite set of exponent vectors inside the box E_J of one family.

    The set is a read-only boolean mask of shape family.shape; elems lists its
    members in C order, which is lexicographic order.
    """

    __slots__ = ("family", "mask", "elems")

    def __init__(self, family: JAffineFamily, elems: Iterable[Sequence[int]]):
        pts = {tuple(int(x) for x in e) for e in elems}
        for e in pts:
            if len(e) != family.m:
                raise ValueError(f"exponent {e} has wrong arity for {family}")
            if any(not 0 <= ej <= tj for ej, tj in zip(e, family.T)):
                raise ValueError(f"exponent {e} lies outside the box {family.T}")
        mask = np.zeros(family.shape, dtype=bool)
        mask[tuple(np.array(list(pts), dtype=np.int64).reshape(-1, family.m).T)] = True
        self._init(family, mask)

    @classmethod
    def from_mask(cls, family: JAffineFamily, mask: np.ndarray) -> "DefiningSet":
        """The set whose members are the True entries of a box-shaped mask."""
        mask = np.array(mask, dtype=bool)
        if mask.shape != family.shape:
            raise ValueError(f"mask of shape {mask.shape} does not fit the box {family.shape}")
        out = cls.__new__(cls)
        out._init(family, mask)
        return out

    def _init(self, family: JAffineFamily, mask: np.ndarray):
        mask.flags.writeable = False
        self.family = family
        self.mask = mask
        self.elems = tuple(map(tuple, np.argwhere(mask).tolist()))

    def __iter__(self):
        return iter(self.elems)

    def __len__(self):
        return len(self.elems)

    def __contains__(self, e):
        e = tuple(e)
        inside = len(e) == self.family.m and all(0 <= x < n for x, n in zip(e, self.mask.shape))
        return inside and bool(self.mask[e])

    def __eq__(self, other):
        return (
            isinstance(other, DefiningSet)
            and self.family == other.family
            and np.array_equal(self.mask, other.mask)
        )

    def _same_family(self, other: "DefiningSet"):
        if other.family != self.family:
            raise ValueError("defining sets belong to different families")

    def __le__(self, other: "DefiningSet"):
        self._same_family(other)
        return not np.any(self.mask & ~other.mask)

    def __hash__(self):
        return hash((self.family, self.mask.tobytes()))

    def union(self, other: "DefiningSet") -> "DefiningSet":
        self._same_family(other)
        return DefiningSet.from_mask(self.family, self.mask | other.mask)

    def __repr__(self):
        return f"DefiningSet({len(self.elems)} exponents in {self.family})"


# ---------------------------------------------------------------------------
# operations


def point_set(family: JAffineFamily) -> list[tuple[FieldElement, ...]]:
    """All n_J evaluation points, coordinates as field elements."""
    spec = family.spec
    return [
        tuple(FieldElement(spec, x) for x in pt)
        for pt in itertools.product(*family.root_lists())
    ]


def evaluate(family: JAffineFamily, delta: DefiningSet) -> LinearCode:
    """C_Δ = span{ev(X^e) : e in Δ}; dimension is exactly |Δ|.

    The elimination takes the side with fewer rows.  The dual rows u_e of
    family.dual_row are the columns of the inverse evaluation matrix, so
    dual(C_Δ) is spanned by u_e for e in the box outside Δ.  When
    2|Δ| > n, C_Δ is read off those n - |Δ| rows as the dual of their span;
    otherwise it is the span of the |Δ| monomial rows.
    """
    if delta.family != family:
        raise ValueError("defining set belongs to a different family")
    if len(delta) == 0:
        return LinearCode.zero(family.spec, family.n_points)
    if 2 * len(delta) > family.n_points:
        C = dual(LinearCode(family.spec, family.dual_row(np.argwhere(~delta.mask))))
    else:
        C = LinearCode(family.spec, family.monomial_row(np.argwhere(delta.mask)))
    assert C.k == len(delta), "monomial evaluation must be injective"
    return C


def minkowski_schur(family: JAffineFamily, d1: DefiningSet, d2: DefiningSet) -> DefiningSet:
    """Reduced Minkowski sum; the exponent set of the Schur product code."""
    if d1.family != family or d2.family != family:
        raise ValueError("defining sets belong to a different family")
    a = np.argwhere(d1.mask)
    if d1 == d2:  # a square sums each unordered pair once
        i, j = np.triu_indices(len(a))
        sums = a[i] + a[j]
    else:
        b = np.argwhere(d2.mask)
        sums = (a[:, None, :] + b[None, :, :]).reshape(-1, family.m)
    mask = np.zeros(family.shape, dtype=bool)
    mask[tuple(family.bar_reduce_arr(sums).T)] = True
    return DefiningSet.from_mask(family, mask)


def delta_dual(family: JAffineFamily, delta: DefiningSet) -> DefiningSet:
    """Exponents whose evaluations are orthogonal to all of C_Δ.

    On coordinate j, a and b pair nonzero iff the sum of z^(a+b) over Z_j is
    nonzero: iff a + b ≡ 0 mod N_j - 1 on a units coordinate (j in J), and on
    a full one iff a + b = N_j - 1, or a = b = N_j - 1, or a = b = 0 with p ∤ N_j.
    Monomials pair nonzero iff every coordinate does, so the rule maps Δ's
    mask one axis at a time (a take by the complement map, then the diagonal
    entries on a full coordinate) onto the paired exponents; the dual is the
    rest of the box.

    family.dual_row is the matrix form of this rule.  Its rows u_e invert the
    evaluation matrix, so ev(X^b) = sum over a of <ev(X^b), ev(X^a)>·u_a, and
    dual(evaluate(Δ)) is the span of u_a over a outside Δ: ev(X^b) lies in
    it iff b pairs zero with every member of Δ.

    evaluate(delta_dual(Δ)) ⊆ dual(evaluate(Δ)) always, with equality iff the
    paired set has |Δ| members — in particular whenever Δ ⊆ E' and p | N_j for
    every j not in J, where the rule is the componentwise complement.
    """
    if delta.family != family:
        raise ValueError("defining set belongs to a different family")
    paired = delta.mask
    for axis, Nj in enumerate(family.N):
        if axis + 1 in family.J:
            paired = np.take(paired, -np.arange(Nj - 1) % (Nj - 1), axis=axis)
        else:
            flipped = np.take(paired, Nj - 1 - np.arange(Nj), axis=axis)
            diag = (slice(None),) * axis + ([Nj - 1] + ([0] if Nj % family.spec.p else []),)
            flipped[diag] |= paired[diag]
            paired = flipped
    return DefiningSet.from_mask(family, ~paired)


def dual_is_exact(family: JAffineFamily, delta: DefiningSet, dd: DefiningSet) -> bool:
    """True iff the combinatorial dual has complementary size, which (with the
    containment that always holds) certifies evaluate(dd) == dual(evaluate(Δ))."""
    return len(dd) == family.n_points - len(delta)


def footprint_bound(family: JAffineFamily, delta: DefiningSet) -> int:
    """min over e in Δ of prod_j (|Z_j| - e_j); a distance lower bound."""
    if len(delta) == 0:
        raise ValueError("footprint of an empty set is undefined")
    return int(family.footprints()[delta.mask].min())


def footprint_witness(family: JAffineFamily, delta: DefiningSet) -> tuple[np.ndarray, int]:
    """A codeword attaining the footprint bound, for decreasing Δ.

    The witness is the evaluation of prod_j prod_{l < e*_j} (X_j - beta_{j,l})
    with e* the footprint minimizer and beta the first points of Z_j; all its
    monomials lie in the down-set of e*, hence in Δ, so it is a codeword, and
    its zero set is exactly the struck points.
    """
    if not is_decreasing(delta):
        raise ValueError("footprint witness requires a decreasing set")
    spec = family.spec
    fp = family.footprints()
    # the lexicographically least minimizer
    estar = np.unravel_index(np.flatnonzero(delta.mask)[np.argmin(fp[delta.mask])], fp.shape)
    # the down-set of e* must sit inside delta (decreasingness gives this; the
    # explicit check keeps the certificate self-contained)
    assert delta.mask[tuple(slice(v + 1) for v in estar)].all()
    coords = family.coords()
    roots = family.root_lists()
    word = np.ones(family.n_points, dtype=np.int64)
    for j in range(family.m):
        for l in range(estar[j]):
            beta = roots[j][l]
            word = spec.mul_arr(word, spec.sub_arr(coords[j], np.int64(beta)))
    weight = int(np.count_nonzero(word))
    assert weight == fp[estar]
    return word, weight


def footprint_distance(family: JAffineFamily, delta: DefiningSet) -> int:
    """Exact minimum distance of C_Δ for decreasing Δ: the footprint bound,
    checked against the weight of the witness that attains it."""
    fb = footprint_bound(family, delta)
    _, wt = footprint_witness(family, delta)
    if wt != fb:
        raise RuntimeError(f"footprint witness has weight {wt}, bound is {fb}")
    return fb


def is_decreasing(delta: DefiningSet) -> bool:
    """True iff Δ contains every componentwise-smaller exponent of each member."""
    mask = delta.mask
    for j in range(mask.ndim):
        lo = (slice(None),) * j + (slice(None, -1),)
        hi = (slice(None),) * j + (slice(1, None),)
        if np.any(mask[hi] & ~mask[lo]):
            return False
    return True


# ---------------------------------------------------------------------------
# standard Δ families on the full affine grid


def full_affine_family(q: int, m: int) -> JAffineFamily:
    spec = field_from_order(q)
    return JAffineFamily(spec, [q] * m, J=())


def delta_rm(q: int, m: int, s: int) -> DefiningSet:
    """Total-degree-at-most-s exponents in {0..q-1}^m."""
    return delta_wrm(q, m, s, (1,) * m)


def delta_wrm(q: int, m: int, s: int, S: Sequence[int]) -> DefiningSet:
    """Weighted-degree exponents: sum s_i e_i <= s, weights ascending."""
    S = tuple(int(w) for w in S)
    if list(S) != sorted(S):
        raise ValueError("weights must be sorted ascending")
    if len(S) != m:
        raise ValueError("need one weight per variable")
    if s < 0:
        raise ValueError("degree bound must be nonnegative")
    fam = full_affine_family(q, m)
    degree = functools.reduce(np.add, np.ix_(*(w * np.arange(q) for w in S)))
    return DefiningSet.from_mask(fam, degree <= s)


def delta_hyperbolic(q: int, m: int, s: int) -> DefiningSet:
    """Exponents with prod (q - e_j) >= s; footprint-optimal by construction."""
    return hyperbolic_shell(full_affine_family(q, m), s)


def hyperbolic_shell(family: JAffineFamily, d: int) -> DefiningSet:
    """Exponents with prod_j (|Z_j| - e_j) >= d: the designed-distance-d set."""
    return DefiningSet.from_mask(family, family.footprints() >= d)


def rm_distance(q: int, m: int, s: int) -> int:
    """(q-b) q^{m-1-a} where s = a(q-1)+b, 0 <= b < q-1 (degree-s full-grid codes)."""
    if s >= m * (q - 1):
        return 1
    a, b = divmod(s, q - 1)
    return (q - b) * q ** (m - 1 - a)


def wrm_nesting(s: int, m: int, S: Sequence[int]) -> tuple[int, int]:
    """(v_min, v_max): the degree-v full-grid codes nested around a weighted code.

    v_min uses suffix sums (the heaviest weights), v_max prefix sums (the
    lightest); weights must be ascending.
    """
    S = tuple(int(w) for w in S)
    if list(S) != sorted(S):
        raise ValueError("weights must be sorted ascending")
    v_min = max(v for v in range(m + 1) if s >= sum(S[m - v :]))
    v_max = max(v for v in range(m + 1) if s >= sum(S[:v]))
    return v_min, v_max
