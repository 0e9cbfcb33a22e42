"""Cyclotomic orbits of exponents and subfield subcodes with exact bases.

Multiplying an exponent vector by a subfield order q' and bar-reducing it
partitions the box E_J into orbits ("cosets").  Orbit-closed defining sets are
exactly the ones whose evaluation codes interact well with the subfield
GF(q') ⊆ GF(q): the subfield subcode then has dimension |Δ| with an explicit
trace basis, and Schur products of subfield codes follow the reduced Minkowski
sum of the closed sets.

Consecutive runs of exponents inside a closed set give BCH-style lower bounds
on the dual distance of the subfield code; both grid shapes (units-only and
units-plus-zero) are covered.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Sequence

import numpy as np

from evalcode.cartesian import DefiningSet, JAffineFamily, minkowski_schur
from evalcode.galois import _ilog
from evalcode.linear_code import LinearCode, _subfield_relabel_maps

_RUN_CELLS = 1 << 18  # most scaled exponents dual_bch_bound holds in one block


def _multiplier_degree(family: JAffineFamily, qprime: int) -> int:
    """log_p(q') after checking q' generates a subfield of the ambient field."""
    s = _ilog(qprime, family.spec.p)
    if not s or family.spec.r % s:
        raise ValueError(f"{qprime} is not the order of a subfield of GF({family.spec.q})")
    return s


class CyclotomicSet:
    """The orbit of one exponent vector under e -> bar(q' * e)."""

    __slots__ = ("family", "multiplier", "rep", "orbit")

    def __init__(self, family: JAffineFamily, multiplier: int, orbit: Iterable[Sequence[int]]):
        self.family = family
        self.multiplier = multiplier
        self.orbit = tuple(sorted(tuple(int(x) for x in e) for e in orbit))
        self.rep = self.orbit[0]

    @property
    def size(self) -> int:
        return len(self.orbit)

    def __iter__(self):
        return iter(self.orbit)

    def __len__(self):
        return len(self.orbit)

    def __contains__(self, e):
        return tuple(e) in self.orbit

    def __eq__(self, other):
        return (
            isinstance(other, CyclotomicSet)
            and self.family == other.family
            and self.multiplier == other.multiplier
            and self.orbit == other.orbit
        )

    def __hash__(self):
        return hash((self.family, self.multiplier, self.orbit))

    def __repr__(self):
        return f"CyclotomicSet(rep={self.rep}, size={self.size})"


@functools.lru_cache(maxsize=None)
def _orbit_ranks(family: JAffineFamily, qprime: int) -> np.ndarray:
    """The rank, in representative order, of every box entry's q'-orbit.

    The result has the box's shape.  q' is a unit mod every N_j - 1 and bar
    reduction fixes 0 on an affine coordinate, so e -> bar(q' e) permutes the
    box and the orbits are its cycles.  Each entry is labelled with the least
    C-order index on its cycle, which is the cycle's least exponent, its
    representative; q'^(r/s) = q bounds the steps.
    """
    _multiplier_degree(family, qprime)
    box = np.indices(family.shape).reshape(family.m, -1).T
    ident = np.arange(len(box))
    step = ident.reshape(family.shape)[tuple(family.bar_reduce_arr(qprime * box).T)]
    label, x = ident, step
    while not np.array_equal(x, ident):
        label, x = np.minimum(label, x), step[x]
    rank = (np.cumsum(label == ident)[label] - 1).reshape(family.shape)
    rank.flags.writeable = False
    return rank


def _ranks(family: JAffineFamily, qprime: int, delta: DefiningSet) -> np.ndarray:
    """The orbit ranks of the members of Δ, in Δ's order."""
    return _orbit_ranks(family, qprime)[delta.mask]


def _orbit_mask(family: JAffineFamily, qprime: int, delta: DefiningSet) -> np.ndarray:
    """Box mask of the orbits that meet Δ."""
    rank = _orbit_ranks(family, qprime)
    hit = np.zeros(rank.size, dtype=bool)
    hit[rank[delta.mask]] = True
    return hit[rank]


def orbit_of(family: JAffineFamily, qprime: int, e: Sequence[int]) -> CyclotomicSet:
    """Closure of {e} under multiplication by q' with bar reduction."""
    start = tuple(int(x) for x in e)
    if len(start) != family.m or any(not 0 <= x <= t for x, t in zip(start, family.T)):
        raise ValueError(f"exponent {start} lies outside the box")
    rank = _orbit_ranks(family, qprime)
    return CyclotomicSet(family, qprime, np.argwhere(rank == rank[start]).tolist())


def representatives(family: JAffineFamily, qprime: int) -> list[CyclotomicSet]:
    """One orbit per class, ordered by their minimal representatives."""
    rank = _orbit_ranks(family, qprime)
    box = np.indices(family.shape).reshape(family.m, -1).T
    exps = box[np.argsort(rank, axis=None, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(rank.ravel())).tolist()
    return [CyclotomicSet(family, qprime, exps[a:b]) for a, b in zip([0] + ends, ends)]


def closure(family: JAffineFamily, qprime: int, delta) -> DefiningSet:
    """Smallest orbit-closed superset of Δ."""
    if not (isinstance(delta, DefiningSet) and delta.family == family):
        delta = DefiningSet(family, delta)
    return DefiningSet.from_mask(family, _orbit_mask(family, qprime, delta))


def is_coset_closed(family: JAffineFamily, qprime: int, delta: DefiningSet) -> bool:
    return np.count_nonzero(_orbit_mask(family, qprime, delta)) == len(delta)


def consecutive_union(family: JAffineFamily, qprime: int, i: int) -> DefiningSet:
    """Union of the first i+1 orbits in representative order."""
    rank = _orbit_ranks(family, qprime)
    count = int(rank.max()) + 1
    if not 0 <= i < count:
        raise ValueError(f"index {i} out of range for {count} orbits")
    return DefiningSet.from_mask(family, rank <= i)


def subfield_code(family: JAffineFamily, qprime: int, delta: DefiningSet) -> LinearCode:
    """The GF(q')-subfield subcode of C_Δ for orbit-closed Δ, dimension |Δ|.

    Basis: for each orbit with representative a and length i_a, the i_a rows
    ev(T_a(xi^s X^a)), 0 <= s < i_a, where T_a(f) = sum_{t<i_a} f^{q'^t} and xi
    generates the degree-i_a extension of GF(q') inside the ambient field.
    """
    sdeg = _multiplier_degree(family, qprime)
    spec = family.spec
    sub, to_sub = _subfield_relabel_maps(spec, sdeg)
    if len(delta) == 0:
        return LinearCode.zero(sub, family.n_points)
    if not is_coset_closed(family, qprime, delta):
        e = next(e for e in delta if any(x not in delta for x in orbit_of(family, qprime, e)))
        raise ValueError(f"set is not closed: orbit of {e} leaves it")
    rank = _orbit_ranks(family, qprime)
    flat = rank.ravel()
    # ranks count representatives in C order, so an entry is its orbit's
    # representative iff its rank exceeds every earlier one
    lead = delta.mask & (np.diff(np.maximum.accumulate(flat), prepend=-1) > 0).reshape(rank.shape)
    sizes = np.bincount(flat)[rank[lead]]
    bases = family.monomial_row(np.argwhere(lead))
    rows = []
    for ia in sorted(set(sizes.tolist())):  # one pass per orbit length
        ext = qprime**ia - 1
        assert (spec.q - 1) % ext == 0, "orbit length must give a subfield of GF(q)"
        xi = spec.pow(spec._gidx, (spec.q - 1) // ext) if ext > 1 else 1
        coefs = np.array([spec.pow(xi, s) for s in range(ia)], dtype=np.int64)
        u = acc = spec.mul_arr(coefs[:, None, None], bases[sizes == ia][None])
        for _ in range(ia - 1):
            u = spec.frobenius_arr(u, qprime)
            acc = spec.add_arr(acc, u)
        rows.append(to_sub[acc].reshape(-1, family.n_points))
        assert np.all(rows[-1] >= 0), "trace rows must land in the subfield"
    C = LinearCode(sub, np.concatenate(rows))
    assert C.k == len(delta), "trace rows must form a basis"
    return C


def schur_subfield(
    family: JAffineFamily, qprime: int, d1: DefiningSet, d2: DefiningSet
) -> DefiningSet:
    """Exponent set of the Schur product of two subfield codes (closed inputs)."""
    for d in (d1, d2):
        if not is_coset_closed(family, qprime, d):
            raise ValueError("defining set is not orbit-closed")
    out = minkowski_schur(family, d1, d2)
    assert is_coset_closed(family, qprime, out)
    return out


# ---------------------------------------------------------------------------
# BCH-style dual-distance bounds from consecutive exponents


def dual_bch_bound(family: JAffineFamily, qprime: int, delta: DefiningSet) -> int:
    """Lower bound on the dual distance of subfield_code(Δ), one variable only.

    Every dual word has polynomial syndrome zeros at all exponents of Δ, so a
    run of ell consecutive exponents forces weight >= ell + 1.  On the
    units-only grid runs are cyclic mod N-1 and may be taken inside c·Δ for
    any unit multiplier c; with the zero point included, a run must start at 0
    (the zero coordinate contributes only to the exponent-0 syndrome, and a
    case split on it keeps the bound).

    Both grids read blocks of at most _RUN_CELLS scaled exponents: row c
    holds c·Δ mod N-1, sorted.  A units row is doubled (shifted by N-1) for
    wraparound, and its longest run of steps of 1 is capped at N-1; with the
    zero point, a row's run ends at the first ell >= 1 it misses, in 1..N-1.
    """
    if family.m != 1:
        raise ValueError("consecutive-run bound applies to one-variable families")
    _multiplier_degree(family, qprime)
    exps = np.flatnonzero(delta.mask)
    units = 1 in family.J
    # with the zero point, runs {0..ell-1} inside {0} ∪ c·(Δ∖{0})
    if not exps.size or not units and exps[0] != 0:
        return 1
    n_mod = family.N[0] - 1
    mults = np.array([c for c in range(1, n_mod) if math.gcd(c, n_mod) == 1], dtype=np.int64)
    step = max(1, _RUN_CELLS // (2 * exps.size))
    best = 0
    for lo in range(0, mults.size, step):
        c = mults[lo : lo + step, None]
        if units:
            rows = np.sort(c * exps % n_mod, axis=1)
            rows = np.concatenate([rows, rows + n_mod], axis=1)
            pos = np.arange(rows.shape[1])
            starts = np.where(np.diff(rows, axis=1, prepend=-1) != 1, pos, 0)
            runs = pos - np.maximum.accumulate(starts, axis=1) + 1
        else:
            rows = np.sort((c * exps[1:] - 1) % n_mod + 1, axis=1)
            runs = np.logical_and.accumulate(rows == np.arange(1, exps.size), axis=1).sum(axis=1)
        best = max(best, int(runs.max(initial=0)))
    if units:
        return min(best, n_mod) + 1
    return best + 2  # the first ell missing is best + 1
