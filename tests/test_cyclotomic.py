import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evalcode import cyclotomic, linear_code
from evalcode.cartesian import DefiningSet, JAffineFamily, evaluate, field_from_order
from evalcode.cyclotomic import (
    closure,
    consecutive_union,
    dual_bch_bound,
    is_coset_closed,
    orbit_of,
    representatives,
    schur_subfield,
    subfield_code,
)


def fam(q, N, J=()):
    return JAffineFamily(field_from_order(q), N, J)


# ------------------------------------------------------------------ orbits


def test_orbit_doubling_255():
    f = fam(256, [256], J=[1])
    orb = orbit_of(f, 2, (1,))
    assert {e[0] for e in orb} == {1, 2, 4, 8, 16, 32, 64, 128}
    assert orb.size == 8
    assert orb.rep == (1,)


def test_orbit_doubling_63():
    f = fam(64, [64], J=[1])
    orb = orbit_of(f, 2, (9,))
    assert {e[0] for e in orb} == {9, 18, 36}
    assert orb.size == 3


def test_orbit_zero_and_validation():
    f = fam(16, [16], J=[1])
    assert orbit_of(f, 2, (0,)).orbit == ((0,),)
    with pytest.raises(ValueError):
        orbit_of(f, 2, (15,))
    with pytest.raises(ValueError):
        orbit_of(f, 8, (1,))  # 8 is not the order of a subfield of GF(16)


def test_orbit_mixed_family_affine_wrap():
    # affine coordinate: 32 -> 64 folds back to 1, closing a length-6 orbit
    f = fam(64, [64, 4], J=[2])
    orb = orbit_of(f, 2, (1, 0))
    assert set(orb.orbit) == {(1, 0), (2, 0), (4, 0), (8, 0), (16, 0), (32, 0)}


def test_representatives_15():
    f = fam(16, [16], J=[1])
    reps = representatives(f, 2)
    assert [o.rep[0] for o in reps] == [0, 1, 3, 5, 7]
    assert sum(o.size for o in reps) == 15


def test_representatives_multiplier_seven_mod_48():
    f = fam(49, [49], J=[1])
    by_rep = {o.rep[0]: set(e[0] for e in o.orbit) for o in representatives(f, 7)}
    assert by_rep[24] == {24}
    assert by_rep[32] == {32}
    assert by_rep[25] == {25, 31}


def test_representatives_identity_multiplier():
    f = fam(16, [16], J=[1])
    reps = representatives(f, 16)
    assert all(o.size == 1 for o in reps)
    assert len(reps) == 15


def test_orbits_partition_box():
    for f, qp in [
        (fam(16, [16], J=[1]), 2),
        (fam(16, [16], J=[1]), 4),
        (fam(8, [8, 8], J=[1, 2]), 2),
        (fam(16, [16, 4, 2]), 2),
        (fam(64, [64, 4], J=[2]), 2),
        (fam(49, [49, 7]), 7),
    ]:
        reps = representatives(f, qp)
        total = [e for o in reps for e in o.orbit]
        assert len(total) == len(f.box())
        assert set(total) == set(f.box())


def _walk_orbit(family, qprime, e):
    """The orbit of e by repeated scalar bar reduction: the reference for the
    cached orbit table."""
    start = cur = tuple(e)
    orbit = [start]
    while (cur := family.bar_reduce([qprime * x for x in cur])) != start:
        orbit.append(cur)
    return tuple(sorted(orbit))


@st.composite
def orbit_families(draw):
    # mixed J, every N_j - 1 dividing q - 1, boxes of at most 1 024 entries
    # (N_j = 2 once 512 is reached), q' ranging over every subfield order, q
    # itself included
    q = draw(st.sampled_from([4, 8, 9, 16, 25, 27, 49, 64]))
    spec = field_from_order(q)
    N, size = [], 1
    for _ in range(draw(st.integers(1, 3))):
        fits = [d for d in range(1, q) if (q - 1) % d == 0 and size * (d + 1) <= 512]
        N.append(1 + draw(st.sampled_from(fits or [1])))
        size *= N[-1]
    J = draw(st.sets(st.integers(1, len(N))))
    qprime = draw(st.sampled_from([spec.p**s for s in range(1, spec.r + 1) if spec.r % s == 0]))
    return fam(q, N, J), qprime


@settings(max_examples=40, deadline=None)
@given(orbit_families(), st.data())
def test_orbit_table_agrees_with_scalar_walk(case, data):
    f, qp = case
    box = f.box()
    walks = {e: _walk_orbit(f, qp, e) for e in box}
    for e in box:
        assert orbit_of(f, qp, e).orbit == walks[e]
    ladder = []
    for e in box:  # box order is lexicographic: an orbit's first entry is its least
        if walks[e][0] == e:
            ladder.append(walks[e])
    assert [o.orbit for o in representatives(f, qp)] == ladder
    for i in range(len(ladder)):
        union = {x for orb in ladder[: i + 1] for x in orb}
        assert set(consecutive_union(f, qp, i)) == union
    with pytest.raises(ValueError):
        consecutive_union(f, qp, len(ladder))
    seeds = data.draw(st.lists(st.sampled_from(box), max_size=5), label="seeds")
    closed = closure(f, qp, seeds)
    assert set(closed) == {x for e in seeds for x in walks[e]}
    movable = [e for e in closed if len(walks[e]) > 1][:3]
    unclosed = [DefiningSet(f, set(closed) - {e}) for e in movable]
    for d in [closed, DefiningSet(f, seeds), *unclosed]:
        expect = all(f.bar_reduce([qp * x for x in e]) in d for e in d)
        assert is_coset_closed(f, qp, d) == expect, d.elems
    assert not any(is_coset_closed(f, qp, d) for d in unclosed)


# ----------------------------------------------------------------- closure


def test_closure_binary_49():
    f = fam(8, [8, 8], J=[1, 2])
    d = closure(f, 2, [(0, 0), (1, 0), (2, 0), (0, 1), (0, 2)])
    assert set(d.elems) == {(0, 0), (1, 0), (2, 0), (4, 0), (0, 1), (0, 2), (0, 4)}
    assert len(d) == 7
    assert is_coset_closed(f, 2, d)
    assert closure(f, 2, d) == d  # idempotent


def test_closure_192_orbit_sizes():
    f = fam(64, [64, 4], J=[2])
    d2 = closure(f, 2, [(0, 0), (1, 0), (0, 1)])
    # singleton + size-6 + size-2: the 9 exponents behind the [[192, 57]] pair
    assert len(d2) == 9


def test_consecutive_union_255():
    f = fam(256, [256], J=[1])
    d = consecutive_union(f, 2, 1)
    assert len(d) == 9
    assert {e[0] for e in d} == {0, 1, 2, 4, 8, 16, 32, 64, 128}
    assert consecutive_union(f, 2, 0).elems == ((0,),)
    # the first ten orbits are I_0, I_1, ..., I_17; I_17 has size 4
    d17 = consecutive_union(f, 2, 9)
    assert len(d17) == 69
    assert (17,) in d17 and (136,) in d17
    with pytest.raises(ValueError):
        consecutive_union(f, 2, 10**6)


# ----------------------------------------------------------- subfield codes


def test_subfield_code_repetition():
    f = fam(16, [16], J=[1])
    C = subfield_code(f, 2, DefiningSet(f, [(0,)]))
    assert (C.n, C.k) == (15, 1)
    assert C.spec.q == 2
    assert np.all(C.gen == 1)


def test_subfield_code_dimension_40():
    f = fam(16, [16, 4, 2])
    delta = DefiningSet(f, itertools.product([0, 1, 2, 4, 8], range(4), range(2)))
    assert is_coset_closed(f, 2, delta)
    C = subfield_code(f, 2, delta)
    assert (C.n, C.k) == (128, 40)


def test_subfield_code_rejects_unclosed():
    f = fam(16, [16], J=[1])
    with pytest.raises(ValueError):
        subfield_code(f, 2, DefiningSet(f, [(1,)]))


def test_subfield_code_matches_matrix_oracle():
    cases = [
        (fam(16, [16], J=[1]), 2, [(1,)]),
        (fam(16, [16], J=[1]), 2, [(0,), (7,)]),
        (fam(16, [16], J=[1]), 4, [(1,)]),
        (fam(8, [8, 8], J=[1, 2]), 2, [(0, 0), (1, 0), (0, 1)]),
        (fam(64, [64, 4], J=[2]), 2, [(1, 0), (0, 1)]),
        (fam(49, [49], J=[1]), 7, [(1,), (25,)]),
        (fam(49, [49, 7]), 7, [(0, 0), (1, 0), (0, 1)]),
    ]
    for f, qp, seed in cases:
        delta = closure(f, qp, seed)
        C = subfield_code(f, qp, delta)
        assert C.k == len(delta)
        sdeg = {2: 1, 4: 2, 7: 1}[qp]
        oracle = linear_code.subfield_subcode(evaluate(f, delta), sdeg)
        assert C == oracle


def test_subfield_code_255_9():
    f = fam(256, [256], J=[1])
    d = consecutive_union(f, 2, 1)
    C = subfield_code(f, 2, d)
    assert (C.n, C.k) == (255, 9)
    assert dual_bch_bound(f, 2, d) >= 4


# ------------------------------------------------------------ Schur lemma


def test_schur_subfield_sizes_and_oracle():
    f = fam(256, [256], J=[1])
    dC = DefiningSet(f, [(0,), (85,), (170,)])
    assert is_coset_closed(f, 2, dC)
    dD = consecutive_union(f, 2, 1)
    prod = schur_subfield(f, 2, dC, dD)
    assert len(prod) == 27
    SC = subfield_code(f, 2, dC)
    SD = subfield_code(f, 2, dD)
    assert linear_code.schur(SC, SD) == subfield_code(f, 2, prod)


def test_schur_subfield_small_oracle():
    f = fam(16, [16], J=[1])
    d1 = closure(f, 2, [(1,)])
    d2 = closure(f, 2, [(3,)])
    prod = schur_subfield(f, 2, d1, d2)
    assert linear_code.schur(subfield_code(f, 2, d1), subfield_code(f, 2, d2)) == subfield_code(
        f, 2, prod
    )
    with pytest.raises(ValueError):
        schur_subfield(f, 2, DefiningSet(f, [(1,)]), d2)


def test_dual_of_subfield_product_differs_from_product_of_duals():
    # the combinatorial dual of a subfield Schur product is NOT the Schur
    # product of the subfield duals on the 15-point instance
    f = fam(16, [16], J=[1])
    d1 = closure(f, 2, [(1,)])
    d2 = DefiningSet(f, [(0,)])
    lhs = linear_code.dual(subfield_code(f, 2, schur_subfield(f, 2, d1, d2)))
    rhs = linear_code.schur(
        linear_code.dual(subfield_code(f, 2, d1)),
        linear_code.dual(subfield_code(f, 2, d2)),
    )
    assert lhs != rhs


# ------------------------------------------------------------- BCH bounds


def test_bch_bound_cyclic_run():
    f = fam(256, [256], J=[1])
    d = consecutive_union(f, 2, 1)  # contains 0,1,2 and 4: run of length 3
    assert dual_bch_bound(f, 2, d) == 4
    assert linear_code.min_distance(linear_code.dual(subfield_code(f, 2, d))).lower == 4


def test_bch_bound_multiplier_helps():
    f = fam(49, [49], J=[1])
    d = DefiningSet(f, [(0,), (24,), (25,), (31,)])
    assert dual_bch_bound(f, 7, d) == 3  # run {24, 25}; no multiplier lengthens it
    assert linear_code.min_distance(linear_code.dual(subfield_code(f, 7, d))).lower == 3


def test_bch_bound_affine_line_matches_truth():
    f = fam(8, [8])
    d = closure(f, 2, [(0,), (1,)])
    assert {e[0] for e in d} == {0, 1, 2, 4}
    bound = dual_bch_bound(f, 2, d)
    assert bound == 4
    D = subfield_code(f, 2, d)
    Ddual = linear_code.dual(D)
    res = linear_code.exhaustive_min_weight(Ddual)
    assert res.lower >= bound
    assert res.exact


def test_bch_bound_requires_one_variable():
    f = fam(8, [8, 8], J=[1, 2])
    with pytest.raises(ValueError):
        dual_bch_bound(f, 2, DefiningSet(f, [(0, 0)]))


def _dual_bch_bound_reference(family, qprime, delta):
    """dual_bch_bound as one Python loop per unit multiplier, over a boolean
    list of the exponents present mod N-1: the reference for the array form."""
    exps = {e[0] for e in delta}
    if not exps:
        return 1
    n_mod = family.N[0] - 1
    mults = [c for c in range(1, n_mod) if math.gcd(c, n_mod) == 1]
    if 1 in family.J:
        best = 0
        for c in mults:
            present = [False] * n_mod
            for a in exps:
                present[(c * a) % n_mod] = True
            if all(present):
                run = n_mod
            else:
                run = longest = 0
                for v in present + present:  # doubled scan covers wraparound
                    run = run + 1 if v else 0
                    longest = max(longest, run)
                run = longest
            best = max(best, run)
        return best + 1
    if 0 not in exps:
        return 1
    units = {a for a in exps if a != 0}
    if not units:
        return 2
    best = 1
    for c in mults:
        scaled = {(c * a - 1) % n_mod + 1 for a in units}
        ell = 1
        while ell in scaled:
            ell += 1
        best = max(best, ell)
    return best + 1


# ground field order -> subfield orders of its multipliers
BCH_FIELDS = {4: (2,), 8: (2,), 16: (2, 4), 49: (7,), 64: (2, 4, 8), 256: (2, 4, 16)}


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_dual_bch_bound_agrees_with_reference_loop(data):
    # closed sets and their complements on the units grid and with the zero
    # point, for every subgroup order N-1 of each field, N = 2 (no
    # multipliers) included, in blocks of one row up to all rows
    for q, qprimes in BCH_FIELDS.items():
        N = 1 + data.draw(st.sampled_from([d for d in range(1, q) if (q - 1) % d == 0]), label="N-1")
        qprime = data.draw(st.sampled_from(qprimes), label="q'")
        for J in ((1,), ()):
            f = fam(q, [N], J)
            seeds = data.draw(st.lists(st.sampled_from(f.box()), max_size=4), label="seeds")
            d = closure(f, qprime, seeds)
            if data.draw(st.booleans(), label="complement"):  # dense sets, long runs
                d = DefiningSet(f, set(f.box()) - set(d))
            cells = data.draw(st.sampled_from([1, 7, cyclotomic._RUN_CELLS]), label="block cells")
            with mock.patch.object(cyclotomic, "_RUN_CELLS", cells):
                bound = dual_bch_bound(f, qprime, d)
            assert bound == _dual_bch_bound_reference(f, qprime, d), (q, N, J, d.elems)


@pytest.mark.parametrize("q,qprime", [(16, 2), (49, 7), (256, 4)])
def test_dual_bch_bound_edges(q, qprime):
    units, affine = fam(q, [q], J=[1]), fam(q, [q])
    cases = [
        (units, [], 1),  # empty Δ
        (affine, [], 1),
        (units, units.box(), q),  # every unit: a run of N-1
        (affine, affine.box(), q + 1),
        (affine, [e for e in affine.box() if e != (0,)], 1),  # 0 not in Δ with the zero point
        (affine, [(0,)], 2),
        (fam(q, [2], J=[1]), [(0,)], 1),  # N-1 = 1: no multipliers
        (fam(q, [2]), [(0,), (1,)], 2),
        (fam(q, [2]), [(1,)], 1),
    ]
    for f, elems, expect in cases:
        d = DefiningSet(f, elems)
        assert dual_bch_bound(f, qprime, d) == _dual_bch_bound_reference(f, qprime, d) == expect


def test_dual_bch_bound_memory_is_bounded():
    # 1 728 unit multipliers of 4 095 times 4 032 exponents, in blocks
    f = fam(4096, [4096], J=[1])
    d = DefiningSet(f, [(e,) for e in range(4095) if e % 64])
    tracemalloc.start()
    try:
        bound = dual_bch_bound(f, 2, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Δ misses the 64 multiples of 64, which c = 1/64 maps onto 0..63
    assert bound == 4095 - 64 + 1
    assert peak < 32 << 20  # 10 MiB measured; all rows at once take 430 MiB
