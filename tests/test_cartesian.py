import functools
import gc
import itertools
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evalcode import _gfmat, linear_code
from evalcode._gfmat import in_row_space, matmul
from evalcode.cartesian import (
    DefiningSet,
    JAffineFamily,
    delta_dual,
    delta_hyperbolic,
    delta_rm,
    delta_wrm,
    dual_is_exact,
    evaluate,
    field_from_order,
    footprint_bound,
    footprint_witness,
    full_affine_family,
    is_decreasing,
    minkowski_schur,
    point_set,
    rm_distance,
    wrm_nesting,
)
from evalcode.csst import _VII_ROWS
from evalcode.galois import FieldSpec, make_field
from test_acceptance import _ORACLE_POOL


def fam(q, N, J=()):
    return JAffineFamily(field_from_order(q), N, J)


# ---------------------------------------------------------------- families


def test_family_validation():
    with pytest.raises(ValueError):
        fam(16, [7])  # 6 does not divide 15
    with pytest.raises(ValueError):
        fam(16, [16], J=[2])
    with pytest.raises(ValueError):
        fam(16, [1])


def test_box_and_sizes():
    f = fam(16, [16], J=[1])
    assert f.n_points == 15
    assert f.T == (14,)
    assert len(f.box()) == 15

    g = fam(8, [8, 8], J=[1, 2])
    assert g.n_points == 49
    assert g.T == (6, 6)

    h = fam(16, [16, 4, 2])
    assert h.n_points == 128
    assert h.T == (15, 3, 1)
    assert len(h.box()) == 128


def test_point_set_structure():
    f = fam(16, [16], J=[1])
    pts = point_set(f)
    assert len(pts) == 15
    vals = {p[0].idx for p in pts}
    assert len(vals) == 15 and 0 not in vals  # the 15 units, no zero

    h = fam(16, [16, 4, 2])
    pts = point_set(h)
    assert len(pts) == 128
    assert len(set(pts)) == 128
    assert any(p[0].idx == 0 for p in pts)  # affine coordinates include zero
    assert {p[2].idx for p in pts} == {0, 1}


def test_bar_reduce_rules():
    f = fam(16, [16], J=[1])
    assert f.bar_reduce([20]) == (5,)
    assert f.bar_reduce([15]) == (0,)
    g = fam(16, [16], J=[])
    assert g.bar_reduce([30]) == (15,)
    assert g.bar_reduce([15]) == (15,)
    assert g.bar_reduce([16]) == (1,)
    assert g.bar_reduce([0]) == (0,)
    # N_j = 2 affine coordinate: everything nonzero folds to 1
    h = fam(16, [2], J=[])
    assert h.bar_reduce([5]) == (1,)
    assert h.bar_reduce([0]) == (0,)


def test_bar_reduce_arr_matches_scalar_rule():
    # every exponent up to twice the box: the box itself and all pair sums
    for f in (fam(*t) for t in _ORACLE_POOL):
        exps = list(itertools.product(*(range(2 * t + 1) for t in f.T)))
        got = f.bar_reduce_arr(np.array(exps)).tolist()
        assert got == [list(f.bar_reduce(e)) for e in exps], f
    with pytest.raises(ValueError):
        fam(16, [16]).bar_reduce_arr(np.array([[-1]]))


def test_defining_set_validation():
    f = fam(16, [16], J=[1])
    d = DefiningSet(f, [(3,), (1,), (3,)])
    assert d.elems == ((1,), (3,))
    with pytest.raises(ValueError):
        DefiningSet(f, [(15,)])  # box tops out at 14
    with pytest.raises(ValueError):
        DefiningSet(f, [(1, 2)])
    g = fam(16, [16], J=[])
    with pytest.raises(ValueError):
        d.union(DefiningSet(g, [(0,)]))


def test_subset_order_rejects_other_families():
    # GF(4) and GF(8) lines share their low exponents; only union used to refuse
    small = DefiningSet(fam(4, [4]), [(1,)])
    big = DefiningSet(fam(8, [8]), [(1,), (2,)])
    for op in (lambda: small <= big, lambda: small.union(big)):
        with pytest.raises(ValueError, match="different families"):
            op()
    assert small <= DefiningSet(small.family, [(1,), (3,)])


# ---------------------------------------------------------------- evaluate


def test_evaluate_dimension_and_content():
    f = fam(16, [16], J=[1])
    d = DefiningSet(f, [(i,) for i in range(4)])
    C = evaluate(f, d)
    assert (C.n, C.k) == (15, 4)
    # one-variable span over the units: compare against an explicit Vandermonde
    spec = f.spec
    units = [p[0].idx for p in point_set(f)]
    rows = np.array([[spec._raw_pow(u, e) for u in units] for e in range(4)])
    assert C == linear_code.LinearCode(spec, rows)


def test_evaluate_empty_and_mismatch():
    f = fam(16, [16], J=[1])
    assert evaluate(f, DefiningSet(f, [])).k == 0
    g = fam(8, [8], J=[1])
    with pytest.raises(ValueError):
        evaluate(f, DefiningSet(g, [(0,)]))


def scalar_rows(f, delta):
    """ev(X^e) for each e in Δ, point by point with the polynomial-level
    field arithmetic, over point_set(f)."""
    spec = f.spec
    power = functools.lru_cache(maxsize=None)(spec._raw_pow)
    rows = []
    for e in delta:
        row = []
        for pt in point_set(f):
            v = 1
            for x, ej in zip(pt, e):
                v = spec._raw_mul(v, power(x.idx, ej))
            row.append(v)
        rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(len(rows), f.n_points)


# N_j = 2 on a units coordinate (box side 1) and on a full one
EDGE_FAMILIES = [(4, [2, 4], [1]), (4, [2, 2], [2]), (9, [3, 2, 2], [1, 3]), (7, [2, 7, 3], [1])]


@st.composite
def mixed_families(draw):
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16]))
    N = []
    for _ in range(draw(st.integers(2, 3))):
        N.append(draw(st.sampled_from([d + 1 for d in range(1, q) if (q - 1) % d == 0])))
    while math.prod(N) > 256:
        N.pop()
    J = draw(st.sets(st.integers(1, len(N))))
    return q, N, J


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.sampled_from(EDGE_FAMILIES), mixed_families()), st.data())
def test_evaluate_matches_scalar_powers(family, data):
    f = fam(*family)
    box = f.box()
    delta = DefiningSet(f, data.draw(st.lists(st.sampled_from(box), max_size=12), label="Δ"))
    rows = scalar_rows(f, delta)
    assert np.array_equal(f.monomial_row(np.argwhere(delta.mask)), rows)
    assert all(np.array_equal(f.monomial_row(e), row) for e, row in zip(delta, rows))
    C = evaluate(f, delta)
    assert C.k == len(delta)
    if len(delta):
        assert C == linear_code.LinearCode(f.spec, rows)


def test_whole_set_operations_make_no_per_exponent_call(monkeypatch):
    # VII's m = 9 square: 494 exponents on the binary m = 9 grid
    m, _, s, _, _ = next(row for row in _VII_ROWS if row[0] == 9)
    d1 = delta_wrm(2, m, s, (1,) + (2,) * (m - 1))
    f = d1.family
    sq = minkowski_schur(f, d1, d1)
    assert len(sq) == 494
    mul_calls = []
    mul_arr = FieldSpec.mul_arr
    monkeypatch.setattr(
        FieldSpec, "mul_arr", lambda self, a, b: mul_calls.append(1) or mul_arr(self, a, b)
    )
    assert evaluate(f, sq).k == 494
    assert len(mul_calls) <= m

    def calls(delta):
        count = [0]

        def profile(frame, event, arg):
            if event in ("call", "c_call"):
                count[0] += 1

        gc.disable()  # a collection would profile the gc callbacks of other tools
        sys.setprofile(profile)
        try:
            delta_dual(f, delta)
        finally:
            sys.setprofile(None)
            gc.enable()
        return count[0]

    assert calls(sq) == calls(DefiningSet(f, [sq.elems[0]]))


# one to three coordinates with mixed J; full coordinates with p | N_j in every
# field and with p ∤ N_j in GF(3), GF(7), GF(9) and GF(49); N_j = 2 on full
# and units coordinates
INVERSE_FAMILIES = [
    (2, [2], []),
    (2, [2, 2, 2], [2]),
    (3, [3, 2], [2]),
    (3, [2, 3], []),
    (4, [4, 2], [1]),
    (4, [4, 4], []),
    (7, [7], []),
    (7, [3, 7], [2]),
    (7, [4, 2, 3], [1]),
    (8, [8, 8], [1]),
    (8, [2, 8], []),
    (9, [9, 3], [2]),
    (9, [5, 3], []),
    (16, [16], [1]),
    (16, [6, 4, 2], [3]),
    (49, [7, 7], []),
    (49, [5, 4], [1]),
    (49, [13], []),
    (49, [25, 3], [2]),
]


@pytest.mark.parametrize(
    "q,N,J", INVERSE_FAMILIES, ids=[f"q{q}-N{N}-J{J}" for q, N, J in INVERSE_FAMILIES]
)
def test_dual_rows_invert_the_evaluation_matrix(q, N, J):
    f = fam(q, N, J)
    box = f.box()
    V, U = f.monomial_row(box), f.dual_row(box)
    assert np.array_equal(matmul(V, U.T, f.spec), np.eye(f.n_points, dtype=np.int64))
    assert all(np.array_equal(f.dual_row(e), row) for e, row in zip(box, U))
    # delta_dual's pairing rule is the zero pattern of the Gram matrix V·V^T
    for e, row in zip(box, matmul(V, V.T, f.spec)):
        assert paired_set(f, e) == {b for b, g in zip(box, row) if g}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(INVERSE_FAMILIES), st.data())
def test_evaluate_matches_monomial_span(family, data):
    # sizes on both sides of 2|Δ| = n, where evaluate changes side
    f = fam(*family)
    n = f.n_points
    edges = st.sampled_from(sorted({0, 1, n // 2, n // 2 + 1, n - 1, n}))
    size = data.draw(edges | st.integers(0, n), label="|Δ|")
    delta = DefiningSet(f, data.draw(st.permutations(f.box()), label="box order")[:size])
    C = evaluate(f, delta)
    assert C == linear_code.LinearCode(f.spec, f.monomial_row(np.argwhere(delta.mask)))
    dd = delta_dual(f, delta)
    D, E = linear_code.dual(C), evaluate(f, dd)
    assert in_row_space(D.gen, D.pivots, E.gen, f.spec)
    assert (D == E) == dual_is_exact(f, delta, dd)


def test_high_rate_evaluate_eliminates_the_smaller_side(monkeypatch):
    f = fam(49, [49, 7])
    delta = DefiningSet(f, random.Random(5).sample(f.box(), 330))
    assert 2 * len(delta) > f.n_points
    rows = []
    rref = _gfmat.rref
    monkeypatch.setattr(
        _gfmat, "rref", lambda M, spec: rows.append(np.atleast_2d(M).shape[0]) or rref(M, spec)
    )
    assert evaluate(f, delta).k == 330
    assert rows and max(rows) <= f.n_points - 330


# ---------------------------------------------------------------- Minkowski


def test_minkowski_fixtures():
    f = fam(16, [16], J=[1])
    d1 = DefiningSet(f, [(1,), (2,), (4,), (8,)])
    d0 = DefiningSet(f, [(0,)])
    assert minkowski_schur(f, d1, d0) == d1
    d01 = DefiningSet(f, [(0,), (1,)])
    assert minkowski_schur(f, d01, d01) == DefiningSet(f, [(0,), (1,), (2,)])


ORACLE_FAMILIES = [
    (4, (4,), ()),
    (4, (4, 4), ()),
    (4, (4, 2), (2,)),
    (16, (16,), (1,)),
    (16, (6, 4), ()),
    (8, (8, 8), (1, 2)),
    (8, (8, 2), ()),
    (49, (5, 4), (1,)),
    (49, (7, 7), ()),
    (64, (10,), ()),
]


def random_subset(rng, f, max_size=6, inside_e_prime=False):
    box = f.e_prime_box() if inside_e_prime else f.box()
    k = rng.randint(1, min(max_size, len(box)))
    return DefiningSet(f, rng.sample(box, k))


def test_minkowski_matches_matrix_schur():
    rng = random.Random(11)
    for q, N, J in ORACLE_FAMILIES:
        f = fam(q, N, J)
        for _ in range(3):
            d1 = random_subset(rng, f)
            d2 = random_subset(rng, f)
            lhs = evaluate(f, minkowski_schur(f, d1, d2))
            rhs = linear_code.schur(evaluate(f, d1), evaluate(f, d2))
            assert lhs == rhs


# ---------------------------------------------------------------- duality


def test_dual_sets_one_variable_units():
    f = fam(16, [16], J=[1])
    d1 = DefiningSet(f, [(1,), (2,), (4,), (8,)])
    dd1 = delta_dual(f, d1)
    assert {e[0] for e in dd1} == {0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 12}
    d2 = DefiningSet(f, [(0,)])
    dd2 = delta_dual(f, d2)
    assert {e[0] for e in dd2} == set(range(1, 15))
    # dual of the full code is the zero code
    full = DefiningSet(f, f.box())
    assert len(delta_dual(f, full)) == 0


def test_dual_exact_branch_oracle():
    rng = random.Random(23)
    for q, N, J in ORACLE_FAMILIES:
        f = fam(q, N, J)
        if any(f.N[j - 1] % f.spec.p != 0 for j in range(1, f.m + 1) if j not in f.J):
            continue  # exactness needs p | N_j on every affine coordinate
        for _ in range(2):
            d = random_subset(rng, f, inside_e_prime=True)
            dd = delta_dual(f, d)
            assert dual_is_exact(f, d, dd)
            assert len(dd) == f.n_points - len(d)
            assert linear_code.dual(evaluate(f, d)) == evaluate(f, dd)


def test_dual_containment_always_holds():
    rng = random.Random(31)
    for q, N, J in ORACLE_FAMILIES:
        f = fam(q, N, J)
        for _ in range(2):
            d = random_subset(rng, f)
            dd = delta_dual(f, d)
            D = linear_code.dual(evaluate(f, d))
            E = evaluate(f, dd)
            for row in E.gen:
                assert row in D


def test_dual_inexact_when_point_count_not_divisible():
    # three points {0, 1, -1} over GF(49): the all-ones pairing with itself is
    # 3 != 0 mod 7, so exponent 0 must also be struck and the sizes cannot match
    f = fam(49, [3], J=[])
    d = DefiningSet(f, [(0,)])
    dd = delta_dual(f, d)
    assert {e[0] for e in dd} == {1}
    assert not dual_is_exact(f, d, dd)
    D = linear_code.dual(evaluate(f, d))
    E = evaluate(f, dd)
    assert E.k < D.k and all(row in D for row in E.gen)


def paired_set(f, e):
    """Exponents pairing nonzero with X^e: the box minus delta_dual({e})."""
    return set(f.box()) - set(delta_dual(f, DefiningSet(f, [e])))


def test_partner_sets_affine_boundaries():
    f = fam(16, [4], J=[])
    assert paired_set(f, (0,)) == {(3,)}  # 2 | 4: no self-pairing
    assert paired_set(f, (3,)) == {(0,), (3,)}
    assert paired_set(f, (1,)) == {(2,)}
    g = fam(49, [3], J=[])
    assert paired_set(g, (0,)) == {(0,), (2,)}  # 7 does not divide 3
    h = fam(16, [4, 16], J=[2])  # a product of the per-coordinate sets
    assert paired_set(h, (3, 5)) == {(0, 10), (3, 10)}


CHARACTER_SUM_FAMILIES = [
    (q, N, J)
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
    for N in range(2, q + 1)
    if (q - 1) % (N - 1) == 0
    for J in ((), (1,))
]


@pytest.mark.parametrize(
    "q,N,J", CHARACTER_SUM_FAMILIES, ids=[f"q{q}-N{N}-J{list(J)}" for q, N, J in CHARACTER_SUM_FAMILIES]
)
def test_pairing_rule_matches_character_sums(q, N, J):
    # a and b pair nonzero iff the sum of z^(a+b) over the points is nonzero,
    # summed with scalar field arithmetic (0^0 = 1)
    f = fam(q, [N], J)
    spec, points = f.spec, f.root_lists()[0]
    for a in range(f.shape[0]):
        sums = {}
        for b in range(f.shape[0]):
            total = 0
            for z in points:
                total = spec.add(total, spec.pow(z, a + b))
            sums[(b,)] = total
        assert paired_set(f, (a,)) == {b for b, total in sums.items() if total}


# ---------------------------------------------------------------- footprint


def test_footprint_fixtures():
    wrm = delta_wrm(2, 7, 5, (1, 2, 2, 2, 2, 2, 2))
    assert footprint_bound(wrm.family, wrm) == 16

    hyp = delta_hyperbolic(7, 2, 5)
    assert footprint_bound(hyp.family, hyp) == 5

    dd = delta_dual(hyp.family, hyp)
    assert len(dd) == 8
    assert footprint_bound(hyp.family, dd) == 28


def test_footprint_witness_reed_muller_line():
    d = delta_rm(7, 1, 3)
    f = d.family
    assert footprint_bound(f, d) == rm_distance(7, 1, 3) == 4
    word, weight = footprint_witness(f, d)
    assert weight == 4
    assert word in evaluate(f, d)


def test_footprint_witness_two_variables():
    hyp = delta_hyperbolic(7, 2, 5)
    f = hyp.family
    dd = delta_dual(f, hyp)
    assert is_decreasing(dd)
    word, weight = footprint_witness(f, dd)
    assert weight == 28
    assert word in evaluate(f, dd)
    # so the [49, 8] code has minimum distance exactly 28
    assert footprint_bound(f, dd) == 28


def test_footprint_witness_requires_decreasing():
    f = fam(16, [16], J=[1])
    d = DefiningSet(f, [(1,), (2,), (4,), (8,)])
    assert not is_decreasing(d)
    with pytest.raises(ValueError):
        footprint_witness(f, d)


def test_is_decreasing():
    f = fam(16, [16], J=[])
    assert is_decreasing(DefiningSet(f, [(0,), (1,), (2,)]))
    assert not is_decreasing(DefiningSet(f, [(0,), (2,)]))
    assert is_decreasing(DefiningSet(f, []))


# ---------------------------------------------------------------- Δ families


def test_delta_rm_size_and_distance():
    d = delta_rm(7, 2, 3)
    assert len(d) == 10  # monomials of total degree <= 3 in two variables
    assert rm_distance(7, 2, 3) == 4 * 7
    assert rm_distance(7, 2, 8) == 7 - 2  # 8 = 1*6 + 2
    assert rm_distance(2, 7, 5) == 4
    assert rm_distance(7, 2, 12) == 1


def test_delta_wrm_validation_and_nesting():
    with pytest.raises(ValueError):
        delta_wrm(2, 3, 2, (2, 1, 1))
    assert wrm_nesting(5, 7, (1, 2, 2, 2, 2, 2, 2)) == (2, 3)
    assert wrm_nesting(100, 3, (1, 2, 3)) == (3, 3)
    assert wrm_nesting(0, 3, (1, 2, 3)) == (0, 0)
    v_min, v_max = wrm_nesting(5, 7, (1, 2, 2, 2, 2, 2, 2))
    wrm = delta_wrm(2, 7, 5, (1, 2, 2, 2, 2, 2, 2))
    lo = delta_rm(2, 7, v_min)
    hi = delta_rm(2, 7, v_max)
    assert lo <= wrm <= hi


def test_delta_hyperbolic_contains_rm():
    # the hyperbolic set of designed distance rm_distance(s) contains RM_s
    q, m, s = 7, 2, 4
    hyp = delta_hyperbolic(q, m, rm_distance(q, m, s))
    assert delta_rm(q, m, s) <= hyp


# ---------------------------------------------------------------- properties


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 1000))
def test_bar_reduce_idempotent_property(e):
    f = fam(16, [16, 4], J=[1])
    v = f.bar_reduce([e, e // 3])
    assert v in f.box() or all(vj <= tj for vj, tj in zip(v, f.T))
    assert f.bar_reduce(v) == v


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6 * 1), st.integers(2, 3))
def test_rm_sets_are_decreasing_property(s, m):
    d = delta_rm(7, m, s)
    assert is_decreasing(d)
    assert footprint_bound(d.family, d) == rm_distance(7, m, s)
