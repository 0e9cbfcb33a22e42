import dataclasses
import gc
import itertools
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evalcode import _gfmat, csst, linear_code
from evalcode._gfmat import rref, schur_rows
from evalcode.cartesian import (
    DefiningSet,
    JAffineFamily,
    delta_rm,
    delta_wrm,
    evaluate,
    field_from_order,
    full_affine_family,
)
from evalcode.cyclotomic import closure, consecutive_union, subfield_code
from evalcode.galois import FieldError, make_field, subgroup_roots
from evalcode.linear_code import (
    DistanceResult,
    LinearCode,
    SearchBudget,
    _verify_word,
    contains,
    cyclic_min_weight_upto,
    dual,
    exhaustive_min_weight,
    find_weight_witness,
    is_cyclic,
    low_weight_search,
    min_distance,
    puncture,
    schur,
    shorten,
    subfield_subcode,
    syndrome_split_search,
)

F2 = make_field(2, 1)
F4 = make_field(2, 2)
F7 = make_field(7, 1)


def repetition(spec, n):
    return LinearCode(spec, np.ones((1, n), dtype=np.int64))


def hamming74():
    rows = [
        [1, 0, 0, 0, 0, 1, 1],
        [0, 1, 0, 0, 1, 0, 1],
        [0, 0, 1, 0, 1, 1, 0],
        [0, 0, 0, 1, 1, 1, 1],
    ]
    return LinearCode(F2, np.array(rows, dtype=np.int64))


def test_rref_canonical_and_rank():
    rows = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.int64)
    C = LinearCode(F2, rows)
    assert C.k == 2
    C2 = LinearCode(F2, rows[[1, 0, 2]])
    assert C == C2


def _rref_scalar(M, spec):
    """Gauss-Jordan with scalar field ops, the reference for the matrix kernel."""
    A = [[int(x) for x in row] for row in M]
    pivots = []
    for c in range(M.shape[1]):
        r = len(pivots)
        piv = next((i for i in range(r, len(A)) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = spec.inv(A[r][c])
        A[r] = [spec.mul(inv, x) for x in A[r]]
        for i, row in enumerate(A):
            if i != r and row[c]:
                A[i] = [spec.sub(x, spec.mul(row[c], y)) for x, y in zip(row, A[r])]
        pivots.append(c)
    return np.array(A[: len(pivots)], dtype=np.int64).reshape(-1, M.shape[1]), pivots


@pytest.mark.parametrize("p,r", [(2, 2), (2, 4), (7, 1), (7, 2)])
def test_rref_matches_scalar_gauss_jordan(p, r):
    # small and tall matrices, each with a zero row and rank below the row count
    spec = make_field(p, r)
    rng = np.random.default_rng(p * 10 + r)
    for rows, cols in [(3, 8), (70, 40), (60, 90)]:
        M = rng.integers(0, spec.q, size=(rows, cols))
        M[rows // 2] = 0
        R, pivots = rref(M, spec)
        R0, pivots0 = _rref_scalar(M, spec)
        assert pivots == pivots0
        assert np.array_equal(R, R0)


def _nullspace_scalar(M, spec):
    """The dual rows e_f - sum_i R[i, f] e_{pivot i}, one per free column f,
    in RREF by _rref_scalar; and the rank of M."""
    n = M.shape[1]
    R, pivots = _rref_scalar(M, spec)
    basis = np.zeros((n - len(pivots), n), dtype=np.int64)
    for row, f in zip(basis, sorted(set(range(n)) - set(pivots))):
        row[f] = 1
        for i, c in enumerate(pivots):
            row[c] = spec.neg(int(R[i, f]))
    return _rref_scalar(basis, spec)[0], len(pivots)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_nullspace_agrees_with_scalar_gauss_jordan(data):
    # wide and tall M with rank on both sides of n/2, zero and repeated rows
    for p, r in [(2, 1), (3, 1), (2, 2), (7, 1), (2, 3), (3, 2), (7, 2)]:
        spec = make_field(p, r)
        n = data.draw(st.integers(1, 14), label="n")
        m = data.draw(st.integers(0, 14), label="m")
        rank = data.draw(st.integers(0, min(m, n)), label="rank")

        def matrix(rows, cols, label):
            entries = st.lists(st.integers(0, spec.q - 1), min_size=rows * cols, max_size=rows * cols)
            return np.array(data.draw(entries, label=label), dtype=np.int64).reshape(rows, cols)

        M = _gfmat.matmul(matrix(m, rank, "A"), matrix(rank, n, "B"), spec)
        for i in range(m):
            kind = data.draw(st.sampled_from(["keep", "zero", "repeat"]), label="row")
            if kind == "zero":
                M[i] = 0
            elif kind == "repeat" and i:
                M[i] = M[data.draw(st.integers(0, i - 1), label="source")]
        N = _gfmat.nullspace(M, spec)
        expect, k = _nullspace_scalar(M, spec)
        assert N.shape == (n - k, n)
        assert np.array_equal(rref(N, spec)[0], N)
        for u in M.tolist():
            for v in N.tolist():
                acc = 0
                for x, y in zip(u, v):
                    acc = spec.add(acc, spec.mul(x, y))
                assert acc == 0
        assert np.array_equal(N, expect), (spec.q, M)


def test_nullspace_second_elimination_takes_the_smaller_side(monkeypatch):
    spec = make_field(7, 2)
    rng = np.random.default_rng(49)
    codes = [LinearCode(spec, rng.integers(0, spec.q, (k, 343))) for k in (1, 337)]
    assert [C.k for C in codes] == [1, 337]
    rows_in = []

    def recording_rref(M, spec):
        rows_in.append(np.asarray(M).shape[0])
        return rref(M, spec)

    monkeypatch.setattr(_gfmat, "rref", recording_rref)
    for C in codes:
        rows_in.clear()
        D = dual(C)
        assert D.k == C.n - C.k
        assert not np.any(_gfmat.matmul(C.gen, D.gen.T, spec))
        assert len(rows_in) == 2 and rows_in[1] <= min(C.k, C.n - C.k), rows_in


def test_dual_involution_and_dims():
    C = hamming74()
    D = dual(C)
    assert (C.n, D.k) == (7, 3)
    assert dual(D) == C
    # duality pairing
    for r in C.gen:
        for h in D.gen:
            assert F2.p == 2 and int(np.sum(r * h)) % 2 == 0


def test_dual_pair_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        C = hamming74()
        D = dual(C)
        assert dual(D) is C
        alive = weakref.ref(C)
        del C, D
        assert alive() is None
        C = hamming74()
        assert dual(dual(C)) == C
        D = dual(C)
        del C
        assert dual(D) == hamming74()  # recomputed once C is gone
    finally:
        gc.enable()


def test_dual_repetition_is_parity():
    C = repetition(F2, 5)
    D = dual(C)
    assert D.k == 4
    assert all(int(row.sum()) % 2 == 0 for row in D.gen)


def test_schur_identity_and_symmetry():
    C = hamming74()
    unit = repetition(F2, 7)
    assert schur(C, unit) == C
    D = dual(C)
    assert schur(C, D) == schur(D, C)
    assert schur(C, C).k <= C.k * (C.k + 1) // 2


def test_schur_gf7():
    rng = np.random.default_rng(5)
    C = LinearCode(F7, rng.integers(0, 7, size=(2, 10)))
    D = LinearCode(F7, rng.integers(0, 7, size=(3, 10)))
    S = schur(C, D)
    # every pairwise product of codewords lies in S
    for a in C.gen:
        for b in D.gen:
            assert F7.mul_arr(a, b) in S


def schur_reference(C, D):
    """Span of every product of generator rows, in scalar field ops."""
    spec = C.spec
    rows = [[spec.mul(x, y) for x, y in zip(a, b)] for a in C.gen.tolist() for b in D.gen.tolist()]
    return rref(np.array(rows, dtype=np.int64).reshape(-1, C.n), spec)[0]


# byte keys of packed bits (GF(2)) and of int64 rows, for small and large q
SCHUR_FIELDS = [(2, 1), (3, 1), (2, 2), (7, 1), (2, 3), (3, 2), (2, 4), (257, 1), (65537, 1)]


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_schur_agrees_with_scalar_reference(data):
    # up to 12 x 12 generator rows: products on both sides of 64
    for p, r in SCHUR_FIELDS:
        spec = make_field(p, r)
        n = data.draw(st.integers(1, 20), label="n")

        def code(label):
            k = data.draw(st.integers(1, 12), label=label)
            entries = st.lists(st.integers(0, spec.q - 1), min_size=n * k, max_size=n * k)
            return LinearCode(spec, np.array(data.draw(entries), dtype=np.int64).reshape(k, n))

        C = code("kC")
        D = C if data.draw(st.booleans(), label="square") else code("kD")
        if C.k == 0 or D.k == 0:
            continue
        assert np.array_equal(schur(C, D).gen, schur_reference(C, D)), (spec.q, C.gen, D.gen)
        order = data.draw(st.sampled_from("CF"), label="order")  # need not be C-contiguous
        rows = schur_rows(np.asarray(C.gen, order=order), np.asarray(D.gen, order=order), spec)
        products = {tuple(spec.mul_arr(a, b).tolist()) for a in C.gen for b in D.gen}
        assert len(rows) == len(products) and set(map(tuple, rows.tolist())) == products


def test_schur_square_memory_is_bounded():
    # table VII, m = 9: 17 391 products of length 512 from 186 generator rows
    m, _, s, *_ = next(row for row in csst._VII_ROWS if row[0] == 9)
    C1 = evaluate(full_affine_family(2, m), delta_wrm(2, m, s, (1,) + (2,) * (m - 1)))
    tracemalloc.start()
    try:
        sq = schur(C1, C1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (C1.k, sq.k) == (186, 494)
    assert peak < 32 << 20


def test_contains_and_membership():
    C = hamming74()
    sub = LinearCode(F2, C.gen[:2])
    assert contains(C, sub)
    assert not contains(sub, C)
    assert contains(C, C)
    assert np.zeros(7, dtype=np.int64) in C


def test_puncture_shorten():
    C = hamming74()
    assert puncture(C, []) == C
    P = puncture(C, [0])
    assert (P.n, P.k) == (6, 4)
    S = shorten(C, [0])
    assert (S.n, S.k) == (6, 3)
    # shortened words come from codewords vanishing at the position
    for row in S.gen:
        full = np.concatenate([[0], row])
        assert full in C
    with pytest.raises(IndexError):
        puncture(C, [9])


def test_min_distance_hamming():
    d = min_distance(hamming74())
    assert d.exact and d.lower == 3
    assert int(np.count_nonzero(d.witness)) == 3


def test_min_distance_zero_code_rejected():
    with pytest.raises(ValueError):
        min_distance(LinearCode.zero(F2, 4))


def test_exhaustive_min_weight_zero_code_rejected():
    for spec in (F2, F4):
        with pytest.raises(ValueError, match="zero code"):
            exhaustive_min_weight(LinearCode.zero(spec, 3))


def brute_min_weight(C):
    """Least weight of a nonzero codeword, word by word in scalar field ops."""
    spec, best = C.spec, C.n + 1
    for msg in itertools.product(range(spec.q), repeat=C.k):
        if any(msg):
            word = [0] * C.n
            for c, row in zip(msg, C.gen.tolist()):
                word = [spec.add(x, spec.mul(c, y)) for x, y in zip(word, row)]
            best = min(best, sum(1 for x in word if x))
    return best


EXHAUSTIVE_FIELDS = [(2, 1), (3, 1), (2, 2), (7, 1), (2, 3), (3, 2), (2, 4)]


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_exhaustive_min_weight_agrees_with_scalar_reference(data):
    # small tables make the enumeration add many outer words to its table
    for p, r in EXHAUSTIVE_FIELDS:
        spec = make_field(p, r)
        n = data.draw(st.integers(1, 8), label="n")
        k_max = int(np.log(256) / np.log(spec.q) + 1e-9)  # q^k <= 256
        k = data.draw(st.integers(1, min(n, k_max)), label="k")
        entries = st.lists(st.integers(0, spec.q - 1), min_size=n * k, max_size=n * k)
        C = LinearCode(spec, np.array(data.draw(entries), dtype=np.int64).reshape(k, n))
        if C.k == 0:
            continue
        table = data.draw(st.sampled_from([1, n, spec.q * n, 1 << 20]), label="table")
        with mock.patch.object(linear_code, "_TABLE_ENTRIES", table):
            res = exhaustive_min_weight(C)
        assert res.exact and res.lower == brute_min_weight(C), (spec.q, C.gen, table)
        assert int(np.count_nonzero(res.witness)) == res.lower and res.witness in C


def test_exhaustive_min_weight_is_exact_over_gf65537():
    # products of GF(65537) entries exceed float32's exact range
    spec = make_field(65537, 1)
    C = LinearCode(spec, np.random.default_rng(0).integers(1, spec.q, size=(1, 6)))
    res = exhaustive_min_weight(C)
    assert res.exact and res.lower == 6 and res.witness in C
    assert min_distance(C).lower == 6


def test_exhaustive_min_weight_memory_is_bounded():
    # all 4^9 words of a [24,9] code over GF(4) take 48 MB as one int64 array
    C = LinearCode(F4, np.random.default_rng(5).integers(0, 4, size=(9, 24)))
    tracemalloc.start()
    try:
        res = exhaustive_min_weight(C)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exact and res.lower == 7 and res.witness in C
    assert peak < 24 << 20


def test_exhaustive_gf7():
    # [10,2] code over GF(7)
    rng = np.random.default_rng(1)
    C = LinearCode(F7, rng.integers(0, 7, size=(2, 10)))
    r = exhaustive_min_weight(C)
    assert r.exact
    wts = []
    for a in range(7):
        for b in range(7):
            if a == b == 0:
                continue
            w = F7.add_arr(F7.scale_arr(a, C.gen[0]), F7.scale_arr(b, C.gen[1]))
            wts.append(int(np.count_nonzero(w)))
    assert r.lower == min(wts)


def test_low_weight_search_parity_code():
    D = dual(repetition(F2, 6))  # [6,5,2]
    excluded, word = low_weight_search(D, 4)
    assert excluded == 1 and int(np.count_nonzero(word)) == 2


def test_low_weight_search_excludes():
    C = hamming74()  # d = 3
    excluded, word = low_weight_search(C, 2)
    assert excluded == 2 and word is None


def test_low_weight_search_weight_two_witness_over_gf3():
    # [3,1,2] code spanned by (1,1,0): the weight-2 witness needs the right
    # coefficient on its second position
    D = dual(LinearCode(make_field(3, 1), [[1, 2, 0], [0, 0, 1]]))
    excluded, word = low_weight_search(D, 3)
    assert excluded == 1 and int(np.count_nonzero(word)) == 2 and word in D
    with pytest.raises(RuntimeError):
        _verify_word(D, np.array([1, 2, 0]), 2)  # raises under python -O too


def test_min_distance_small_budget_returns_bracket():
    f = JAffineFamily(field_from_order(64), (64,), (1,))
    Cd = dual(subfield_code(f, 2, consecutive_union(f, 2, 4)))  # [63,38] binary
    capped = min_distance(Cd, SearchBudget(steps=50))
    assert isinstance(capped, DistanceResult)
    assert capped.lower <= min_distance(Cd).lower


def test_find_weight_witness_hamming():
    C = hamming74()
    w4 = find_weight_witness(C, 4)
    assert w4 is not None and int(np.count_nonzero(w4)) == 4
    assert find_weight_witness(C, 2) is None


def test_min_distance_with_a_proved_bound(monkeypatch):
    # no enumeration, so the bracket comes from the bound or the search
    monkeypatch.setattr(linear_code, "_ENUMERATION_CAP", 1)
    rm = evaluate(full_affine_family(2, 4), delta_rm(2, 4, 1))  # [16,5,8]
    res = min_distance(rm, lower=8, target=8)
    assert res.exact and res.lower == 8 and res.how == "proved bound"
    assert int(np.count_nonzero(res.witness)) == 8 and res.witness in rm
    # weight 8 lies past the binary support search's level cap of 6
    unproved = min_distance(rm, target=8)
    assert (unproved.lower, unproved.upper, unproved.how) == (7, 8, "support exclusion")


def test_min_distance_support_search_is_exact(monkeypatch):
    monkeypatch.setattr(linear_code, "_ENUMERATION_CAP", 1)
    C = hamming74()
    res = min_distance(C, target=3)
    assert res.exact and res.lower == 3  # weights up to 2 excluded
    assert res.how == "low-weight support search"
    assert int(np.count_nonzero(res.witness)) == 3 and res.witness in C


def test_min_distance_below_the_distance_is_a_bracket(monkeypatch):
    monkeypatch.setattr(linear_code, "_ENUMERATION_CAP", 1)
    res = min_distance(hamming74(), target=2)
    assert (res.lower, res.upper, res.exact) == (3, 7, False)


PLANNER_FIELDS = [(2, 1), (3, 1), (2, 2), (7, 1)]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_min_distance_planner_agrees_with_scalar_reference(data):
    # every route of the planner against a word-by-word brute force
    spec = make_field(*data.draw(st.sampled_from(PLANNER_FIELDS), label="field"))
    n = data.draw(st.integers(2, 9 if spec.q <= 3 else 6), label="n")
    k = data.draw(st.integers(1, min(n, 4)), label="k")
    entries = st.lists(st.integers(0, spec.q - 1), min_size=n * k, max_size=n * k)
    C = LinearCode(spec, np.array(data.draw(entries), dtype=np.int64).reshape(k, n))
    if C.k == 0:
        return
    d = brute_min_weight(C)
    lower = data.draw(st.sampled_from([None, d - 1, d]), label="lower")
    target = data.draw(st.sampled_from([None, d - 1, d, d + 1]), label="target")
    cap = data.draw(st.sampled_from([1, 1 << 26]), label="cap")
    with mock.patch.object(linear_code, "_ENUMERATION_CAP", cap):
        res = min_distance(C, lower=lower, target=target)
    assert res.lower <= d <= res.upper
    if cap > 1:
        assert res.how == "exhaustive enumeration" and res.exact
    elif lower is not None:
        assert res.how == "proved bound" and res.lower == lower
    elif res.how == "low-weight support search":
        assert res.exact and res.witness is not None  # the word closed the bracket
    else:
        assert res.how == "support exclusion"
    if res.witness is not None:
        assert int(np.count_nonzero(res.witness)) == res.upper and res.witness in C
    else:
        assert res.upper == C.n


def test_weight5_search_gf7():
    # random [12,8] over GF(7) almost surely has weight <= 5 words
    rng = np.random.default_rng(3)
    C = LinearCode(F7, rng.integers(0, 7, size=(8, 12)))
    r = min_distance(C)
    assert r.exact
    r2 = exhaustive_min_weight(C)
    assert r2.lower == r.lower


def test_subfield_subcode_trivial_cases():
    C = hamming74()
    assert subfield_subcode(C, 1) == C
    with pytest.raises(FieldError):
        subfield_subcode(C, 2)


def test_subfield_subcode_gf4_line():
    # span{(1, a, 0)} over GF(4) meets GF(2)^3 only in 0
    a = 2  # primitive element index
    C = LinearCode(F4, np.array([[1, a, 0]], dtype=np.int64))
    S = subfield_subcode(C, 1)
    assert S.k == 0 and S.n == 3
    # but span{(1, a, 0), (0, 1, 1)} contains (1, a, 0) + a*(0,1,1) ... over GF(2): none
    C2 = LinearCode(F4, np.array([[1, 0, 1], [0, 1, 1]], dtype=np.int64))
    S2 = subfield_subcode(C2, 1)
    assert S2.k == 2  # rational generator matrix keeps its dimension


def test_subfield_subcode_rational_generators():
    rng = np.random.default_rng(9)
    rows = rng.integers(0, 2, size=(3, 8))
    C = LinearCode(F4, rows.astype(np.int64))
    S = subfield_subcode(C, 1)
    assert S.k == C.k
    assert np.array_equal(S.gen, LinearCode(F2, rows.astype(np.int64)).gen)


def test_subfield_subcode_gf49_to_gf7():
    F49 = make_field(7, 2)
    rng = np.random.default_rng(2)
    rows = rng.integers(0, 7, size=(2, 9)).astype(np.int64)
    C = LinearCode(F49, rows)
    S = subfield_subcode(C, 1)
    assert S.spec is F7 and S.k == 2
    assert np.array_equal(S.gen, LinearCode(F7, rows).gen)


def test_is_cyclic_and_window_enumeration():
    # length-6 binary cyclic code generated by shifts of (1,1,1,0,0,0)
    g = np.array([1, 1, 1, 0, 0, 0], dtype=np.int64)
    rows = np.stack([np.roll(g, i) for i in range(6)])
    C = LinearCode(F2, rows)
    assert is_cyclic(C)
    r = cyclic_min_weight_upto(C, 4)
    assert r.exact and r.lower == 2  # (1,1,1,0,0,0)+(0,1,1,1,0,0) has weight 2
    e = exhaustive_min_weight(C)
    assert e.lower == r.lower
    P = puncture(C, [0])
    assert is_cyclic(P) == _shift_rows_in_code(P)
    if not is_cyclic(P):
        with pytest.raises(ValueError):
            cyclic_min_weight_upto(P, 3)


def test_cyclic_window_is_exact_over_gf65537():
    # cyclic Reed-Solomon [16,2,15] code: evaluations of 1 and x on the 16th roots of unity
    roots = [x.idx for x in subgroup_roots(make_field(65537, 1), 16)]
    rs = LinearCode(make_field(65537, 1), [[1] * 16, roots])
    res = cyclic_min_weight_upto(rs, 15)
    assert res.exact and res.lower == 15 and res.witness in rs


def _shift_rows_in_code(C):
    """The definition of cyclicity: every shifted generator row is in C."""
    return all(row in C for row in np.roll(C.gen, 1, axis=1))


# units grids (field order, N) whose GF(q') subfield codes are cyclic of length N - 1
_UNITS_GRIDS = {
    2: [(8, 8), (16, 16)], 3: [(9, 9)], 4: [(16, 6), (16, 16)], 7: [(49, 9), (49, 13), (49, 17)],
}
_CYCLIC_WORDS = 1 << 17  # most codewords of a drawn cyclic code


def _random_cyclic_code(data, spec):
    """A random cyclic code over spec with at most _CYCLIC_WORDS codewords.

    Either the subfield code of a closure-closed Δ on a units grid, or the
    span of the shifts of r(x)·f(x), for a random r and f either x^m - 1 or
    (x^n - 1)/(x^m - 1) with m | n.  Whichever of the code and its dual (also
    cyclic) has fewer words is returned.
    """
    if data.draw(st.booleans(), label="closure"):
        order, N = data.draw(st.sampled_from(_UNITS_GRIDS[spec.q]), label="grid")
        fam = JAffineFamily(field_from_order(order), (N,), (1,))
        seed = data.draw(st.lists(st.integers(0, N - 2), min_size=1, max_size=3), label="seed")
        C = subfield_code(fam, spec.q, closure(fam, spec.q, DefiningSet(fam, [(e,) for e in seed])))
    else:
        n = data.draw(st.integers(2, 12 if spec.q <= 4 else 10), label="n")
        m = data.draw(st.sampled_from([m for m in range(1, n) if n % m == 0]), label="m")
        f = np.zeros(n, dtype=np.int64)
        if data.draw(st.booleans(), label="x^m - 1"):
            f[0], f[m] = spec.neg(1), 1
        else:
            f[::m] = 1
        r = data.draw(st.lists(st.integers(0, spec.q - 1), min_size=n, max_size=n), label="r")
        g = np.zeros(n, dtype=np.int64)
        for i, c in enumerate(r):
            g = spec.add_arr(g, spec.scale_arr(c, np.roll(f, i)))
        if not np.any(g):  # r(x) = 0 or a multiple of the cofactor of f
            g = f
        C = LinearCode(spec, np.stack([np.roll(g, j) for j in range(n)]))
    C = min(C, dual(C), key=lambda code: code.k or code.n + 1)
    assert spec.q**C.k <= _CYCLIC_WORDS and C.spec is spec
    return C


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_is_cyclic_matches_shift_membership(data):
    for p, r in SEARCH_FIELDS:
        spec = make_field(p, r)
        if data.draw(st.booleans(), label="cyclic") and spec.q in _UNITS_GRIDS:
            C = _random_cyclic_code(data, spec)
        else:
            n = data.draw(st.integers(2, 9), label="n")
            k = data.draw(st.integers(0, n), label="k")
            entries = st.lists(st.integers(0, spec.q - 1), min_size=n * k, max_size=n * k)
            C = LinearCode(spec, np.array(data.draw(entries), dtype=np.int64).reshape(k, n))
        assert is_cyclic(C) == _shift_rows_in_code(C)
        assert is_cyclic(puncture(C, [0])) == _shift_rows_in_code(puncture(C, [0]))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_symmetry_reduced_searches_agree_with_exhaustive(data):
    # the split search enumerates only low halves holding position 0 on a
    # cyclic code, and the window search only messages led by coefficient 1
    for q in (2, 3, 4, 7):
        spec = field_from_order(q)
        C = _random_cyclic_code(data, spec)
        assert is_cyclic(C)
        d = exhaustive_min_weight(C).lower
        w = min(d + 1, 6)
        for search, top in (
            (syndrome_split_search, w),
            (low_weight_search, min(w, linear_code._SUPPORT_LEVEL_CAP[q == 2])),
        ):
            excluded, word = search(C, w)
            if d <= top:
                assert excluded == d - 1 and int(np.count_nonzero(word)) == d and word in C
            else:
                assert (excluded, word) == (top, None)
        if spec.r == 1:
            cap = data.draw(st.integers(1, d + 1), label="cap")
            res = cyclic_min_weight_upto(C, cap)
            if cap >= d:
                assert res.exact and res.lower == d
                assert int(np.count_nonzero(res.witness)) == d and res.witness in C
            else:
                assert (res.lower, res.upper, res.witness) == (cap + 1, C.n, None)


def test_split_search_reduces_only_cyclic_codes():
    # the only weight-2 words avoid position 0, and no shift maps the code to
    # itself: a search that enumerated only low halves holding position 0
    # would certify weight 2 absent
    for spec in (F2, F7):
        C = LinearCode(spec, [[0, 1, 1, 0, 0, 0, 0], [1, 0, 0, 1, 1, 1, 1]])
        assert not is_cyclic(C) and exhaustive_min_weight(C).lower == 2
        excluded, word = syndrome_split_search(C, 3)
        assert excluded == 1 and word[0] == 0 and int(np.count_nonzero(word)) == 2
        with mock.patch.object(linear_code, "is_cyclic", lambda code: True):
            assert syndrome_split_search(C, 2) == (2, None)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_window_kernel_enumerates_each_normalized_message_once(p):
    # blocks of 12 entries split both the supports and the coefficient grids
    k, m = 4, 3
    Gout = np.random.default_rng(p).integers(0, p, size=(k, m))
    messages = np.array(list(itertools.product(range(p), repeat=k)))
    for t in range(1, k + 1):
        seen = []
        with mock.patch.object(linear_code, "_WINDOW_CELLS", 12):
            for sup, grids, wts in linear_code._window_weights(Gout, t, p):
                for i, (support, grid) in enumerate(itertools.product(sup, grids)):
                    msg = np.zeros(k, dtype=np.int64)
                    msg[support] = np.append(1, grid + 1)
                    assert wts[i] == np.count_nonzero(msg @ Gout % p)
                    seen.append(tuple(msg))
        lead = messages[np.arange(len(messages)), np.argmax(messages != 0, axis=1)]
        expected = messages[(np.count_nonzero(messages, axis=1) == t) & (lead == 1)]
        assert sorted(seen) == sorted(map(tuple, expected))


def test_cyclic_window_memory_is_bounded():
    # a random [48,13] cyclic code over GF(7): level 4 of the window has
    # 715 supports times 216 grids, each a 35-entry word outside the window
    fam = JAffineFamily(field_from_order(49), (49,), (1,))
    rng = np.random.default_rng(0)
    delta = closure(fam, 7, DefiningSet(fam, []))
    while len(delta) < 13:
        delta = closure(fam, 7, DefiningSet(fam, [*delta, (int(rng.integers(0, 48)),)]))
    C = subfield_code(fam, 7, delta)
    assert (C.n, C.k) == (48, 13)
    dual(C)  # cached before tracing starts
    tracemalloc.start()
    try:
        res = cyclic_min_weight_upto(C, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exact and res.witness in C
    assert peak < 8 << 20


def test_search_budget_env(monkeypatch):
    monkeypatch.setenv("EVALCODE_BUDGET_STEPS", "123456")
    assert SearchBudget().steps == 123456
    monkeypatch.delenv("EVALCODE_BUDGET_STEPS")
    assert SearchBudget().steps == 10**9
    assert SearchBudget(steps=55).steps == 55
    assert [f.name for f in dataclasses.fields(SearchBudget)] == ["steps"]


def test_distance_result_validation():
    with pytest.raises(ValueError):
        DistanceResult(5, 3, how="proved bound")
    r = DistanceResult(2, 4, how="proved bound")
    assert not r.exact and r.how == "proved bound"


SEARCH_FIELDS = [(2, 1), (3, 1), (2, 2), (7, 1), (2, 3), (3, 2)]


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_syndrome_split_agrees_with_exhaustive(data):
    # one small random code per field, prime and extension
    for p, r in SEARCH_FIELDS:
        spec = make_field(p, r)
        n = data.draw(st.integers(2, 14 if spec.q <= 3 else 7), label="n")
        k = data.draw(st.integers(1, min(n, 5)), label="k")
        entries = st.lists(st.integers(0, spec.q - 1), min_size=n * k, max_size=n * k)
        C = LinearCode(spec, np.array(data.draw(entries), dtype=np.int64).reshape(k, n))
        if C.k == 0:
            continue
        d = exhaustive_min_weight(C).lower
        for search in (syndrome_split_search, low_weight_search):
            excluded, word = search(C, d + 1)
            if word is None:
                assert excluded < d  # never a false exclusion
            else:
                assert int(np.count_nonzero(word)) == d and excluded == d - 1
                assert word in C


def test_syndrome_split_budget_degrades_honestly():
    spec = make_field(2, 1)
    rng = np.random.default_rng(3)
    C = LinearCode(spec, rng.integers(0, 2, size=(10, 24)).astype(np.int64))
    exact = exhaustive_min_weight(C)
    tight = SearchBudget(steps=10)
    excluded, word = syndrome_split_search(C, 8, tight)
    assert word is None and excluded < exact.lower  # gave up early, never wrong
    full = SearchBudget(steps=10**9)
    excluded, word = syndrome_split_search(C, exact.lower, full)
    assert word is not None and int(np.count_nonzero(word)) == exact.lower


def test_syndrome_split_memory_is_bounded():
    # level 6 of this [11,3] code over GF(16) needs a high half of 165 * 15^3
    # entries, about 13 MB; the patched limit stops the search before it
    C = LinearCode(make_field(2, 4), np.random.default_rng(0).integers(0, 16, size=(3, 11)))
    dual(C)  # cached before tracing starts
    with mock.patch.object(linear_code, "_SPLIT_TABLE_BYTES", 1 << 20):
        tracemalloc.start()
        try:
            excluded, word = syndrome_split_search(C, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (excluded, word) == (5, None)
    assert peak < 20 << 20


@pytest.mark.parametrize("p, n, k", [(2, 100, 50), (7, 40, 20)])
def test_syndrome_split_low_half_memory(p, n, k):
    # level 5's low half holds up to 2^18 3-supports and their keys at once;
    # a chunk built as a list of tuples, with keys from an int64 copy of the
    # digit block, would take about 50 MB
    C = LinearCode(make_field(p, 1), np.random.default_rng(0).integers(0, p, size=(k, n)))
    dual(C)  # cached before tracing starts
    tracemalloc.start()
    try:
        assert syndrome_split_search(C, 5) == (5, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 << 20


def test_syndrome_split_extension_field():
    C = LinearCode(F4, np.array([[1, 2, 3]], dtype=np.int64))  # [3,1,3] over GF(4)
    assert syndrome_split_search(C, 2) == (2, None)
    excluded, word = syndrome_split_search(C, 3)
    assert excluded == 2 and int(np.count_nonzero(word)) == 3 and word in C


def test_syndrome_split_full_space_weight_one():
    spec = make_field(3, 1)
    C = LinearCode(spec, np.eye(4, dtype=np.int64))
    excluded, word = syndrome_split_search(C, 3)
    assert excluded == 0 and int(np.count_nonzero(word)) == 1
