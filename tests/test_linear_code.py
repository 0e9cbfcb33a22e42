import ast
import dataclasses
import gc
import itertools
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path
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
from evalcode.galois import FieldError, FieldSpec, make_field, subgroup_roots
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


@pytest.mark.parametrize("p,r", [(2, 1), (2, 2), (2, 4), (7, 1), (3, 2), (7, 2), (2, 8)])
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


def _rref_generic_reference(M, spec):
    """The int64 table-path elimination that the narrow kernel replaced: whole
    rows, multiples by FieldSpec.mul_arr and sums by FieldSpec.add_arr.
    The reference for _gfmat._rref_generic."""
    A = np.array(M, dtype=np.int64)
    nrows, ncols = A.shape
    r = 0
    pivots = []
    for c in range(ncols):
        if r == nrows:
            break
        nzi = np.nonzero(A[r:, c])[0]
        if nzi.size == 0:
            continue
        piv = r + int(nzi[0])
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        pv = int(A[r, c])
        if pv != 1:
            A[r] = spec.scale_arr(spec.inv(pv), A[r])
        other = spec.neg_arr(A[:, c])
        other[r] = 0
        hit = np.nonzero(other)[0]
        if hit.size:
            A[hit] = spec.add_arr(A[hit], spec.mul_arr(other[hit][:, None], A[r]))
        pivots.append(c)
        r += 1
    return A[: len(pivots)], pivots


def _rref_bits_reference(rows):
    """The one-pass GF(2) elimination that the two-pass kernel replaced: each
    row is reduced by every pivot found so far, and each new pivot row is
    swept across every pivot row.  The reference for _gfmat.rref_bits."""
    piv_rows = {}
    piv_bits = {}
    for r in rows:
        for c, bit in piv_bits.items():
            if r & bit:
                r ^= piv_rows[c]
        if r:
            c = (r & -r).bit_length() - 1
            bit = 1 << c
            for pc in piv_rows:
                if piv_rows[pc] & bit:
                    piv_rows[pc] ^= r
            piv_rows[c] = r
            piv_bits[c] = bit
    pivots = sorted(piv_rows)
    return [piv_rows[c] for c in pivots], pivots


@settings(max_examples=8, deadline=None)
@given(st.data())
def test_gf2_rref_matches_one_pass_reference(data):
    # the shapes real passes make: tall rank-deficient matrices, a Schur
    # square of more than 1000 rows with rank close to n, wide full-rank
    # matrices and one column; each with zero, repeated and shuffled rows
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    n = data.draw(st.integers(1, 96), label="n")
    rank = data.draw(st.integers(0, n), label="rank")
    tall = rng.integers(0, 2, (data.draw(st.integers(n, 2000), label="rows"), rank))
    tall = tall @ rng.integers(0, 2, (rank, n)) % 2
    A = rng.integers(0, 2, (46, 64 + n))  # 1081 row pairs
    A[:, rng.choice(64 + n, data.draw(st.integers(0, 8), label="gap"), replace=False)] = 0
    k = data.draw(st.integers(1, 60), label="k")
    wide = rng.integers(0, 2, (k, data.draw(st.integers(k, 400), label="width")))
    wide[:, rng.choice(wide.shape[1], k, replace=False)] = np.eye(k, dtype=np.int64)
    column = rng.integers(0, 2, (data.draw(st.integers(1, 40), label="column"), 1))
    for M in (tall, schur_rows(A, A, F2), wide, column):
        rows = len(M)
        M[rng.choice(rows, data.draw(st.integers(0, rows // 4), label="zero"), replace=False)] = 0
        repeat = rng.choice(rows, data.draw(st.integers(0, rows // 4), label="repeat"), replace=False)
        M[repeat] = M[rng.integers(0, rows, repeat.size)]
        M = M[rng.permutation(rows)]
        bits = _gfmat.pack_rows(M)
        expect = _rref_bits_reference(bits)
        assert _gfmat.rref_bits(bits) == expect
        R, pivots = rref(M, F2)
        assert pivots == expect[1]
        assert R.tobytes() == _gfmat.unpack_rows(expect[0], M.shape[1]).tobytes()


def test_rref_bits_of_no_rows_and_zero_rows():
    assert _gfmat.rref_bits([]) == ([], [])
    assert _gfmat.rref_bits([0, 0]) == ([], [])
    assert _gfmat.rref_bits([0b110, 0, 0b011, 0b110, 0b101]) == ([0b101, 0b110], [0, 1])


def _matmul_reference(A, B, spec):
    """A @ B by the int64 loop that the row update replaced: one mul_arr
    and one add_arr per nonzero column of A.  The reference for
    _gfmat.matmul over an extension field."""
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for t in range(A.shape[1]):
        col = A[:, t]
        if np.any(col):
            out = spec.add_arr(out, spec.mul_arr(col[:, None], B[t]))
    return out


# every narrow-table case (odd p with 16- and 32-bit keys, characteristic 2 in
# uint8 and uint16) and both characteristics on the log path
NARROW_FIELDS = [
    (3, 1), (2, 2), (7, 1), (2, 3), (3, 2), (7, 2), (2, 6), (2, 8), (2, 9), (3, 6), (3, 7), (2, 11),
]


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_narrow_rref_matches_int64_reference(data):
    # tall, wide and square M of any rank, with zero, repeated, scaled and
    # late-starting rows, so that pivots are often not 1 and rows swap
    for p, r in NARROW_FIELDS:
        spec = make_field(p, r)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        a = data.draw(st.integers(1, 18), label="a")
        b = data.draw(st.integers(1, 18), label="b")
        shape = data.draw(st.sampled_from(["tall", "wide", "square"]), label="shape")
        rows, cols = {
            "tall": (max(a, b), min(a, b)), "wide": (min(a, b), max(a, b)), "square": (a, a)
        }[shape]
        rank = data.draw(st.integers(0, min(rows, cols)), label="rank")
        X, Y = rng.integers(0, spec.q, (rows, rank)), rng.integers(0, spec.q, (rank, cols))
        M = _matmul_reference(X, Y, spec)
        for i in range(rows):
            kind = data.draw(st.sampled_from(["keep", "zero", "repeat", "scale", "late"]), label="row")
            if kind == "zero":
                M[i] = 0
            elif kind == "repeat" and i:
                M[i] = M[data.draw(st.integers(0, i - 1), label="source")]
            elif kind == "scale":
                M[i] = spec.scale_arr(int(rng.integers(1, spec.q)), M[i])
            elif kind == "late":
                M[i, : data.draw(st.integers(1, cols), label="lead")] = 0
        R, pivots = rref(M, spec)
        R0, pivots0 = _rref_generic_reference(M, spec)
        assert pivots == pivots0
        assert R.dtype == np.int64 and R.shape == R0.shape
        assert R.tobytes() == R0.tobytes(), (spec.q, M)
        R1, pivots1 = rref(R, spec)
        assert pivots1 == pivots and R1.tobytes() == R.tobytes()


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_rref_generic_matches_reference_across_pivot_free_columns(data):
    # runs of columns with no pivot: zero columns at the start, in the middle
    # and at the end, repeated and dependent columns, and tall rank-deficient
    # matrices whose trailing columns combine the leading ones
    for p, r in NARROW_FIELDS:
        spec = make_field(p, r)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        rows = data.draw(st.integers(1, 18), label="rows")
        cols = data.draw(st.integers(1, 18), label="cols")
        rank = data.draw(st.integers(0, min(rows, cols)), label="rank")
        M = _matmul_reference(rng.integers(0, spec.q, (rows, rank)), rng.integers(0, spec.q, (rank, cols)), spec)
        lead = data.draw(st.integers(0, cols), label="lead")
        if data.draw(st.booleans(), label="dependent tail"):
            M[:, lead:] = _matmul_reference(M[:, :lead], rng.integers(0, spec.q, (lead, cols - lead)), spec)
        for j in range(cols):
            kind = data.draw(st.sampled_from(["keep", "zero", "repeat", "dependent"]), label="column")
            if kind == "zero":
                M[:, j] = 0
            elif kind == "repeat" and j:
                M[:, j] = M[:, data.draw(st.integers(0, j - 1), label="source")]
            elif kind == "dependent" and j:
                a, b = rng.integers(0, j, 2)
                u, v = (int(x) for x in rng.integers(0, spec.q, 2))
                M[:, j] = spec.add_arr(spec.scale_arr(u, M[:, a]), spec.scale_arr(v, M[:, b]))
        start, mid, end = (data.draw(st.integers(0, cols // 3), label=name) for name in ("start", "mid", "end"))
        at = data.draw(st.integers(0, cols), label="mid at")
        M[:, :start] = 0
        M[:, at : at + mid] = 0
        M[:, cols - end :] = 0
        _assert_rref_generic_matches_reference(M, spec)


def _assert_rref_generic_matches_reference(M, spec):
    R, pivots = _gfmat._rref_generic(M, spec)
    R0, pivots0 = _rref_generic_reference(M, spec)
    assert pivots == pivots0
    assert R.dtype == spec.dtype and R.shape == R0.shape
    assert R.astype(np.int64).tobytes() == R0.tobytes(), (spec.q, M)


def test_rref_generic_edge_shapes():
    # the all-zero matrix, one row and one column, each zero and nonzero
    rng = np.random.default_rng(11)
    for p, r in NARROW_FIELDS:
        spec = make_field(p, r)
        row = rng.integers(0, spec.q, (1, 9))
        row[0, :4] = 0
        column = rng.integers(0, spec.q, (9, 1))
        column[:4] = 0
        zeros = [np.zeros(shape, dtype=np.int64) for shape in ((5, 7), (1, 1), (1, 9), (9, 1))]
        cases = [*zeros, row, column, np.array([[spec.q - 1]])]
        for M in cases:
            _assert_rref_generic_matches_reference(M, spec)
        assert _gfmat._rref_generic(zeros[0], spec)[0].shape == (0, 7)


def test_rref_pivot_loop_calls_no_wide_field_op(monkeypatch):
    # a GF(49) elimination at the oracles' largest size changes the rows off
    # the pivot through sub_scaled_rows alone: no scale_arr, add_arr or neg_arr
    spec = make_field(7, 2)
    M = np.random.default_rng(342).integers(0, spec.q, (342, 343))
    expect = _rref_generic_reference(M, spec)
    calls = []
    for op in ("add_arr", "scale_arr", "neg_arr"):
        orig = getattr(FieldSpec, op)
        monkeypatch.setattr(
            FieldSpec, op, lambda self, *args, _op=op, _orig=orig: calls.append(_op) or _orig(self, *args)
        )
    R, pivots = rref(M, spec)
    assert calls == []
    assert pivots == expect[1] and np.array_equal(R, expect[0])


def test_rref_rejects_entries_outside_the_field():
    cases = [
        (F4, [[1, 0, 0], [0, 1, 5]]),  # was kept as a [3,2] code holding 5
        (F4, [[1, 5, 0], [0, 1, 1]]),  # was an IndexError from the table
        (F7, [[1, 9, 0]]),  # was kept as it was
        (F7, [[1, -1, 0]]),
        (F2, [[1, 3, 0], [0, 1, 1]]),  # 3 became 1
        (F7, [[0, 7, 1]]),
        (F2, [[2, 1, 1]]),
    ]
    for spec, rows in cases:
        with pytest.raises(ValueError, match=re.escape(spec.name)):
            LinearCode(spec, rows)
        with pytest.raises(ValueError, match=re.escape(spec.name)):
            rref(np.array(rows), spec)
    assert LinearCode(F4, [[1, 0, 3], [0, 1, 2]]).k == 2


def test_rref_rejects_arrays_above_two_dimensions():
    # a 2 x 2 x 2 array gave an empty (0, 2) RREF over GF(2) and a bare
    # unpacking error over GF(4); a vector is still one row
    for spec in (F2, F4, F7):
        with pytest.raises(ValueError, match=re.escape("(2, 2, 2)")):
            rref(np.ones((2, 2, 2), dtype=np.int64), spec)
        R, pivots = rref(np.array([0, 1, 1]), spec)
        assert pivots == [1] and R.tolist() == [[0, 1, 1]]


def _matmul_float_reference(A, B, spec):
    """A @ B over a prime field by the float64 product that the exact
    kernels replaced: the inner dimension in chunks of 2^53 // (p - 1)^2, so
    that every partial sum is an exact float, each reduced mod p.  The
    reference for _gfmat.matmul over a prime field."""
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    step = (1 << 53) // (spec.p - 1) ** 2
    out = None
    for s in range(0, max(A.shape[1], 1), step):  # one chunk at the least
        part = A[:, s : s + step].astype(np.float64) @ B[s : s + step].astype(np.float64)
        part = np.asarray(np.round(part), dtype=np.int64) % spec.p
        out = part if out is None else (out + part) % spec.p
    return out


# GF(2) bitsets; prime fields on the narrow tables and, past the 2^10 table
# limit, on the log path; extension fields of both characteristics
MATMUL_FIELDS = [(2, 1), (3, 1), (7, 1), (31, 1), (1031, 1), (2, 2), (2, 3), (7, 2), (2, 6)]


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_matmul_matches_reference(data):
    # m, k and n down to 0, n past a byte of GF(2) bitset, A with zero rows
    # and zero columns; residual and contains read the product, on members
    # of C and on random words
    for p, r in MATMUL_FIELDS:
        spec = make_field(p, r)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        m, k = (data.draw(st.integers(0, 10), label=name) for name in "mk")
        n = data.draw(st.integers(0, 20), label="n")
        A = rng.integers(0, spec.q, (m, k))
        A[:, data.draw(st.lists(st.integers(0, max(k - 1, 0)), max_size=k), label="zero")] = 0
        A[data.draw(st.lists(st.integers(0, max(m - 1, 0)), max_size=m), label="zero rows")] = 0
        B = rng.integers(0, spec.q, (k, n))
        out = _gfmat.matmul(A, B, spec)
        reference = _matmul_float_reference if r == 1 else _matmul_reference
        assert out.dtype == np.int64 and out.shape == (m, n)
        assert np.array_equal(out, reference(A, B, spec)), (spec.q, A, B)
        C = LinearCode(spec, B)
        coef = rng.integers(0, spec.q, (m, C.k))
        coef[:, : data.draw(st.integers(0, C.k), label="unused")] = 0
        words = rng.integers(0, spec.q, (data.draw(st.integers(0, 3), label="words"), n))
        V = np.concatenate([reference(coef, C.gen, spec), words])
        expect = spec.sub_arr(V, reference(V[:, C.pivots], C.gen, spec))
        assert np.array_equal(_gfmat.residual(C.gen, C.pivots, V, spec), expect)
        assert contains(C, LinearCode(spec, V)) == (not expect.any())


def test_matmul_rejects_shapes_that_do_not_multiply():
    # a 2 x 2 by 3 x 4 product over GF(4) used two of B's three rows, and a
    # 1 x 3 by 2 x 2 raised a bare IndexError
    for spec in (F2, F4, F7):
        for a, b in [((2, 2), (3, 4)), ((1, 3), (2, 2)), ((3,), (3, 2)), ((2, 3), (3,))]:
            with pytest.raises(ValueError, match=re.escape(f"{a}") + ".*" + re.escape(f"{b}")):
                _gfmat.matmul(np.ones(a, dtype=np.int64), np.ones(b, dtype=np.int64), spec)


def test_non_integral_entries_are_not_field_elements():
    # the int64 cast truncated 1.5 to 1 and turned NaN and inf into integers,
    # so [1.5, 1.9, 0, 0] was a word of the code of [1, 1, 0, 0]
    for spec in (F2, F4, F7):
        C = LinearCode(spec, [[1, 1, 0, 0], [0, 0, 1, 1]])
        for bad in (1.5, 0.5, np.nan, np.inf, -np.inf):
            word = np.array([bad, 1, 0, 0])
            assert word not in C
            with pytest.raises(ValueError, match=re.escape(spec.name)):
                LinearCode(spec, [word])
            with pytest.raises(ValueError, match=re.escape(spec.name)):
                rref([[0, 0], [bad, 1.0]], spec)
        # integral floats and bools are still the integers they equal
        assert np.array([1.0, 1.0, 0.0, 0.0]) in C and np.array([True, True, False, False]) in C
        assert LinearCode(spec, [[1.0, 1, 0, 0]]) == LinearCode(spec, [[True, True, False, False]])
        R, pivots = rref(np.array([[0.0, 1.0]]), spec)
        assert pivots == [1] and R.dtype == np.int64 and R.tolist() == [[0, 1]]


def test_prime_matmul_is_exact_past_float_precision():
    # inner * (p - 1)^2 is above 2^53, where one float64 product rounds; the
    # int64 product is exact here, since 20000 * (p - 1)^2 < 2^63
    p = 1048573
    spec = make_field(p)
    rng = np.random.default_rng(0)
    A = rng.integers(p - 1000, p, (3, 20000))
    B = rng.integers(p - 1000, p, (20000, 4))
    assert np.array_equal(_gfmat.matmul(A, B, spec), (A @ B) % p)


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
    gens = [rng.integers(0, spec.q, (k, 343)) for k in (1, 337)]
    codes = [LinearCode(spec, M) for M in gens]
    assert [C.k for C in codes] == [1, 337]
    rows_in = []

    def recording_rref(M, spec):
        rows_in.append(np.asarray(M).shape[0])
        return rref(M, spec)

    monkeypatch.setattr(_gfmat, "rref", recording_rref)
    for M, C in zip(gens, codes):
        # dual reads C's stored RREF: one elimination, on the small side
        rows_in.clear()
        D = dual(C)
        assert D.k == C.n - C.k
        assert not np.any(_gfmat.matmul(C.gen, D.gen.T, spec))
        assert len(rows_in) == 1 and rows_in[0] <= min(C.k, C.n - C.k), rows_in
        # nullspace of an unreduced matrix: one elimination, of M itself
        rows_in.clear()
        assert np.array_equal(_gfmat.nullspace(M, spec), D.gen)
        assert rows_in == [len(M)], rows_in


def test_nullspace_at_half_the_length(monkeypatch):
    # exactly n/2 rows, and n/2 + 1 rows of rank below n/2: each takes one
    # elimination, of M itself, and gives the reference
    n = 12
    rows_in = []

    def recording_rref(M, spec):
        rows_in.append(np.asarray(M).shape[0])
        return rref(M, spec)

    monkeypatch.setattr(_gfmat, "rref", recording_rref)
    for p, r in [(2, 1), *NARROW_FIELDS]:
        spec = make_field(p, r)
        rng = np.random.default_rng(p * 100 + r)
        half = rng.integers(0, spec.q, (n // 2, n))
        half[-1] = half[0]  # rank below the row count
        over = _matmul_reference(
            rng.integers(0, spec.q, (n // 2 + 1, n // 2 - 2)), rng.integers(0, spec.q, (n // 2 - 2, n)), spec
        )
        for M in (half, over):
            rows_in.clear()
            N = _gfmat.nullspace(M, spec)
            expect, k = _nullspace_scalar(M, spec)
            assert k < n // 2 and N.shape == (n - k, n)
            assert np.array_equal(N, expect), (spec.q, M)
            assert rows_in == [len(M)], rows_in


KERNEL_IMAGE_FIELDS = [(2, 1), (3, 1), (2, 2), (7, 1), (3, 2), (7, 2)]


def _kernel_image_reference(K, V, spec):
    """{x @ V : x @ K = 0} by the nullspace of K^T and a product; the
    reference for _gfmat.kernel_image."""
    lam = _gfmat.nullspace(np.asarray(K, dtype=np.int64).T, spec)
    return rref(_gfmat.matmul(lam, V, spec), spec)[0]


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_kernel_image_matches_nullspace_and_product(data):
    # K of every rank up to its row count, with zero and repeated rows; V
    # with rows in K's dependencies and outside them; m, K's and V's widths
    # down to 0
    for p, r in KERNEL_IMAGE_FIELDS:
        spec = make_field(p, r)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        m = data.draw(st.integers(0, 10), label="m")
        kc, n = (data.draw(st.integers(0, 12), label=name) for name in ("kc", "n"))
        rank = data.draw(st.integers(0, min(m, kc)), label="rank")
        K = _gfmat.matmul(rng.integers(0, spec.q, (m, rank)), rng.integers(0, spec.q, (rank, kc)), spec)
        V = rng.integers(0, spec.q, (m, n))
        for i in range(m):
            kind = data.draw(st.sampled_from(["keep", "zero", "repeat"]), label="row")
            if kind == "zero":
                K[i] = 0
            elif kind == "repeat" and i:
                j = data.draw(st.integers(0, i - 1), label="source")
                K[i], V[i] = K[j], V[j]
        out = _gfmat.kernel_image(K, V, spec)
        assert out.dtype == np.int64 and out.shape[1] == n
        assert np.array_equal(out, _kernel_image_reference(K, V, spec)), (spec.q, K, V)
        assert np.array_equal(rref(out, spec)[0], out)
        narrow = _gfmat.kernel_image(K.astype(np.uint8), V.astype(np.uint8), spec)
        assert narrow.dtype == np.int64 and np.array_equal(narrow, out)


def test_kernel_image_edge_cases():
    rng = np.random.default_rng(5)
    for p, r in KERNEL_IMAGE_FIELDS:
        spec = make_field(p, r)
        V = rng.integers(0, spec.q, (6, 9))
        V[3] = spec.add_arr(V[0], V[1])  # rank at most 5: RREF(V) drops a row
        # K with no columns, and K = 0, constrain nothing: every row is kept
        for K in (np.zeros((6, 0), dtype=np.int64), np.zeros((6, 4), dtype=np.int64)):
            assert np.array_equal(_gfmat.kernel_image(K, V, spec), rref(V, spec)[0])
        # K of full row rank: only x = 0
        K = np.concatenate([np.eye(6, dtype=np.int64), rng.integers(0, spec.q, (6, 2))], axis=1)
        out = _gfmat.kernel_image(K, V, spec)
        assert out.shape == (0, 9) and out.dtype == np.int64
        # no rows at all
        assert _gfmat.kernel_image(np.zeros((0, 3), dtype=np.int64), V[:0], spec).shape == (0, 9)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_small_side_rref_is_the_permuted_rref(data):
    # the witness search's R when 2k > n: the nullspace of the permuted dual
    # generator is the RREF of C's permuted generator, on both sides of n/2
    for p, r in [(2, 1), (3, 1), (2, 2), (7, 1), (2, 3)]:
        spec = make_field(p, r)
        n = data.draw(st.integers(2, 16), label="n")
        k = data.draw(
            st.one_of(st.sampled_from([n - 1, n // 2, n // 2 + 1]), st.integers(0, n)), label="k"
        )
        entries = st.lists(st.integers(0, spec.q - 1), min_size=k * (n - k), max_size=k * (n - k))
        A = np.array(data.draw(entries, label="A"), dtype=np.int64).reshape(k, n - k)
        shuffle = data.draw(st.permutations(range(n)), label="shuffle")
        C = LinearCode(spec, np.concatenate([np.eye(k, dtype=np.int64), A], axis=1)[:, shuffle])
        assert C.k == k
        perm = np.array(data.draw(st.permutations(range(n)), label="perm"), dtype=np.int64)
        expect = rref(C.gen[:, perm], spec)[0]
        assert np.array_equal(_gfmat.nullspace(dual(C).gen[:, perm], spec), expect)
        # the witness search returns the first row of the target weight in its
        # first R, which must be the RREF of the first permuted generator
        if k:
            first = np.random.default_rng(linear_code._ISD_SEED).permutation(n)
            R = rref(C.gen[:, first], spec)[0]
            wts = np.count_nonzero(R, axis=1)
            word = linear_code._isd_witness(C, int(wts[-1]), SearchBudget())
            assert np.array_equal(word, R[np.argmax(wts == wts[-1])][np.argsort(first)])


def test_witness_search_eliminates_only_the_small_side():
    # a high-rate code whose dual is not cached, as when it is the dual of a
    # code that is gone: no elimination may take more than n - k rows
    rng = np.random.default_rng(23)
    for spec, n, k, steps in [(F2, 255, 230, 3 * 230 * 229 // 2), (make_field(7, 2), 343, 300, 50)]:
        C = LinearCode(spec, rng.integers(0, spec.q, (k, n)))
        assert C.k == k
        C._dual_cache = None
        rows_in = []

        def recording_rref(M, spec):
            rows_in.append(np.asarray(M).shape[0])
            return rref(M, spec)

        with mock.patch.object(_gfmat, "rref", recording_rref):
            assert linear_code._isd_witness(C, 1, SearchBudget(steps)) is None
        assert rows_in and max(rows_in) <= n - k, rows_in


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


def test_schur_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call, and a signal handler that
    # calls np.unique during that import (the benchmark's speed sampler does)
    # recurses in numpy's lazy loader; the orbit table is queried directly on
    # a fresh family, and again through the table IV build
    code = (
        "import sys, numpy as np\n"
        "before = 'numpy.ma' in sys.modules\n"
        "from evalcode import pir\n"
        "from evalcode.cartesian import JAffineFamily, field_from_order\n"
        "from evalcode.cyclotomic import closure, consecutive_union, representatives\n"
        "f = JAffineFamily(field_from_order(64), (64, 4), (2,))\n"
        "closure(f, 2, [(1, 0), (0, 1)])\n"
        "representatives(f, 4)\n"
        "consecutive_union(f, 8, 5)\n"
        "from evalcode.galois import make_field\n"
        "from evalcode.linear_code import LinearCode, schur\n"
        "pir.table('IV')\n"
        "C = LinearCode(make_field(7, 1), np.arange(40).reshape(4, 10) % 7)\n"
        "schur(C, C)\n"
        "print(before, 'numpy.ma' in sys.modules)\n"
    )
    src = str(Path(linear_code.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert after == before


def test_library_calls_no_numpy_set_routine():
    # the guard above sees numpy.ma only on the paths it runs, and only the
    # plain np.unique imports it on NumPy 2.4 (return_counts= does not); the
    # exponent sets are box masks, which need none of these routines
    banned = {"unique", "union1d", "intersect1d", "setdiff1d", "setxor1d", "isin"}
    calls = []
    for path in sorted(Path(linear_code.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name in banned:
                    calls.append(f"{path.name}:{node.lineno}: {name}")
    assert not calls


def test_library_uses_no_floating_point_or_blas():
    # every product is exact integer arithmetic: no @, no numpy BLAS or
    # linalg routine, no floating dtype and no rounding back to integers
    blas = {"matmul", "dot", "vdot", "inner", "einsum", "tensordot", "linalg"}
    floats = {"float16", "float32", "float64", "float128", "double", "longdouble"}
    found = []
    for path in sorted(Path(linear_code.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{where}: @")
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in ("np", "numpy") and node.attr in blas | floats | {"round", "around"}:
                    found.append(f"{where}: np.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                found += [f"{where}: {a.name}" for a in node.names if a.name in blas | floats]
            elif isinstance(node, ast.Constant) and node.value in floats:
                found.append(f"{where}: {node.value!r}")
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "attr", None)
                dtypes = [kw.value for kw in node.keywords if kw.arg == "dtype"]
                dtypes += node.args[:1] if name == "astype" else []
                found += [
                    f"{where}: float dtype"
                    for d in dtypes
                    if getattr(d, "id", None) == "float" or getattr(d, "value", None) == "float"
                ]
    assert not found


def test_library_imports_only_at_module_level():
    # an import inside a function hides a dependency from the module header;
    # no module of the library needs one to break a cycle
    nested = []
    for path in sorted(Path(linear_code.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert not nested


def reduce_vector(R, pivots, v, spec):
    """Residual of v after elimination against an RREF basis, one pivot at a
    time: row i alone is nonzero in pivot column i, so its multiplier is -v
    there.  The reference for _gfmat.residual."""
    res = np.array(v, dtype=np.int64)
    for i, c in enumerate(spec.neg_arr(res[pivots]).tolist()):
        if c:
            res = spec.add_arr(res, spec.scale_arr(c, R[i]))
    return res


RESIDUAL_FIELDS = [(2, 1), (3, 1), (2, 2), (7, 1), (2, 3), (3, 2), (7, 2), (2, 6)]


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_residual_agrees_with_pivot_by_pivot_reduction(data):
    # V with 0, 1 or many rows: members (dense combinations and single-row
    # multiples), random rows, sparse words and members plus a sparse word;
    # R may be the zero code
    for p, r in RESIDUAL_FIELDS:
        spec = make_field(p, r)
        n = data.draw(st.integers(1, 16), label="n")
        k = data.draw(st.one_of(st.just(0), st.integers(0, n)), label="k")
        elem = st.integers(0, spec.q - 1)

        def vector(size, label):
            entries = data.draw(st.lists(elem, min_size=size, max_size=size), label=label)
            return np.array(entries, dtype=np.int64)

        C = LinearCode(spec, vector(k * n, "G").reshape(k, n))

        def sparse():
            word = np.zeros(n, dtype=np.int64)
            for _ in range(data.draw(st.integers(1, 2), label="weight")):
                word[data.draw(st.integers(0, n - 1), label="pos")] = data.draw(elem, label="value")
            return word

        def member():
            if C.k and data.draw(st.booleans(), label="one row"):
                i = data.draw(st.integers(0, C.k - 1), label="row")
                return spec.scale_arr(data.draw(elem, label="scalar"), C.gen[i])
            return _gfmat.matmul(vector(C.k, "message")[None], C.gen, spec)[0]

        kinds = {
            "member": member,
            "random": lambda: vector(n, "word"),
            "sparse": sparse,
            "member+sparse": lambda: spec.add_arr(member(), sparse()),
        }
        rows = data.draw(st.one_of(st.sampled_from([0, 1]), st.integers(2, 12)), label="rows")
        V = np.zeros((rows, n), dtype=np.int64)
        for i in range(rows):
            V[i] = kinds[data.draw(st.sampled_from(sorted(kinds)), label="kind")]()
        expect = np.array([reduce_vector(C.gen, C.pivots, v, spec) for v in V]).reshape(rows, n)
        assert np.array_equal(_gfmat.residual(C.gen, C.pivots, V, spec), expect), (spec.q, C.gen, V)
        members = ~expect.any(axis=1)
        for v, e, is_member in zip(V, expect, members):
            assert np.array_equal(_gfmat.residual(C.gen, C.pivots, v, spec), e)
            assert _gfmat.in_row_space(C.gen, C.pivots, v, spec) == is_member
            assert (v in C) == is_member
        assert _gfmat.in_row_space(C.gen, C.pivots, V, spec) == members.all()
        assert contains(C, LinearCode(spec, V)) == members.all()
        assert _gfmat.in_row_space(C.gen, C.pivots, V[members], spec)
        assert contains(C, LinearCode(spec, V[members]))


def test_residual_multiplies_only_the_rows_it_uses(monkeypatch):
    C = LinearCode(F7, np.random.default_rng(7).integers(0, 7, (40, 64)))
    used = []

    def recording_matmul(A, B, spec):
        used.append(len(B))
        return matmul(A, B, spec)

    matmul = _gfmat.matmul
    monkeypatch.setattr(_gfmat, "matmul", recording_matmul)
    word = F7.add_arr(F7.scale_arr(3, C.gen[3]), C.gen[17])
    assert word in C
    assert not _gfmat.residual(C.gen, C.pivots, np.stack([word, F7.scale_arr(2, C.gen[3])]), F7).any()
    assert used == [2, 2]


def test_contains_and_membership():
    C = hamming74()
    sub = LinearCode(F2, C.gen[:2])
    assert contains(C, sub)
    assert not contains(sub, C)
    assert contains(C, C)
    assert np.zeros(7, dtype=np.int64) in C


def test_contains_rejects_words_outside_the_field():
    # an entry outside 0..q-1 is not a field element, so the word is not a
    # codeword; -6 was reduced mod 7 to 1, and 8 over GF(7) and 5 over GF(4)
    # raised an IndexError from the tables
    cases = [
        (F2, [[2, 0, 0, 0], [-1, -1, 0, 0], [3, 3, 0, 0]]),
        (F4, [[5, 0, 0, 0], [4, 4, 0, 0], [-1, -1, 0, 0]]),
        (F7, [[-6, 1, 0, 0], [8, 8, 0, 0], [7, 7, 0, 0]]),
    ]
    for spec, words in cases:
        C = LinearCode(spec, [[1, 1, 0, 0], [0, 0, 1, 1]])
        assert np.array([1, 1, 0, 0]) in C
        for word in words:
            assert np.array(word) not in C
            with pytest.raises(RuntimeError, match="not in code"):
                _verify_word(C, np.array(word), np.count_nonzero(word))


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
    assert puncture(C, [2, 0, 2]) == puncture(C, [0, 2])
    assert shorten(C, [2, 0, 2]) == shorten(C, [0, 2])
    for op in (puncture, shorten):
        for bad in ([9], [7], [-1], [0, 7]):
            with pytest.raises(IndexError, match=op.__name__):
                op(C, bad)


def _codewords(C):
    """Every word of C as a tuple, in scalar field ops."""
    spec, words = C.spec, {(0,) * C.n}
    for row in C.gen.tolist():
        multiples = [[spec.mul(c, y) for y in row] for c in range(spec.q)]
        words = {tuple(map(spec.add, w, m)) for m in multiples for w in words}
    return words


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_shorten_matches_brute_force(data):
    # positions unsorted and repeated, none, and every position
    for p, r in [(2, 1), (3, 1), (2, 2), (7, 1)]:
        spec = make_field(p, r)
        n = data.draw(st.integers(1, 7), label="n")
        k = data.draw(st.integers(0, {2: 5, 3: 4, 4: 3, 7: 3}[spec.q]), label="k")
        entries = st.lists(st.integers(0, spec.q - 1), min_size=k * n, max_size=k * n)
        C = LinearCode(spec, np.array(data.draw(entries, label="gen"), dtype=np.int64).reshape(k, n))
        every = data.draw(st.permutations(range(n)), label="every")
        some = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n), label="some")
        for pos in (some, every, []):
            S = shorten(C, pos)
            keep = [i for i in range(C.n) if i not in pos]
            expect = {tuple(w[i] for i in keep) for w in _codewords(C) if not any(w[i] for i in pos)}
            assert S.spec is spec and S.n == len(keep)
            assert _codewords(S) == expect, (spec.q, C.gen, pos)
            assert S.gen.dtype == np.int64 and np.array_equal(S.gen, LinearCode(spec, S.gen).gen)
            assert S.pivots == LinearCode(spec, S.gen).pivots


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
    # a bound below d that no word meets leaves the upper end at n
    loose = min_distance(rm, lower=7, target=7)
    assert (loose.lower, loose.upper, loose.how, loose.witness) == (7, 16, "proved bound", None)
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
        # a tight proved bound that a witness meets ends the planner first
        # (the witness search is deterministic); otherwise it enumerates
        proved = (
            lower is not None
            and lower == target
            and linear_code._isd_witness(C, target, SearchBudget()) is not None
        )
        assert res.exact
        assert res.how == ("proved bound" if proved else "exhaustive enumeration")
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


def _subfield_relabel_maps_by_minimal_polynomial(spec, s):
    """The index map from GF(p^s) inside spec to the canonical GF(p^s) that
    sends g_in = g^((q-1)/(q'-1)) to the least root of its minimal polynomial,
    expanded from g_in's conjugates and evaluated in scalar field ops.  The
    reference for linear_code._subfield_relabel_maps."""
    sub = make_field(spec.p, s)
    qp = sub.q
    to_sub = np.full(spec.q, -1, dtype=np.int64)
    to_sub[0] = 0
    if qp == 2:
        to_sub[1] = 1
        return sub, to_sub
    g_in = spec.pow(spec._gidx, (spec.q - 1) // (qp - 1))
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
        a_in = spec.mul(a_in, g_in)
        a_out = sub.mul(a_out, root)
    return sub, to_sub


# Every extension field of order at most 4096 and the prime fields that the
# suite builds: these cover every field the suite builds.
_RELABEL_FIELDS = [
    (p, r) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
    for r in range(2, 13) if p**r <= 4096
] + [(p, 1) for p in (2, 3, 5, 7, 11, 13, 251, 257, 1031, 65537)]


def test_subfield_relabel_maps_match_minimal_polynomial_root():
    compared = 0
    for p, r in _RELABEL_FIELDS:
        spec = make_field(p, r)
        for s in (s for s in range(1, r + 1) if r % s == 0):
            sub, to_sub = linear_code._subfield_relabel_maps(spec, s)
            ref_sub, ref_to_sub = _subfield_relabel_maps_by_minimal_polynomial(spec, s)
            assert sub is ref_sub and np.array_equal(to_sub, ref_to_sub), (p, r, s)
            compared += 1
    assert compared == 107


def test_subfield_subcode_trivial_cases():
    C = hamming74()
    assert subfield_subcode(C, 1) == C
    with pytest.raises(FieldError):
        subfield_subcode(C, 2)


def _subfield_subcode_by_field_combination(C, s):
    """S(C) with the fixed GF(p)-combinations of the basis x^t * row taken as
    GF(q) sums: matmul over GF(q) for odd p, XOR of indices for p = 2."""
    spec = C.spec
    sub, to_sub = linear_code._subfield_relabel_maps(spec, s)
    if C.k == 0:
        return LinearCode.zero(sub, C.n)
    B = np.concatenate([spec.scale_arr(spec.p**t, C.gen) for t in range(spec.r)])
    D = spec.sub_arr(spec.frobenius_arr(B, spec.p**s), B)
    lam = _gfmat.nullspace(spec.digits_arr(D).reshape(len(D), -1).T, make_field(spec.p, 1))
    if spec.p != 2:
        fixed = _gfmat.matmul(lam, B, spec)
    else:
        fixed = np.zeros((len(lam), C.n), dtype=np.int64)
        for t in range(lam.shape[1]):
            fixed[lam[:, t] != 0] ^= B[t]
    return LinearCode(sub, to_sub[fixed]) if len(lam) else LinearCode.zero(sub, C.n)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_subfield_subcode_combines_digits_in_every_characteristic(data):
    # C mixes random rows with scaled rows over a subfield, so S(C) is often
    # neither zero nor all of C's subfield part
    q = data.draw(st.sampled_from([4, 8, 9, 16, 49, 64]), label="q")
    spec = field_from_order(q)
    s = data.draw(st.sampled_from([s for s in range(1, spec.r) if spec.r % s == 0]), label="s")
    n = data.draw(st.integers(1, 7), label="n")
    small = spec.subfield_indices(s).tolist()
    rows = []
    for _ in range(data.draw(st.integers(0, 4), label="k")):
        sub = data.draw(st.booleans(), label="sub")
        entry = st.sampled_from(small) if sub else st.integers(0, q - 1)
        row = np.array(data.draw(st.lists(entry, min_size=n, max_size=n), label="row"))
        rows.append(spec.scale_arr(data.draw(st.integers(1, q - 1), label="scale"), row))
    C = LinearCode(spec, np.array(rows, dtype=np.int64).reshape(-1, n))
    assert subfield_subcode(C, s) == _subfield_subcode_by_field_combination(C, s)


def test_subfield_subcode_and_shorten_take_no_nullspace_or_product(monkeypatch):
    # both eliminate [K | V] once (_gfmat.kernel_image); the reference route
    # above still goes through nullspace and matmul
    rng = np.random.default_rng(11)
    cases = []
    for q, s in [(4, 1), (49, 1), (64, 3)]:
        spec = field_from_order(q)
        small = spec.subfield_indices(s)
        rows = np.concatenate([small[rng.integers(0, len(small), (3, 12))], rng.integers(0, q, (2, 12))])
        C = LinearCode(spec, spec.scale_arr(int(rng.integers(1, q)), rows))
        cases.append((C, s, _subfield_subcode_by_field_combination(C, s)))
    H = hamming74()
    shortened = shorten(H, [0, 3])

    def forbidden(*args):
        raise AssertionError("nullspace or matmul called")

    monkeypatch.setattr(_gfmat, "nullspace", forbidden)
    monkeypatch.setattr(_gfmat, "matmul", forbidden)
    for C, s, expect in cases:
        S = subfield_subcode(C, s)
        assert S == expect and S.k > 0
    assert shorten(H, [3, 0]) == shortened


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


def _window_count_nonzero_reference(C, w_cap):
    """cyclic_min_weight_upto with each block's weights counted by
    np.count_nonzero in int64; the reference for its narrow count."""
    n, k, p, G = C.n, C.k, C.spec.p, C.gen
    rows = np.arange(1, p, dtype=np.int64)[:, None, None] * G[:, k:] % p
    best, best_word = n + 1, None
    for t in range(1, min(w_cap * k // n, k) + 1):
        for sup, grids, acc in linear_code._unit_sums(rows, k, t, p, lead_one=True):
            wts = np.count_nonzero(acc, axis=2).reshape(-1)
            i = int(np.argmin(wts))
            if wts[i] + t < best:
                best = int(wts[i]) + t
                msg = np.zeros(k, dtype=np.int64)
                msg[sup[i // len(grids)]] = grids[i % len(grids)] + 1
                best_word = _gfmat.matmul(msg[None, :], G, C.spec)[0]
    if best <= w_cap:
        return DistanceResult(best, best, best_word, how="cyclic window")
    return DistanceResult(w_cap + 1, n, how="cyclic window")


def test_window_count_matches_count_nonzero():
    # n - k <= 255 counts in uint8, n - k > 255 in uint16: a [48,13] GF(7)
    # cyclic code, and GF(3) codes of length 264 spanned by the shifts of a
    # word of period 8, where a word with no zero in its period has weight 264
    fam = JAffineFamily(field_from_order(49), (49,), (1,))
    rng = np.random.default_rng(0)
    delta = closure(fam, 7, DefiningSet(fam, []))
    while len(delta) < 13:
        delta = closure(fam, 7, DefiningSet(fam, [*delta, (int(rng.integers(0, 48)),)]))
    cases = [(subfield_code(fam, 7, delta), 12)]
    F3 = make_field(3, 1)
    for seed in range(3):
        word = np.tile(np.random.default_rng(seed).integers(0, 3, 8), 33)
        C = LinearCode(F3, np.stack([np.roll(word, i) for i in range(8)]))
        assert C.n - C.k > 255
        cases += [(C, 264), (C, 100)]
    assert cases[0][0].n - cases[0][0].k <= 255
    for C, cap in cases:
        got, expect = cyclic_min_weight_upto(C, cap), _window_count_nonzero_reference(C, cap)
        assert (got.lower, got.upper, got.how) == (expect.lower, expect.upper, expect.how), (C, cap)
        assert (got.witness is None) == (expect.witness is None)
        assert got.witness is None or np.array_equal(got.witness, expect.witness)


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
        # a drawn cyclic code is the side with fewer words, so its dual has
        # k >= n/2, and is_cyclic then shifts the dual's rows, not the code's
        for code in (C, dual(C)):
            assert is_cyclic(code) == _shift_rows_in_code(code)
            assert is_cyclic(puncture(code, [0])) == _shift_rows_in_code(puncture(code, [0]))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_symmetry_reduced_searches_agree_with_exhaustive(data):
    # the split search enumerates only low halves holding position 0 on a
    # cyclic code, and the window search only messages led by coefficient 1
    for q in (2, 3, 4, 7):
        spec = field_from_order(q)
        C = _random_cyclic_code(data, spec)
        assert is_cyclic(C)
        # k cyclically consecutive positions are an information set, so the
        # window search reads its window off the stored RREF
        assert C.pivots == list(range(C.k))
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


def test_window_search_on_the_whole_space():
    # k = n leaves no column outside the window
    for spec in (F2, F7):
        res = cyclic_min_weight_upto(LinearCode(spec, np.eye(5, dtype=np.int64)), 2)
        assert res.exact and res.lower == 1 and int(np.count_nonzero(res.witness)) == 1


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
    # blocks of 12 digits split both the supports and the unit grids; the
    # blocks' entries, concatenated, must be support-major, with supports in
    # lexicographic order and grids in itertools.product order
    k, m = 4, 3
    Gout = np.random.default_rng(p).integers(0, p, size=(k, m))
    rows = np.arange(1, p)[:, None, None] * Gout % p  # rows[u - 1, i] = u * Gout[i]
    messages = np.array(list(itertools.product(range(p), repeat=k)))
    lead = messages[np.arange(len(messages)), np.argmax(messages != 0, axis=1)]
    for lead_one, through_zero in itertools.product((True, False), repeat=2):
        for t in range(1, k + 1):
            seen, msgs = [], []
            with mock.patch.object(linear_code, "_BLOCK_CELLS", 12):
                blocks = linear_code._unit_sums(
                    rows, k, t, p, lead_one=lead_one, through_zero=through_zero
                )
                for sup, grids, acc in blocks:
                    assert acc.shape == (len(sup), len(grids), m) and acc.size <= 12
                    assert len(sup) == 1 or len(grids) == (p - 1) ** (t - lead_one)
                    entries = zip(itertools.product(sup, grids), acc.reshape(-1, m))
                    for (support, grid), sums in entries:
                        msg = np.zeros(k, dtype=np.int64)
                        msg[support] = grid + 1
                        assert np.array_equal(sums, msg @ Gout % p)
                        seen.append((tuple(support), tuple(grid)))
                        msgs.append(tuple(msg))
            expected = [
                (support, grid)
                for support in itertools.combinations(range(k), t)
                if not through_zero or 0 in support
                for grid in itertools.product(range(p - 1), repeat=t)
                if not lead_one or grid[0] == 0
            ]
            assert seen == expected, (lead_one, through_zero, t)
            if lead_one and not through_zero:  # each normalized message once
                normalized = messages[(np.count_nonzero(messages, axis=1) == t) & (lead == 1)]
                assert sorted(msgs) == sorted(map(tuple, normalized))


def test_combination_chunks_match_itertools():
    # order and chunk sizes, including t = 0 (one empty subset), t = n and
    # t > n (no chunk), with one row a chunk and chunks past the total
    for n in range(9):
        for t in range(n + 2):
            for rows in (1, 2, 3, 7, 100):
                chunks = list(linear_code._combination_chunks(n, t, rows))
                assert all(c.dtype == np.int64 and c.shape[1] == t for c in chunks)
                total = len(list(itertools.combinations(range(n), t)))
                sizes = [rows] * (total // rows) + ([total % rows] if total % rows else [])
                assert [len(c) for c in chunks] == sizes, (n, t, rows)
                got = [tuple(int(i) for i in row) for c in chunks for row in c]
                assert got == list(itertools.combinations(range(n), t)), (n, t, rows)


def test_combination_chunks_memory_is_bounded():
    # the 3-subsets of range(1024) number 178 M; the first chunks are drawn
    # without building more than a few chunks' worth of positions
    rows, t = 1 << 16, 3
    tracemalloc.start()
    try:
        chunks = linear_code._combination_chunks(1024, t, rows)
        drawn = [next(chunks) for _ in range(3)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * rows * t * 8
    expected = itertools.islice(itertools.combinations(range(1024), t), 3 * rows)
    assert np.array_equal(np.concatenate(drawn), np.array(list(expected)))


@pytest.mark.parametrize(
    "keys",
    [
        np.random.default_rng(0).integers(0, 3, size=5000),  # heavy ties
        np.random.default_rng(1).permutation(5000) * 7 - 20000,  # none, some negative
        np.full(300, 4),
        np.array([9]),
        np.array([], dtype=np.int64),
    ],
    ids=["heavy-ties", "no-ties", "all-equal", "one", "empty"],
)
def test_stable_order_matches_stable_argsort(keys):
    keys = keys.astype(np.int64)
    order = linear_code._stable_order(keys)
    assert order.dtype == np.int64
    assert np.array_equal(order, np.argsort(keys, kind="stable"))


def test_split_search_builds_each_high_half_once():
    # levels 2b and 2b + 1 share the high half-table of b positions; the
    # high half is the one enumeration made without a leading coefficient 1
    spec = make_field(3, 1)
    C = LinearCode(spec, np.random.default_rng(4).integers(0, 3, size=(3, 20)))
    assert exhaustive_min_weight(C).lower > 5
    built, unit_sums = [], linear_code._unit_sums

    def recording(rows, n, t, p, **kw):
        if not kw.get("lead_one"):
            built.append(t)
        return unit_sums(rows, n, t, p, **kw)

    with mock.patch.object(linear_code, "_unit_sums", recording):
        assert syndrome_split_search(C, 5) == (5, None)
    assert built == [0, 1, 2]


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
    # one small random code per field, prime and extension; blocks of at
    # most 40 digits split the high half's grid list over GF(8) and GF(9)
    for p, r in SEARCH_FIELDS:
        spec = make_field(p, r)
        n = data.draw(st.integers(2, 14 if spec.q <= 3 else 7), label="n")
        k = data.draw(st.integers(1, min(n, 5)), label="k")
        entries = st.lists(st.integers(0, spec.q - 1), min_size=n * k, max_size=n * k)
        C = LinearCode(spec, np.array(data.draw(entries), dtype=np.int64).reshape(k, n))
        if C.k == 0:
            continue
        d = exhaustive_min_weight(C).lower
        cells = data.draw(st.sampled_from([linear_code._BLOCK_CELLS, 40]), label="cells")
        for search in (syndrome_split_search, low_weight_search):
            with mock.patch.object(linear_code, "_BLOCK_CELLS", cells):
                excluded, word = search(C, d + 1)
            if word is None:
                assert excluded < d  # never a false exclusion
            else:
                assert int(np.count_nonzero(word)) == d and excluded == d - 1
                assert word in C


# the three shapes whose words depended on the block size when matches were
# taken in key order, and five more
SPLIT_SHAPES = [
    (32, 15, 2, 1), (32, 18, 3, 1), (9, 2, 7, 1), (40, 20, 2, 1),
    (20, 9, 2, 2), (14, 6, 2, 3), (24, 12, 3, 1), (16, 8, 5, 1),
]


def test_syndrome_split_word_is_independent_of_block_size():
    # the word is the first low half, in enumeration order, with a verified
    # completion, so 2 000-digit blocks return the word that 2^21 does
    for seed in range(25):
        for n, k, p, r in SPLIT_SHAPES:
            spec = make_field(p, r)
            C = LinearCode(spec, np.random.default_rng(seed).integers(0, spec.q, size=(k, n)))
            runs = []
            for cells in (1 << 21, 2000):
                with mock.patch.object(linear_code, "_BLOCK_CELLS", cells):
                    runs.append(syndrome_split_search(C, 6))
            (excluded, word), (excluded2, word2) = runs
            assert excluded == excluded2
            assert (word is None) == (word2 is None)
            if word is not None:
                assert np.array_equal(word, word2)
                assert int(np.count_nonzero(word)) == excluded + 1 and word in C


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
