"""CSS/CSS-T pair tests: structure criteria vs the matrix-level definition.

Fixture values (dimensions, coset sizes, distances) were derived once with
independent scripts — orbit enumeration, combinatorial dual counts, and
low-weight searches — and are asserted here as frozen constants.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evalcode import linear_code
from evalcode._gfmat import matmul

from evalcode.cartesian import (
    DefiningSet,
    JAffineFamily,
    delta_rm,
    delta_wrm,
    evaluate,
    footprint_bound,
)
from evalcode.csst import (
    JCSST_COMPARISON,
    CssTParams,
    css_params,
    csst_product_construction,
    hyperbolic_dual_certificate,
    hyperbolic_shell,
    is_csst_pair,
    jaffine_csst,
    jaffine_csst_strict,
    wrm_csst,
)
from evalcode.csst import table as csst_table
from evalcode._report import check_report
from evalcode.cyclotomic import orbit_of, subfield_code
from evalcode.galois import make_field
from evalcode.linear_code import (
    LinearCode,
    contains,
    dual,
    find_weight_witness,
    low_weight_search,
    schur,
)

F2 = make_field(2, 1)
F4 = make_field(2, 2)
F16 = make_field(2, 4)
F64 = make_field(2, 6)

WEIGHTS_7 = (1,) + (2,) * 6
WEIGHTS_8 = (1,) + (2,) * 7


def closed_union(family, reps, qprime=2):
    elems = []
    for rep in reps:
        elems.extend(orbit_of(family, qprime, rep).orbit)
    return DefiningSet(family, elems)


@pytest.fixture(scope="module")
def fam128():
    return JAffineFamily(F16, (16, 4, 2), ())


@pytest.fixture(scope="module")
def fam192():
    return JAffineFamily(F64, (64, 4), (2,))


@pytest.fixture(scope="module")
def pair128(fam128):
    d1 = DefiningSet(
        fam128,
        [(a, b, c) for a in (0, 1, 2, 4, 8) for b in range(4) for c in range(2)],
    )
    d2 = closed_union(fam128, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    return d1, d2


@pytest.fixture(scope="module")
def pair192(fam192):
    line = JAffineFamily(F64, (64,), ())
    d1_line = closed_union(line, [(0,), (1,), (3,), (5,), (9,)])
    d1 = DefiningSet(fam192, [(e[0], b) for e in d1_line for b in range(3)])
    d2 = closed_union(fam192, [(0, 0), (1, 0), (0, 1)])
    return d1, d2


# ---------------------------------------------------------------------------
# css_params and the matrix-level CSS-T test


def test_css_params_identical_pair_has_no_logical_dimension():
    C = evaluate(JAffineFamily(F4, (4, 4), ()), delta_rm(4, 2, 1))
    params = css_params(C, C)
    assert (params.n, params.k, params.d_lower) == (16, 0, 1)


def test_css_params_full_and_zero_pair():
    fam = JAffineFamily(F2, (2, 2, 2, 2), ())
    full = evaluate(fam, DefiningSet(fam, list(fam.box())))
    zero = LinearCode(F2, np.zeros((0, 16), dtype=np.int64))
    params = css_params(full, zero)
    assert (params.n, params.k, params.d_lower) == (16, 16, 1)


def test_css_params_rejects_non_nested_codes():
    rm1 = evaluate(JAffineFamily(F2, (2,) * 4, ()), delta_rm(2, 4, 1))
    rm2 = evaluate(JAffineFamily(F2, (2,) * 4, ()), delta_rm(2, 4, 2))
    with pytest.raises(ValueError, match="contained"):
        css_params(rm1, rm2)


def test_css_params_certifies_reed_muller_pair_distance():
    fam = JAffineFamily(F2, (2,) * 7, ())
    C1 = evaluate(fam, delta_wrm(2, 7, 5, WEIGHTS_7))
    C2 = evaluate(fam, delta_rm(2, 7, 1))
    params = css_params(C1, C2)
    assert (params.n, params.k) == (128, 36)
    assert params.d_lower == 4


def _scalar_words(C):
    """Every word of C as a tuple, in scalar field ops: the words of the
    first i + 1 rows are those of the first i plus each multiple of row i."""
    spec, words = C.spec, [(0,) * C.n]
    for row in C.gen.tolist():
        multiples = [[spec.mul(c, y) for y in row] for c in range(spec.q)]
        words = [tuple(map(spec.add, w, m)) for m in multiples for w in words]
    return words


def brute_relative_weight(A, B):
    """Least weight of a word of A outside B: B's words are listed once, and
    each word of A is looked up among them."""
    in_B = set(_scalar_words(B))
    weights = (sum(1 for x in word if x) for word in _scalar_words(A) if word not in in_B)
    return min(weights, default=A.n + 1)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_css_params_relative_weights_match_brute_force_over_gf4(data):
    # the coset count enumerates from message q^dim(B) on, past the words of B
    n = data.draw(st.integers(2, 7), label="n")
    k = data.draw(st.integers(1, min(n, 4)), label="k")
    entries = st.lists(st.integers(0, 3), min_size=n * k, max_size=n * k)
    C1 = LinearCode(F4, np.array(data.draw(entries), dtype=np.int64).reshape(k, n))
    if C1.k == 0:
        return
    k2 = data.draw(st.integers(0, C1.k - 1), label="k2")
    mix = st.lists(st.integers(0, 3), min_size=k2 * C1.k, max_size=k2 * C1.k)
    coeffs = np.array(data.draw(mix), dtype=np.int64).reshape(k2, C1.k)
    C2 = LinearCode(F4, matmul(coeffs, C1.gen, F4))  # a subcode of C1
    table = data.draw(st.sampled_from([1, n, 4 * n, 1 << 20]), label="table")
    with mock.patch.object(linear_code, "_TABLE_ENTRIES", table):
        params = css_params(C1, C2)
    assert params.cert("wt(C1\\C2)") == (brute_relative_weight(C1, C2), "relative-exhaustive")
    b2 = brute_relative_weight(dual(C2), dual(C1))
    assert params.cert("wt(C2^perp\\C1^perp)") == (b2, "relative-exhaustive")


def test_is_csst_pair_reed_muller_fixture():
    fam = JAffineFamily(F2, (2,) * 7, ())
    C1 = evaluate(fam, delta_rm(2, 7, 1))
    C2 = evaluate(fam, delta_rm(2, 7, 0))
    ok, cert = is_csst_pair(C1, C2)
    assert ok
    assert cert["c2_in_c1"] and cert["c2_in_dual_schur_square"]
    assert cert["schur_square_dim"] == 29  # the square is the order-2 code


def test_is_csst_pair_detects_schur_square_violation():
    fam = JAffineFamily(F2, (2,) * 4, ())
    C = evaluate(fam, delta_rm(2, 4, 2))
    ok, cert = is_csst_pair(C, C)
    assert not ok
    assert cert["c2_in_c1"]
    assert not cert["c2_in_dual_schur_square"]
    assert cert["schur_square_dim"] == 16  # square fills the whole space


def test_is_csst_pair_requires_binary_codes():
    C = evaluate(JAffineFamily(F4, (4, 4), ()), delta_rm(4, 2, 1))
    with pytest.raises(ValueError, match="binary"):
        is_csst_pair(C, C)


def test_csst_params_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        CssTParams(8, -1, 2)
    with pytest.raises(ValueError, match="at least 1"):
        CssTParams(8, 1, 0)
    p = CssTParams(8, 1, 2, (("route", "x"),))
    assert p.cert("route") == "x"
    with pytest.raises(KeyError):
        p.cert("absent")


# ---------------------------------------------------------------------------
# weighted Reed-Muller pairs


def test_wrm_pair_128():
    params = wrm_csst(7, 5, WEIGHTS_7, 1)
    assert (params.n, params.k, params.d_lower) == (128, 36, 4)
    assert (params.cert("k1"), params.cert("k2")) == (44, 8)
    assert params.cert("matrix_oracle")["c2_in_dual_schur_square"]


def test_wrm_pair_256():
    params = wrm_csst(8, 5, WEIGHTS_8, 2)
    assert (params.n, params.k, params.d_lower) == (256, 21, 8)
    assert (params.cert("k1"), params.cert("k2")) == (58, 37)


def test_wrm_pair_512_and_1024_parameters():
    p512 = wrm_csst(9, 7, (1,) + (2,) * 8, 1, check_pair=False)
    assert (p512.n, p512.k, p512.d_lower) == (512, 176, 4)
    p1024 = wrm_csst(10, 7, (1,) + (2,) * 9, 2, check_pair=False)
    assert (p1024.n, p1024.k, p1024.d_lower) == (1024, 204, 8)


def test_wrm_pair_rejects_unembeddable_order():
    with pytest.raises(ValueError, match="v_min"):
        wrm_csst(7, 5, WEIGHTS_7, 3)


def test_wrm_pair_rejects_excessive_square_degree():
    with pytest.raises(ValueError, match="smaller than m"):
        wrm_csst(7, 5, WEIGHTS_7, 2)


def test_wrm_schur_square_containment():
    fam = JAffineFamily(F2, (2,) * 4, ())
    S = (1, 2, 2, 2)
    C = evaluate(fam, delta_wrm(2, 4, 3, S))
    big = evaluate(fam, delta_wrm(2, 4, 6, S))
    assert contains(big, schur(C, C))


def test_wrm_pair_code_distance_dominates_dual_distance():
    # min{wt(C1), wt(C2^perp)} is achieved by the dual side: 4 <= 16
    params = wrm_csst(7, 5, WEIGHTS_7, 1, check_pair=False)
    fam = JAffineFamily(F2, (2,) * 7, ())
    fb = footprint_bound(fam, delta_wrm(2, 7, 5, WEIGHTS_7))
    assert params.d_lower == 4 and fb == 16
    assert params.d_lower <= fb


# ---------------------------------------------------------------------------
# strict criterion (defining sets inside E')


def test_strict_line_pair_accepts_consecutive_orbit_union():
    line = JAffineFamily(F16, (16,), ())
    d = closed_union(line, [(0,), (1,)])
    ok, cert = jaffine_csst_strict(line, 2, d, d)
    assert ok and cert["square_in_dual"]


def test_strict_line_pair_names_violating_exponent():
    line = JAffineFamily(F16, (16,), ())
    d1 = closed_union(line, [(0,), (1,), (3,)])
    d2 = closed_union(line, [(0,), (1,)])
    ok, cert = jaffine_csst_strict(line, 2, d1, d2)
    assert not ok
    assert cert["violating_exponent"] == (7,)


def test_strict_rejects_sets_outside_reduced_box(pair128, fam128):
    d1, d2 = pair128
    with pytest.raises(ValueError, match="E'"):
        jaffine_csst_strict(fam128, 2, d1, d2)


def test_strict_rejects_unclosed_sets():
    line = JAffineFamily(F16, (16,), ())
    d = DefiningSet(line, [(0,), (1,)])
    with pytest.raises(ValueError, match="orbit"):
        jaffine_csst_strict(line, 2, d, d)


def test_strict_zero_pair_depends_on_unit_coordinates():
    d_affine = DefiningSet(JAffineFamily(F4, (4, 4), ()), [(0, 0)])
    ok, _ = jaffine_csst_strict(d_affine.family, 2, d_affine, d_affine)
    assert ok
    mixed = JAffineFamily(F4, (4, 4), (2,))
    d_mixed = DefiningSet(mixed, [(0, 0)])
    ok, _ = jaffine_csst_strict(mixed, 2, d_mixed, d_mixed)
    assert ok  # the partner of 0 on the unit coordinate is 0, not the corner
    units = JAffineFamily(F4, (4, 4), (1, 2))
    d_units = DefiningSet(units, [(0, 0)])
    ok, cert = jaffine_csst_strict(units, 2, d_units, d_units)
    assert not ok and cert["violating_exponent"] == (0, 0)


def test_strict_pair_passes_matrix_oracle():
    fam = JAffineFamily(F4, (4, 4), ())
    d1 = closed_union(fam, [(0, 0), (0, 1)])
    d2 = DefiningSet(fam, [(0, 0)])
    ok, _ = jaffine_csst_strict(fam, 2, d1, d2)
    assert ok
    ok_matrix, _ = is_csst_pair(subfield_code(fam, 2, d1), subfield_code(fam, 2, d2))
    assert ok_matrix


# ---------------------------------------------------------------------------
# flexible criterion (defining sets anywhere in the exponent box)


def test_flexible_zero_pair_requires_an_affine_coordinate():
    units = JAffineFamily(F4, (4, 4), (1, 2))
    d = DefiningSet(units, [(0, 0)])
    ok, cert = jaffine_csst(units, 2, d, d)
    assert not ok and cert["violating_exponent"] == (0, 0)
    mixed = JAffineFamily(F4, (4, 4), (2,))
    d = DefiningSet(mixed, [(0, 0)])
    ok, _ = jaffine_csst(mixed, 2, d, d)
    assert ok


def test_flexible_names_corner_exponent():
    mixed = JAffineFamily(F4, (4, 4), (2,))
    d1 = DefiningSet(mixed, [(0, 0), (3, 0)])
    d2 = DefiningSet(mixed, [(0, 0)])
    ok, cert = jaffine_csst(mixed, 2, d1, d2)
    assert not ok
    assert cert["violating_exponent"] == (3, 0)


def test_flexible_rejects_unclosed_sets(fam192):
    d = DefiningSet(fam192, [(0, 0), (1, 0)])
    with pytest.raises(ValueError, match="orbit"):
        jaffine_csst(fam192, 2, d, d)


def test_flexible_subset_failure_certified(fam192, pair192):
    d1, d2 = pair192
    bigger = closed_union(fam192, [(0, 0), (1, 0), (0, 1), (3, 0)])
    ok, cert = jaffine_csst(fam192, 2, d2, bigger)
    assert not ok and not cert["c2_subset_c1"]


def test_flexible_accepts_128_instance(pair128, fam128):
    d1, d2 = pair128
    assert (len(d1), len(d2)) == (40, 8)
    ok, _ = jaffine_csst(fam128, 2, d1, d2)
    assert ok
    assert len(d1) - len(d2) == 32


def test_flexible_accepts_192_instance(pair192, fam192):
    d1, d2 = pair192
    assert (len(d1), len(d2)) == (66, 9)
    ok, _ = jaffine_csst(fam192, 2, d1, d2)
    assert ok
    assert len(d1) - len(d2) == 57


def test_128_pair_matrix_oracle_and_distance(pair128, fam128):
    d1, d2 = pair128
    C1 = subfield_code(fam128, 2, d1)
    C2 = subfield_code(fam128, 2, d2)
    assert (C1.k, C2.k) == (40, 8)
    ok, _ = is_csst_pair(C1, C2)
    assert ok
    D = dual(C2)
    excluded, _ = low_weight_search(D, 3)
    assert excluded == 3
    witness = find_weight_witness(D, 4)
    assert witness is not None and int(np.count_nonzero(witness)) == 4


def test_192_pair_matrix_oracle_and_distance(pair192, fam192):
    d1, d2 = pair192
    C1 = subfield_code(fam192, 2, d1)
    C2 = subfield_code(fam192, 2, d2)
    assert (C1.k, C2.k) == (66, 9)
    ok, _ = is_csst_pair(C1, C2)
    assert ok
    D = dual(C2)
    excluded, _ = low_weight_search(D, 3)
    assert excluded == 3
    witness = find_weight_witness(D, 4)
    assert witness is not None and int(np.count_nonzero(witness)) == 4


# ---------------------------------------------------------------------------
# hyperbolic-containment distance certificate


def test_hyperbolic_shell_contents_and_footprint():
    fam = JAffineFamily(F4, (4, 4), ())
    shell = hyperbolic_shell(fam, 4)
    assert len(shell) == 11
    assert footprint_bound(fam, shell) == 4


def test_certificate_accepts_closed_dual_shell(fam192):
    from evalcode.cartesian import delta_dual
    from evalcode.cyclotomic import closure

    shell = hyperbolic_shell(fam192, 4)
    d2 = closure(fam192, 2, delta_dual(fam192, shell))
    assert len(d2) == 15
    bound, reason = hyperbolic_dual_certificate(fam192, 2, d2, 4)
    assert bound == 4 and reason == "hyperbolic containment"


def test_certificate_accepts_128_instance(pair128, fam128):
    _, d2 = pair128
    bound, reason = hyperbolic_dual_certificate(fam128, 2, d2, 4)
    assert bound == 4 and reason == "hyperbolic containment"


def test_certificate_reports_missing_shell_exponent(pair192, fam192):
    _, d2 = pair192
    bound, reason = hyperbolic_dual_certificate(fam192, 2, d2, 4)
    assert bound is None
    assert "(1, 1)" in reason


def test_certificate_requires_closed_set(fam192):
    d2 = DefiningSet(fam192, [(0, 0), (1, 0)])
    bound, reason = hyperbolic_dual_certificate(fam192, 2, d2, 4)
    assert bound is None and "orbit-closed" in reason


# ---------------------------------------------------------------------------
# product construction


LINE63_D1 = [(0,), (1,), (3,), (5,), (9,)]
LINE63_D2 = [(0,), (1,)]


def line_union(q, N, reps):
    line = JAffineFamily(make_field(2, q), (N,), ())
    return [e[0] for e in closed_union(line, reps)]


def test_product_construction_128_row():
    params = csst_product_construction(
        (16, [0, 1, 2, 4, 8], [0, 1, 2, 4, 8]), ((4, 2), 3), 4
    )
    assert (params.n, params.k, params.d_lower) == (128, 32, 4)
    assert params.cert("delta2_size") == 8
    assert params.cert("distance_route") == "hyperbolic containment"


def test_product_construction_192_row():
    d1 = line_union(6, 64, LINE63_D1)
    d2 = line_union(6, 64, LINE63_D2)
    params = csst_product_construction((64, d1, d2), ((4,), 1), 4)
    assert (params.n, params.k, params.d_lower) == (192, 51, 4)
    assert params.cert("delta2_size") == 15


def test_product_construction_448_row():
    d1 = line_union(6, 64, LINE63_D1)
    d2 = line_union(6, 64, LINE63_D2)
    params = csst_product_construction((64, d1, d2), ((8,), 1), 4)
    assert (params.n, params.k, params.d_lower) == (448, 136, 4)
    assert params.cert("delta2_size") == 18


def test_product_construction_1024_rows():
    d1 = line_union(9, 512, [(r,) for r in (0, 1, 3, 5, 7, 9, 11, 13, 17, 19, 21, 25, 35, 37, 41, 73)])
    assert len(d1) == 130
    d2_narrow = line_union(9, 512, [(0,), (1,), (3,), (5,)])
    p6 = csst_product_construction((512, d1, d2_narrow), ((2,), 2), 6)
    assert (p6.n, p6.k, p6.d_lower) == (1024, 231, 6)
    assert p6.cert("delta2_size") == 29
    p8 = csst_product_construction((512, d1, d2_narrow), ((2,), 2), 8)
    assert (p8.n, p8.k, p8.d_lower) == (1024, 222, 8)
    assert p8.cert("delta2_size") == 38
    # widening the seed by the next orbit creates a reduced-sum collision
    d2_wide = line_union(9, 512, [(0,), (1,), (3,), (5,), (7,)])
    with pytest.raises(ValueError, match="triple sum"):
        csst_product_construction((512, d1, d2_wide), ((2,), 2), 8)


def test_product_construction_validates_seeds():
    with pytest.raises(ValueError, match="orbit-closed"):
        csst_product_construction((16, [0, 1, 3], [0]), ((4,), 1), 4)
    with pytest.raises(ValueError, match="contained"):
        csst_product_construction(
            (16, [0, 1, 2, 4, 8], [0, 1, 2, 4, 8, 3, 6, 12, 9]), ((4,), 1), 4
        )
    with pytest.raises(ValueError, match="triple sum"):
        csst_product_construction(
            (16, [0, 1, 2, 4, 8, 3, 6, 12, 9], [1, 2, 4, 8]), ((4,), 1), 4
        )
    with pytest.raises(ValueError, match="m_1"):
        csst_product_construction((16, [0], [0]), ((4,), 3), 4)


# ---------------------------------------------------------------- stored tables


def test_table_unknown_kind_rejected():
    with pytest.raises(ValueError, match="jcss-t"):
        csst_table("nope")


def test_table_vii_all_rows_match():
    rows = csst_table("VII")
    assert [r.label for r in rows] == ["m=7", "m=8", "m=9", "m=10"]
    ok, lines = check_report(rows)
    assert ok
    corrections = [ln for ln in lines if "corrected" in ln]
    assert len(corrections) == 4  # two m=7 dimension slips, two 128-vs-256 distances
    assert any("k_sq" in ln and "114" in ln for ln in corrections)
    assert any("k_sqperp" in ln and "14" in ln for ln in corrections)
    for r in rows:
        for name, cell in r.cells.items():
            if name.startswith("d_"):
                assert isinstance(cell.computed, int)  # certified exactly, not ">=L"


def test_table_vii_css_column_parameters():
    rows = csst_table("VII")
    params = [(r.scheme.n, r.scheme.k, r.scheme.d_lower) for r in rows]
    assert params == [(128, 36, 4), (256, 21, 8), (512, 176, 4), (1024, 204, 8)]


def test_table_jcsst_dimensions_and_distances():
    rows = csst_table("jcss-t")
    got = {r.label: tuple(r.cells[c].computed for c in ("n", "k", "d")) for r in rows}
    assert got == {
        "128": (128, 32, 4),
        "192": (192, 57, 4),
        "256": (256, 28, 8),
        "448": (448, 141, 4),
        "512": (512, 166, 4),
        "576": (576, 183, 4),
        "1024a": (1024, 231, 6),
        "1024b": (1024, 222, 8),
    }
    ok, _ = check_report(rows)
    assert ok


def test_table_jcsst_annotates_misprinted_coset_lists():
    rows = csst_table("jcss-t")
    noted = {r.label for r in rows if r.cells["k"].note}
    assert noted == {"256", "448", "576"}


def test_comparison_rows_consistent_with_tables():
    vii = {r.scheme.n: (r.scheme.k, r.scheme.d_lower) for r in csst_table("VII")}
    grid = {
        r.label: (r.cells["k"].computed, r.cells["d"].computed)
        for r in csst_table("jcss-t")
    }
    expect_grid = ["128", "256", "512", "1024a", "1024b"]
    for row, label in zip(JCSST_COMPARISON, expect_grid):
        k, d = row["grid"]
        assert grid[label] == (k, d)
        if row["WRM"] is not None:
            assert vii[row["n"]] == row["WRM"]
        for col in ("RM", "IRM", "EC", "IEC"):
            if row[col] is not None:
                kx, dx = row[col]
                assert dx == d
                assert kx < k  # the grid construction strictly wins on dimension
        if row["WRM"] is not None:
            kw, dw = row["WRM"]
            assert dw == d
            # weighted Reed-Muller wins at lengths 128 and 512 (table VII
            # certifies [[512, 176, 4]]) and loses at 256 and at 1024 with d = 8
            assert (kw > k) == (row["n"] in (128, 512))
