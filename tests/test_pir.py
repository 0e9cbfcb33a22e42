"""PIR scheme tests: rate identity, transitivity certification, stored tables.

Stored-table fixtures (dimensions, privacy levels, rates) were derived once
with independent scripts and are asserted as frozen constants.
"""

import ast
import inspect
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from evalcode import linear_code, pir
from evalcode._report import check_report, columns_of
from evalcode.cartesian import (
    DefiningSet,
    JAffineFamily,
    evaluate,
    field_from_order,
    full_affine_family,
    minkowski_schur,
)
from evalcode.cyclotomic import (
    closure,
    consecutive_union,
    dual_bch_bound,
    representatives,
    schur_subfield,
    subfield_code,
)
from evalcode.galois import make_field, primitive_element
from evalcode.linear_code import LinearCode, dual, min_distance, schur
from evalcode.pir import (
    PROVED,
    UNVERIFIED,
    VERIFIED,
    PirScheme,
    combine_transitivity,
    grade_transitivity,
    one_var_scheme,
    pir_params,
    table,
    te_pir_subfield,
    transitivity_premises,
    verify_transitive,
)


def fam(q, N, J=()):
    return JAffineFamily(field_from_order(q), N, J)


# ---------------------------------------------------------------- scheme type


def test_combine_transitivity_weaker_wins():
    assert combine_transitivity(PROVED, VERIFIED) == VERIFIED
    assert combine_transitivity(VERIFIED, PROVED) == VERIFIED
    assert combine_transitivity(PROVED, PROVED) == PROVED
    assert combine_transitivity(UNVERIFIED, PROVED) == UNVERIFIED


def _toy_pair():
    f = fam(4, (4,))
    C = evaluate(f, DefiningSet(f, [(0,)]))
    D = evaluate(f, DefiningSet(f, [(0,), (1,)]))
    return f, C, D


def test_scheme_validation():
    f, C, D = _toy_pair()
    good = dict(
        n=4, storage=C, retrieval=D, privacy_lower=1,
        rate=Fraction(1, 4), storage_rate=Fraction(1, 4),
    )
    PirScheme(**good)
    with pytest.raises(ValueError):
        PirScheme(**{**good, "transitivity": "certified"})
    with pytest.raises(ValueError):
        PirScheme(**{**good, "privacy_lower": 0})
    with pytest.raises(ValueError):
        PirScheme(**{**good, "rate": Fraction(1, 3)})  # denominator not dividing n
    with pytest.raises(ValueError):
        PirScheme(**{**good, "rate": 0.25})
    with pytest.raises(ValueError):
        PirScheme(**{**good, "storage_rate": Fraction(0)})


def test_rate_strings_use_code_length_denominator():
    f, C, D = _toy_pair()
    s = pir_params(C, D)
    assert s.rate == Fraction(1, 2) and s.rate_string == "2/4"
    assert s.storage_rate_string == "1/4"


def test_pir_params_rate_identity_random_instances():
    rng = random.Random(7)
    for q, N, J in [(4, (4,), ()), (4, (4, 2), ()), (8, (8,), (1,)), (16, (6,), ())]:
        f = fam(q, N, J)
        box = f.box()
        for _ in range(4):
            dC = DefiningSet(f, rng.sample(box, rng.randint(1, 3)))
            dD = DefiningSet(f, rng.sample(box, rng.randint(1, 3)))
            C, D = evaluate(f, dC), evaluate(f, dD)
            try:
                s = pir_params(C, D)
            except ValueError:
                continue  # dual distance bound collapsed to 1: no scheme
            assert s.rate + Fraction(schur(C, D).k, f.n_points) == 1
            assert (s.rate * s.n).denominator == 1


def test_pir_params_schemes_are_unverified():
    # an arbitrary pair has no family to grade on, and no caller may stamp one
    f, C, D = _toy_pair()
    assert pir_params(C, D).transitivity == UNVERIFIED
    assert "transitivity" not in inspect.signature(pir_params).parameters


def test_pir_params_rejects_unit_dual_distance():
    spec = field_from_order(2)
    C = LinearCode(spec, np.array([[1, 1]], dtype=np.int64))
    D = LinearCode(spec, np.array([[1, 0]], dtype=np.int64))  # dead coordinate
    with pytest.raises(ValueError, match="privacy"):
        pir_params(C, D)


def test_pir_params_rejects_mismatched_codes():
    f, C, D = _toy_pair()
    other = evaluate(fam(4, (4, 4)), DefiningSet(fam(4, (4, 4)), [(0, 0)]))
    with pytest.raises(ValueError):
        pir_params(C, other)


# ---------------------------------------------------------------- transitivity


def test_premises_decreasing_prime_power_grid():
    f = full_affine_family(4, 2)
    d = DefiningSet(f, [(0, 0), (1, 0), (0, 1)])
    assert transitivity_premises(f, d) == PROVED


def test_premises_need_prime_power_coordinates():
    f = fam(16, (6,))  # 6 is not a power of 2
    d = DefiningSet(f, [(0,), (1,)])
    assert transitivity_premises(f, d) == UNVERIFIED


def test_premises_need_decreasing_set():
    f = full_affine_family(4, 2)
    d = DefiningSet(f, [(0, 0), (2, 0)])
    assert transitivity_premises(f, d) == UNVERIFIED


def test_premises_consecutive_class_union():
    f = fam(256, (256,), (1,))
    d = consecutive_union(f, 2, 2)
    assert transitivity_premises(f, d, 2) == PROVED
    skipping = d.union(closure(f, 2, DefiningSet(f, [(11,)])))
    assert transitivity_premises(f, skipping, 2) == UNVERIFIED


@pytest.mark.parametrize("q,qprime", [(16, 2), (16, 4), (64, 2), (64, 8), (256, 2), (256, 16)])
def test_premises_match_the_consecutive_union_definition(q, qprime):
    # proved exactly when Δ is consecutive_union(i) for some i: every union,
    # then closed sets that skip a class, and sets that are not closed
    f = fam(q, (q,), (1,))
    unions = [consecutive_union(f, qprime, i) for i in range(len(representatives(f, qprime)))]
    rng = random.Random(q * qprime)
    others = [DefiningSet(f, []), DefiningSet(f, [(1,)])]
    for size in (1, 2, 3, 5):
        seeds = rng.sample(f.box(), size)
        others.append(closure(f, qprime, seeds))
        others.append(unions[size % len(unions)].union(closure(f, qprime, seeds[-1:])))
    for d in unions + others:
        expect = PROVED if d in unions else UNVERIFIED
        assert transitivity_premises(f, d, qprime) == expect, (q, qprime, d.elems)
    assert any(d not in unions for d in others)


def test_verify_transitive_scaling_orbit():
    f = fam(16, (16,), (1,))
    C = evaluate(f, DefiningSet(f, [(0,), (1,)]))
    assert verify_transitive(C, family=f) == VERIFIED


def test_verify_transitive_explicit_generators():
    f = fam(16, (16,), (1,))
    C = evaluate(f, DefiningSet(f, [(0,), (1,)]))
    shift = np.roll(np.arange(15), 1)
    assert verify_transitive(C, [shift]) == VERIFIED  # cyclic: shift preserves C
    assert verify_transitive(C, [np.arange(15)]) == UNVERIFIED  # identity orbit {0}
    with pytest.raises(ValueError):
        verify_transitive(C, [np.zeros(15, dtype=int)])  # not a permutation
    with pytest.raises(ValueError):
        verify_transitive(C, [np.arange(14)])  # wrong length


def test_verify_transitive_rejects_non_integral_generators():
    # [1.5, 2, 3, 0] was cast to the shift [1, 2, 3, 0] and accepted
    for spec in (make_field(2), make_field(2, 2), make_field(7)):
        C = LinearCode(spec, [[1, 1, 1, 1]])
        for bad in (1.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="not a permutation"):
                verify_transitive(C, [np.array([bad, 2, 3, 0])])
        assert verify_transitive(C, [np.array([1.0, 2.0, 3.0, 0.0])]) == VERIFIED
        assert verify_transitive(LinearCode(spec, [[1, 1]]), [np.array([True, False])]) == VERIFIED


def test_verify_transitive_rejects_non_preserving_permutation():
    f = fam(16, (16,), (1,))
    C = evaluate(f, DefiningSet(f, [(0,), (1,)]))
    swap = np.arange(15)
    swap[[0, 1]] = [1, 0]
    assert verify_transitive(C, [swap]) == UNVERIFIED


def test_verify_transitive_never_passes_corrupted_generators():
    f = fam(16, (16,), (1,))
    base = evaluate(f, DefiningSet(f, [(0,), (1,), (2,), (4,)]))
    assert verify_transitive(base, family=f) == VERIFIED
    rng = random.Random(99)
    corrupted = 0
    while corrupted < 10:
        gen = base.gen.copy()
        i = rng.randrange(gen.shape[0])
        j = rng.randrange(gen.shape[1])
        delta = rng.randrange(1, 16)
        gen[i, j] = base.spec.add(int(gen[i, j]), delta)
        C = LinearCode(base.spec, gen)
        if C == base:
            continue
        assert verify_transitive(C, family=f) != VERIFIED
        corrupted += 1


def test_verify_transitive_size_guard():
    f = fam(64, (64, 64))
    C = evaluate(f, DefiningSet(f, [(0, 0)]))
    with pytest.raises(ValueError, match="1024"):
        verify_transitive(C, family=f)


def _never_built():
    raise AssertionError("the code was built although the search does not run")


def test_grade_transitivity_premises_first_then_search():
    # premises proved: the code is not needed
    f = fam(16, (16, 4))
    assert grade_transitivity(f, DefiningSet(f, [(0, 0), (1, 0)]), _never_built) == PROVED
    # premises fail on a punctured line: the search runs on the code built on demand
    f = fam(49, (49,), (1,))
    d = closure(f, 7, DefiningSet(f, [(24,), (25,)]))
    assert transitivity_premises(f, d, 7) == UNVERIFIED
    built = []
    grade = grade_transitivity(f, d, lambda: built.append(1) or subfield_code(f, 7, d), 7)
    assert grade == VERIFIED and built == [1]
    assert grade_transitivity(f, d, subfield_code(f, 7, d), 7) == VERIFIED
    # premises fail past the length cap: no search, no code
    f = fam(64, (64, 64))
    d = DefiningSet(f, [(1, 1)])
    assert f.n_points > pir.TRANSITIVITY_MAX_N
    assert grade_transitivity(f, d, _never_built) == UNVERIFIED


def test_library_grades_transitivity_through_one_rule():
    # premises first, then the search: a second caller of either could grade
    # a code by another rule
    rule = {"transitivity_premises", "verify_transitive"}
    inside, outside = set(), []
    for path in sorted(Path(pir.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        in_rule = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "grade_transitivity"
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name in rule and id(node) in in_rule:
                    inside.add(name)
                elif name in rule:
                    outside.append(f"{path.name}:{node.lineno}: {name}")
    assert inside == rule and not outside


def _additive_basis_by_span(spec, elems):
    """The greedy basis of elems, growing the span one element at a time, or
    None when elems is not an additively closed subfield-subspace."""
    target = set(elems)
    if 0 not in target:
        return None
    span, basis = {0}, []
    for v in elems:
        if v in span:
            continue
        basis.append(v)
        span = {spec.add(s, spec.mul(c, v)) for s in span for c in range(spec.p)}
        if not span <= target:
            return None
    return basis if span == target else None


def _coordinate_maps(family):
    """Per-coordinate value maps {point -> point}: the scaling by a root of
    unity of maximal order, and the translations by an additive basis
    whenever the coordinate's point set is additively closed."""
    spec = family.spec
    g = primitive_element(spec).idx
    maps = []  # (coordinate index, {point value -> point value})
    for j in range(family.m):
        Nj = family.N[j]
        zs = [int(v) for v in family.root_lists()[j]]
        if Nj > 1 and (spec.q - 1) % (Nj - 1) == 0:
            u = spec.pow(g, (spec.q - 1) // (Nj - 1))
            if u != 1:
                table = {v: spec.mul(u, v) for v in zs}
                assert set(table.values()) == set(zs)
                maps.append((j, table))
        if (j + 1) not in family.J:
            basis = _additive_basis_by_span(spec, zs)
            for t in basis or ():
                maps.append((j, {v: spec.add(v, t) for v in zs}))
    return maps


def _point_permutations(family, maps):
    """Per-coordinate value maps as permutations of the flat point index
    (points are enumerated in row-major product order)."""
    roots = family.root_lists()
    sizes = [len(r) for r in roots]
    perms = []
    for j, table in maps:
        stride = math.prod(sizes[j + 1 :])
        index_of = {int(v): i for i, v in enumerate(roots[j])}
        mapped = np.array([index_of[table[int(v)]] for v in roots[j]], dtype=np.int64)
        flat = np.arange(family.n_points, dtype=np.int64)
        cj = (flat // stride) % sizes[j]
        perms.append(flat + (mapped[cj] - cj) * stride)
    return perms


def _orbit_is_everything_by_bfs(n, perms):
    """Breadth-first search of coordinate 0's orbit under perms."""
    seen, frontier = {0}, [0]
    while frontier:
        frontier = [int(p[x]) for x in frontier for p in perms if int(p[x]) not in seen]
        seen.update(frontier)
    return len(seen) == n


# the families of the stored PIR tables and of this file's tests; the table
# builds reach the permutation search on (8, 8) with J = {1, 2}, (49,) and
# (256,) with J = {1}, and (128, 2) and (256, 2)
_TRANSITIVITY_FAMILIES = [
    ((7, 7), ()), ((7, 7, 7), ()), ((49,), (1,)), ((256,), (1,)), ((8, 8), (1, 2)),
    ((128, 2), ()), ((256, 2), ()), ((16,), (1,)), ((64,), (1,)), ((4,), ()), ((4, 4), ()),
    ((4, 2), ()), ((8,), (1,)), ((16, 6), ()), ((49, 7), ()), ((64, 64), ()), ((16, 16), ()),
]


def test_coordinate_permutations_match_value_map_references():
    for N, J in _TRANSITIVITY_FAMILIES:
        f = fam(max(N), N, J)
        got = pir._coordinate_permutations(f)
        expect = _point_permutations(f, _coordinate_maps(f))
        assert len(got) == len(expect) and all(map(np.array_equal, got, expect)), (N, J)
        assert all(np.array_equal(np.sort(p), np.arange(f.n_points)) for p in got), (N, J)


def test_transitivity_arrays_match_set_references():
    rng = random.Random(2024)
    checked = {VERIFIED: 0, UNVERIFIED: 0}
    for N, J in _TRANSITIVITY_FAMILIES:
        f = fam(max(N), N, J)
        for zs in f.root_lists():
            zs = [int(v) for v in zs]
            assert pir._additive_basis(f.spec, zs) == _additive_basis_by_span(f.spec, zs), (N, J)
        if f.n_points > 1024:
            continue
        box = f.box()
        degree_one = [tuple(int(i == j) for i in range(f.m)) for j in range(-1, f.m)]
        for delta in [degree_one] + [rng.sample(box, size) for size in (1, 2, 3)]:
            C = evaluate(f, DefiningSet(f, delta))
            perms = _point_permutations(f, _coordinate_maps(f))
            perms.append(np.roll(np.arange(C.n), 1))
            preserving = [p for p in perms if LinearCode(C.spec, C.gen[:, p]) == C]
            transitive = preserving and _orbit_is_everything_by_bfs(C.n, preserving)
            expect = VERIFIED if transitive else UNVERIFIED
            assert verify_transitive(C, perms) == expect, (N, J, delta)
            checked[expect] += 1
    assert min(checked.values()) >= 10, checked


# ---------------------------------------------------------------- theorem scheme


def test_subfield_theorem_instance_q49():
    f = fam(49, (49, 7))
    s = te_pir_subfield(f, 7)
    # the default retrieval classes are the two least nonzero ones
    assert s.retrieval == te_pir_subfield(f, 7, a1=1, a2=2).retrieval
    assert s.n == 343
    assert s.rate == Fraction(326, 343)
    assert s.rate_string == "326/343"
    assert s.privacy_lower == 3
    # the floor (n - (6r + 5))/n with r = 2 the extension degree is met exactly
    assert s.rate == Fraction(343 - 17, 343)
    assert s.transitivity == VERIFIED


def test_subfield_theorem_rejects_degenerate_classes():
    f = fam(49, (49, 7))
    with pytest.raises(ValueError):
        te_pir_subfield(f, 7, a1=1, a2=1)
    with pytest.raises(ValueError):
        te_pir_subfield(f, 7, a1=1, a2=7)  # 7 is in the class of 1


def test_subfield_theorem_hypothesis_checks():
    with pytest.raises(ValueError):
        te_pir_subfield(fam(49, (49,)), 7)  # needs two variables
    with pytest.raises(ValueError):
        te_pir_subfield(fam(49, (49, 7), (1,)), 7)  # needs affine coordinates
    with pytest.raises(ValueError):
        te_pir_subfield(fam(49, (49, 7)), 5)  # 49 is not a power of 5


def test_one_var_scheme_fixture_255():
    s = one_var_scheme(85, 2, "multiples", 1)
    assert (s.n, s.privacy_lower) == (255, 3)
    assert s.rate_string == "228/255"
    assert s.storage_rate_string == "3/255"
    assert s.transitivity in (PROVED, VERIFIED)


def test_one_var_scheme_repetition_product():
    s = one_var_scheme(7, 2, "multiples", 0)
    assert s.n == 7
    assert s.rate + Fraction(s.storage.k, 7) == 1  # C * D = C when D is the 0-class


def test_one_var_scheme_validation():
    with pytest.raises(ValueError):
        one_var_scheme(85, 5)  # 85 = 5 * 17 shares a factor with q'
    with pytest.raises(ValueError):
        one_var_scheme(7, 2, "three-cosets")
    with pytest.raises(ValueError):
        one_var_scheme(7, 2, "multiples", 99)


# ---------------------------------------------------------------- product sets


def test_binary_two_variable_product_set_49():
    f = fam(8, (8, 8), (1, 2))
    dC = closure(f, 2, DefiningSet(f, [(0, 0), (1, 0)]))
    assert set(dC.elems) == {(0, 0), (1, 0), (2, 0), (4, 0)}
    dD = closure(f, 2, DefiningSet(f, [(0, 0), (1, 0), (0, 1)]))
    assert len(dD) == 7
    mk = schur_subfield(f, 2, dC, dD)
    listed = {
        (0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0),
        (0, 1), (0, 2), (0, 4), (1, 1), (2, 1), (4, 1),
        (1, 2), (2, 2), (4, 2), (1, 4), (2, 4), (4, 4),
    }
    assert set(mk.elems) == listed and len(mk) == 19
    C = subfield_code(f, 2, dC)
    D = subfield_code(f, 2, dD)
    CD = schur(C, D)
    assert CD.k == 19
    assert dual(CD).k == 30
    assert pir_params(C, D).rate == Fraction(30, 49)


def test_minkowski_growth_is_monotone():
    f = fam(8, (8, 8), (1, 2))
    rng = random.Random(5)
    box = f.box()
    for _ in range(6):
        dC = DefiningSet(f, rng.sample(box, 3))
        small = rng.sample(box, 4)
        dD1 = DefiningSet(f, small)
        dD2 = DefiningSet(f, small + rng.sample(box, 3))
        m1 = minkowski_schur(f, dC, dD1)
        m2 = minkowski_schur(f, dC, dD2)
        assert set(m1.elems) <= set(m2.elems)


# ---------------------------------------------------------------- stored tables


# The grade of every stored PIR row.  The premises prove the affine tables and
# the shaded RM rows; the permutation search verifies the subfield codes the
# premises do not cover.  cyclic48's shaded rows store with punctured codes,
# which lie on no family, so they stay unverified.
_ROW_GRADES = {
    ("I", "shaded"): PROVED,
    ("I", "bold"): PROVED,
    ("II", "shaded"): PROVED,
    ("II", "bold"): PROVED,
    ("cyclic48", "shaded"): UNVERIFIED,
    ("cyclic48", "bold"): VERIFIED,
    ("IV", "bold"): VERIFIED,
    ("berman49", "bold"): VERIFIED,
    ("berman49", "shaded"): VERIFIED,
    ("rm_comparison", "shaded"): PROVED,
    ("rm_comparison", "bold"): VERIFIED,
}


@pytest.mark.parametrize("kind", ["I", "II", "cyclic48", "IV", "berman49", "rm_comparison"])
def test_table_rows_keep_their_transitivity_grades(kind):
    rows = table(kind)
    assert [(r.label, r.scheme.transitivity) for r in rows] == [
        (r.label, _ROW_GRADES[kind, r.style]) for r in rows
    ]


def test_table_unknown_kind():
    with pytest.raises(ValueError, match="cyclic48"):
        table("nope")


def test_table_columns_follow_one_order():
    expect = {
        "I": ["k_C", "d_C", "k_D", "d_D", "k_Dperp", "d_Dperp", "k_CD", "d_CD",
              "k_CDperp", "d_CDperp", "privacy", "rate"],
        "IV": ["k_C", "d_C", "k_D", "k_Dperp", "d_Dperp", "k_CD", "k_CDperp", "privacy", "rate"],
        "berman49": ["k_C", "k_D", "d_D", "k_Dperp", "d_Dperp", "k_CD", "k_CDperp",
                     "storage_rate", "privacy", "rate"],
        "rm_comparison": ["k_C", "k_D", "k_Dperp", "d_Dperp", "k_CDperp", "privacy", "rate"],
    }
    for kind, columns in expect.items():
        assert columns_of(table(kind)) == columns


def _rows_by_privacy(rows):
    grouped = {}
    for r in rows:
        grouped.setdefault(r.cells["privacy"].computed, {})[r.style] = r
    return grouped


def test_table_I_matches_with_proved_transitivity():
    rows = table("I")
    assert len(rows) == 10
    ok, lines = check_report(rows)
    assert ok and not lines  # no corrections needed anywhere in Table I
    assert {r.scheme.transitivity for r in rows} == {PROVED}
    for privacy, styles in _rows_by_privacy(rows).items():
        if {"shaded", "bold"} <= set(styles):
            assert styles["bold"].scheme.rate >= styles["shaded"].scheme.rate


def test_table_II_matches_with_two_annotated_misprints():
    rows = table("II")
    assert len(rows) == 22
    ok, lines = check_report(rows)
    assert ok
    corrections = [ln for ln in lines if "corrected" in ln]
    assert len(corrections) == 2
    assert any("d_D" in ln and "196" in ln for ln in corrections)
    assert any("k_CD" in ln and "174" in ln for ln in corrections)
    for privacy, styles in _rows_by_privacy(rows).items():
        if {"shaded", "bold"} <= set(styles):
            assert styles["bold"].scheme.rate >= styles["shaded"].scheme.rate


def test_table_cyclic48_privacy_exception_row():
    rows = table("cyclic48")
    assert len(rows) == 27
    ok, _ = check_report(rows)
    assert ok
    comparable = 0
    for privacy, styles in _rows_by_privacy(rows).items():
        if not {"shaded", "bold"} <= set(styles):
            continue
        comparable += 1
        bold, shaded = styles["bold"].scheme.rate, styles["shaded"].scheme.rate
        if privacy == 23:
            assert bold < shaded  # the one stored exception
        else:
            assert bold >= shaded
    assert comparable >= 8


def _cyc48_bold_dual(key):
    """The family, D's defining set and dual(D) for cyclic48's bold row `key`."""
    f = fam(49, (49,), (1,))
    delta = closure(f, 7, DefiningSet(f, [(e,) for e in pir._CYC48_BOLD_REPS[key]]))
    return f, delta, dual(subfield_code(f, 7, delta))


@pytest.mark.parametrize("key,d", [(14, 33), (15, 34), (16, 35)])
def test_cyc48_tight_bch_bound_ends_the_planner_before_enumeration(monkeypatch, key, d):
    f, delta, Dd = _cyc48_bold_dual(key)
    bound = dual_bch_bound(f, 7, delta)
    assert bound == d and pir._CYC48_STRATEGY.get(key, "bch") == "bch"

    def no_enumeration(*args):
        raise AssertionError("min_distance enumerated")

    monkeypatch.setattr(linear_code, "min_weight_from", no_enumeration)
    res = min_distance(Dd, lower=bound, target=bound)
    assert (res.lower, res.upper, res.how) == (d, d, "proved bound")
    assert int(np.count_nonzero(res.witness)) == d and res.witness in Dd


def test_cyc48_bound_below_the_distance_falls_back_to_enumeration():
    # no word of weight d - 1 exists, so the witness step finds none
    _, _, Dd = _cyc48_bold_dual(16)
    res = min_distance(Dd, lower=34, target=34)
    assert (res.lower, res.upper, res.how) == (35, 35, "exhaustive enumeration")
    assert int(np.count_nonzero(res.witness)) == 35 and res.witness in Dd


def test_table_IV_privacy_ladder():
    rows = table("IV")
    assert len(rows) == 8
    ok, _ = check_report(rows)
    assert ok
    privacies = [r.cells["privacy"].computed for r in rows]
    assert privacies == sorted(privacies)
    assert privacies[0] == 3 and privacies[-1] == 19
    assert all(r.scheme.privacy_lower == p for r, p in zip(rows, privacies))


def test_table_berman_comparison_rates():
    rows = table("berman49")
    rates = {r.label: r.cells["rate"].render() for r in rows}
    assert rates["B1"] == "42/49"
    assert rates["B2"] == "39/49"
    assert rates["reference"] == "36/49"
    bold = [r.scheme.rate for r in rows if r.style == "bold"]
    assert min(bold) > Fraction(36, 49)
    # the comparison row is built and certified like the bold rows
    ref = next(r for r in rows if r.label == "reference")
    assert ref.scheme.rate == Fraction(36, 49) and ref.scheme.privacy_lower == 3
    assert all(c.computed is not None for c in ref.cells.values())
    assert check_report(rows) == (True, [])


def test_table_rm_comparison_and_binomial_gap():
    rows = table("rm_comparison")
    by_key = {(r.label, r.style): r for r in rows}
    expect = {
        ("r=7", "bold"): (30, 226),  # printed dual dimension 228 annotated
        ("r=7", "shaded"): (37, 219),
        ("r=8", "bold"): (34, 478),
        ("r=8", "shaded"): (46, 466),
    }
    for key, (kD, kDd) in expect.items():
        assert by_key[key].cells["k_D"].computed == kD
        assert by_key[key].cells["k_Dperp"].computed == kDd
    for r in (7, 8):
        grid = by_key[(f"r={r}", "bold")].scheme
        rm = by_key[(f"r={r}", "shaded")].scheme
        assert grid.rate > rm.rate and grid.privacy_lower == rm.privacy_lower == 7
    for r in range(6, 13):
        assert math.comb(r + 1, 0) + math.comb(r + 1, 1) + math.comb(r + 1, 2) > 4 * r + 2
