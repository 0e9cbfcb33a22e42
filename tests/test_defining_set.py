"""Box-mask defining sets against the tuple-set algorithms they replaced.

Each reference below keeps an exponent set as Python tuples and scans it
member by member, as the library did before sets became masks over the box.
Families range over GF(4), GF(7), GF(8), GF(9) and GF(16) with one to three
coordinates and mixed J; defining sets are empty, full, random or the
down-closure of random seeds.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evalcode.cartesian import (
    DefiningSet,
    JAffineFamily,
    delta_dual,
    delta_wrm,
    field_from_order,
    footprint_bound,
    footprint_witness,
    full_affine_family,
    hyperbolic_shell,
    is_decreasing,
    minkowski_schur,
)
from evalcode.csst import jaffine_csst, jaffine_csst_strict
from evalcode.cyclotomic import closure

# ---------------------------------------------------------------- references


def ref_minkowski_schur(family, d1, d2):
    return {family.bar_reduce([x + y for x, y in zip(a, b)]) for a in d1 for b in d2}


def ref_pairing_partners(family, e):
    """Per-coordinate sets B_j: ev(X^e)·ev(X^b) pairs nonzero iff b_j in B_j for all j.

    On a multiplicative coordinate (j in J) the character sum over the units is
    nonzero only at the single complementary exponent.  On a full affine
    coordinate the zero point contributes, so the boundary exponents 0 and
    N_j-1 behave specially, and exponent 0 pairs with itself iff p does not
    divide N_j.
    """
    out = []
    for j, (ej, Nj) in enumerate(zip(e, family.N), start=1):
        if j in family.J:
            out.append({(Nj - 1 - ej) % (Nj - 1)})
        elif 0 < ej < Nj - 1:
            out.append({Nj - 1 - ej})
        elif ej == 0:
            b = {Nj - 1}
            if Nj % family.spec.p != 0:
                b.add(0)
            out.append(b)
        else:  # ej == Nj - 1
            out.append({0, Nj - 1})
    return out


def ref_delta_dual(family, delta):
    bad = set()
    for e in delta:
        bad.update(itertools.product(*ref_pairing_partners(family, e)))
    return [e for e in family.box() if e not in bad]


def ref_is_decreasing(delta):
    s = set(delta)
    for e in s:
        for j in range(len(e)):
            if e[j] > 0 and e[:j] + (e[j] - 1,) + e[j + 1 :] not in s:
                return False
    return True


def ref_footprint(family, e):
    return math.prod(zj - ej for zj, ej in zip(family.shape, e))


def ref_hyperbolic_shell(family, d):
    return [e for e in family.box() if ref_footprint(family, e) >= d]


def ref_delta_wrm(q, m, s, S):
    return [
        e for e in itertools.product(range(q), repeat=m)
        if sum(w * ej for w, ej in zip(S, e)) <= s
    ]


def ref_all_ones_violation(family, triple):
    """The first exponent of the sorted triple sum with no coordinate j where
    a_j != 0 (j in J) or a_j != N_j - 1 (j not in J)."""
    for a in sorted(triple):
        ok = False
        for j in range(1, family.m + 1):
            aj = a[j - 1]
            if (j in family.J and aj != 0) or (j not in family.J and aj != family.N[j - 1] - 1):
                ok = True
                break
        if not ok:
            return a
    return None


def assert_same_set(got, ref):
    """got, built from a mask, is the set ref of exponent tuples."""
    expect = tuple(sorted(set(map(tuple, ref))))
    assert got.elems == expect
    assert all(type(x) is int for e in got.elems for x in e)
    assert len(got) == len(expect)
    from_tuples = DefiningSet(got.family, ref)
    assert got == from_tuples and from_tuples == got
    assert hash(got) == hash(from_tuples)


# ---------------------------------------------------------------- strategies


@st.composite
def families(draw, fields=(4, 7, 8, 9, 16)):
    # boxes of at most 256 entries keep the tuple references fast; a third
    # coordinate is dropped when none fits
    q = draw(st.sampled_from(fields))
    N, size = [], 1
    for _ in range(draw(st.integers(1, 3))):
        fits = [d + 1 for d in range(1, q) if (q - 1) % d == 0 and size * (d + 1) <= 256]
        if not fits:
            break
        N.append(draw(st.sampled_from(fits)))
        size *= N[-1]
    J = draw(st.sets(st.integers(1, len(N))))
    return JAffineFamily(field_from_order(q), N, J)


def draw_subset(data, box, label):
    kind = data.draw(st.sampled_from(["empty", "full", "random", "down"]), label=f"{label} kind")
    if kind == "empty":
        return []
    if kind == "full":
        return list(box)
    seeds = data.draw(st.lists(st.sampled_from(box), max_size=12), label=label)
    if kind == "random":
        return seeds
    return [d for e in seeds for d in itertools.product(*(range(x + 1) for x in e))]


# ---------------------------------------------------------------- tests


@settings(max_examples=60, deadline=None)
@given(families(), st.data())
def test_set_algebra_matches_tuple_references(f, data):
    box = f.box()
    p1, p2 = draw_subset(data, box, "d1"), draw_subset(data, box, "d2")
    s1, s2 = set(p1), set(p2)
    d1, d2 = DefiningSet(f, p1), DefiningSet(f, p2)
    assert_same_set(d1, p1)
    assert_same_set(DefiningSet.from_mask(f, d1.mask), p1)
    assert (d1 <= d2) == (s1 <= s2)
    assert_same_set(d1.union(d2), s1 | s2)
    outside = [tuple(t + 1 for t in f.T), (-1,) * f.m, (0,) * (f.m + 1)]
    assert all((e in d1) == (e in s1) for e in box + outside)

    assert_same_set(minkowski_schur(f, d1, d2), ref_minkowski_schur(f, s1, s2))
    assert_same_set(minkowski_schur(f, d1, d1), ref_minkowski_schur(f, s1, s1))
    assert_same_set(delta_dual(f, d1), ref_delta_dual(f, s1))
    assert is_decreasing(d1) == ref_is_decreasing(s1)
    d = data.draw(st.integers(0, f.n_points + 1), label="designed distance")
    assert_same_set(hyperbolic_shell(f, d), ref_hyperbolic_shell(f, d))

    if not s1:
        return
    assert footprint_bound(f, d1) == min(ref_footprint(f, e) for e in s1)
    if ref_is_decreasing(s1):
        estar = min(sorted(s1), key=lambda e: ref_footprint(f, e))
        word, weight = footprint_witness(f, d1)
        assert weight == ref_footprint(f, estar)
        # the witness strikes exactly the points with some coordinate among
        # the first e*_j points of Z_j
        struck = np.zeros(f.n_points, dtype=bool)
        for j, roots in enumerate(f.root_lists()):
            first = set(roots[: estar[j]])
            struck |= np.array([c in first for c in f.coords()[j].tolist()])
        assert np.array_equal(word == 0, struck)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([4, 7, 8, 9, 16]), st.integers(1, 3), st.data())
def test_weighted_degree_sets_match_reference(q, m, data):
    S = sorted(data.draw(st.lists(st.integers(1, 3), min_size=m, max_size=m), label="S"))
    s = data.draw(st.integers(0, (q - 1) * sum(S)), label="s")
    got = delta_wrm(q, m, s, S)
    assert got.family == full_affine_family(q, m)
    assert_same_set(got, ref_delta_wrm(q, m, s, S))


@settings(max_examples=40, deadline=None)
@given(families(fields=(4, 8, 16)), st.data())
def test_csst_checks_match_tuple_references(f, data):
    qprime = data.draw(st.sampled_from([2, f.spec.q]), label="q'")
    box, inner = f.box(), f.e_prime_box()

    d1 = closure(f, qprime, draw_subset(data, box, "d1"))
    d2 = closure(f, qprime, draw_subset(data, box, "d2"))
    if data.draw(st.booleans(), label="nested"):
        d1 = d1.union(d2)
    s1, s2 = set(d1.elems), set(d2.elems)
    triple = ref_minkowski_schur(f, ref_minkowski_schur(f, s1, s1), s2)
    violating = ref_all_ones_violation(f, triple)
    expect = {"c2_subset_c1": s2 <= s1, "all_ones_orthogonal": violating is None}
    if violating is not None:
        expect["violating_exponent"] = violating
    assert jaffine_csst(f, qprime, d1, d2) == (s2 <= s1 and violating is None, expect)

    # q'-orbits of E' stay inside E'
    d1 = closure(f, qprime, draw_subset(data, inner, "e1"))
    d2 = closure(f, qprime, draw_subset(data, inner, "e2"))
    s1, s2 = set(d1.elems), set(d2.elems)
    dual2 = set(ref_delta_dual(f, s2))
    bad = [e for e in sorted(ref_minkowski_schur(f, s1, s1)) if e not in dual2]
    expect = {"c2_subset_c1": s2 <= s1, "square_in_dual": not bad}
    if bad:
        expect["violating_exponent"] = bad[0]
    assert jaffine_csst_strict(f, qprime, d1, d2) == (s2 <= s1 and not bad, expect)
    if len(inner) < len(box):
        wide = closure(f, qprime, [tuple(f.T)])
        with pytest.raises(ValueError, match="inside E'"):
            jaffine_csst_strict(f, qprime, wide, d2)
