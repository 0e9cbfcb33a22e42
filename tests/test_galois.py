import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evalcode.galois import (
    _OP_TABLE_LIMIT,
    FieldError,
    FieldSpec,
    _digits,
    _ilog,
    _order_mod,
    arith,
    make_field,
    primitive_element,
    subgroup_roots,
    trace_to_prime,
)

FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (7, 1), (7, 2), (2, 6), (2, 8), (2, 9)]


def test_make_field_rejects_bad_input():
    with pytest.raises(FieldError):
        make_field(4, 1)
    with pytest.raises(FieldError):
        make_field(2, 0)


def test_integer_log_and_multiplicative_order_match_brute_force():
    for base in range(1, 10):
        for n in range(0, 600):
            powers = [k for k in range(12) if base**k == n]
            assert _ilog(n, base) == (powers[0] if powers else None), (n, base)
    for n in range(1, 60):
        for a in range(-3, 70):
            if np.gcd(a, n) != 1:
                with pytest.raises(FieldError):
                    _order_mod(a, n)
            else:
                assert _order_mod(a, n) == next(k for k in range(1, n + 1) if (a**k - 1) % n == 0)


def test_gf4_structure():
    F4 = make_field(2, 2)
    assert F4.modulus == (1, 1, 1)  # x^2 + x + 1
    a = primitive_element(F4)
    assert a.idx == 2  # the class of x
    assert a * a == a + 1
    assert a * a * a == 1
    assert arith(a, a * a, "mul") == F4(1)


def test_gf2_and_gf7_scalars():
    F2 = make_field(2, 1)
    assert primitive_element(F2) == F2(1)
    F7 = make_field(7, 1)
    assert arith(F7(3), F7(5), "mul") == F7(1)
    assert (F7(3) / F7(5)) * F7(5) == F7(3)


def test_gf8_primitive_order():
    F8 = make_field(2, 3)
    g = primitive_element(F8)
    assert g.order() == 7
    powers = {g**k for k in range(7)}
    assert len(powers) == 7


@pytest.mark.parametrize("p,r", FIELDS)
def test_field_axioms_random(p, r):
    spec = make_field(p, r)
    rng = np.random.default_rng(p * 100 + r)
    idxs = rng.integers(0, spec.q, size=30)
    for a, b in zip(idxs[:15], idxs[15:]):
        a, b = int(a), int(b)
        assert spec.add(a, b) == spec.add(b, a)
        assert spec.mul(a, b) == spec.mul(b, a)
        c = int(rng.integers(0, spec.q))
        # distributivity
        assert spec.mul(a, spec.add(b, c)) == spec.add(spec.mul(a, b), spec.mul(a, c))
        if b != 0:
            assert spec.mul(spec.div(a, b), b) == a
        assert spec.sub(spec.add(a, b), b) == a


def test_trace_values():
    F16 = make_field(2, 4)
    assert trace_to_prime(F16(1)).idx == 0  # 1+1+1+1 in char 2
    F4 = make_field(2, 2)
    a = primitive_element(F4)
    assert trace_to_prime(a) == F4(1)  # a + a^2 = a + a + 1 = 1
    assert trace_to_prime(F4(0)) == F4(0)


@pytest.mark.parametrize("p,r", [(2, 4), (7, 2), (2, 6)])
def test_trace_additivity_and_prime_restriction(p, r):
    spec = make_field(p, r)
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = (spec(int(x)) for x in rng.integers(0, spec.q, size=2))
        assert trace_to_prime(a + b) == trace_to_prime(a) + trace_to_prime(b)
    # trace of a prime-field element t is r*t mod p
    for t in range(p):
        assert trace_to_prime(spec(t)).idx == (r * t) % p
    # surjectivity onto the prime field
    images = {trace_to_prime(spec(i)).idx for i in range(spec.q)}
    assert images == set(range(p))


@pytest.mark.parametrize("p,r", FIELDS)
def test_primitive_element_exhaustive_order(p, r):
    spec = make_field(p, r)
    g = primitive_element(spec)
    if spec.q == 2:
        assert g.idx == 1
        return
    acc = g
    for k in range(1, spec.q - 1):
        assert acc.idx != 1 or k == spec.q - 1
        acc = acc * g
    assert acc == spec(1)


@pytest.mark.parametrize("p", [2, 3, 7, 31, 1031])
def test_prime_field_tables_match_the_polynomial_route(p):
    # GF(p) fills its tables with integer powers mod p; the polynomial
    # helpers that extension fields use give the same generator and tables
    spec = make_field(p)
    q = spec.q
    factors = [f for f in range(2, q) if (q - 1) % f == 0 and all(f % d for d in range(2, f))]
    g = next((c for c in range(2, q) if all(spec._raw_pow(c, (q - 1) // f) != 1 for f in factors)), 1)
    powers = [1]
    for _ in range(q - 2):
        powers.append(spec._raw_mul(powers[-1], g))
    assert spec._gidx == g
    assert spec._exp[: q - 1].tolist() == powers
    assert spec._exp[q - 1 :].tolist() == powers[: spec._exp.size - (q - 1)]
    assert spec._log[powers].tolist() == list(range(q - 1)) and spec._log[0] == -1


def test_subgroup_roots_gf49():
    F49 = make_field(7, 2)
    roots = subgroup_roots(F49, 48)
    assert len(roots) == 48
    assert len({x.idx for x in roots}) == 48
    assert all(x**48 == F49(1) for x in roots[:5])


def test_subgroup_roots_closure_and_errors():
    F64 = make_field(2, 6)
    mu = subgroup_roots(F64, 63)
    assert len(mu) == 63 and mu[0] == F64(1)
    mu9 = subgroup_roots(F64, 9)
    vals = {x.idx for x in mu9}
    for x in mu9:
        for y in mu9:
            assert (x * y).idx in vals
    assert subgroup_roots(F64, 1) == [F64(1)]
    with pytest.raises(FieldError):
        subgroup_roots(F64, 5)


def test_vectorized_ops_match_scalar():
    for p, r in [(2, 4), (7, 2), (2, 8)]:
        spec = make_field(p, r)
        rng = np.random.default_rng(11)
        a = rng.integers(0, spec.q, size=200)
        b = rng.integers(0, spec.q, size=200)
        add = spec.add_arr(a, b)
        mul = spec.mul_arr(a, b)
        for i in range(0, 200, 17):
            assert add[i] == _ref_add(spec, int(a[i]), int(b[i]))
            assert mul[i] == spec.mul(int(a[i]), int(b[i]))
        nzb = np.where(b == 0, 1, b)
        dv = spec.mul_arr(a, spec.inv_arr(nzb))
        assert np.array_equal(spec.mul_arr(dv, nzb), a)
        e = 5
        pw = spec.pow_arr(a, e)
        for i in range(0, 200, 29):
            assert pw[i] == spec._raw_pow(int(a[i]), e)  # polynomial products, no tables


def _ref_add(spec, x, y, sign=1):
    """x + sign * y by pure-Python digit arithmetic, sharing no table with FieldSpec."""
    pairs = zip(_digits(x, spec.p, spec.r), _digits(y, spec.p, spec.r))
    return sum(((u + sign * v) % spec.p) * spec.p**i for i, (u, v) in enumerate(pairs))


def _assert_ops_match_reference(spec, a, b):
    """Array and scalar ops against _ref_add and the polynomial product _raw_mul."""
    pairs = list(zip(a.tolist(), b.tolist()))
    add = [_ref_add(spec, x, y) for x, y in pairs]
    sub = [_ref_add(spec, x, y, -1) for x, y in pairs]
    neg = [_ref_add(spec, 0, y, -1) for y in b.tolist()]
    mul = [spec._raw_mul(x, y) for x, y in pairs]
    assert spec.add_arr(a, b).tolist() == add
    assert spec.sub_arr(a, b).tolist() == sub
    assert spec.neg_arr(b).tolist() == neg
    assert spec.mul_arr(a, b).tolist() == mul
    assert [spec.add(x, y) for x, y in pairs] == add
    assert [spec.sub(x, y) for x, y in pairs] == sub
    assert [spec.neg(y) for y in b.tolist()] == neg
    assert [spec.mul(x, y) for x, y in pairs] == mul


def _sample_pairs(spec, size, seed):
    """Random index pairs plus every pair of the extreme indices 0, 1, p - 1, q - 1."""
    rng = np.random.default_rng(seed)
    edge = np.array([0, 1, spec.p - 1, spec.q - 1])
    ea, eb = (x.ravel() for x in np.meshgrid(edge, edge, indexing="ij"))
    a = np.concatenate([ea, rng.integers(0, spec.q, size=size)])
    b = np.concatenate([eb, rng.integers(0, spec.q, size=size)])
    return a, b


@pytest.mark.parametrize("p,r", FIELDS)
def test_vectorized_ops_match_scalar_on_full_grid(p, r):
    spec = make_field(p, r)
    idx = np.arange(spec.q)
    a, b = (x.ravel() for x in np.meshgrid(idx, idx, indexing="ij"))
    if spec.q <= 64:
        _assert_ops_match_reference(spec, a, b)
    products = spec.mul_arr(a, b)
    assert products.tolist() == [spec.mul(x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert np.array_equal(spec.sub_arr(spec.add_arr(a, b), b), a)
    assert not np.any(spec.add_arr(idx, spec.neg_arr(idx)))
    products = products.reshape(spec.q, spec.q)
    for c in range(spec.q):
        assert np.array_equal(spec.scale_arr(c, idx), products[c])
    zero = np.zeros((spec.q, spec.q), dtype=spec.dtype)
    # the rows 0 - c * idx, every c at once
    assert np.array_equal(spec.sub_scaled_rows(zero, idx, idx), spec.neg_arr(products))


@pytest.mark.parametrize("p,r", FIELDS + [(251, 1), (3, 7), (1031, 1), (65537, 1)])
def test_ops_match_an_independent_reference(p, r):
    # GF(251): digit sums up to 500 overflow uint8 digits
    spec = make_field(p, r)
    _assert_ops_match_reference(spec, *_sample_pairs(spec, 600, p * 100 + r))


@pytest.mark.parametrize("p,r", [(3, 7), (1031, 1)])
def test_fields_above_op_table_limit_use_digit_and_log_paths(p, r):
    spec = make_field(p, r)
    assert spec.q > _OP_TABLE_LIMIT
    assert spec._add is None and spec._mul is None
    rng = np.random.default_rng(p + r)
    a = rng.integers(0, spec.q, size=2000)
    b = rng.integers(0, spec.q, size=2000)
    b[:50] = 0  # the log path masks zeros separately
    _assert_ops_match_reference(spec, a, b)
    assert spec.scale_arr(int(a[0]), b).tolist() == [spec.mul(int(a[0]), y) for y in b.tolist()]
    zero = np.zeros((20, a.size), dtype=spec.dtype)
    rows = spec.sub_scaled_rows(zero, b[40:60], a)  # b[40:50] are zeros
    assert rows.tolist() == [[spec.neg(spec.mul(x, y)) for y in a.tolist()] for x in b[40:60].tolist()]


@pytest.mark.parametrize("p,r", FIELDS + [(3, 2), (31, 1), (3, 6), (3, 7), (1031, 1), (2, 11)])
def test_sub_scaled_rows_matches_scalar_ops(p, r):
    # narrow tables with 16- and 32-bit keys, XOR in uint8 and uint16, and the
    # log path above 2^10; the tables are built on first use, not with the field
    spec = make_field(p, r)
    fresh = FieldSpec(spec.p, spec.r, spec.modulus)
    assert fresh._row_tables is None
    assert fresh.dtype == np.min_scalar_type(spec.q - 1)
    assert (fresh.dtype == np.uint8) == (spec.q <= 256)
    rng = np.random.default_rng(p * 10 + r)
    X = rng.integers(0, spec.q, (7, 30)).astype(fresh.dtype)
    X[:, :3] = spec.q - 1
    c = rng.integers(0, spec.q, 7)
    c[:2] = [0, spec.q - 1]
    y = rng.integers(0, spec.q, 30).astype(fresh.dtype)
    y[3:6] = [0, 1, spec.q - 1]
    out = fresh.sub_scaled_rows(X, c, y)
    assert out.dtype == fresh.dtype
    expect = [
        [spec.sub(x, spec.mul(ci, yj)) for x, yj in zip(row, y.tolist())]
        for row, ci in zip(X.tolist(), c.tolist())
    ]
    assert out.tolist() == expect
    assert (fresh._row_tables is None) == (spec.q > _OP_TABLE_LIMIT)


@pytest.mark.parametrize("p,r", [(3, 5), (2, 9)])
def test_coeffs_round_trip_on_every_index(p, r):
    spec = make_field(p, r)
    idx = np.arange(spec.q)
    digits = spec.digits_arr(idx)
    assert digits.dtype == np.uint8 and digits.shape == (spec.q, r)
    for a in range(spec.q):
        assert spec.coeffs(a) == tuple(_digits(a, p, r)) == tuple(digits[a].tolist())
        assert spec.from_coeffs(spec.coeffs(a)) == a
    assert np.array_equal(spec.from_digits_arr(digits), idx)


def test_pow_reduces_huge_exponents():
    F = make_field(7, 2)
    e = 2**62 + 1
    assert F.pow(10, e) == F._raw_pow(10, e) == 20
    assert F.pow_arr(np.array([10, 3]), e).tolist() == [20, 5]
    assert (F(10) ** 2**70).idx == F._raw_pow(10, 2**70)
    # 0**0 == 1 is decided on e itself, so 0**(q-1) stays 0
    assert F.pow(0, 0) == 1 and F.pow(0, 48) == 0 and F.pow(0, 2**70) == 0
    assert F.pow_arr(np.array([0, 1]), 0).tolist() == [1, 1]
    assert F.pow_arr(np.array([0, 10]), 48).tolist() == [0, 1]


def test_subfield_indices():
    F16 = make_field(2, 4)
    sub = F16.subfield_indices(2)
    assert len(sub) == 4
    sub1 = F16.subfield_indices(1)
    assert set(sub1.tolist()) == {0, 1}
    with pytest.raises(FieldError):
        F16.subfield_indices(3)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 48), st.integers(0, 48))
def test_gf49_hypothesis_ring_laws(ai, bi):
    F = make_field(7, 2)
    a, b = F(ai), F(bi)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + F(1)) == a * b + a
    if bi:
        assert (a / b) * b == a
