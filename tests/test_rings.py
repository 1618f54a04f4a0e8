"""Element-level contracts of the three coefficient rings."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from bezmat.errors import DivisionByZero, FormatError, NotDivisible
from bezmat.rings import QQ, QQX, ZZ, Poly, get_ring

SMALL_INT = st.integers(min_value=-40, max_value=40)
SMALL_FRACTION = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


def poly_strategy(max_degree=4, coeff_bound=6):
    coeff = st.fractions(
        min_value=-coeff_bound, max_value=coeff_bound, max_denominator=4
    )
    return st.lists(coeff, min_size=0, max_size=max_degree + 1).map(Poly)


def test_get_ring_names():
    assert get_ring("int") is ZZ
    assert get_ring("rat") is QQ
    assert get_ring("polyrat") is QQX
    with pytest.raises(FormatError):
        get_ring("galois")


@pytest.mark.parametrize("ring", [ZZ, QQ, QQX], ids=lambda r: r.name)
def test_zero_one_units(ring):
    assert ring.zero == 0
    assert ring.one != ring.zero
    assert ring.is_unit(ring.one)
    assert not ring.is_unit(ring.zero)


def _check_xgcd_contract(ring, a, b):
    g, s, t, u, v = ring.xgcd(a, b)
    # the five-term contract used throughout the elimination code
    assert s * a + t * b == g
    if a == ring.zero and b == ring.zero:
        assert g == ring.zero
        return
    assert g * u == a
    assert g * v == b
    assert s * u + t * v == ring.one
    # g is the canonical associate of the gcd
    unit, assoc = ring.canonicalize(g)
    assert assoc == g
    assert ring.divides(g, a) and ring.divides(g, b)


@settings(max_examples=150, deadline=None)
@given(SMALL_INT, SMALL_INT)
def test_int_xgcd_contract(a, b):
    _check_xgcd_contract(ZZ, a, b)


@settings(max_examples=80, deadline=None)
@given(SMALL_FRACTION, SMALL_FRACTION)
def test_rat_xgcd_contract(a, b):
    _check_xgcd_contract(QQ, a, b)


@settings(max_examples=80, deadline=None)
@given(poly_strategy(3, 4), poly_strategy(3, 4))
def test_poly_xgcd_contract(a, b):
    _check_xgcd_contract(QQX, a, b)


@settings(max_examples=60, deadline=None)
@given(poly_strategy(2, 3), poly_strategy(2, 3), poly_strategy(1, 2))
def test_poly_xgcd_with_planted_common_factor(a, b, f):
    # the gcd of (a*f, b*f) must be divisible by f
    if f.is_zero():
        return
    g = QQX.xgcd(a * f, b * f)[0]
    if not (a.is_zero() and b.is_zero()):
        assert QQX.divides(f, g)
    _check_xgcd_contract(QQX, a * f, b * f)


@pytest.mark.parametrize(
    "ring,a,expected_unit,expected_assoc",
    [
        (ZZ, -6, -1, 6),
        (ZZ, 6, 1, 6),
        (ZZ, 0, 1, 0),
        (QQ, Fraction(-3, 4), Fraction(-3, 4), Fraction(1)),
        (QQ, Fraction(0), Fraction(1), Fraction(0)),
    ],
)
def test_canonicalize_cases(ring, a, expected_unit, expected_assoc):
    unit, assoc = ring.canonicalize(a)
    assert unit * assoc == a
    assert (unit, assoc) == (expected_unit, expected_assoc)


def test_canonicalize_poly_monic():
    p = Poly([Fraction(2), Fraction(0), Fraction(4)])  # 4x^2 + 2
    unit, assoc = QQX.canonicalize(p)
    assert unit * assoc == p
    assert assoc.lead == 1
    # canonicalizing a canonical element is the identity
    unit2, assoc2 = QQX.canonicalize(assoc)
    assert unit2 == QQX.one and assoc2 == assoc


def test_exact_div_and_divides():
    assert ZZ.exact_div(12, -3) == -4
    assert ZZ.divides(3, 12) and not ZZ.divides(5, 12)
    assert ZZ.divides(0, 0) and not ZZ.divides(0, 3)
    with pytest.raises(NotDivisible):
        ZZ.exact_div(7, 2)
    with pytest.raises(DivisionByZero):
        ZZ.exact_div(7, 0)
    x = Poly.x()
    assert QQX.exact_div(x * x, x) == x
    with pytest.raises(NotDivisible):
        QQX.exact_div(x * x + 1, x)


def test_size_measures():
    assert ZZ.size(-7) == 7
    assert QQX.size(Poly.x() * Poly.x()) == 2
    assert QQ.size(Fraction(5, 9)) == 0


@settings(max_examples=150, deadline=None)
@given(SMALL_INT, SMALL_INT.filter(bool))
def test_int_small_quotient_leaves_the_balanced_remainder(a, p):
    r = a - ZZ.small_quotient(a, p) * p
    assert 2 * abs(r) <= abs(p)
    # the canonical remainder of pivot_reduce stays in [0, p)
    if p > 0:
        q, r = ZZ.pivot_reduce(a, p)
        assert q * p + r == a and 0 <= r < p


def test_small_quotient_cases():
    # a remainder of exactly |p|/2 may keep either sign
    assert [ZZ.small_quotient(a, 4) for a in (5, 6, 7, -6, -7)] == [1, 1, 2, -2, -2]
    assert [ZZ.small_quotient(a, -4) for a in (6, 7, -6)] == [-2, -2, 1]
    assert QQ.small_quotient(Fraction(3, 4), Fraction(-1, 2)) == Fraction(-3, 2)
    x = Poly.x()
    assert QQX.small_quotient(x * x + 1, 2 * x) == Poly([0, Fraction(1, 2)])


@settings(max_examples=100, deadline=None)
@given(poly_strategy(4, 5), poly_strategy(4, 5))
def test_poly_small_quotient_is_the_divmod_quotient(a, p):
    if p.is_zero():
        return
    q = QQX.small_quotient(a, p)
    assert q == a.divmod(p)[0]
    r = a - q * p
    assert r.is_zero() or r.degree < p.degree


def test_poly_primitive_scales_by_one_constant():
    entries = [Poly([Fraction(1, 2), Fraction(3, 4)]), QQX.zero, Poly([0, 0, Fraction(-3, 2)])]
    assert QQX.primitive(entries) == (Poly([Fraction(1, 4)]), [Poly([2, 3]), QQX.zero, Poly([0, 0, -6])])
    assert QQX.primitive([Poly([-2, -4]), Poly([6])]) == (Poly([2]), [Poly([-1, -2]), Poly([3])])
    assert QQX.primitive([Poly([2, 3])]) == (QQX.one, [Poly([2, 3])])
    assert QQX.primitive([QQX.zero, QQX.zero]) == (QQX.one, [QQX.zero, QQX.zero])
    assert ZZ.primitive is None and QQ.primitive is None


@settings(max_examples=100, deadline=None)
@given(poly_strategy(4, 5), poly_strategy(4, 5))
def test_poly_divmod_contract(a, b):
    if b.is_zero():
        return
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.is_zero() or r.degree < b.degree


@settings(max_examples=100, deadline=None)
@given(poly_strategy(3, 5), poly_strategy(3, 5), SMALL_FRACTION)
def test_poly_arithmetic_matches_evaluation(p, q, t):
    # evaluation at a rational point is a ring homomorphism, which checks
    # +, -, * against completely independent Fraction arithmetic
    def ev(poly, point):
        acc = Fraction(0)
        power = Fraction(1)
        for c in poly.coeffs:
            acc += c * power
            power *= point
        return acc

    assert ev(p + q, t) == ev(p, t) + ev(q, t)
    assert ev(p - q, t) == ev(p, t) - ev(q, t)
    assert ev(p * q, t) == ev(p, t) * ev(q, t)


# -- differential reference: the same operations on Fraction coefficients ---
#
# Poly computes on int numerators over one denominator.  These functions
# are the plain Fraction algorithms on ascending coefficient tuples; the
# differential tests require the two to agree coefficient for coefficient.


def _ref_trim(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _ref_add(a, b):
    n = max(len(a), len(b))
    pad = lambda p: list(p) + [Fraction(0)] * (n - len(p))
    return _ref_trim(x + y for x, y in zip(pad(a), pad(b)))


def _ref_neg(a):
    return tuple(-c for c in a)


def _ref_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_trim(out)


def _ref_divmod(a, b):
    rem, db = list(a), len(b) - 1
    q = [Fraction(0)] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        f = q[i - db] = rem[i] / b[-1]
        for j, y in enumerate(b):
            rem[i - db + j] -= f * y
    return _ref_trim(q), _ref_trim(rem)


def _ref_canonicalize(a):
    if not a:
        return (Fraction(1),), a
    return (a[-1],), tuple(c / a[-1] for c in a)


def _ref_xgcd(a, b):
    """PolynomialRing.xgcd's algorithm, step for step, on Fraction tuples."""
    if not a and not b:
        return ((),) * 5
    sub = lambda p, q: _ref_add(p, _ref_neg(q))
    exact = lambda p, q: _ref_divmod(p, q)[0]
    one = (Fraction(1),)
    old_r, r, old_s, s, old_t, t = a, b, one, (), (), one
    while r:
        q, rem = _ref_divmod(old_r, r)
        old_r, r = r, rem
        old_s, s = s, sub(old_s, _ref_mul(q, s))
        old_t, t = t, sub(old_t, _ref_mul(q, t))
    unit, g = _ref_canonicalize(old_r)
    ui = (1 / unit[0],)
    bs, bt = _ref_mul(ui, old_s), _ref_mul(ui, old_t)
    if b:
        m = exact(b, g)
        if len(m) > 1:
            bs = _ref_divmod(bs, m)[1]
            bt = exact(sub(g, _ref_mul(bs, a)), b)
        else:
            bs, bt = (), exact(g, b)
    return g, bs, bt, exact(a, g), exact(b, g)


def _ref_str(a):
    parts = []
    for i, c in enumerate(a):
        if c:
            mono = "" if i == 0 else "x" if i == 1 else f"x^{i}"
            parts.append(str(c) if not mono else mono if c == 1 else f"{c}*{mono}")
    return " + ".join(parts).replace("+ -", "- ") or "0"


# coefficients with denominators up to 10**6, as ints and as Fractions
WIDE_COEFF = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.fractions(min_value=-10**3, max_value=10**3, max_denominator=10**6),
)
WIDE_COEFFS = st.lists(WIDE_COEFF, max_size=6)


def _assert_normal_form(p):
    assert type(p.den) is int and p.den > 0
    assert all(type(n) is int for n in p.num)
    assert not p.num or p.num[-1] != 0
    assert gcd(p.den, *p.num) == 1
    assert p.num or p.den == 1
    cs = p.coeffs
    assert type(cs) is tuple and all(type(c) is Fraction for c in cs)
    # ascending: multiplying by x shifts the coefficients up by one
    assert (Poly.x() * p).coeffs == ((Fraction(0),) + cs if cs else ())


def _assert_matches(p, ref):
    """p has the reference's coefficients and is in normal form."""
    assert p.coeffs == ref
    _assert_normal_form(p)


@settings(max_examples=200, deadline=None)
@given(WIDE_COEFFS, WIDE_COEFFS, WIDE_COEFF)
def test_poly_matches_fraction_reference(ca, cb, k):
    a, b = Poly(ca), Poly(cb)
    ra, rb = _ref_trim(ca), _ref_trim(cb)
    _assert_matches(a, ra)
    _assert_matches(b, rb)
    _assert_matches(a + b, _ref_add(ra, rb))
    _assert_matches(a - b, _ref_add(ra, _ref_neg(rb)))
    _assert_matches(-a, _ref_neg(ra))
    _assert_matches(a * b, _ref_mul(ra, rb))
    # scalar operands on either side
    rk = _ref_trim([k])
    for p in (a + k, k + a):
        _assert_matches(p, _ref_add(ra, rk))
    _assert_matches(a - k, _ref_add(ra, _ref_neg(rk)))
    _assert_matches(k - a, _ref_add(rk, _ref_neg(ra)))
    for p in (a * k, k * a):
        _assert_matches(p, _ref_mul(ra, rk))
    assert (a == k) == (ra == rk)
    for divisor, ref in ((b, rb), (k, rk)):
        if ref:
            q, r = a.divmod(divisor)
            rq, rr = _ref_divmod(ra, ref)
            _assert_matches(q, rq)
            _assert_matches(r, rr)
    unit, assoc = QQX.canonicalize(a)
    ref_unit, ref_assoc = _ref_canonicalize(ra)
    _assert_matches(unit, ref_unit)
    _assert_matches(assoc, ref_assoc)
    _assert_matches(QQX.unit_inverse(unit), (1 / ref_unit[0],))
    # parse/format round trip, and the printed form
    doc = QQX.format_entry(a)
    assert doc == [str(c) for c in ra]
    assert QQX.parse_entry(doc) == a
    assert str(a) == _ref_str(ra)


@settings(max_examples=60, deadline=None)
@given(st.lists(WIDE_COEFF, max_size=4), st.lists(WIDE_COEFF, max_size=4))
def test_poly_xgcd_matches_fraction_reference(ca, cb):
    got = QQX.xgcd(Poly(ca), Poly(cb))
    ref = _ref_xgcd(_ref_trim(ca), _ref_trim(cb))
    for p, r in zip(got, ref):
        _assert_matches(p, r)


@settings(max_examples=100, deadline=None)
@given(WIDE_COEFFS, WIDE_COEFFS)
def test_poly_equal_values_have_one_form(ca, cb):
    # equal polynomials reached by different routes are equal and hash alike
    a, b = Poly(ca), Poly(cb)
    routes = [
        Poly([Fraction(c) for c in ca] + [0, Fraction(0)]),
        Poly(a.coeffs),
        (a + b) - b,
        b + (a - b),
        a * 1,
        QQX.parse_entry(QQX.format_entry(a)),
    ]
    if b:
        q, r = a.divmod(b)
        routes += [q * b + r, QQX.exact_div(a * b, b)]
    for p in routes:
        _assert_normal_form(p)
        assert p == a and hash(p) == hash(a)
    assert a - a == Poly() == 0 and hash(a - a) == hash(Poly())


def test_poly_arithmetic_creates_no_fraction(monkeypatch):
    import bezmat.rings as rings

    def forbidden(*args):
        raise AssertionError("Fraction created in Poly arithmetic")

    x, seven = Poly.x(), Poly.constant(7)
    a = Poly([Fraction(1, 2), 3, Fraction(-5, 7)])
    b = x * x - Fraction(2, 3) * x + Fraction(4, 9)
    monkeypatch.setattr(rings, "Fraction", forbidden)
    a + b, a - b, a * b, -a, a.divmod(b), a == b
    QQX.xgcd(a * b, b * (x + 1))
    QQX.canonicalize(a), QQX.unit_inverse(seven), QQX.format_entry(a)


def test_int_parse_format_round_trip():
    for v in (0, 7, -13, 10**30):
        assert ZZ.parse_entry(ZZ.format_entry(v)) == v
    assert ZZ.parse_entry("  -42 ") == -42
    with pytest.raises(FormatError):
        ZZ.parse_entry("3.5")
    with pytest.raises(FormatError):
        ZZ.parse_entry(True)
    with pytest.raises(FormatError):
        ZZ.parse_entry(None)


def test_rat_parse_format_round_trip():
    for v in (Fraction(0), Fraction(3, 4), Fraction(-7, 2), Fraction(5)):
        assert QQ.parse_entry(QQ.format_entry(v)) == v
    assert QQ.parse_entry("3/4") == Fraction(3, 4)
    assert QQ.parse_entry("-6/8") == Fraction(-3, 4)
    with pytest.raises(FormatError):
        QQ.parse_entry("1/0")
    with pytest.raises(FormatError):
        QQ.parse_entry("x")


def test_poly_parse_format_round_trip():
    p = Poly([Fraction(1, 2), Fraction(0), Fraction(-3)])
    doc = QQX.format_entry(p)
    assert doc == ["1/2", "0", "-3"]
    assert QQX.parse_entry(doc) == p
    assert QQX.parse_entry([]) == Poly()
    # trailing zero coefficients normalize away
    assert QQX.parse_entry(["1", "0"]) == Poly([Fraction(1)])
    with pytest.raises(FormatError):
        QQX.parse_entry("x^2")
    with pytest.raises(FormatError):
        QQX.parse_entry([["1"]])


def test_poly_str_forms():
    x = Poly.x()
    assert str(Poly()) == "0"
    assert "x" in str(x * x + 1)
    # unit coefficients print bare whatever the common denominator
    assert str(Poly([Fraction(-1, 2), 1, Fraction(2, 3), 1])) == "-1/2 + x + 2/3*x^2 + x^3"
