"""Integer images of matrices.

Products, determinants, ring inverses and the fraction-field oracle run
on each ring's integer image: the matrix itself over the integers, its
numerators over one denominator over the rationals, and over Q[x] the
cleared numerator polynomials evaluated at x = 2**w.  The first part
checks the Q[x] pack and read-back at the edge of a slot; the second
checks the four operations, over all three rings, against a schoolbook
reference on Fraction coefficients written here (cofactor expansion for
determinants, adjugates for inverses, ranks from minors), including
integer products on both sides of the rule that packs the rows of the
right factor, up to the edge of their slots.
"""

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from bezmat import matrix
from bezmat.errors import NotDivisible, NotInvertibleOverRing
from bezmat.field_oracle import _inverse_num, fraction_field_oracle
from bezmat.matrix import PACK_MAX_WIDTH, PACK_MIN, Mat, _packed_product, _packing_width, det, inverse_over_ring
from bezmat.rings import QQ, QQX, RINGS, ZZ, Poly, elimination_width, fraction_free_step, product_width


# ---------------------------------------------------------------------------
# Q[x] images at the slot edge
# ---------------------------------------------------------------------------


def _round_trip(polys, w):
    """Image the 1 x len(polys) matrix at slot width w and read it back;
    also returns the cleared row the width rule was given, and its
    denominator."""
    seen = []
    (img,), ((den,),), got_w = QQX.image(([polys],), lambda cleared: seen.append(cleared) or w)
    assert got_w == w
    ((row,),) = seen[0]
    return [QQX.from_image(v, den, w) for v in img[0]], row, den


def _edge_coeffs(w, length, rnd):
    edge = 2 ** (w - 1) - 1
    return [rnd.choice((edge, -edge, rnd.randint(-edge, edge))) for _ in range(length)]


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 80), st.integers(0, 8), st.integers(0, 2**32))
def test_pack_round_trip_at_the_slot_edge(w, length, seed):
    rnd = random.Random(seed)
    coeffs = _edge_coeffs(w, length, rnd)
    if coeffs:
        coeffs[-1] = -(2 ** (w - 1) - 1)  # a negative leading coefficient
    p = Poly(coeffs)
    polys = [p, -p, Poly(), Poly.constant(coeffs[0] if coeffs else 0)]
    back, row, den = _round_trip(polys, w)
    assert back == polys and den == 1
    assert [list(e) for e in row] == [list(q.num) for q in polys]


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 64), st.integers(1, 6), st.integers(0, 2**32))
def test_pack_round_trip_with_rational_coefficients(w, length, seed):
    # the row's common denominator D is cleared first; the slot edge
    # then holds for the cleared numerators, and each entry reads back
    # over D
    rnd = random.Random(seed)
    edge = 2 ** (w - 1) - 1
    dens = [rnd.choice((1, 2, 3, 5, 7)) for _ in range(3)]
    polys = [Poly([Fraction(c, d) for c in _edge_coeffs(w, length, rnd)]) for d in dens]
    seen = []
    (img,), ((den,),), _ = QQX.image(([polys],), lambda cleared: seen.append(cleared) or w)
    ((row,),) = seen[0]
    assert den == lcm(*(p.den for p in polys))
    assert [[Fraction(c, den) for c in e] for e in row] == [list(p.coeffs) for p in polys]
    if max(abs(c) for e in row for c in e) > edge:
        return  # clearing D pushed a numerator past the slot
    assert [QQX.from_image(v, den, w) for v in img[0]] == polys


@pytest.mark.parametrize("w", [2, 3, 8, 31, 64])
def test_one_past_the_slot_edge_does_not_round_trip(w):
    # the edge is tight: a coefficient of 2**(w-1) reads back as a
    # negative digit with a carry into the next slot
    edge = Poly([2 ** (w - 1) - 1, -(2 ** (w - 1) - 1)])
    assert _round_trip([edge], w)[0] == [edge]
    past = Poly([2 ** (w - 1), 1])
    assert _round_trip([past], w)[0] != [past]


def test_rows_are_cleared_one_by_one():
    ps = [[Poly(), Poly.constant(5), Poly.constant(Fraction(-7, 3))], [Poly([Fraction(1, 2), 1]), Poly.x(), Poly()]]
    (img,), (dens,), w = QQX.image((ps,), elimination_width)
    assert dens == [3, 2]
    assert img == [[0, 15, -7], [1 + (2 << w), 2 << w, 0]]
    assert [[QQX.from_image(v, d, w) for v in row] for row, d in zip(img, dens)] == ps


def test_integer_and_rational_images():
    (a, b), dens, w = ZZ.image(([[1, -2]], [[3], [4]]), None)
    assert (a, b, dens, w) == ([[1, -2]], [[3], [4]], [(1,), (1, 1)], 0)
    (q,), (ds,), w = QQ.image(([[Fraction(1, 2), Fraction(-2, 3)], [Fraction(0), Fraction(5)]],), None)
    assert (q, ds, w) == ([[3, -4], [0, 5]], [6, 1], 0)
    assert QQ.from_image(-4, 6, w) == Fraction(-2, 3)


# ---------------------------------------------------------------------------
# schoolbook reference on Fraction coefficients
# ---------------------------------------------------------------------------

# A reference element is an ascending tuple of Fraction coefficients with
# no trailing zero; integers and rationals are constants, zero is ().
ONE = (Fraction(1),)


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def radd(a, b):
    if len(a) < len(b):
        a, b = b, a
    return _trim([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])


def rneg(a):
    return tuple(-x for x in a)


def rmul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def rdivmod(a, b):
    """Long division by a nonzero b: (q, r) with a == q*b + r, deg r < deg b."""
    r, q = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        f = r[k + len(b) - 1] / b[-1]
        q[k] = f
        for j, y in enumerate(b):
            r[k + j] -= f * y
    return _trim(q), _trim(r[: len(b) - 1])


def to_ref(ring, e):
    if ring is QQX:
        return e.coeffs
    return (Fraction(e),) if e else ()


def from_ref(ring, p):
    if ring is QQX:
        return Poly(p)
    c = p[0] if p else Fraction(0)
    if ring is ZZ:
        assert c.denominator == 1
        return int(c)
    return c


def ref_rows(x: Mat):
    return [[to_ref(x.ring, e) for e in row] for row in x.rows]


def ref_mat(ring, rows, ncols):
    return Mat.from_rows(ring, [[from_ref(ring, e) for e in row] for row in rows], ncols)


def ref_matmul(a, b, ncols):
    out = []
    for ra in a:
        row = []
        for j in range(ncols):
            acc = ()
            for x, rb in zip(ra, b):
                acc = radd(acc, rmul(x, rb[j]))
            row.append(acc)
        out.append(row)
    return out


def minors(a):
    """minor(rows, cols): the determinant of a[rows, cols] by cofactor
    expansion along its first row, memoised over the sub-minors."""

    @lru_cache(maxsize=None)
    def minor(rows, cols):
        if not rows:
            return ONE
        acc = ()
        for t, c in enumerate(cols):
            e = a[rows[0]][c]
            if e:
                term = rmul(e, minor(rows[1:], cols[:t] + cols[t + 1 :]))
                acc = radd(acc, term if t % 2 == 0 else rneg(term))
        return acc

    return minor


def ref_det(a):
    n = len(a)
    return minors(a)(tuple(range(n)), tuple(range(n)))


def ref_adjugate(a):
    n, minor = len(a), minors(a)
    every = tuple(range(n))
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            m = minor(every[:j] + every[j + 1 :], every[:i] + every[i + 1 :])
            adj[i][j] = m if (i + j) % 2 == 0 else rneg(m)
    return adj


def ref_skeleton(a):
    """(rank, rows, cols) of a nonzero minor of the largest order."""
    m, n = len(a), len(a[0]) if a else 0
    minor = minors(a)
    for r in range(min(m, n), 0, -1):
        for rows in itertools.combinations(range(m), r):
            for cols in itertools.combinations(range(n), r):
                if minor(rows, cols):
                    return r, rows, cols
    return 0, (), ()


def ref_identity(n):
    return [[ONE if i == j else () for j in range(n)] for i in range(n)]


def ref_is_unit(ring, d):
    if ring is ZZ:
        return d in ((Fraction(1),), (Fraction(-1),))
    return len(d) == 1


def ref_integral(ring, e, den):
    """e/den, or None when it is not a ring element."""
    q, r = rdivmod(e, den)
    if r or (ring is ZZ and any(c.denominator != 1 for c in q)):
        return None
    return q


def ref_oracle(ring, a):
    """(rank, Drazin index, X^D or None when it is not integral) over the
    fraction field: X^D == X^k Y^# X^k with Y = X^(2k+1) of index at most
    one, and Y^# == C F^-1 M F^-1 R from a largest nonzero minor
    M = Y[I, J], C = Y[:, J], R = Y[I, :], F = R C."""
    n = len(a)
    powers = [ref_identity(n), a]

    def power(j):
        while len(powers) <= j:
            powers.append(ref_matmul(powers[-1], a, n))
        return powers[j]

    rank = ref_skeleton(a)[0]
    k, ranks = 0, [n, rank]
    while ranks[k] != ranks[k + 1]:
        k += 1
        ranks.append(ref_skeleton(power(k + 1))[0])
    y = power(2 * k + 1)
    r, rows, cols = ref_skeleton(y)
    c = [[row[j] for j in cols] for row in y]
    rr = [y[i] for i in rows]
    mm = [[y[i][j] for j in cols] for i in rows]
    f = ref_matmul(rr, c, r)
    fadj = ref_adjugate(f)
    fd = ref_det(f)
    num = ref_matmul(ref_matmul(ref_matmul(ref_matmul(c, fadj, r), mm, r), fadj, r), rr, n)
    xk = power(k)
    num = ref_matmul(ref_matmul(xk, num, n), xk, n)
    den = rmul(fd, fd)
    value = [[ref_integral(ring, e, den) for e in row] for row in num]
    if any(e is None for row in value for e in row):
        value = None
    return rank, k, value


# ---------------------------------------------------------------------------
# inputs: dense, rank-deficient and index >= 2, over each ring
# ---------------------------------------------------------------------------


def ref_entry(ring, rnd, bound=3, degree=2):
    if ring is ZZ:
        return to_ref(ring, rnd.randint(-bound, bound))
    if ring is QQ:
        return to_ref(ring, Fraction(rnd.randint(-bound, bound), rnd.choice((1, 1, 2, 3))))
    d = rnd.choice((1, 1, 2, 3))
    return to_ref(ring, Poly([Fraction(rnd.randint(-bound, bound), d) for _ in range(rnd.randint(0, degree + 1))]))


def ref_random(ring, rnd, m, n, degree=2):
    return [[ref_entry(ring, rnd, degree=degree) for _ in range(n)] for _ in range(m)]


def ref_conjugate(ring, rnd, a, steps=4):
    """S a S^-1 for a product S of transvections I + c*e_ij."""
    a = [list(row) for row in a]
    n = len(a)
    for _ in range(steps if n > 1 else 0):
        i, j = rnd.sample(range(n), 2)
        c = ref_entry(ring, rnd, bound=1, degree=1) or ONE
        a[i] = [radd(x, rmul(c, y)) for x, y in zip(a[i], a[j])]
        for row in a:
            row[j] = radd(row[j], rneg(rmul(c, row[i])))
    return a


def ref_unit(ring, rnd):
    if ring is ZZ:
        return (Fraction(rnd.choice((1, -1))),)
    return (Fraction(rnd.choice((1, -1, 2, -3)), rnd.choice((1, 2))),)


def ref_inputs(ring, n, seed):
    """n x n reference matrices: dense; rank-deficient (a product
    through rank n // 2); and conjugates S diag(N, T) S^-1 and
    S diag(T, 0) S^-1 with T upper triangular of unit diagonal, N a
    nilpotent Jordan block (index 2 or 3), whose Drazin inverses are
    ring matrices."""
    rnd = random.Random(seed)
    out = [ref_random(ring, rnd, n, n)]
    r = n // 2
    out.append(ref_matmul(ref_random(ring, rnd, n, r, 1), ref_random(ring, rnd, r, n, 1), n))
    # (size of N, end of T): N on rows 0..lo-1, T on rows lo..hi-1
    shapes = ([(2 + (n >= 4), n)] if n >= 2 else []) + ([(0, (n + 1) // 2)] if n >= 1 else [])
    for lo, hi in shapes:
        blocks = [[ONE if j == i + 1 < lo else () for j in range(n)] for i in range(n)]
        for i in range(lo, hi):
            blocks[i][i] = ref_unit(ring, rnd)
            blocks[i][i + 1 : hi] = [ref_entry(ring, rnd) for _ in range(hi - i - 1)]
        out.append(ref_conjugate(ring, rnd, blocks))
    return out


# ---------------------------------------------------------------------------
# differential tests
# ---------------------------------------------------------------------------

SHAPES = [(0, 0, 0), (0, 3, 2), (2, 0, 3), (3, 2, 0), (1, 1, 1), (2, 3, 4), (4, 4, 4), (5, 2, 6), (6, 6, 6)]


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@pytest.mark.parametrize("shape", SHAPES)
def test_products_match_the_reference(ring_name, shape):
    ring = RINGS[ring_name]
    m, k, n = shape
    rnd = random.Random(f"{ring_name} {shape}")
    for _ in range(3):
        a, b = ref_random(ring, rnd, m, k), ref_random(ring, rnd, k, n)
        got = ref_mat(ring, a, k) @ ref_mat(ring, b, n)
        assert got.shape == (m, n)
        assert got == ref_mat(ring, ref_matmul(a, b, n), n)


# Integer products of at least PACK_MIN rows and columns with slots of at
# most PACK_MAX_WIDTH bits run on packed rows; the rest, one sum per entry.


def _int_product(a, b, k, n):
    """a @ b as Mats (a with k columns, b with n), and whether it ran on
    packed rows."""
    packed = []

    def spy(*args):
        packed.append(args)
        return _packed_product(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrix, "_packed_product", spy)
        got = Mat.from_rows(ZZ, a, k) @ Mat.from_rows(ZZ, b, n)
    return got, bool(packed)


def _int_reference(a, b, n):
    ra, rb = ([[to_ref(ZZ, e) for e in row] for row in x] for x in (a, b))
    return ref_mat(ZZ, ref_matmul(ra, rb, n), n)


def _int_random(rnd, m, n, bits):
    edge = 2**bits - 1
    return [[rnd.randint(-edge, edge) for _ in range(n)] for _ in range(m)]


def _int_extremes(m, k, n, bits_a, bits_b):
    """Entries at +-(2**bits - 1), signed by row in a and by column in b,
    so every product entry is +-k * max|a| * max|b|."""
    ea, eb = 2**bits_a - 1, 2**bits_b - 1
    a = [[(-1) ** i * ea] * k for i in range(m)]
    b = [[(-1) ** (j // 2) * eb for j in range(n)] for _ in range(k)]
    return a, b


@pytest.mark.parametrize("shape", list(itertools.product((7, 8, 9), repeat=3)) + [(48, 48, 48)])
def test_int_products_around_the_switch_match_the_reference(shape):
    m, k, n = shape
    rnd = random.Random(f"int {shape}")
    for bits in (1, 4, 30):
        a, b = _int_random(rnd, m, k, bits), _int_random(rnd, k, n, bits)
        got, packed = _int_product(a, b, k, n)
        assert got == _int_reference(a, b, n)
        assert packed == (m >= PACK_MIN and n >= PACK_MIN)


@pytest.mark.parametrize("shape", [(9, 0, 9), (9, 1, 9), (8, 1, 8), (0, 9, 9), (9, 9, 0), (0, 0, 9), (9, 0, 0), (1, 9, 9), (9, 9, 1)])
def test_int_products_of_thin_and_empty_operands(shape):
    m, k, n = shape
    rnd = random.Random(f"thin {shape}")
    a, b = _int_random(rnd, m, k, 6), _int_random(rnd, k, n, 6)
    got, packed = _int_product(a, b, k, n)
    assert got.shape == (m, n)
    assert got == _int_reference(a, b, n)
    assert packed == (m >= PACK_MIN and n >= PACK_MIN and k > 0)


@pytest.mark.parametrize("bits", [1, 7, 30, 60, 70])
def test_int_products_with_mixed_signs_match_the_reference(bits):
    # random signs, and factors whose largest magnitude is only in one
    # negative row of a, or one negative column of b, among entries 0 and 1
    # (so their first entries do not show how wide the slots must be)
    rnd = random.Random(bits)
    edge = 2**bits - 1
    a, b = _int_random(rnd, 12, 10, bits), _int_random(rnd, 10, 11, bits)
    low_a = [[-edge] * 10 if i == 3 else [rnd.randint(0, 1) for _ in range(10)] for i in range(12)]
    low_b = [[-edge if j == 5 else rnd.randint(0, 1) for j in range(11)] for _ in range(10)]
    for x, y in ((a, b), (low_a, b), (a, low_b)):
        got, packed = _int_product(x, y, 10, 11)
        assert got == _int_reference(x, y, 11)
        assert packed == (2 * bits + 5 <= PACK_MAX_WIDTH)


@pytest.mark.parametrize("k, bits_a, bits_b", [(15, 61, 62), (15, 62, 62), (16, 60, 61), (8, 60, 63), (48, 1, 1)])
def test_int_slots_at_the_width_limit(k, bits_a, bits_b):
    # every product entry is +-k * max|a| * max|b|: a slot of the rule's
    # width w holds it, at w <= PACK_MAX_WIDTH on packed rows and one bit
    # past it per entry
    m, n = 9, 10
    a, b = _int_extremes(m, k, n, bits_a, bits_b)
    w = bits_a + bits_b + k.bit_length() + 1
    assert _packing_width(a, b, k) == (w if w <= PACK_MAX_WIDTH else None)
    got, packed = _int_product(a, b, k, n)
    want = _int_reference(a, b, n)
    assert got == want
    assert packed == (w <= PACK_MAX_WIDTH)
    assert Mat._raw(ZZ, m, n, _packed_product(a, b, n, w)) == want


def test_one_bit_short_of_the_int_slot_does_not_round_trip():
    # k = 15 is 2**4 - 1, so 15 * (2**61 - 1) * (2**62 - 1) needs every
    # one of the w = 61 + 62 + 4 + 1 = 128 bits of its signed slot
    a, b = _int_extremes(9, 15, 10, 61, 62)
    w = _packing_width(a, b, 15)
    assert w == PACK_MAX_WIDTH == 128
    want = _int_reference(a, b, 10)
    assert Mat._raw(ZZ, 9, 10, _packed_product(a, b, 10, w)) == want
    assert Mat._raw(ZZ, 9, 10, _packed_product(a, b, 10, w - 1)) != want


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@pytest.mark.parametrize("n", range(7))
def test_det_and_inverse_match_the_reference(ring_name, n):
    ring = RINGS[ring_name]
    rnd = random.Random(100 * n + len(ring_name))
    inputs = ref_inputs(ring, n, seed=n)
    # a unimodular input: a conjugate of a unit diagonal
    unit = ONE if ring is ZZ else (Fraction(-3, 2),)
    inputs.append(ref_conjugate(ring, rnd, [[unit if i == j else () for j in range(n)] for i in range(n)]))
    for a in inputs:
        x = ref_mat(ring, a, n)
        d = ref_det(a)
        assert det(x) == from_ref(ring, d)
        if not ref_is_unit(ring, d):
            with pytest.raises(NotInvertibleOverRing) as err:
                inverse_over_ring(x)
            assert err.value.det == from_ref(ring, d)
            continue
        adj = ref_adjugate(a)
        want = [[rdivmod(e, d)[0] for e in row] for row in adj]
        assert inverse_over_ring(x) == ref_mat(ring, want, n)
    assert any(ref_is_unit(ring, ref_det(a)) for a in inputs)


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@pytest.mark.parametrize("n", range(7))
def test_oracle_matches_the_reference(ring_name, n):
    ring = RINGS[ring_name]
    indices, integral = set(), 0
    for a in ref_inputs(ring, n, seed=10 + n):
        rank, k, value = ref_oracle(ring, a)
        rep = fraction_field_oracle(ref_mat(ring, a, n))
        assert (rep.rank, rep.drazin_index) == (rank, k)
        assert rep.group_exists == (k <= 1)
        assert rep.drazin_integral == (value is not None)
        want = None if value is None else ref_mat(ring, value, n)
        assert rep.drazin_ring == want
        assert rep.group_integral == (rep.drazin_integral if k <= 1 else None)
        assert rep.group_ring == (want if k <= 1 else None)
        indices.add(k)
        integral += value is not None
    if n >= 2:
        assert max(indices) >= 2 and integral >= 2


def _stress_entry(rnd, big, degree=9):
    # all coefficients near the largest, alternating in sign, so that
    # products add them up in the same sign and fill their slots
    sign = rnd.choice((1, -1))
    return Poly([sign * (-1) ** t * (big - rnd.randint(0, 3)) for t in range(degree + 1)])


@pytest.mark.parametrize("den", [1, 7])
def test_width_stress_at_degree_nine(den):
    rnd = random.Random(den)
    big = 2**40
    n = 6
    x = Mat(QQX, [[_stress_entry(rnd, big) * Fraction(1, rnd.choice((1, den))) for _ in range(n)] for _ in range(n)])
    y = Mat(QQX, [[_stress_entry(rnd, big) for _ in range(n)] for _ in range(n)])
    a, b = ref_rows(x), ref_rows(y)
    xy = x @ y
    assert xy == ref_mat(QQX, ref_matmul(a, b, n), n)
    # the product's cleared coefficients come within 3 bits of its slot edge
    _, (da, db), w = QQX.image((x.rows, tuple(zip(*y.rows))), product_width(n))
    top = max(abs(c) * da[i] * db[j] // e.den for i, row in enumerate(xy.rows) for j, e in enumerate(row) for c in e.num)
    assert w - 4 <= top.bit_length() <= w - 1
    d = ref_det(a)
    assert len(d) == 1 + n * 9
    assert det(x) == from_ref(QQX, d)
    with pytest.raises(NotInvertibleOverRing) as err:
        inverse_over_ring(x)
    assert err.value.det == from_ref(QQX, d)
    rep = fraction_field_oracle(x)
    assert (rep.rank, rep.drazin_index, rep.drazin_integral) == (n, 0, False)


# ---------------------------------------------------------------------------
# the checked row update and long images
# ---------------------------------------------------------------------------


def test_fraction_free_step_checks_every_quotient():
    # the 2 x 2 minors of [[2, 4, 6], [3, 5, 8]] over the previous pivot 1,
    # then the same row over a previous pivot that divides none of them
    row = [3, 5, 8]
    fraction_free_step(row, 2, 3, [2, 4, 6], 1, 1)
    assert row == [3, -2, -2]
    fraction_free_step(row, 2, 0, [0, 1, 1], 2, 1)
    assert row == [3, -2, -2]
    with pytest.raises(NotDivisible):
        fraction_free_step([3, 5, 8], 2, 3, [2, 4, 6], 4, 1)


def test_long_images_match_the_reference():
    # dense degree-20 entries with 200-bit coefficients: the images run
    # to tens of thousands of bits, and every exact division is checked
    rnd = random.Random(4)
    n = 4
    a = [
        [tuple(Fraction(rnd.getrandbits(200) - 2**199, rnd.choice((1, 3))) for _ in range(21)) for _ in range(n)]
        for _ in range(n)
    ]
    x = ref_mat(QQX, a, n)
    d = ref_det(a)
    assert det(x) == from_ref(QQX, d)
    with pytest.raises(NotInvertibleOverRing) as err:
        inverse_over_ring(x)
    assert err.value.det == from_ref(QQX, d)
    # the oracle's X^-1 == N / delta is adj(X) / det(X)
    _, _, _, num, delta = _inverse_num(x)
    adj = ref_adjugate(a)
    assert [[rmul(to_ref(QQX, e), d) for e in row] for row in num.rows] == [
        [rmul(e, to_ref(QQX, delta)) for e in row] for row in adj
    ]
