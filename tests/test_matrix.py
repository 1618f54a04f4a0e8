"""Exact dense matrices: construction, arithmetic, determinants,
inverses over the coefficient ring, and column-module solving."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bezmat import solve_in_column_module
from bezmat.errors import (
    DimensionMismatch,
    FormatError,
    InternalAssertion,
    NoSolution,
    NotInvertibleOverRing,
    NotSquare,
    RingMismatch,
)
from bezmat.generate import GenConfig, random_matrix, random_unimodular
from bezmat.matrix import (
    Mat,
    block_diag,
    det,
    hstack,
    inverse_over_ring,
    vstack,
)
from bezmat.rings import QQ, QQX, ZZ, Poly, get_ring


def mat(rows):
    return Mat.from_rows(ZZ, rows)


def int_matrix_strategy(max_n=4, bound=6, square=True):
    def build(draw_mn):
        m, n, flat = draw_mn
        rows = [flat[i * n : (i + 1) * n] for i in range(m)]
        return Mat.from_rows(ZZ, rows)

    if square:
        base = st.integers(1, max_n).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.just(n),
                st.lists(
                    st.integers(-bound, bound), min_size=n * n, max_size=n * n
                ),
            )
        )
    else:
        base = st.tuples(st.integers(1, max_n), st.integers(1, max_n)).flatmap(
            lambda mn: st.tuples(
                st.just(mn[0]),
                st.just(mn[1]),
                st.lists(
                    st.integers(-bound, bound),
                    min_size=mn[0] * mn[1],
                    max_size=mn[0] * mn[1],
                ),
            )
        )
    return base.map(build)


def _det_reference(x: Mat):
    """Cofactor expansion, written independently of the library's
    fraction-free elimination."""
    n = x.n
    if n == 0:
        return x.ring.one
    if n == 1:
        return x[0, 0]
    total = x.ring.zero
    sign = 1
    for j in range(n):
        rows = [
            [x[i, k] for k in range(n) if k != j] for i in range(1, n)
        ]
        minor = Mat.from_rows(x.ring, rows)
        term = x[0, j] * _det_reference(minor)
        total = total + term if sign > 0 else total - term
        sign = -sign
    return total


def test_construction_and_shape():
    x = mat([[1, 2, 3], [4, 5, 6]])
    assert x.shape == (2, 3) and not x.is_square()
    assert x[1, 2] == 6
    assert x.col(2) == (3, 6)
    assert x.tolist() == [[1, 2, 3], [4, 5, 6]]
    assert Mat.identity(ZZ, 0).shape == (0, 0)
    assert Mat.zeros(ZZ, 2, 2).is_zero()
    with pytest.raises(DimensionMismatch):
        Mat.from_rows(ZZ, [[1, 2], [3]])
    with pytest.raises(FormatError):
        Mat.from_rows(ZZ, [[1, "x"]])


def test_immutability_and_equality():
    x = mat([[1, 2], [3, 4]])
    with pytest.raises(AttributeError):
        x.m = 5
    assert x == mat([[1, 2], [3, 4]])
    assert x != mat([[1, 2], [3, 5]])
    assert hash(x) == hash(mat([[1, 2], [3, 4]]))


def test_ring_separation():
    a = mat([[1]])
    b = Mat.from_rows(QQ, [[1]])
    with pytest.raises(RingMismatch):
        a @ b
    with pytest.raises(RingMismatch):
        a + b


def test_arithmetic_shapes():
    a = mat([[1, 2], [3, 4]])
    b = mat([[1, 0], [0, 1]])
    assert a + b == mat([[2, 2], [3, 5]])
    assert a - a == Mat.zeros(ZZ, 2, 2)
    assert -a == mat([[-1, -2], [-3, -4]])
    assert a.scale(3) == mat([[3, 6], [9, 12]])
    with pytest.raises(DimensionMismatch):
        a + mat([[1, 2, 3]])
    with pytest.raises(DimensionMismatch):
        a @ mat([[1, 2, 3], [1, 2, 3], [1, 2, 3]])


def test_matmul_and_power():
    a = mat([[1, 1], [0, 1]])
    assert a @ a == mat([[1, 2], [0, 1]])
    assert a ** 0 == Mat.identity(ZZ, 2)
    assert a ** 3 == mat([[1, 3], [0, 1]])
    with pytest.raises(ValueError):
        a ** -1
    with pytest.raises(NotSquare):
        mat([[1, 2]]) ** 2


def test_power_starts_from_the_first_factor(count_calls):
    # x ** k forms no product with the identity: k = 0..4 take 0, 0, 1, 2
    # and 2 products
    a = mat([[1, 1], [2, 3]])
    counts = count_calls(("bezmat.matrix", "Mat.__matmul__"))
    for k, products in enumerate((0, 0, 1, 2, 2)):
        counts.clear()
        power = a ** k
        assert counts["__matmul__"] == products
        expected = Mat.identity(ZZ, 2)
        for _ in range(k):
            expected = expected @ a
        assert power == expected


def test_transpose_submatrix_stacking():
    a = mat([[1, 2, 3], [4, 5, 6]])
    assert a.transpose().tolist() == [[1, 4], [2, 5], [3, 6]]
    assert a.submatrix(0, 2, 1, 3).tolist() == [[2, 3], [5, 6]]
    assert hstack(a, a).shape == (2, 6)
    assert vstack(a, a).shape == (4, 3)
    bd = block_diag(mat([[1]]), mat([[2, 3]]))
    assert bd.tolist() == [[1, 0, 0], [0, 2, 3]]


@settings(max_examples=80, deadline=None)
@given(int_matrix_strategy(max_n=4, bound=5))
def test_det_matches_cofactor_reference(x):
    assert det(x) == _det_reference(x)


@settings(max_examples=50, deadline=None)
@given(int_matrix_strategy(max_n=3, bound=4), int_matrix_strategy(max_n=3, bound=4))
def test_det_multiplicative(a, b):
    if a.n != b.n:
        return
    assert det(a @ b) == det(a) * det(b)


def test_det_poly_case():
    x = Poly.x()
    a = Mat.from_rows(QQX, [[x, 1], [0, x]])
    assert det(a) == x * x
    assert det(Mat.identity(QQX, 3)) == QQX.one


def test_det_requires_square():
    with pytest.raises(NotSquare):
        det(mat([[1, 2]]))


def test_inverse_over_ring_unimodular():
    u = mat([[2, 1], [1, 1]])  # det 1
    v = inverse_over_ring(u)
    assert u @ v == Mat.identity(ZZ, 2) and v @ u == Mat.identity(ZZ, 2)
    w = mat(
        [
            [1, 2, 0, 1],
            [0, 1, 3, 0],
            [0, 0, 1, 4],
            [0, 0, 0, 1],
        ]
    )
    wi = inverse_over_ring(w)
    assert w @ wi == Mat.identity(ZZ, 4) and wi @ w == Mat.identity(ZZ, 4)


def test_inverse_over_ring_rejects_nonunit_det():
    with pytest.raises(NotInvertibleOverRing) as exc:
        inverse_over_ring(mat([[2, 0], [0, 1]]))
    assert exc.value.det == 2
    with pytest.raises(NotSquare):
        inverse_over_ring(mat([[1, 2]]))


@pytest.mark.parametrize("ring_name", ["int", "rat", "polyrat"])
@pytest.mark.parametrize("n", range(7))
def test_inverse_over_ring_inverts_or_reports_exact_det(ring_name, n):
    # unimodular of either determinant sign, doubled, dense and singular
    # inputs: each inverts and verifies, or reports det(A) exactly
    ring = get_ring(ring_name)
    cfg = GenConfig(ring=ring_name, n=n, seed=700 + n, entry_bound=2)
    u = random_unimodular(cfg)
    dense = random_matrix(cfg)
    flipped = Mat.from_rows(ring, [[-e for e in u.rows[0]], *u.rows[1:]]) if n else u
    cases = [u, flipped, u.scale(2), dense]
    if n:
        # last row a combination of the others (or zero): determinant 0
        last = [ring.zero] * n
        for row in dense.rows[:-1]:
            last = [x + y for x, y in zip(last, row)]
        singular = Mat.from_rows(ring, [*dense.rows[:-1], last])
        cases.append(singular)
    ident = Mat.identity(ring, n)
    for a in cases:
        d = _det_reference(a)
        if ring.is_unit(d):
            inv = inverse_over_ring(a)
            assert a @ inv == ident and inv @ a == ident
        else:
            with pytest.raises(NotInvertibleOverRing) as exc:
                inverse_over_ring(a)
            assert exc.value.det == d
    if n:
        with pytest.raises(NotInvertibleOverRing) as exc:
            inverse_over_ring(singular)
        assert exc.value.det == ring.zero


def test_inverse_over_rat_field():
    a = Mat.from_rows(QQ, [[Fraction(1, 2), 1], [0, 3]])
    ai = inverse_over_ring(a)
    assert a @ ai == Mat.identity(QQ, 2)
    assert ai[0, 0] == Fraction(2)


def test_inverse_over_polyrat_unit_det():
    x = Poly.x()
    a = Mat.from_rows(QQX, [[1, x], [0, 2]])  # det 2, a unit in this ring
    ai = inverse_over_ring(a)
    assert a @ ai == Mat.identity(QQX, 2)
    with pytest.raises(NotInvertibleOverRing):
        inverse_over_ring(Mat.from_rows(QQX, [[x, 0], [0, 1]]))


def test_inverse_over_ring_checks_what_it_returns(monkeypatch):
    # internal callers take the unchecked body; the public function
    # still verifies the inverse it returns
    from bezmat import matrix

    real = matrix._inverse_over_ring
    monkeypatch.setattr(matrix, "_inverse_over_ring", lambda a: real(a).scale(-1))
    with pytest.raises(InternalAssertion, match="inverse candidate failed verification"):
        inverse_over_ring(mat([[2, 1], [1, 1]]))


def test_inverse_over_ring_checks_with_one_product(count_calls):
    # a @ inv == I makes inv @ a == I for square matrices
    counts = count_calls(("bezmat.matrix", "Mat.__matmul__"))
    assert inverse_over_ring(mat([[2, 1], [1, 1]])) == mat([[1, -1], [-1, 2]])
    assert counts["__matmul__"] == 1


def test_solve_in_column_module():
    a = mat([[2, 0], [0, 3]])
    b = mat([[4], [3]])
    x = solve_in_column_module(a, b)
    assert a @ x == b
    # 1 is not in 2Z, so [1, 0] is outside the column module
    with pytest.raises(NoSolution):
        solve_in_column_module(a, mat([[1], [0]]))
    with pytest.raises(DimensionMismatch):
        solve_in_column_module(a, mat([[1]]))


@settings(max_examples=60, deadline=None)
@given(int_matrix_strategy(max_n=3, bound=4), int_matrix_strategy(max_n=3, bound=3))
def test_solve_recovers_arbitrary_combinations(a, c):
    if a.n != c.m:
        return
    b = a @ c
    x = solve_in_column_module(a, b)
    assert a @ x == b
