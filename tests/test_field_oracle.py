"""Fraction-field oracle: reports on frozen matrices.

The oracle must reach its answers by its own fraction-free elimination
only, so these tests freeze known answers (computed independently).
"""

from fractions import Fraction

import pytest

from bezmat import faults
from bezmat.errors import InternalAssertion, NotSquare
from bezmat.field_oracle import _verify, fraction_field_oracle
from bezmat.matrix import Mat
from bezmat.rings import QQ, QQX, ZZ, Poly


def mat(rows):
    return Mat.from_rows(ZZ, rows)


def poly(*coeffs):
    return Poly([Fraction(c) for c in coeffs])


X = Poly.x()


# ---------------------------------------------------------------------------
# oracle reports on frozen matrices
# ---------------------------------------------------------------------------


def test_oracle_group_integral_case():
    x = mat([[3, -1, 1], [1, 0, 0], [0, 0, 0]])
    rep = fraction_field_oracle(x)
    assert rep.rank == 2
    assert rep.group_exists and rep.group_integral
    assert rep.group_ring == mat([[0, 1, -1], [-1, 3, -3], [0, 0, 0]])
    assert rep.drazin_index == 1
    assert rep.drazin_integral
    assert rep.drazin_ring == rep.group_ring


def test_oracle_group_exists_but_not_integral():
    # X @ X == 4 X: field group inverse is X / 16, never integer
    x = mat([[2, 2], [2, 2]])
    rep = fraction_field_oracle(x)
    assert rep.rank == 1
    assert rep.group_exists
    assert rep.group_integral is False
    assert rep.group_ring is None
    assert rep.drazin_index == 1
    assert rep.drazin_integral is False
    assert rep.drazin_ring is None


def test_oracle_group_does_not_exist_over_field():
    y = mat([[1, -1, 2], [0, 0, 1], [0, 0, 0]])
    rep = fraction_field_oracle(y)
    assert rep.group_exists is False
    assert rep.group_integral is None
    assert rep.drazin_index == 2
    assert rep.drazin_integral
    assert rep.drazin_ring == mat([[1, -1, 1], [0, 0, 0], [0, 0, 0]])


def test_oracle_invertible_and_extremes():
    rep = fraction_field_oracle(mat([[2, 0], [0, 1]]))
    assert rep.rank == 2
    assert rep.drazin_index == 0
    assert rep.group_exists and rep.group_integral is False

    z = fraction_field_oracle(Mat.zeros(ZZ, 2, 2))
    assert z.rank == 0
    assert z.group_exists and z.group_integral
    assert z.group_ring == Mat.zeros(ZZ, 2, 2)
    assert z.drazin_index == 1

    e = fraction_field_oracle(Mat.zeros(ZZ, 0, 0))
    assert e.rank == 0 and e.drazin_index == 0

    with pytest.raises(NotSquare):
        fraction_field_oracle(Mat.zeros(ZZ, 2, 3))


def test_oracle_rational_ring():
    x = Mat.from_rows(QQ, [[Fraction(2), Fraction(2)], [Fraction(2), Fraction(2)]])
    rep = fraction_field_oracle(x)
    assert rep.group_exists and rep.group_integral
    eighth = Fraction(1, 8)
    assert rep.group_ring == Mat.from_rows(QQ, [[eighth, eighth], [eighth, eighth]])


def test_oracle_polynomial_ring():
    x = Mat.from_rows(QQX, [[X, 0], [0, 0]])
    rep = fraction_field_oracle(x)
    assert rep.rank == 1
    # field group inverse diag(1/x, 0) exists but is not polynomial
    assert rep.group_exists
    assert rep.group_integral is False
    assert rep.drazin_index == 1

    nil = Mat.from_rows(QQX, [[0, X], [0, 0]])
    repn = fraction_field_oracle(nil)
    assert repn.drazin_index == 2
    assert repn.drazin_integral
    assert repn.drazin_ring == Mat.zeros(QQX, 2, 2)


def test_oracle_polynomial_non_monic_pivot():
    # X = u v^T with u = (x, 1), v = (3/2, -3/2 x + 2/3): X @ X == (2/3) X,
    # so X^# == X / (2/3)^2 == 9/4 X; the first pivot 3/2 x is not monic
    q = Fraction
    x = Mat.from_rows(QQX, [
        [poly(0, q(3, 2)), poly(0, q(2, 3), q(-3, 2))],
        [poly(q(3, 2)), poly(q(2, 3), q(-3, 2))],
    ])
    rep = fraction_field_oracle(x)
    assert rep.rank == 1
    assert rep.group_exists and rep.group_integral
    assert rep.group_ring == Mat.from_rows(QQX, [
        [poly(0, q(27, 8)), poly(0, q(3, 2), q(-27, 8))],
        [poly(q(27, 8)), poly(q(3, 2), q(-27, 8))],
    ])
    assert rep.drazin_index == 1
    assert rep.drazin_integral and rep.drazin_ring == rep.group_ring


def test_oracle_polynomial_index_two_not_polynomial():
    # P diag(x, [[0, 1], [0, 0]]) P^-1: X^D == P diag(1/x, 0, 0) P^-1
    p = Mat.from_rows(QQX, [[1, 0, 0], [X, 1, 0], [2, 0, 1]])
    pinv = Mat.from_rows(QQX, [[1, 0, 0], [-X, 1, 0], [-2, 0, 1]])
    core = Mat.from_rows(QQX, [[X, 0, 0], [0, 0, 1], [0, 0, 0]])
    rep = fraction_field_oracle(p @ core @ pinv)
    assert rep.rank == 2
    assert rep.group_exists is False
    assert rep.group_integral is None and rep.group_ring is None
    assert rep.drazin_index == 2
    assert rep.drazin_integral is False
    assert rep.drazin_ring is None


def test_oracle_fault_flips_integrality():
    x = mat([[3, -1, 1], [1, 0, 0], [0, 0, 0]])
    faults.activate("oracle")
    try:
        rep = fraction_field_oracle(x)
        assert rep.group_integral is False
        assert rep.drazin_integral is False
    finally:
        faults.clear()
    # switch off: behaviour restored
    rep = fraction_field_oracle(x)
    assert rep.group_integral and rep.drazin_integral


# (X, N, delta, k): each candidate breaks exactly one of X N == N X,
# X^(k+1) N == delta X^k and N X N == delta N (at k == 0 the check is
# X N == delta I alone), or satisfies them all with delta == 0
BROKEN_CANDIDATES = {
    "k0-scaled-inverse": ([[2, 1], [1, 1]], [[2, -2], [-2, 4]], 1, 0),
    "k0-zero-denominator": ([[2, 1], [1, 1]], [[0, 0], [0, 0]], 0, 0),
    "k1-zero-denominator": ([[2, 1], [1, 1]], [[0, 0], [0, 0]], 0, 1),
    "k1-no-commute": ([[1, 1], [0, 0]], [[0, 0], [1, 1]], 1, 1),
    "k1-power": ([[1, 0], [0, 0]], [[0, 0], [0, 0]], 1, 1),
    "k1-reflexive": ([[1, 0], [0, 0]], [[1, 0], [0, 1]], 1, 1),
    "k2-power": ([[1, 0, 0], [0, 0, 1], [0, 0, 0]], [[0, 0, 0], [0, 0, 0], [0, 0, 0]], 1, 2),
}


def test_verify_accepts_the_drazin_equations():
    _verify(mat([[2, 1], [1, 1]]), mat([[2, -2], [-2, 4]]), 2, 0)
    _verify(mat([[1, 1], [0, 0]]), mat([[1, 1], [0, 0]]), 1, 1)
    _verify(mat([[1, 0, 0], [0, 0, 1], [0, 0, 0]]), mat([[1, 0, 0], [0, 0, 0], [0, 0, 0]]), 1, 2)


@pytest.mark.parametrize("case", sorted(BROKEN_CANDIDATES))
def test_verify_rejects_each_broken_equation(case):
    x, num, den, k = BROKEN_CANDIDATES[case]
    with pytest.raises(InternalAssertion, match=f"index {k} failed"):
        _verify(mat(x), mat(num), den, k)


FULL_RANK = {
    "int": mat([[2, 1, 0], [1, 1, 0], [0, 0, 3]]),
    "polyrat": Mat.from_rows(QQX, [[X, 1, 0], [0, X, 1], [1, 0, X]]),
}


@pytest.mark.parametrize("ring_name", sorted(FULL_RANK))
def test_oracle_checks_a_full_rank_inverse_with_one_product(count_calls, ring_name):
    # X N == delta I with delta != 0 makes N X == delta I over a domain
    counts = count_calls(("bezmat.matrix", "Mat.__matmul__"))
    rep = fraction_field_oracle(FULL_RANK[ring_name])
    assert rep.rank == 3 and rep.drazin_index == 0
    assert counts["__matmul__"] == 1


def test_oracle_rank_deficient_product_count_is_pinned(count_calls):
    # F = R C, X^# = C A M A R, then X N, N X, X^2 N and N X N
    counts = count_calls(("bezmat.matrix", "Mat.__matmul__"))
    rep = fraction_field_oracle(mat([[3, -1, 1], [1, 0, 0], [0, 0, 0]]))
    assert rep.rank == 2 and rep.drazin_index == 1
    assert counts["__matmul__"] == 9


@pytest.mark.parametrize("ring_name", sorted(FULL_RANK))
def test_oracle_rejects_a_full_rank_inverse_with_one_entry_off(monkeypatch, ring_name):
    from bezmat import field_oracle

    real = field_oracle._inverse_num

    def off_by_one(x):
        rank, cols, prows, num, d = real(x)
        return rank, cols, prows, num + Mat.diagonal(x.ring, [1], x.n, x.n), d

    monkeypatch.setattr(field_oracle, "_inverse_num", off_by_one)
    with pytest.raises(InternalAssertion, match="index 0 failed"):
        fraction_field_oracle(FULL_RANK[ring_name])
