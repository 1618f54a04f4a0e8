"""Column/row echelon forms, diagonal (invariant-factor) form, ranks,
module comparisons, and kernels."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bezmat import normal_forms
from bezmat.errors import InternalAssertion
from bezmat.matrix import Mat, det, inverse_over_ring
from bezmat.normal_forms import (
    col_module_contains,
    col_module_equal,
    column_hermite,
    column_module_basis,
    left_kernel_basis,
    rank,
    rank_factorization,
    right_kernel_basis,
    row_hermite,
    row_module_equal,
    smith,
)
from bezmat.rings import QQ, QQX, ZZ, Poly
from bezmat.generate import GenConfig, random_matrix, random_unimodular


PX = Poly.x()


def mat(rows):
    return Mat.from_rows(ZZ, rows)


def int_matrices(max_side=4, bound=6):
    return st.tuples(st.integers(1, max_side), st.integers(1, max_side)).flatmap(
        lambda mn: st.lists(
            st.integers(-bound, bound),
            min_size=mn[0] * mn[1],
            max_size=mn[0] * mn[1],
        ).map(
            lambda flat: Mat.from_rows(
                ZZ, [flat[i * mn[1] : (i + 1) * mn[1]] for i in range(mn[0])]
            )
        )
    )


def _check_column_echelon_structure(h, ring):
    """Structural invariants of the canonical column echelon form."""
    pivots = []
    for j in range(h.n):
        col = [h[i, j] for i in range(h.m)]
        nz = [i for i, v in enumerate(col) if v != ring.zero]
        if not nz:
            # all later columns must be zero too
            for j2 in range(j + 1, h.n):
                assert all(h[i, j2] == ring.zero for i in range(h.m))
            break
        top = nz[0]
        if pivots:
            assert top > pivots[-1][0]
        piv = h[top, j]
        unit, assoc = ring.canonicalize(piv)
        assert assoc == piv, "pivot must be the canonical associate"
        # entries left of a pivot in its row are reduced modulo the pivot
        for j2 in range(j):
            q, r = ring.pivot_reduce(h[top, j2], piv)
            assert r == h[top, j2], "entry left of pivot must be reduced"
        pivots.append((top, j))


def _check_column_hermite_contract(x, hr):
    ring = x.ring
    assert x @ hr.T == hr.H
    assert ring.is_unit(det(hr.T))
    _check_column_echelon_structure(hr.H, ring)
    assert hr.pivot_rows == tuple(
        next(i for i in range(x.m) if hr.H[i, j] != ring.zero)
        for j in range(len(hr.pivot_rows))
    )


@settings(max_examples=70, deadline=None)
@given(int_matrices())
@example(Mat.zeros(ZZ, 0, 3))
@example(Mat.zeros(ZZ, 3, 0))
@example(Mat.from_rows(QQ, [[2, 3], [4, 6]]))
@example(Mat.from_rows(QQ, [[0, Fraction(1, 2), 3], [5, 7, Fraction(-2, 3)]]))
@example(Mat.zeros(QQ, 2, 0))
# non-monic pivots, with rational coefficients
@example(Mat.from_rows(QQX, [[2 * PX + 1, PX * PX], [3, PX]]))
@example(Mat.from_rows(QQX, [[Poly([Fraction(1, 2), 0, 3]), Poly([2, -4])], [0, PX]]))
@example(Mat.from_rows(QQX, [[0, 2 * PX], [PX + 1, 0], [PX, 1]]))
# rank one: the remainder loop must leave one nonzero column
@example(Mat.from_rows(QQX, [[PX, PX * PX], [PX * PX, PX * PX * PX]]))
@example(Mat.zeros(QQX, 0, 2))
@example(Mat.zeros(QQX, 2, 0))
def test_column_hermite_contract(x):
    hr = column_hermite(x)
    _check_column_hermite_contract(x, hr)
    # idempotence: the form of the form is itself
    assert column_hermite(hr.H).H == hr.H


def _hadamard_bits(x):
    """Bits of Hadamard's bound (sqrt(n) * max |x_ij|)**n on |det x|, for
    a square integer x: about 181 at n = 32 and 286 at n = 48 for entries
    in [-9, 9]."""
    return math.isqrt((x.n * _max_entry(x) ** 2) ** x.n).bit_length()


def _max_entry(x):
    return max(abs(v) for row in x.rows for v in row)


def _max_bits(x):
    return _max_entry(x).bit_length()


@pytest.mark.parametrize("n,seed", [(32, 32), (32, 32000), (48, 48)])
def test_column_hermite_is_fast_on_large_random_integer_matrices(n, seed):
    # Pairwise xgcd combines multiply whole columns by cofactors as large
    # as the entries; with them, n = 32 seed 32 took 19 s in column_hermite,
    # and in smith 14.7 s (U of 854,935 bits), and n = 48 did not finish
    # smith in 90 s.  The remainder loop takes well under a second on each
    # of these.  Smith by alternating Hermite passes keeps U and V within
    # the Hadamard bound; a pivot loop of its own let U reach 9x at n = 48.
    rng = random.Random(seed)
    x = mat([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
    start = time.perf_counter()
    hr = column_hermite(x)
    assert time.perf_counter() - start < 5.0
    assert len(hr.pivot_rows) == n
    _check_column_hermite_contract(x, hr)
    start = time.perf_counter()
    sr = smith(x)
    assert time.perf_counter() - start < 5.0
    assert sr.rank == n
    bound = _hadamard_bits(x)
    assert _max_bits(sr.U) <= bound
    assert _max_bits(sr.V) <= bound


@pytest.mark.parametrize(
    "n,seed",
    [pytest.param(6, seed, id=str(seed)) for seed in (1, 2, 3)] + [pytest.param(7, 1, id="n7-1")],
)
def test_column_hermite_is_fast_on_high_degree_polynomial_matrices(n, seed):
    # Entries of degree up to 9 with coefficients in [-9, 9].  Without
    # ring.primitive after each column step, the rational coefficients of
    # the quotients pile up and these took 5.9-7.6 s; with it, about 0.2 s.
    # smith with the xgcd block took 0.8-2.4 s at n = 6 and 12.7-25.5 s
    # at n = 7.
    x = random_matrix(GenConfig(ring="polyrat", n=n, seed=seed, entry_bound=9))
    start = time.perf_counter()
    hr = column_hermite(x)
    assert time.perf_counter() - start < 3.0
    assert len(hr.pivot_rows) == n
    if n == 6:
        _check_column_hermite_contract(x, hr)
    else:
        # det(T) alone takes about 10 s at n = 7: T's rows carry long
        # rational coefficients (see CHANGES.md on det over Q[x])
        assert x @ hr.T == hr.H
        _check_column_echelon_structure(hr.H, x.ring)
    start = time.perf_counter()
    sr = smith(x)
    assert time.perf_counter() - start < 5.0
    assert sr.rank == n


@settings(max_examples=40, deadline=None)
@given(int_matrices(max_side=3, bound=4), st.integers(0, 2**32 - 1))
def test_column_hermite_is_module_invariant(x, seed):
    u = random_unimodular(GenConfig(ring="int", n=x.n, seed=seed), x.n)
    assert column_hermite(x @ u).H == column_hermite(x).H


def test_column_hermite_fixed_cases():
    # single column: canonical associate at the top of its echelon position
    hr = column_hermite(mat([[0, 3], [0, 0]]))
    assert hr.H == mat([[3, 0], [0, 0]])
    assert hr.pivot_rows == (0,)
    # zero matrix: nothing to do
    hr0 = column_hermite(Mat.zeros(ZZ, 2, 3))
    assert hr0.H == Mat.zeros(ZZ, 2, 3)
    assert hr0.pivot_rows == ()
    # 0x0 and 0xn edge shapes
    assert column_hermite(Mat.zeros(ZZ, 0, 0)).H.shape == (0, 0)
    assert column_hermite(Mat.zeros(ZZ, 0, 3)).H.shape == (0, 3)


def test_row_hermite_mirrors_column_form():
    x = mat([[2, 4], [1, 3]])
    rr = row_hermite(x)
    assert rr.T @ x == rr.H
    assert ZZ.is_unit(det(rr.T))
    assert column_hermite(x.transpose()).H == rr.H.transpose()


@settings(max_examples=70, deadline=None)
@given(int_matrices())
@example(Mat.zeros(ZZ, 0, 3))
@example(Mat.zeros(ZZ, 3, 0))
@example(Mat.from_rows(QQX, [[Poly.x(), 0], [0, Poly.x() - 1]]))
@example(Mat.from_rows(QQX, [[Poly.x(), Poly.x() * Poly.x(), 1], [2, Poly.x(), 0]]))
@example(Mat.from_rows(QQX, [[0, Poly.x()], [Poly.x() + 1, 0], [Poly.x(), 1]]))
@example(Mat.zeros(QQX, 0, 2))
@example(Mat.zeros(QQX, 2, 0))
def test_smith_contract(x):
    ring = x.ring
    sr = smith(x)
    assert sr.U @ sr.S @ sr.V == x
    assert ring.is_unit(det(sr.U)) and ring.is_unit(det(sr.V))
    diag = sr.diagonal()
    # off-diagonal zero, canonical diagonal, divisibility chain
    for i in range(sr.S.m):
        for j in range(sr.S.n):
            if i != j:
                assert sr.S[i, j] == ring.zero
    for i, d in enumerate(diag):
        assert ring.canonicalize(d)[1] == d
        if i + 1 < len(diag):
            assert ring.divides(d, diag[i + 1])
    assert len(diag) == rank(x)


def test_smith_frozen_values():
    # expected invariant factors computed independently
    assert smith(mat([[2, 4], [1, 3]])).diagonal() == (1, 2)
    assert smith(mat([[6, 0], [0, 10]])).diagonal() == (2, 30)
    assert smith(mat([[4, 6], [6, 9]])).diagonal() == (1,)
    assert smith(
        mat([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    ).diagonal() == (2, 2, 156)


def test_smith_unit_normalization_regression():
    # associate/multiple entries once caused the clearing loop to swap
    # the pivot line back and forth without ever terminating
    sr = smith(mat([[-1, -1], [0, -1]]))
    assert sr.diagonal() == (1, 1)
    assert sr.U @ sr.S @ sr.V == mat([[-1, -1], [0, -1]])
    sr2 = smith(mat([[1, 1], [0, 1]]))
    assert sr2.diagonal() == (1, 1)
    sr3 = smith(mat([[2, 2], [0, 2]]))
    assert sr3.diagonal() == (2, 2)


def test_smith_poly_cases():
    x = Poly.x()
    a = Mat.from_rows(QQX, [[x, 0], [0, x * x]])
    assert smith(a).diagonal() == (x, x * x)
    b = Mat.from_rows(QQX, [[x, 0], [0, x - 1]])
    d = smith(b).diagonal()
    assert d == (QQX.one, x * x - x)
    # rank-1 polynomial outer product
    c = Mat.from_rows(QQX, [[x, x * x], [x * x, x * x * x]])
    assert smith(c).diagonal() == (x,)


def test_smith_checks_catch_a_wrong_elimination(monkeypatch):
    # Each final check of smith fires on the output of an elimination
    # broken through one pass or one ring primitive, and each broken run
    # still ends.
    with monkeypatch.context() as mp:
        # passes that do nothing leave diag(0, 3) with its zero first
        mp.setattr(normal_forms, "_echelon", lambda ring, lines, depth, co: [])
        with pytest.raises(InternalAssertion, match="Smith form is not diagonal"):
            smith(mat([[0, 0], [0, 3]]))
    with monkeypatch.context() as mp:
        # the sign of S's line stays while V's row is negated
        mp.setattr(ZZ, "unit_inverse", lambda u: 1)
        with pytest.raises(InternalAssertion, match="Smith transform reconstruction failed"):
            smith(mat([[-2]]))
    with monkeypatch.context() as mp:
        # a primitive unit that S's lines never see scales their co-lines
        mp.setattr(ZZ, "primitive", lambda entries: (-1, entries))
        with pytest.raises(InternalAssertion, match="Smith transform reconstruction failed"):
            smith(mat([[2, 3], [4, 5]]))
    with monkeypatch.context() as mp:
        # the loop's own chain test is told once that 2 divides 3, so
        # diag(2, 3) is returned as it is
        answers = iter([True])
        divides = ZZ.divides
        mp.setattr(ZZ, "divides", lambda b, a: next(answers, None) or divides(b, a))
        with pytest.raises(InternalAssertion, match="divisibility chain"):
            smith(mat([[2, 0], [0, 3]]))
    assert smith(mat([[2, 0], [0, 3]])).diagonal() == (1, 6)
    assert smith(mat([[0, 0], [0, 3]])).diagonal() == (3,)


def test_column_hermite_check_catches_a_wrong_transform(monkeypatch):
    # a shear that misses the last entry of its line leaves H right but T
    # short of one row update; the check A @ T == H of column_hermite, and
    # through it row_hermite's, fires
    shear = normal_forms._shear

    def short_shear(lines, co, j, p, q, i):
        last = lines[j][-1]
        shear(lines, co, j, p, q, i)
        lines[j][-1] = last

    a = mat([[2, 3]])
    assert column_hermite(a).H == mat([[1, 0]])
    with monkeypatch.context() as mp:
        mp.setattr(normal_forms, "_shear", short_shear)
        assert normal_forms._column_hermite(a).H == mat([[1, 0]])
        with pytest.raises(InternalAssertion, match="A @ T == H"):
            column_hermite(a)
        with pytest.raises(InternalAssertion, match="A @ T == H"):
            row_hermite(a.transpose())


def test_rat_field_forms_are_trivial():
    a = Mat.from_rows(QQ, [[2, 3], [5, 7]])
    assert smith(a).diagonal() == (QQ.one, QQ.one)
    assert rank(a) == 2


def test_three_rank_notions_and_zero():
    x = mat([[2, 4], [1, 2], [3, 6]])
    col_rank = len(column_hermite(x).pivot_rows)
    row_rank = len(row_hermite(x).pivot_cols)
    smith_rank = len(smith(x).diagonal())
    assert col_rank == row_rank == smith_rank == 1 == rank(x)
    assert rank(Mat.zeros(ZZ, 3, 2)) == 0
    assert rank(Mat.zeros(QQX, 0, 0)) == 0


def test_rank_factorization_contract():
    x = mat([[2, 4], [1, 2], [3, 6]])
    rf = rank_factorization(x)
    assert rf.L @ rf.Rt == x
    assert rf.r == 1
    assert rf.L.shape == (3, 1) and rf.Rt.shape == (1, 2)
    z = rank_factorization(Mat.zeros(ZZ, 2, 2))
    assert z.r == 0 and z.L.shape == (2, 0) and z.Rt.shape == (0, 2)


def test_column_module_comparisons():
    a = mat([[2, 0], [0, 2]])
    b = mat([[2, 2], [2, -2]])
    assert col_module_contains(a, b)
    assert not col_module_equal(a, b)
    assert col_module_equal(a, mat([[0, 2], [2, 0]]))
    # scaling by a non-unit shrinks the module strictly
    assert col_module_contains(a, a.scale(3))
    assert not col_module_contains(a.scale(3), a)
    assert row_module_equal(mat([[1, 2]]), mat([[-1, -2]]))
    assert not row_module_equal(mat([[1, 2]]), mat([[2, 4]]))


def test_column_module_basis_canonical():
    # basis of the column module is the nonzero columns of the canonical form
    x = mat([[2, 4], [1, 2], [3, 6]])
    basis = column_module_basis(x)
    assert basis == [(2, 1, 3)]
    rebuilt = Mat.from_columns(ZZ, basis, nrows=3)
    assert col_module_equal(rebuilt, x)


@settings(max_examples=50, deadline=None)
@given(int_matrices(max_side=4, bound=4))
def test_kernels_annihilate_and_span(x):
    kb = right_kernel_basis(x)
    assert (x @ kb).is_zero()
    assert kb.n == x.n - rank(x)
    lb = left_kernel_basis(x)
    assert (lb @ x).is_zero()
    assert lb.m == x.m - rank(x)
    # kernel basis columns are themselves independent
    if kb.n:
        assert rank(kb) == kb.n
    if lb.m:
        assert rank(lb) == lb.m
