"""Differential tests of the Hermite and Smith forms against sympy's, an
independent implementation (test-only dependency)."""

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import hermite_normal_form, invariant_factors  # noqa: E402

from bezmat.generate import GenConfig, random_matrix  # noqa: E402
from bezmat.matrix import Mat  # noqa: E402
from bezmat.normal_forms import column_hermite, smith  # noqa: E402
from bezmat.rings import ZZ, Poly  # noqa: E402


def _grid(m, n, bound):
    return st.lists(
        st.lists(st.integers(-bound, bound), min_size=n, max_size=n), min_size=m, max_size=m
    )


@st.composite
def int_rows(draw, max_side=5):
    """Row lists of an m x n integer matrix, m, n in 1..max_side: dense
    random, or a product L @ R through an inner dimension k, which has
    rank at most k."""
    m = draw(st.integers(1, max_side))
    n = draw(st.integers(1, max_side))
    if draw(st.booleans()):
        return draw(_grid(m, n, 9))
    k = draw(st.integers(0, min(m, n)))
    left = draw(_grid(m, k, 3))
    right = draw(_grid(k, n, 3))
    return [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(n)] for i in range(m)]


def _reversed(rows):
    return [row[::-1] for row in rows[::-1]]


@settings(max_examples=200, deadline=None)
@given(int_rows())
def test_column_hermite_agrees_with_sympy(rows):
    # sympy's form has its pivots at the bottom right and keeps only the
    # nonzero columns; reversing rows and columns on both sides of it
    # gives this library's convention (pivots top left)
    hr = column_hermite(Mat.from_rows(ZZ, rows))
    r = len(hr.pivot_rows)
    theirs = hermite_normal_form(sympy.Matrix(_reversed(rows)))
    assert theirs.shape == (len(rows), r)
    assert _reversed(theirs.tolist()) == [list(row[:r]) for row in hr.H.rows]


@settings(max_examples=200, deadline=None)
@given(int_rows())
def test_smith_diagonal_agrees_with_sympy(rows):
    theirs = invariant_factors(sympy.Matrix(rows))
    assert smith(Mat.from_rows(ZZ, rows)).diagonal() == tuple(int(d) for d in theirs if d != 0)


def _smith_inputs(ring_name, bound, sizes):
    xs = []
    for seed, (m, n) in enumerate(sizes):
        cfg = GenConfig(ring=ring_name, n=n, seed=seed, entry_bound=bound)
        xs.append(random_matrix(cfg, m=m, n=n))
        r = max(1, min(m, n) - 1)  # a rank-deficient product
        left = random_matrix(GenConfig(ring=ring_name, seed=1000 + seed, entry_bound=bound), m=m, n=r)
        xs.append(left @ random_matrix(GenConfig(ring=ring_name, seed=2000 + seed, entry_bound=bound), m=r, n=n))
    return xs


def test_polynomial_smith_diagonal_agrees_with_sympy():
    # sympy's invariant factors over QQ[x] are made monic, the canonical
    # associate here
    x = sympy.Symbol("x")
    for a in _smith_inputs("polyrat", 2, [(m, n) for m in range(1, 4) for n in range(1, 5)]):
        rows = [[sum(sympy.Rational(c, e.den) * x**k for k, c in enumerate(e.num)) for e in row] for row in a.rows]
        theirs = invariant_factors(sympy.Matrix(rows), domain=sympy.QQ[x])
        monic = tuple(
            Poly(reversed(sympy.Poly(d, x, domain=sympy.QQ).monic().all_coeffs())) for d in theirs if d != 0
        )
        assert smith(a).diagonal() == monic
