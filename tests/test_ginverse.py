"""Group and Drazin inverses over exact rings.

Expected inverses were computed independently (by hand or with an
external computer-algebra system) and frozen here; the suite then
re-checks the defining equations on every value the library returns.
"""

import importlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bezmat.errors import (
    InternalAssertion,
    NotDrazinInvertible,
    NotGroupInvertible,
    NotIdempotent,
    NotSquare,
)
from bezmat.field_oracle import fraction_field_oracle
from bezmat.generate import (
    GenConfig,
    gen_drazin_triple,
    gen_group_invertible,
    random_matrix,
)
from bezmat.ginverse import (
    _drazin_index,
    core_split,
    drazin,
    group_inverse,
    idempotent_split,
    is_group_invertible,
)
from bezmat.matrix import Mat, block_diag, det, inverse_over_ring
from bezmat.normal_forms import col_module_equal, column_module_basis
from bezmat.rings import QQ, QQX, ZZ, Poly


def mat(rows):
    return Mat.from_rows(ZZ, rows)


def qmat(rows):
    return Mat.from_rows(QQ, [[Fraction(e) for e in row] for row in rows])


def check_group_equations(x, g):
    assert x @ g == g @ x
    assert g @ x @ g == g
    assert x @ g @ x == x


def check_drazin_equations(x, res):
    d, k = res.dinv, res.index
    assert x @ d == d @ x
    assert d @ x @ d == d
    assert x ** (k + 1) @ d == x ** k
    if k > 0:
        # minimality: the index-(k-1) equation must fail
        assert x ** k @ d != x ** (k - 1)


# ---------------------------------------------------------------------------
# group inverse: frozen integer cases
# ---------------------------------------------------------------------------


def test_group_inverse_frozen_3x3():
    # computed independently with a computer-algebra system
    x = mat([[3, -1, 1], [1, 0, 0], [0, 0, 0]])
    expected = mat([[0, 1, -1], [-1, 3, -3], [0, 0, 0]])
    g = group_inverse(x).ginv
    assert g == expected
    check_group_equations(x, g)


def test_group_inverse_sign_case():
    # X @ X == -X, so X itself satisfies all three group equations
    x = mat([[0, 1], [0, -1]])
    g = group_inverse(x).ginv
    assert g == x
    check_group_equations(x, g)


def test_group_inverse_of_idempotent_is_itself():
    p = mat([[1, 1], [0, 0]])
    assert p @ p == p
    assert group_inverse(p).ginv == p


def test_group_inverse_zero_and_identity():
    z = Mat.zeros(ZZ, 3, 3)
    assert group_inverse(z).ginv == z
    i = Mat.identity(ZZ, 3)
    assert group_inverse(i).ginv == i
    e = Mat.zeros(ZZ, 0, 0)
    assert group_inverse(e).ginv == e


def test_group_inverse_ring_sensitivity():
    # X @ X == 4 X: the group inverse X / 16 exists over the rationals
    # but not over the integers.
    xz = mat([[2, 2], [2, 2]])
    with pytest.raises(NotGroupInvertible):
        group_inverse(xz)
    assert not is_group_invertible(xz)

    xq = qmat([[2, 2], [2, 2]])
    g = group_inverse(xq).ginv
    eighth = Fraction(1, 8)
    assert g == qmat([[eighth, eighth], [eighth, eighth]])
    check_group_equations(xq, g)


def test_group_inverse_scaled_projector_rejected_over_int():
    x = mat([[2, 0], [0, 0]])
    assert not is_group_invertible(x)
    xq = qmat([[2, 0], [0, 0]])
    assert group_inverse(xq).ginv == qmat([[Fraction(1, 2), 0], [0, 0]])


def test_group_inverse_poly_cases():
    x = Poly.x()
    bad = Mat.from_rows(QQX, [[x, 0], [0, 0]])
    assert not is_group_invertible(bad)
    with pytest.raises(NotGroupInvertible):
        group_inverse(bad)
    proj = Mat.from_rows(QQX, [[1, 0], [0, 0]])
    assert group_inverse(proj).ginv == proj


def test_group_inverse_requires_square():
    with pytest.raises(NotSquare):
        group_inverse(Mat.zeros(ZZ, 2, 3))
    with pytest.raises(NotSquare):
        is_group_invertible(Mat.zeros(ZZ, 2, 3))


def test_nilpotent_is_not_group_invertible():
    assert not is_group_invertible(mat([[0, 1], [0, 0]]))


# ---------------------------------------------------------------------------
# the module criterion agrees with the factor criterion used at runtime
# ---------------------------------------------------------------------------

# L @ R with inner dimension k: every rank from 0 to n occurs
low_rank_int_matrix = st.tuples(st.integers(1, 4), st.integers(0, 4)).flatmap(
    lambda nk: st.tuples(
        st.lists(st.integers(-3, 3), min_size=nk[0] * nk[1], max_size=nk[0] * nk[1]),
        st.lists(st.integers(-3, 3), min_size=nk[0] * nk[1], max_size=nk[0] * nk[1]),
    ).map(
        lambda lr: Mat.from_rows(
            ZZ, [lr[0][i * nk[1] : (i + 1) * nk[1]] for i in range(nk[0])], ncols=nk[1]
        )
        @ Mat.from_rows(
            ZZ, [lr[1][i * nk[0] : (i + 1) * nk[0]] for i in range(nk[1])], ncols=nk[0]
        )
    )
)


@settings(max_examples=80, deadline=None)
@given(low_rank_int_matrix)
def test_module_criterion_matches_group_invertibility(x):
    assert col_module_equal(x, x @ x) == is_group_invertible(x)


def test_module_criterion_matches_group_invertibility_poly():
    x = Poly.x()
    cases = [
        Mat.from_rows(QQX, [[x, 0], [0, 0]]),
        Mat.from_rows(QQX, [[1, 0], [0, 0]]),
        Mat.from_rows(QQX, [[0, x], [0, 0]]),
        Mat.from_rows(QQX, [[x, 1], [x - 1, 1]]),
        Mat.from_rows(QQX, [[x, x * x], [1, x]]),  # X @ X == 2x X
        Mat.from_rows(QQX, [[1, x], [0, 0]]),
        Mat.from_rows(QQX, [[x, 0], [0, 1]]),
        gen_group_invertible(GenConfig(ring="polyrat", n=3, seed=5, entry_bound=2, core_rank=2)),
    ]
    verdicts = [is_group_invertible(c) for c in cases]
    assert verdicts == [False, True, False, True, False, True, False, True]
    for c, ok in zip(cases, verdicts):
        assert col_module_equal(c, c @ c) == ok


# ---------------------------------------------------------------------------
# Drazin inverse: frozen cases and branch coverage
# ---------------------------------------------------------------------------


def test_drazin_frozen_index_two():
    # computed independently with a computer-algebra system
    y = mat([[1, -1, 2], [0, 0, 1], [0, 0, 0]])
    res = drazin(y)
    assert res.index == 2
    assert res.dinv == mat([[1, -1, 1], [0, 0, 0], [0, 0, 0]])
    check_drazin_equations(y, res)


def test_drazin_unit_determinant_is_plain_inverse():
    x = mat([[1, 1], [0, 1]])
    res = drazin(x)
    assert res.index == 0
    assert res.dinv == mat([[1, -1], [0, 1]])
    assert res.dinv == inverse_over_ring(x)


def test_drazin_computes_each_hermite_form_once(count_calls):
    # index 2: the rank factorization of X has a singular core, and the
    # one of X^2 gives (X^2)^#; X^3 is never needed
    cfg = GenConfig(ring="int", n=10, seed=3, entry_bound=9, core_rank=4)
    tr = gen_drazin_triple(cfg, 2, c_equals_b=False)
    counts = count_calls(("bezmat.normal_forms", "column_hermite"))
    res = drazin(tr.A @ tr.B)
    assert res.index == 2
    assert counts["column_hermite"] <= 2


def _full_rank_nonunit_cases():
    x = Poly.x()
    cases = [mat([[2, 0], [0, 1]]), mat([[3, 1, 0], [1, 3, 0], [0, 0, 1]])]
    cases.append(Mat.from_rows(QQX, [[x, 1], [0, x + 1]]))
    cases.append(Mat.from_rows(QQX, [[x, 0, 1], [0, 1, 0], [1, 0, 1]]))
    for ring_name in ("int", "polyrat"):
        for seed in range(4):
            cfg = GenConfig(ring=ring_name, n=4, seed=seed, entry_bound=3)
            cases.append(random_matrix(cfg))
    return cases


def test_full_rank_nonunit_decided_from_determinant(count_calls):
    # a nonzero non-unit determinant settles both inverses: no Hermite
    # form, rank factorization or core inversion is needed
    counts = count_calls(("bezmat.normal_forms", "column_hermite"))
    for x in _full_rank_nonunit_cases():
        d = det(x)
        assert d != x.ring.zero and not x.ring.is_unit(d)
        assert not is_group_invertible(x)
        with pytest.raises(NotGroupInvertible, match="column module of X differs"):
            group_inverse(x)
        with pytest.raises(NotDrazinInvertible, match="det is nonzero but not a unit"):
            drazin(x)
    assert counts["column_hermite"] == 0


def test_index_two_core_not_unimodular():
    # rank(X) == 2 > rank(X^2) == 1 == rank(X^3): index 2 over any field;
    # the core of X^2 is [4], so over the integers neither inverse exists
    rows = [[2, 0, 0], [0, 0, 1], [0, 0, 0]]
    x = mat(rows)
    with pytest.raises(NotGroupInvertible):
        group_inverse(x)
    with pytest.raises(NotDrazinInvertible, match="no power X"):
        drazin(x)
    res = drazin(qmat(rows))
    assert res.index == 2
    assert res.dinv == qmat([[Fraction(1, 2), 0, 0], [0, 0, 0], [0, 0, 0]])
    check_drazin_equations(qmat(rows), res)


def test_drazin_nonunit_determinant_rejected_over_int():
    x = mat([[2, 0], [0, 1]])
    with pytest.raises(NotDrazinInvertible):
        drazin(x)
    # the same matrix is invertible over the rationals
    res = drazin(qmat([[2, 0], [0, 1]]))
    assert res.index == 0
    assert res.dinv == qmat([[Fraction(1, 2), 0], [0, 1]])


def test_drazin_nilpotent_chains():
    x = mat([[0, 1], [0, 0]])
    res = drazin(x)
    assert res.index == 2
    assert res.dinv == Mat.zeros(ZZ, 2, 2)
    # maximal chain: the search runs to k == n, where X^n == 0
    s = mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    res3 = drazin(s)
    assert res3.index == 3
    assert res3.dinv == Mat.zeros(ZZ, 3, 3)
    check_drazin_equations(s, res3)


def test_drazin_zero_and_empty():
    z = Mat.zeros(ZZ, 2, 2)
    res = drazin(z)
    assert res.index == 1
    assert res.dinv == z
    e = Mat.zeros(ZZ, 0, 0)
    res0 = drazin(e)
    assert res0.index == 0
    assert res0.dinv == e


def test_drazin_group_invertible_case_has_index_one():
    x = mat([[3, -1, 1], [1, 0, 0], [0, 0, 0]])
    res = drazin(x)
    assert res.index == 1
    assert res.dinv == group_inverse(x).ginv


def test_drazin_singular_but_not_drazin_invertible_over_int():
    # index 1 (rank(X^2) == rank(X)), but the core Rt @ L of X is [2],
    # which is not a unit: X is not group invertible over the integers
    x = mat([[2, 0], [0, 0]])
    with pytest.raises(NotDrazinInvertible):
        drazin(x)
    res = drazin(qmat([[2, 0], [0, 0]]))
    assert res.index == 1
    assert res.dinv == qmat([[Fraction(1, 2), 0], [0, 0]])


def test_drazin_poly_cases():
    x = Poly.x()
    nil = Mat.from_rows(QQX, [[0, x], [0, 0]])
    res = drazin(nil)
    assert res.index == 2
    assert res.dinv == Mat.zeros(QQX, 2, 2)
    # determinant x - (x - 1) == 1 is a unit
    u = Mat.from_rows(QQX, [[x, 1], [x - 1, 1]])
    resu = drazin(u)
    assert resu.index == 0
    assert resu.dinv == Mat.from_rows(QQX, [[1, -1], [1 - x, x]])
    # determinant x is neither zero nor a unit
    with pytest.raises(NotDrazinInvertible):
        drazin(Mat.from_rows(QQX, [[x, 0], [0, 1]]))


def test_drazin_requires_square():
    with pytest.raises(NotSquare):
        drazin(Mat.zeros(ZZ, 3, 2))


def test_drazin_mixed_block():
    # invertible block next to a nilpotent block: index comes from the
    # nilpotent part, the inverse from the invertible part
    x = block_diag(mat([[1]]), mat([[0, 1], [0, 0]]))
    res = drazin(x)
    assert res.index == 2
    assert res.dinv == block_diag(mat([[1]]), Mat.zeros(ZZ, 2, 2))
    check_drazin_equations(x, res)


def _drazin_index_cases(ring, t):
    """(X, D, index) with D the Drazin inverse of X; t is a non-unit."""
    def m(rows):
        return Mat.from_rows(ring, rows)

    chain = m([[0, t, 0], [0, 0, 1], [0, 0, 0]])
    return [
        (m([[1, t], [0, 1]]), m([[1, -t], [0, 1]]), 0),
        (m([[1, t], [0, 0]]), m([[1, t], [0, 0]]), 1),
        (Mat.zeros(ring, 2, 2), Mat.zeros(ring, 2, 2), 1),
        (Mat.zeros(ring, 0, 0), Mat.zeros(ring, 0, 0), 0),
        (block_diag(m([[1]]), m([[0, t], [0, 0]])), Mat.diagonal(ring, [1], 3, 3), 2),
        (block_diag(m([[-1]]), chain), Mat.diagonal(ring, [-1], 4, 4), 3),
    ]


@pytest.mark.parametrize("ring,t", [(ZZ, 2), (QQX, Poly.x())], ids=["int", "polyrat"])
def test_drazin_index_is_the_least_k_passing_the_drazin_equations(ring, t):
    for x, d, k in _drazin_index_cases(ring, t):
        assert drazin(x) == (k, d)
        # the least k: a larger bound does not move it
        assert _drazin_index(x, d, k) == k
        assert _drazin_index(x, d, x.n + 2) == k
        if k:
            assert _drazin_index(x, d, k - 1) is None
        if x.n:
            off = d + Mat.diagonal(ring, [1], x.n, x.n)
            assert _drazin_index(x, off, x.n + 2) is None


@pytest.mark.parametrize("ring,t", [(ZZ, 2), (QQX, Poly.x())], ids=["int", "polyrat"])
def test_drazin_index_needs_the_candidate_to_commute(ring, t):
    # D @ X @ D == D and X @ (I - X @ D) == 0 hold, but X @ D != D @ X
    x = Mat.from_rows(ring, [[1, 0], [0, 0]])
    d = Mat.from_rows(ring, [[1, 0], [t, 0]])
    assert d @ x @ d == d and (x - x @ x @ d).is_zero()
    assert _drazin_index(x, d, 2) is None
    assert _drazin_index(x, x, 2) == 1


# ---------------------------------------------------------------------------
# idempotent_split and core_split
# ---------------------------------------------------------------------------


def test_idempotent_split_diagonalizes():
    p = mat([[1, 1], [0, 0]])
    h = idempotent_split(p)
    hinv = inverse_over_ring(h)
    assert hinv @ p @ h == mat([[1, 0], [0, 0]])


def test_idempotent_split_extremes():
    n = 3
    z = Mat.zeros(ZZ, n, n)
    hz = idempotent_split(z)
    assert inverse_over_ring(hz) @ z @ hz == z
    i = Mat.identity(ZZ, n)
    hi = idempotent_split(i)
    assert inverse_over_ring(hi) @ i @ hi == i


def test_idempotent_split_rejects_non_idempotent():
    with pytest.raises(NotIdempotent):
        idempotent_split(mat([[1, 1], [0, 1]]))
    with pytest.raises(NotSquare):
        idempotent_split(Mat.zeros(ZZ, 1, 2))


@pytest.mark.parametrize(
    "module,message",
    [("normal_forms", "rank factorization reconstruction failed"), ("ginverse", "do not split the space")],
    ids=["E", "I-E"],
)
def test_idempotent_split_checks_its_factors(monkeypatch, module, message):
    # E's factors go through the checked rank_factorization, since
    # H^-1 @ E @ H == diag(I, 0) rests on them; wrong factors of I - E
    # must fail the one check H @ H^-1 == I
    mod = importlib.import_module(f"bezmat.{module}")
    real = mod._rank_factorization

    def doubled(a):
        rf = real(a)
        return rf._replace(Rt=rf.Rt.scale(2))

    monkeypatch.setattr(mod, "_rank_factorization", doubled)
    with pytest.raises(InternalAssertion, match=message):
        idempotent_split(mat([[1, 1], [0, 0]]))


def test_core_split_checks_its_reconstruction():
    # E = X @ G is idempotent but G is not X^#: the split of E exists,
    # and only L1 @ M @ Rt1 == X can tell
    from bezmat.ginverse import _core_split_with

    with pytest.raises(InternalAssertion, match="reconstruction failed"):
        _core_split_with(mat([[1, 0], [0, 0]]), mat([[1, 1], [0, 0]]))


def test_core_split_frozen():
    x = mat([[3, -1, 1], [1, 0, 0], [0, 0, 0]])
    cs = core_split(x)
    assert cs.r == 2
    assert cs.M.is_square() and cs.M.n == 2
    inverse_over_ring(cs.M)  # must not raise
    hinv = inverse_over_ring(cs.H)
    rebuilt = cs.H @ block_diag(cs.M, Mat.zeros(ZZ, 1, 1)) @ hinv
    assert rebuilt == x


@pytest.mark.parametrize("ring_name,n,entry_bound", [("int", 5, 9), ("rat", 4, 9), ("polyrat", 3, 2)])
@pytest.mark.parametrize("rank", ["zero", "half", "n-1", "full"])
def test_core_split_matches_module_basis_route(ring_name, n, entry_bound, rank):
    # the split is built from rank factorizations; its H must still be
    # the canonical module bases of im E and im (I - E), side by side
    r = {"zero": 0, "half": n // 2, "n-1": n - 1, "full": n}[rank]
    cfg = GenConfig(ring=ring_name, n=n, seed=31 * n + r, entry_bound=entry_bound, core_rank=r)
    x = gen_group_invertible(cfg)
    ring = x.ring
    e = x @ group_inverse(x).ginv
    ident = Mat.identity(ring, n)
    cs = core_split(x)
    assert cs.r == r
    cols = list(column_module_basis(e)) + list(column_module_basis(ident - e))
    assert cs.H == Mat.from_columns(ring, cols, nrows=n)
    assert idempotent_split(e) == cs.H
    assert cs.H @ cs.Hinv == ident
    assert cs.Hinv @ e @ cs.H == Mat.diagonal(ring, [ring.one] * r, m=n, n=n)
    assert cs.H @ block_diag(cs.M, Mat.zeros(ring, n - r, n - r)) @ cs.Hinv == x


def test_core_split_requires_group_invertibility():
    with pytest.raises(NotGroupInvertible):
        core_split(mat([[0, 1], [0, 0]]))


# ---------------------------------------------------------------------------
# agreement with the fraction-field oracle on random integer matrices
# ---------------------------------------------------------------------------

small_int_matrix = st.integers(min_value=2, max_value=3).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


def check_agrees_with_oracle(x):
    report = fraction_field_oracle(x)
    ring_group = is_group_invertible(x)
    assert ring_group == (report.group_exists and bool(report.group_integral))
    if ring_group:
        assert group_inverse(x).ginv == report.group_ring
    try:
        res = drazin(x)
        ring_drazin = True
    except NotDrazinInvertible:
        ring_drazin = False
    assert ring_drazin == report.drazin_integral
    if ring_drazin:
        assert res.index == report.drazin_index
        assert res.dinv == report.drazin_ring
        check_drazin_equations(x, res)


@settings(max_examples=60, deadline=None)
@given(rows=small_int_matrix)
def test_ring_results_agree_with_field_oracle(rows):
    check_agrees_with_oracle(mat(rows))


# Random matrices are almost always invertible over the field, so the
# singular path of the oracle is fed on purpose: X = H diag(M, 0) H^-1
# with M unimodular (X^# is polynomial), x X (whose group inverse X^# / x
# is not), and products from Drazin triples of index 2.
@pytest.mark.parametrize(
    "n,r", [(n, r) for n in range(2, 6) for r in range(1, n)]
)
@pytest.mark.parametrize("scale", [1, Poly.x()], ids=["X", "xX"])
def test_singular_polyrat_agrees_with_field_oracle(n, r, scale):
    cfg = GenConfig(ring="polyrat", n=n, seed=70 * n + r, entry_bound=2, core_rank=r)
    x = gen_group_invertible(cfg).scale(scale)
    assert fraction_field_oracle(x).rank == r
    check_agrees_with_oracle(x)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_index_two_polyrat_agrees_with_field_oracle(n):
    cfg = GenConfig(ring="polyrat", n=n, seed=90 + n, entry_bound=2, core_rank=n - 2)
    tr = gen_drazin_triple(cfg, 2, c_equals_b=False)
    assert fraction_field_oracle(tr.A @ tr.B).drazin_index == 2
    check_agrees_with_oracle(tr.A @ tr.B)
    check_agrees_with_oracle(tr.C @ tr.A)
