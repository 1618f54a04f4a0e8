"""Canonical column/row Hermite forms, Smith form, rank factorization.

Conventions for the column Hermite form H of A (with A @ T == H, T
unimodular):

  * nonzero columns precede zero columns;
  * pivot rows (topmost nonzero row of each nonzero column) strictly
    increase left to right;
  * each pivot is the canonical associate of its value (positive
    integer / monic polynomial / 1 over a field);
  * in a pivot's row, every entry to its left is reduced: in [0, pivot)
    over the integers, degree below the pivot's for polynomials, zero
    over a field.

With these constraints the form is unique, so two matrices span the
same column module exactly when their forms agree on nonzero columns.
The row form is the transpose story.  The Smith form is returned as
A == U @ S @ V with S diagonal, each diagonal entry canonical and
dividing the next.

Every elimination step is unimodular, so every accumulated transform
has unit determinant by construction.  Both forms come from one
elimination, ``_echelon``: swaps, scaling by a unit (over the
polynomials also to a primitive line, ``ring.primitive``), shears by
remainder quotients (``ring.small_quotient``) in ``_remainder_loop``,
and reduction left of each pivot by ``ring.pivot_reduce``.  The column
Hermite form is one pass of it over the columns; the Smith form
alternates passes over columns and rows, as Kannan and Bachem do with
Hermite forms.  Neither calls xgcd.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DimensionMismatch, InternalAssertion, NoSolution
from .matrix import Mat

HermiteResult = namedtuple("HermiteResult", "H T pivot_rows")
RowHermiteResult = namedtuple("RowHermiteResult", "H T pivot_cols")
RankFactorization = namedtuple("RankFactorization", "L Rt r")


class SmithResult(namedtuple("SmithResult", "U S V")):
    __slots__ = ()

    def diagonal(self):
        k = min(self.S.m, self.S.n)
        z = self.S.ring.zero
        out = []
        for i in range(k):
            d = self.S[i, i]
            if d == z:
                break
            out.append(d)
        return tuple(out)

    @property
    def rank(self) -> int:
        return len(self.diagonal())


def _remainder_loop(ring, lines, live, i, co):
    """Clear entry i of the lines in live down to one nonzero line, and
    return its index.

    The line p whose entry i is of least ``ring.size`` is the pivot, and
    every other line j loses the ``ring.small_quotient`` multiple of it
    (``_shear``, which keeps the co-lines ``co``).  Each pass leaves only
    remainders smaller than the pivot, so the loop ends.  The quotients
    stay about as small as the entries; an xgcd 2x2 block would multiply
    whole lines by cofactors as large as the entries.  Over the
    polynomials each changed line j is then divided by its
    ``ring.primitive`` unit and co[j] multiplied by it: without this the
    rational coefficients of the quotients pile up in the lines still to
    be cleared.  Every line in live is zero before entry i.
    """
    size = ring.size
    small_quotient = ring.small_quotient
    primitive = ring.primitive
    one = ring.one
    while True:
        p = min(live, key=lambda j: size(lines[j][i]))
        piv = lines[p][i]
        rest = []
        for j in live:
            if j != p:
                dst = lines[j]
                _shear(lines, co, j, p, small_quotient(dst[i], piv), i)
                if primitive is not None:
                    unit, dst[i:] = primitive(dst[i:])
                    if unit != one:
                        co[j][:] = [unit * y for y in co[j]]
                if dst[i]:
                    rest.append(j)
        if not rest:
            return p
        rest.append(p)
        live = rest


def _shear(lines, co, j, p, q, i):
    """lines[j] -= q * lines[p] from entry i on, and co[p] += q * co[j].

    co[j] is the line of the opposite transform that line j pairs with
    (a column of U for a row of S), which takes the inverse step, so
    their product stays the same.  Zero entries (every payload is falsy
    exactly when zero) are skipped.
    """
    dst, src = lines[j], lines[p]
    for r in range(i, len(dst)):
        y = src[r]
        if y:
            dst[r] -= q * y
    cdst, csrc = co[p], co[j]
    for r, y in enumerate(csrc):
        if y:
            cdst[r] += q * y


def _echelon(ring, lines, depth, co):
    """Bring lines to the column Hermite conventions on their first depth
    entries, and return the pivot entries.

    Entry i is cleared in the lines k.. not yet reduced by
    ``_remainder_loop``; the line left moves to k, is scaled to the
    canonical associate, and entry i of the lines to its left is reduced
    by ``ring.pivot_reduce``.  Each swap and scaling also applies to the
    paired co-lines ``co``, with the inverse scaling, as ``_shear`` and
    ``_remainder_loop`` do.  Lines k.. are zero before entry i, so every
    step starts there.
    """
    z, one = ring.zero, ring.one
    pivots = []
    k = 0
    for i in range(depth):
        if k == len(lines):
            break
        live = [j for j in range(k, len(lines)) if lines[j][i] != z]
        if not live:
            continue
        p = _remainder_loop(ring, lines, live, i, co)
        lines[k], lines[p] = lines[p], lines[k]
        co[k], co[p] = co[p], co[k]
        line = lines[k]
        unit, _ = ring.canonicalize(line[i])
        if unit != one:
            c = ring.unit_inverse(unit)
            for r in range(i, len(line)):
                line[r] = c * line[r]
            co[k] = [unit * y for y in co[k]]
        piv = line[i]
        for j in range(k):
            x = lines[j][i]
            if x != z:
                q, _ = ring.pivot_reduce(x, piv)
                if q != z:
                    _shear(lines, co, j, k, q, i)
        pivots.append(i)
        k += 1
    return pivots


def column_hermite(a: Mat) -> HermiteResult:
    """A @ T == H with H the canonical column form and T unimodular.

    ``_echelon`` works on the columns of H stacked on the columns of T, so
    a column step is one line step, and no opposite transform is kept (the
    co-lines are empty).  The result is checked by the one product A @ T
    before it is returned.
    """
    hr = _column_hermite(a)
    if a @ hr.T != hr.H:
        raise InternalAssertion("column Hermite transform check A @ T == H failed")
    return hr


def _column_hermite(a: Mat) -> HermiteResult:
    """column_hermite unchecked, for rank, the module and kernel bases, the
    solver, which checks its own result, and _rank_factorization, whose
    callers check theirs."""
    ring = a.ring
    m, n = a.m, a.n
    z, one = ring.zero, ring.one
    C = [list(c) for c in zip(*a.rows)] if m else [[] for _ in range(n)]
    for j, col in enumerate(C):
        col.extend(one if r == j else z for r in range(n))
    pivot_rows = _echelon(ring, C, m, [[]] * n)
    rows = tuple(zip(*C)) if n else ((),) * m
    return HermiteResult(
        H=Mat._raw(ring, m, n, rows[:m]),
        T=Mat._raw(ring, n, n, rows[m:]),
        pivot_rows=tuple(pivot_rows),
    )


def row_hermite(a: Mat) -> RowHermiteResult:
    """Row canonical form: T @ A == H with T unimodular."""
    cr = column_hermite(a.transpose())
    return RowHermiteResult(
        H=cr.H.transpose(), T=cr.T.transpose(), pivot_cols=cr.pivot_rows
    )


def rank(a: Mat) -> int:
    return len(_column_hermite(a).pivot_rows)


def smith(a: Mat) -> SmithResult:
    """Smith form A == U @ S @ V with the divisibility chain canonical.

    Starting from U = I, S = A, V = I, every column step on S applies its
    inverse as a row step on V, and every row step on S applies its
    inverse as a column step on U, so U @ S @ V == A holds throughout.

    Kannan and Bachem's route (SIAM J. Comput. 8, 1979): S alternates
    between column and row Hermite forms, each one pass of ``_echelon``.
    S is held as its columns, paired with the rows of V, and a pass leaves
    it in column form; unless S is then diagonal, it is transposed, so its
    lines are its rows, paired with the columns of U, and the next pass
    takes the row form.  From pass to pass the pivot at t can only turn
    into a proper divisor of itself, and a pass that keeps it leaves row
    and column t clear for good, so the passes end.  When S is diagonal
    but d[t] does not divide d[t + 1], line t takes in line t + 1 and the
    next pass puts their gcd at t.  There is no xgcd 2x2 block: its
    cofactors, as large as the entries, multiplied whole rows and
    columns, and U reached 854,935 bits at n = 32.

    The result is checked before it is returned: S must equal diag(d)
    padded with zeros, d being its r nonzero diagonal entries, and
    U[:, :r] @ diag(d) @ V[:r, :] must equal A (together, U @ S @ V ==
    A, for one m x r x n product); d must form a divisibility chain.
    """
    ring = a.ring
    m, n = a.m, a.n
    z, one = ring.zero, ring.one
    S = [[row[j] for row in a.rows] for j in range(n)]  # columns of S
    co = [[one if i == j else z for j in range(n)] for i in range(n)]  # rows of V
    other = [[one if i == j else z for i in range(m)] for j in range(m)]  # columns of U
    depth = m
    flipped = False
    while True:
        _echelon(ring, S, depth, co)
        if all(not x for k, line in enumerate(S) for i, x in enumerate(line) if i != k):
            d = [line[k] for k, line in enumerate(S[:depth]) if line[k]]
            t = next((t for t in range(len(d) - 1) if not ring.divides(d[t], d[t + 1])), None)
            if t is None:
                break
            _shear(S, co, t, t + 1, -one, 0)
        S, depth = [[line[i] for line in S] for i in range(depth)], len(S)
        co, other = other, co
        flipped = not flipped
    if not flipped:  # back to the rows of S, paired with the columns of U
        S = [[line[i] for line in S] for i in range(depth)]
        co, other = other, co
    U = tuple(zip(*co)) if m else ()
    result = SmithResult(
        U=Mat._raw(ring, m, m, U),
        S=Mat._raw(ring, m, n, tuple(tuple(r) for r in S)),
        V=Mat._raw(ring, n, n, tuple(tuple(r) for r in other)),
    )
    d = result.diagonal()
    r = len(d)
    if result.S != Mat.diagonal(ring, d, m, n):
        raise InternalAssertion("Smith form is not diagonal")
    ud = Mat._raw(ring, m, r, tuple(tuple(row[j] * d[j] for j in range(r)) for row in U))
    if ud @ result.V.submatrix(0, r, 0, n) != a:
        raise InternalAssertion("Smith transform reconstruction failed")
    for i in range(len(d) - 1):
        if not ring.divides(d[i], d[i + 1]):
            raise InternalAssertion("Smith diagonal violates the divisibility chain")
    return result


def _echelon_solve(hr: HermiteResult, b: Mat) -> Mat:
    """Y with H_r @ Y == b, where H_r is the r nonzero columns of hr.H.

    Pivots are consumed top-down, each forcing one exact division.  A
    failed division or a nonzero residue means a column of b is outside
    the column module, and raises NoSolution.
    """
    ring = b.ring
    z = ring.zero
    r = len(hr.pivot_rows)
    hcols = [hr.H.col(j) for j in range(r)]
    ys = []
    for bc in range(b.n):
        c = list(b.col(bc))
        y = [z] * r
        for idx, pr in enumerate(hr.pivot_rows):
            val = c[pr]
            if val == z:
                continue
            piv = hcols[idx][pr]
            q, rem = ring.pivot_reduce(val, piv)
            if rem != z:
                raise NoSolution(
                    f"column {bc} of the right-hand side is outside the column module"
                )
            if q != z:
                for i in range(pr, b.m):
                    c[i] = c[i] - q * hcols[idx][i]
                y[idx] = q
        if any(x != z for x in c):
            raise NoSolution(
                f"column {bc} of the right-hand side is outside the column module"
            )
        ys.append(y)
    return Mat._raw(ring, r, b.n, tuple(tuple(y[i] for y in ys) for i in range(r)))


def solve_in_column_module(a: Mat, b: Mat) -> Mat:
    """Solve a @ X == b over the ring, or raise NoSolution.

    Works through the column Hermite form a @ T == H: echelon
    substitution against the nonzero columns of H, then T maps the
    solution back.  NoSolution means b is outside the column module of
    a over the ring (the fraction-field system may still be solvable
    with non-ring entries).
    """
    a._same_ring(b)
    if a.m != b.m:
        raise DimensionMismatch(f"solve: {a.shape} vs {b.shape}")
    hr = _column_hermite(a)
    y = _echelon_solve(hr, b)
    x = hr.T.submatrix(0, a.n, 0, y.m) @ y
    if a @ x != b:
        raise InternalAssertion("solver produced a non-solution")
    return x


def rank_factorization(a: Mat) -> RankFactorization:
    """A == L @ Rt with L of full column rank r and Rt of full row rank r.

    L is the nonzero columns of the column Hermite form A @ T == H, and
    Rt solves L @ Rt == A, which makes it the top r rows of T^-1.
    """
    rf = _rank_factorization(a)
    if rf.L @ rf.Rt != a:
        raise InternalAssertion("rank factorization reconstruction failed")
    return rf


def _rank_factorization(a: Mat) -> RankFactorization:
    """rank_factorization unchecked, for callers that a later check covers."""
    hr = _column_hermite(a)
    r = len(hr.pivot_rows)
    return RankFactorization(L=hr.H.submatrix(0, a.m, 0, r), Rt=_echelon_solve(hr, a), r=r)


def _nonzero_columns(a: Mat):
    z = a.ring.zero
    cols = []
    for j in range(a.n):
        c = a.col(j)
        if any(x != z for x in c):
            cols.append(c)
    return cols


def column_module_basis(a: Mat):
    """Nonzero columns of the column Hermite form: a canonical basis."""
    return _nonzero_columns(_column_hermite(a).H)


def col_module_equal(a: Mat, b: Mat) -> bool:
    """Exact equality of column modules, via canonical forms."""
    a._same_ring(b)
    if a.m != b.m:
        return False
    return column_module_basis(a) == column_module_basis(b)


def col_module_contains(a: Mat, b: Mat) -> bool:
    """Does the column module of a contain every column of b?"""
    try:
        solve_in_column_module(a, b)
        return True
    except NoSolution:
        return False


def row_module_equal(a: Mat, b: Mat) -> bool:
    return col_module_equal(a.transpose(), b.transpose())


def right_kernel_basis(a: Mat) -> Mat:
    """Columns generate {x : a @ x == 0}; may have zero columns (n x d)."""
    hr = _column_hermite(a)
    z = a.ring.zero
    kcols = []
    for j in range(a.n):
        if any(hr.H[i, j] != z for i in range(a.m)):
            continue
        kcols.append(hr.T.col(j))
    return Mat.from_columns(a.ring, kcols, nrows=a.n)


def left_kernel_basis(a: Mat) -> Mat:
    """Rows generate {y : y @ a == 0} (d x m)."""
    return right_kernel_basis(a.transpose()).transpose()
