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
has unit determinant by construction.  The Hermite form uses column
swaps, scaling by a unit (over the polynomials also to a primitive
column, ``ring.primitive``), and shears by remainder quotients
(``ring.small_quotient``, then ``ring.pivot_reduce`` left of a pivot);
it calls no xgcd.  The Smith form also uses the 2x2 unimodular block
given by the ring's xgcd.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InternalAssertion, NoSolution
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


def column_hermite(a: Mat) -> HermiteResult:
    """A @ T == H with H the canonical column form and T unimodular.

    Pivot row i is cleared in the columns k.. not yet reduced by a
    remainder loop: the entry of least ``ring.size`` is the candidate,
    and every other nonzero entry loses the ``ring.small_quotient``
    multiple of its column.  Each pass leaves only remainders smaller
    than the candidate, so the loop ends with one nonzero entry; its
    column moves to k, is scaled to the canonical associate, and the
    entries to its left are reduced by ``ring.pivot_reduce``.  The
    quotients stay about as small as the entries; an xgcd 2x2 block
    would multiply whole columns by cofactors as large as the entries.
    Over the polynomials each column step is followed by
    ``ring.primitive``, a scaling by a unit: without it the rational
    coefficients of the quotients pile up in the columns still to be
    cleared.

    The work is done on columns of H stacked on the columns of T, so a
    column step is one loop.  Columns k.. of H are zero above row i, so
    every step starts at row i.
    """
    ring = a.ring
    m, n = a.m, a.n
    z, one = ring.zero, ring.one
    size = ring.size
    small_quotient = ring.small_quotient
    primitive = ring.primitive
    C = [list(c) for c in zip(*a.rows)] if m else [[] for _ in range(n)]
    for j, col in enumerate(C):
        col.extend(one if r == j else z for r in range(n))
    height = m + n

    def col_addmul(jdst, jsrc, c, i):
        # col_jdst += c * col_jsrc from row i down; zero entries (every
        # payload is falsy exactly when zero) are skipped
        cd, cs = C[jdst], C[jsrc]
        for r in range(i, height):
            y = cs[r]
            if y:
                cd[r] += c * y

    pivot_rows = []
    k = 0
    for i in range(m):
        if k == n:
            break
        live = [j for j in range(k, n) if C[j][i] != z]
        if not live:
            continue
        while True:
            p = min(live, key=lambda j: size(C[j][i]))
            piv = C[p][i]
            rest = []
            for j in live:
                if j != p:
                    col_addmul(j, p, -small_quotient(C[j][i], piv), i)
                    if primitive is not None:
                        C[j][i:] = primitive(C[j][i:])
                    if C[j][i] != z:
                        rest.append(j)
            if not rest:
                break
            rest.append(p)
            live = rest
        C[k], C[p] = C[p], C[k]
        unit, _ = ring.canonicalize(C[k][i])
        if unit != one:
            c = ring.unit_inverse(unit)
            ck = C[k]
            for r in range(i, height):
                ck[r] = c * ck[r]
        piv = C[k][i]
        for j in range(k):
            x = C[j][i]
            if x != z:
                q, _ = ring.pivot_reduce(x, piv)
                if q != z:
                    col_addmul(j, k, -q, i)
        pivot_rows.append(i)
        k += 1

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
    return len(column_hermite(a).pivot_rows)


def _least_entry(S, t, ring):
    """(i, j) of the first nonzero S[i][j] with i, j >= t, row by row, of
    least ring.size, or None.  The scan stops at an entry of the size of
    one, since no nonzero element is smaller."""
    z = ring.zero
    size = ring.size
    least = size(ring.one)
    best = where = None
    for i in range(t, len(S)):
        row = S[i]
        for j in range(t, len(row)):
            x = row[j]
            if x != z:
                s = size(x)
                if s == least:
                    return i, j
                if best is None or s < best:
                    best, where = s, (i, j)
    return where


def smith(a: Mat) -> SmithResult:
    """Smith form A == U @ S @ V with the divisibility chain canonical.

    Starting from U = I, S = A, V = I, every row step on S applies its
    inverse as a column step on U, and every column step on S applies its
    inverse as a row step on V, so U @ S @ V == A holds throughout.

    The result is checked before it is returned: S must equal diag(d)
    padded with zeros, d being its r nonzero diagonal entries, and
    U[:, :r] @ diag(d) @ V[:r, :] must equal A (together, U @ S @ V ==
    A, for one m x r x n product); d must form a divisibility chain.
    """
    ring = a.ring
    m, n = a.m, a.n
    z = ring.zero
    S = [list(row) for row in a.rows]
    U = [[ring.one if i == j else z for j in range(m)] for i in range(m)]
    V = [[ring.one if i == j else z for j in range(n)] for i in range(n)]

    def row_swap(i0, i1):
        S[i0], S[i1] = S[i1], S[i0]
        for row in U:
            row[i0], row[i1] = row[i1], row[i0]

    def col_swap(j0, j1):
        for row in S:
            row[j0], row[j1] = row[j1], row[j0]
        V[j0], V[j1] = V[j1], V[j0]

    # The 2x2 steps below have determinant s*u + t*v == 1 (xgcd), so
    # [[s, t], [-v, u]] has inverse [[u, -t], [v, s]].
    def row_combine(ik, ii, s, t, u, v):
        # (row_k, row_i) <- (s*rk + t*ri, -v*rk + u*ri)
        rk, ri = S[ik], S[ii]
        for j in range(n):
            x, y = rk[j], ri[j]
            rk[j] = s * x + t * y
            ri[j] = u * y - v * x
        for row in U:
            x, y = row[ik], row[ii]
            row[ik] = u * x + v * y
            row[ii] = s * y - t * x

    def col_combine(jk, jj, s, t, u, v):
        # (col_k, col_j) <- (s*ck + t*cj, -v*ck + u*cj)
        for row in S:
            x, y = row[jk], row[jj]
            row[jk] = s * x + t * y
            row[jj] = u * y - v * x
        vk, vj = V[jk], V[jj]
        for i in range(n):
            x, y = vk[i], vj[i]
            vk[i] = u * x + v * y
            vj[i] = s * y - t * x

    def row_addmul(idst, isrc, c):
        rd, rs = S[idst], S[isrc]
        for j in range(n):
            rd[j] = rd[j] + c * rs[j]
        for row in U:
            row[isrc] = row[isrc] - c * row[idst]

    def col_addmul(jdst, jsrc, c):
        for row in S:
            row[jdst] = row[jdst] + c * row[jsrc]
        vd, vs = V[jdst], V[jsrc]
        for i in range(n):
            vs[i] = vs[i] - c * vd[i]

    def row_scale(i, unit):
        # row_i <- row_i / unit
        c = ring.unit_inverse(unit)
        row = S[i]
        for j in range(n):
            row[j] = c * row[j]
        for row in U:
            row[i] = unit * row[i]

    t = 0
    limit = min(m, n)
    while t < limit:
        where = _least_entry(S, t, ring)
        if where is None:
            break
        i0, j0 = where
        if i0 != t:
            row_swap(t, i0)
        if j0 != t:
            col_swap(t, j0)
        # Clearing policy: when the pivot divides the entry, a shear
        # (add a multiple of the pivot row/column) removes it without
        # touching the opposite line, so nothing refills.  Otherwise an
        # xgcd 2x2 transform is used, which replaces the pivot by the
        # gcd — a strictly smaller element — so only finitely many xgcd
        # steps can ever happen at one diagonal position.  Together the
        # two cases make this loop terminate.
        while True:
            for i in range(t + 1, m):
                x = S[i][t]
                if x != z:
                    piv = S[t][t]
                    if ring.divides(piv, x):
                        row_addmul(i, t, -ring.exact_div(x, piv))
                    else:
                        g, s, tt, u, v = ring.xgcd(piv, x)
                        row_combine(t, i, s, tt, u, v)
            col_dirty = False
            for j in range(t + 1, n):
                x = S[t][j]
                if x != z:
                    piv = S[t][t]
                    if ring.divides(piv, x):
                        col_addmul(j, t, -ring.exact_div(x, piv))
                    else:
                        g, s, tt, u, v = ring.xgcd(piv, x)
                        col_combine(t, j, s, tt, u, v)
                        col_dirty = True
            # xgcd column work may have refilled the pivot column
            if not col_dirty or all(S[i][t] == z for i in range(t + 1, m)):
                break
        # pull in any entry the pivot does not divide, then re-clear (a
        # unit pivot divides every entry)
        repaired = False
        piv = S[t][t]
        if not ring.is_unit(piv):
            for i in range(t + 1, m):
                if repaired:
                    break
                for j in range(t + 1, n):
                    if S[i][j] != z and not ring.divides(piv, S[i][j]):
                        row_addmul(t, i, ring.one)
                        repaired = True
                        break
        if repaired:
            continue  # redo clearing at the same t
        unit, _ = ring.canonicalize(piv)
        if unit != ring.one:
            row_scale(t, unit)
        t += 1

    result = SmithResult(
        U=Mat._raw(ring, m, m, tuple(tuple(r) for r in U)),
        S=Mat._raw(ring, m, n, tuple(tuple(r) for r in S)),
        V=Mat._raw(ring, n, n, tuple(tuple(r) for r in V)),
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
    hr = column_hermite(a)
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
    return _nonzero_columns(column_hermite(a).H)


def col_module_equal(a: Mat, b: Mat) -> bool:
    """Exact equality of column modules, via canonical forms."""
    a._same_ring(b)
    if a.m != b.m:
        return False
    return column_module_basis(a) == column_module_basis(b)


def col_module_contains(a: Mat, b: Mat) -> bool:
    """Does the column module of a contain every column of b?"""
    from .matrix import solve_in_column_module

    try:
        solve_in_column_module(a, b)
        return True
    except NoSolution:
        return False


def row_module_equal(a: Mat, b: Mat) -> bool:
    return col_module_equal(a.transpose(), b.transpose())


def right_kernel_basis(a: Mat) -> Mat:
    """Columns generate {x : a @ x == 0}; may have zero columns (n x d)."""
    hr = column_hermite(a)
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
