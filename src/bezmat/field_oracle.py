"""Independent fraction-field oracle for generalized inverses.

The main library decides existence of group/Drazin inverses over the
ring via Hermite forms and ring inverses.  This module answers the same
questions over the fraction field (the rationals for integer matrices,
rational functions for polynomial matrices) and then tests whether the
unique field-level inverse has all its entries in the ring.  Uniqueness
of group and Drazin inverses gives the contract

    exists over the ring  <=>  exists over the field  AND  integral,

and when both sides exist the values must match entry-for-entry.

No field element is ever formed.  Each field-level result is a ring
numerator matrix N over one ring denominator, and it is integral
exactly when that denominator divides every entry of N.  Everything
rests on one fraction-free Gauss-Jordan elimination (Bareiss 1968),
whose reduced echelon form is its rows over its last pivot d.  One
elimination of [X | I], with pivots taken in X only, gives the rank r
of X, its pivot columns J and its pivot rows I; with C = X[:, J],
R = X[I, :], M = X[I, J] (nonsingular, X == C M^-1 R) and F = R C:

  * r == n: the right block N gives X^-1 == N / d, which is also X^#
    and X^D, of index 0;
  * r < n: X^# exists over the field iff F is nonsingular, and then
    X^# == C A M A R / d^2, where eliminating [F | I] gives A F == d I;
  * otherwise the Drazin index k >= 2 is the least k with
    rank(X^(k+1)) == rank(X^k), that is with (X^k)^# existing over the
    field (each power is eliminated once), and
    X^D == X^(k-1) N_k / d_k^2 for (X^k)^# == N_k / d_k^2.

X^# exists exactly when the index is at most 1, and is then X^D, so one
check covers both results: with delta the denominator,

    X N == N X,   N X N == delta N,   X^(k+1) N == delta X^k,

and a failure raises InternalAssertion.  The oracle keeps its own
elimination loop (pivot order, column skipping, Gauss-Jordan on every
row): it shares no elimination loop with the ring path (normal_forms,
det, inverse_over_ring), so a bug there cannot agree with itself here.
It does share the ring's integer image, the checked row update
``rings.fraction_free_step`` and ``@``, which run on that image;
``tests/test_images.py`` guards them against a schoolbook reference on
Fraction coefficients.
Integrality is decided on ring elements (``_lower``), never on images:
an image can divide where the ring element does not.
"""

from __future__ import annotations

from collections import namedtuple
from math import prod

from . import faults
from .errors import InternalAssertion, NotDivisible, NotSquare
from .matrix import Mat
from .rings import elimination_width, fraction_free_step


def _rref_den(ring, rows, width):
    """Fraction-free Gauss-Jordan elimination with column skipping.

    Runs on the ring's integer image of ``rows``.  Pivots are taken left
    to right in the first ``width`` columns, each the first nonzero entry
    at or below the current row; row operations act on every column.
    Returns (rest, pivot_cols, pivot_rows, d): the reduced echelon form
    of the input is the eliminated rows over d, d being the last pivot
    (one when there is none), rest holds their columns from ``width``
    on, and pivot_rows[i] is the input index of the row that became
    pivot row i.  Each entry is a minor of the input, so every division
    by the previous pivot is exact, and a remainder raises NotDivisible.
    With r pivots the pivot rows and d hold minors on the r input rows
    that became pivot rows, and each other row a minor on those and its
    own input row; the image scales input row i by its denominator D_i,
    and so each minor by the D_i of its rows, which rest and d are read
    back over: they are the ring elements that eliminating the input
    itself gives.
    """
    (rows,), (dens,), w = ring.image((rows,), elimination_width)
    rows = [list(r) for r in rows]
    order = list(range(len(rows)))
    d = 1
    cols = []
    for j in range(width):
        i = len(cols)
        if i == len(rows):
            break
        p = next((t for t in range(i, len(rows)) if rows[t][j]), None)
        if p is None:
            continue
        rows[i], rows[p] = rows[p], rows[i]
        order[i], order[p] = order[p], order[i]
        pr = rows[i]
        piv = pr[j]
        for t, r in enumerate(rows):
            if t != i:
                fraction_free_step(r, piv, r[j], pr, d)
        cols.append(j)
        d = piv
    read = ring.from_image
    r = len(cols)
    scale = prod(dens[t] for t in order[:r])
    rest = [
        [read(e, scale if t < r else scale * dens[order[t]], w) for e in row[width:]]
        for t, row in enumerate(rows)
    ]
    return rest, cols, order[:r], read(d, scale, w)


def _take(x: Mat, rows, cols) -> Mat:
    return Mat._raw(
        x.ring, len(rows), len(cols), tuple(tuple(x.rows[i][j] for j in cols) for i in rows)
    )


def _inverse_num(x: Mat):
    """Elimination of [X | I] with pivots in X only: (rank, pivot columns,
    pivot rows, N, d), where X^-1 == N / d when the rank is full."""
    ring, n = x.ring, x.n
    z, o = ring.zero, ring.one
    aug = [list(row) + [o if i == j else z for j in range(n)] for i, row in enumerate(x.rows)]
    rest, cols, prows, d = _rref_den(ring, aug, n)
    num = Mat._raw(ring, n, n, tuple(map(tuple, rest)))
    return len(cols), cols, prows, num, d


def _group_num(x: Mat, cols, prows):
    """(N, delta) with X^# == N / delta over the field, or None when X^#
    does not exist there; cols and prows come from eliminating X."""
    every = range(x.n)
    c, r, m = _take(x, every, cols), _take(x, prows, every), _take(x, prows, cols)
    rank_f, _, _, a, d = _inverse_num(r @ c)
    if rank_f < len(cols):
        return None
    return c @ a @ m @ a @ r, d * d


def _drazin_num(x: Mat):
    """(k, (N, delta)) with X^D == N / delta of index k >= 2, for an X
    that has no group inverse over the field."""
    power = x
    for k in range(2, x.n + 1):
        power = power @ x
        _, cols, prows, _ = _rref_den(x.ring, power.rows, x.n)
        gk = _group_num(power, cols, prows)
        if gk is not None:
            return k, ((x ** (k - 1)) @ gk[0], gk[1])
    raise InternalAssertion("oracle: power ranks failed to stabilize by n")


def _verify(x: Mat, num: Mat, den, k: int) -> None:
    """Drazin equations of index k for num / den, on the numerator form."""
    xn = x @ num
    if k:
        pk = x ** k
        ok = pk @ xn == pk.scale(den) and num @ xn == num.scale(den)
    else:
        # X N == delta I, which already gives N X N == delta N
        ok = xn == Mat.identity(x.ring, x.n).scale(den)
    if xn != num @ x or not ok:
        raise InternalAssertion(f"oracle Drazin inverse of index {k} failed its equations")


def _lower(num: Mat, den):
    """num / den as a ring matrix, or None when den does not divide every entry."""
    ring = num.ring
    try:
        rows = tuple(tuple(ring.exact_div(e, den) for e in row) for row in num.rows)
    except NotDivisible:
        return None
    return Mat._raw(ring, num.m, num.n, rows)


# group_exists is decided over the fraction field; group_integral is None
# when there is no field-level inverse; group_ring and drazin_ring are the
# ring-level values when they exist, else None.
OracleReport = namedtuple(
    "OracleReport",
    "ring n rank group_exists group_integral group_ring drazin_index drazin_integral drazin_ring",
)


def fraction_field_oracle(x: Mat) -> OracleReport:
    """Rank, group inverse, and Drazin inverse of x decided over the
    fraction field, with integrality of each result reported so the
    caller can compare against the ring-level decisions."""
    if not x.is_square():
        raise NotSquare("oracle input must be square")
    rank, cols, prows, num, den = _inverse_num(x)
    if rank == x.n:
        k, group = 0, (num, den)
    else:
        k, group = 1, _group_num(x, cols, prows)
    # X^# exists only at index 0 or 1, where it is X^D
    if group is None:
        k, (num, den) = _drazin_num(x)
    else:
        num, den = group
    _verify(x, num, den, k)
    drazin_ring = _lower(num, den)
    drazin_integral = drazin_ring is not None
    if faults.active("oracle"):
        drazin_integral = not drazin_integral
    if not drazin_integral:
        drazin_ring = None
    group_integral = None if group is None else drazin_integral
    return OracleReport(
        ring=x.ring.name,
        n=x.n,
        rank=rank,
        group_exists=group is not None,
        group_integral=group_integral,
        group_ring=drazin_ring if group_integral else None,
        drazin_index=k,
        drazin_integral=drazin_integral,
        drazin_ring=drazin_ring,
    )
