"""Group and Drazin inverses over the ring, with the core split certificate.

One index search decides both.  It takes det(X) first: a unit gives
index 0 and X^D == X^-1; a nonzero non-unit leaves X^-1, the only
fraction-field candidate, outside the ring.  For a singular X it walks
k = 1, 2, ...: with P the transpose of X^k, P @ T == H (column Hermite
form) gives P == L @ Rt, L the r nonzero columns of H, and the core
Rt @ L decides the power.

  * det(Rt @ L) == 0 exactly when rank(X^2k) < rank(X^k): k is below
    the index, so the search moves on to X^(k+1).
  * Otherwise k is the index over the fraction field, and X^D is
    integral exactly when Rt @ L is unimodular, since its inverse is
    Rt @ P^# @ T[:, :r].  Then P^# == L @ (Rt @ L)^-2 @ Rt and
    X^D == X^(k-1) @ (P^#)^T.

Any factorization of a power over the ring gives the same decisions and
the same X^D.  The transpose is factored, i.e. the row Hermite form of
X^k, because over Q[x] the column Hermite basis of a power can carry
rational coefficients hundreds of bits long where the row basis stays
small: on the generated n = 8 witnesses the column basis gave cores
with 360-860-bit denominators, which take up to 1.5 s to invert on
integer images, and the row basis cores with integer entries.

The group inverse is the case k <= 1: X^# exists exactly when the
search ends at k <= 1, and is then X^D.  (This factor criterion is
equivalent to the module criterion, that X and X @ X have one column
module; the test suite checks the two against each other.)  Each result
is verified by one check, _drazin_index, of the Drazin equations

    X @ D == D @ X,   D @ X @ D == D,   X^k @ (I - X @ D) == 0,

whose least k must be the index the search stopped at; at k == 1 they
are the group equations, and at index 0 the inversion checks itself.
A singular n x n matrix has index at most n.
Conventions: the zero matrix has index 1 and inverse 0; a 0 x 0 matrix
is invertible with index 0.

The core split reuses rank factorizations: E = X @ X^# == L1 @ Rt1,
checked, and I - E == L2 @ Rt2 give H = [L1 | L2], H^-1 = [Rt1 ; Rt2].
The one check H @ H^-1 == I makes H^-1 @ H == I, so Rt_i @ L_j is I or
0 and H^-1 @ E @ H == diag(I, 0).  The core is M = Rt1 @ X @ L1, and
L1 @ M @ Rt1 == X is X == H @ diag(M, 0) @ H^-1.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import (
    InternalAssertion,
    NotDrazinInvertible,
    NotGroupInvertible,
    NotInvertibleOverRing,
    NotSquare,
)
from .matrix import Mat, _inverse_over_ring, det, hstack, inverse_over_ring, vstack
from .normal_forms import _rank_factorization, rank_factorization

GroupInverseResult = namedtuple("GroupInverseResult", "ginv")
DrazinResult = namedtuple("DrazinResult", "index dinv")
CoreSplit = namedtuple("CoreSplit", "H Hinv M r")

NO_GROUP_INVERSE = "column module of X differs from that of X@X and Rt@L is not invertible over the ring"


def _index_search(x: Mat, last: int):
    """(Drazin result, X @ X^D) of the square x when its index is at most
    last, else None; raises NotDrazinInvertible when none is in the ring."""
    ring = x.ring
    d = det(x)
    if ring.is_unit(d):
        return DrazinResult(index=0, dinv=inverse_over_ring(x)), Mat.identity(ring, x.n)
    if d != ring.zero:
        # Invertible over the fraction field, so the unique Drazin inverse
        # there is X^-1; det(X) * det(X^-1) = 1 would force det(X) to be a
        # unit if X^-1 had ring entries.  No ring Drazin inverse exists.
        raise NotDrazinInvertible(
            f"det is nonzero but not a unit of {ring.name}: the only Drazin "
            "candidate is the fraction-field inverse, which leaves the ring"
        )
    prev, power = None, x  # X^(k-1) (None for the identity) and X^k
    for k in range(1, last + 1):
        if k > 1:
            prev, power = power, power @ x
        rf = _rank_factorization(power.transpose())
        try:
            core_inv = _inverse_over_ring(rf.Rt @ rf.L)
        except NotInvertibleOverRing as exc:
            if exc.det == ring.zero:
                continue
            raise NotDrazinInvertible(
                f"no power X^k with k <= {x.n} is group invertible over {ring.name}"
            ) from exc
        dinv = (rf.L @ core_inv @ core_inv @ rf.Rt).transpose()
        if prev is not None:
            dinv = prev @ dinv
        xd = x @ dinv
        if _drazin_index(x, dinv, xd, k) != k:
            raise InternalAssertion(f"Drazin candidate failed its equations at index {k}")
        return DrazinResult(index=k, dinv=dinv), xd
    return None


def _drazin_index(x: Mat, d: Mat, xd: Mat, last: int):
    """Least k <= last with X @ D == D @ X, D @ X @ D == D and
    X^k @ (I - X @ D) == 0, which make d the Drazin inverse of the
    square x and k its index; None when there is no such k.  xd is the
    caller's X @ D."""
    if xd != d @ x or d @ xd != d:
        return None
    rest = Mat.identity(x.ring, x.n) - xd  # X^k @ (I - X @ D), from k == 0
    for k in range(last):
        if rest.is_zero():
            return k
        rest = x @ rest
    return last if rest.is_zero() else None


def _group_inverse_attempt(x: Mat):
    """(X^#, X @ X^#) for a group invertible square x, else None."""
    if not x.is_square():
        raise NotSquare(f"group inverse of a {x.m}x{x.n} matrix")
    try:
        found = _index_search(x, 1)
    except NotDrazinInvertible:
        return None
    return None if found is None else (found[0].dinv, found[1])


def is_group_invertible(x: Mat) -> bool:
    return _group_inverse_attempt(x) is not None


def group_inverse(x: Mat) -> GroupInverseResult:
    found = _group_inverse_attempt(x)
    if found is None:
        raise NotGroupInvertible(NO_GROUP_INVERSE)
    return GroupInverseResult(ginv=found[0])


def drazin(x: Mat) -> DrazinResult:
    if not x.is_square():
        raise NotSquare(f"Drazin inverse of a {x.m}x{x.n} matrix")
    found = _index_search(x, x.n)
    if found is None:
        raise InternalAssertion("power ranks failed to stabilize by n")
    return found[0]


def _core_split_with(x: Mat, ginv: Mat) -> CoreSplit:
    e = x @ ginv
    ident = Mat.identity(x.ring, x.n)
    im = rank_factorization(e)
    co = _rank_factorization(ident - e)
    h = hstack(im.L, co.L)
    hinv = vstack(im.Rt, co.Rt)
    if im.r + co.r != x.n or h @ hinv != ident:
        raise InternalAssertion("image and co-image of X @ X^# do not split the space")
    m = im.Rt @ x @ im.L
    if not x.ring.is_unit(det(m)):
        raise InternalAssertion("core block is not invertible over the ring")
    if im.L @ m @ im.Rt != x:
        raise InternalAssertion("core split reconstruction failed")
    return CoreSplit(H=h, Hinv=hinv, M=m, r=im.r)


def core_split(x: Mat) -> CoreSplit:
    """X == H @ diag(M, 0) @ H^-1 with M invertible over the ring.

    Exists exactly when X is group invertible; raises NotGroupInvertible
    otherwise.
    """
    res = group_inverse(x)
    return _core_split_with(x, res.ginv)
