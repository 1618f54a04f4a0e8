"""Group and Drazin inverses over the ring, with split certificates.

Group inverse existence is decided by the factor criterion: with any
full-rank factorization X == L @ Rt, the r x r matrix Rt @ L is
invertible over the ring.  (It is equivalent to the module criterion,
that the column module of X equals that of X @ X; the test suite checks
the two against each other.)  When the inverse exists it is
L @ (Rt @ L)^-2 @ Rt, and the three defining equations are re-verified
before returning:

    X @ G == G @ X,   G @ X @ G == G,   X @ G @ X == X.

Drazin index over the ring: the matrix is invertible (index 0), or the
least k in 1..n with X^k group invertible is the index and
X^D == X^(k-1) @ (X^k)^#.  The bound k <= n is justified by passage to
the fraction field: if X^D exists over the ring it is the unique
fraction-field Drazin inverse, whose index is at most n (ranks of
powers strictly decrease until they stabilize); and then X^(index) is
group invertible over the ring because its group inverse is a product
of ring matrices.  So if no power up to n works, none does.
Conventions: the zero matrix has index 1 and inverse 0; a 0 x 0 matrix
is invertible with index 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    InternalAssertion,
    NotDrazinInvertible,
    NotGroupInvertible,
    NotIdempotent,
    NotInvertibleOverRing,
    NotSquare,
)
from .matrix import Mat, block_diag, det, inverse_over_ring, split_blocks
from .normal_forms import _rank_factorization_from, column_hermite, column_module_basis


@dataclass(frozen=True)
class GroupInverseResult:
    ginv: Mat


@dataclass(frozen=True)
class DrazinResult:
    index: int
    dinv: Mat


@dataclass(frozen=True)
class CoreSplit:
    H: Mat
    Hinv: Mat
    M: Mat
    r: int


def _group_inverse_attempt(x: Mat, hr=None):
    """(result, failure) pair; exactly one is None.  hr, when given, is
    the column Hermite form of x, which is then not computed again."""
    if not x.is_square():
        raise NotSquare(f"group inverse of a {x.m}x{x.n} matrix")
    rf = _rank_factorization_from(x, column_hermite(x) if hr is None else hr)
    try:
        core_inv = inverse_over_ring(rf.Rt @ rf.L)
    except NotInvertibleOverRing:
        return None, NotGroupInvertible(
            "column module of X differs from that of X@X and Rt@L is not "
            "invertible over the ring"
        )
    g = rf.L @ core_inv @ core_inv @ rf.Rt
    if x @ g != g @ x or g @ x @ g != g or x @ g @ x != x:
        raise InternalAssertion("group inverse candidate failed its equations")
    return GroupInverseResult(ginv=g), None


def is_group_invertible(x: Mat) -> bool:
    res, _ = _group_inverse_attempt(x)
    return res is not None


def group_inverse(x: Mat) -> GroupInverseResult:
    res, failure = _group_inverse_attempt(x)
    if failure is not None:
        raise failure
    return res


def drazin(x: Mat) -> DrazinResult:
    if not x.is_square():
        raise NotSquare(f"Drazin inverse of a {x.m}x{x.n} matrix")
    ring = x.ring
    n = x.n
    d = det(x)
    if ring.is_unit(d):
        return DrazinResult(index=0, dinv=inverse_over_ring(x))
    if d != ring.zero:
        # Invertible over the fraction field, so the unique Drazin inverse
        # there is X^-1; det(X) * det(X^-1) = 1 would force det(X) to be a
        # unit if X^-1 had ring entries.  No ring Drazin inverse exists.
        raise NotDrazinInvertible(
            f"det is nonzero but not a unit of {ring.name}: the only Drazin "
            "candidate is the fraction-field inverse, which leaves the ring"
        )
    # Singular: the index is where the rank of successive powers stabilizes.
    # It suffices to test group invertibility at that single power k: if any
    # X^m is group invertible over the ring, the Drazin inverse D lies in the
    # ring and D^k is a ring group inverse of X^k.
    powers = [Mat.identity(ring, n), x]
    forms = [None, column_hermite(x)]
    ranks = [n, len(forms[1].pivot_rows)]
    k = 1
    while ranks[k] != ranks[k - 1]:
        powers.append(powers[-1] @ x)
        forms.append(column_hermite(powers[-1]))
        ranks.append(len(forms[-1].pivot_rows))
        k += 1
        if k > n + 1:
            raise InternalAssertion("power ranks failed to stabilize by n")
    k -= 1
    if k == 0:
        raise InternalAssertion("rank(X) == n for a matrix with zero det")
    power = powers[k]
    res, failure = _group_inverse_attempt(power, forms[k])
    if failure is not None:
        raise NotDrazinInvertible(
            f"no power X^k with k <= {n} is group invertible over {ring.name}"
        )
    dinv = powers[k - 1] @ res.ginv
    if (
        x @ dinv != dinv @ x
        or dinv @ x @ dinv != dinv
        or power @ x @ dinv != power
    ):
        raise InternalAssertion("Drazin candidate failed its equations")
    if power @ dinv == powers[k - 1]:
        raise InternalAssertion(f"Drazin index {k} is not minimal for this matrix")
    return DrazinResult(index=k, dinv=dinv)


def idempotent_split(e: Mat) -> Mat:
    """Unimodular H whose inverse conjugates the idempotent to diag(I_r, 0).

    Columns are a canonical basis of the image of E followed by one of
    the image of I - E; for an idempotent over a Bezout domain these are
    complementary free summands, so H is square and unimodular.
    """
    return _split_idempotent(e)[0]


def _split_idempotent(e: Mat):
    """(H, H^-1, r) for idempotent_split, r being the rank of E."""
    if not e.is_square():
        raise NotSquare(f"idempotent_split of a {e.m}x{e.n} matrix")
    ring = e.ring
    if e @ e != e:
        raise NotIdempotent("E @ E != E")
    n = e.n
    cols_im = column_module_basis(e)
    cols_ker = column_module_basis(Mat.identity(ring, n) - e)
    r = len(cols_im)
    if r + len(cols_ker) != n:
        raise InternalAssertion(
            "image and co-image of an idempotent do not fill the space"
        )
    h = Mat.from_columns(ring, list(cols_im) + list(cols_ker), nrows=n)
    try:
        hinv = inverse_over_ring(h)
    except NotInvertibleOverRing as exc:
        raise InternalAssertion(
            "idempotent basis assembly is not unimodular"
        ) from exc
    j = Mat.diagonal(ring, [ring.one] * r, m=n, n=n)
    if hinv @ e @ h != j:
        raise InternalAssertion("idempotent did not diagonalize to diag(I, 0)")
    return h, hinv, r


def _core_split_with(x: Mat, ginv: Mat) -> CoreSplit:
    ring = x.ring
    h, hinv, r = _split_idempotent(x @ ginv)
    c = hinv @ x @ h
    c11, c12, c21, c22 = split_blocks(c, r)
    if not (c12.is_zero() and c21.is_zero() and c22.is_zero()):
        raise InternalAssertion("core split has nonzero off-core blocks")
    try:
        inverse_over_ring(c11)
    except NotInvertibleOverRing as exc:
        raise InternalAssertion("core block is not invertible over the ring") from exc
    if h @ block_diag(c11, Mat.zeros(ring, x.n - r, x.n - r)) @ hinv != x:
        raise InternalAssertion("core split reconstruction failed")
    return CoreSplit(H=h, Hinv=hinv, M=c11, r=r)


def core_split(x: Mat) -> CoreSplit:
    """X == H @ diag(M, 0) @ H^-1 with M invertible over the ring.

    Exists exactly when X is group invertible; raises NotGroupInvertible
    otherwise.
    """
    res = group_inverse(x)
    return _core_split_with(x, res.ginv)
