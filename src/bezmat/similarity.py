"""Unimodular similarity certificates for products sharing a middle factor.

Setting: square matrices A, B, C over the ring with

    A @ B @ A == A @ C @ A,

and both X = A@B and Y = C@A group invertible.  Then X and Y are
similar, and the similarity can be realized by an explicitly invertible
W over the ring.  The construction here is block-free to state and
fully checkable at runtime:

  1. The shared-product identity gives the intertwining X @ A == A @ Y.
  2. Compute group inverses X^#, Y^#.
  3. Form the core projectors P = X @ X^# and P' = Y @ Y^#, and the
     inverse candidate Q = P' @ B @ X^#.  The shared-product identity
     and the group-inverse equations give A @ Q == P and Q @ A == P'.
  4. Take rank factorizations I - P == L1 @ Rt1 and I - P' == L2 @ Rt2.
     Both have rank n - r1, r1 being the common rank of X and Y.
  5. W  = P @ A @ P' + L1 @ Rt2 and
     Winv = Q + L2 @ Rt1.
     On the images, P @ A @ P' maps im P' onto im P and Q maps it
     back.  Over the fraction field X^# is a polynomial in X and Y^#
     the same polynomial in Y, so X @ A == A @ Y gives
     P @ A == A @ P' (and P @ A @ P' == A @ P', the form computed);
     with step 3, P @ A @ P' @ Q == P and Q @ P @ A @ P' == P'.  On
     the kernels, L1 @ Rt2 and L2 @ Rt1 are mutually inverse between
     ker P' and ker P, since Rt @ L == I and Rt @ P == 0 for a rank
     factorization of the idempotent I - P; the same two identities
     make the cross terms vanish.  X and Y vanish on the kernels, so W
     conjugates Y to X there as well.
  6. W @ Winv == I and A@B == W @ (C@A) @ Winv are verified before
     returning.

The construction is checked, not assumed: unequal ranks in step 4 or a
failed step 6 raise InternalAssertion with a replayable instance dump,
never a silent wrong answer.  No case is special: at rank 0, P and P'
vanish and W == L1 @ Rt2 with L1 and Rt2 square and unimodular; at full
rank the kernel terms are empty and W == A.
"""

from __future__ import annotations

from collections import namedtuple

from . import faults
from .errors import (
    ConditionNotMet,
    DimensionMismatch,
    HypothesisViolated,
    IndexTooSmall,
    InternalAssertion,
    NotGroupInvertible,
    NotDrazinInvertible,
    NotSquare,
)
from .ginverse import _group_inverse_attempt, drazin, group_inverse
from .matrix import Mat, inverse_over_ring
from .normal_forms import col_module_equal, rank_factorization


class SimilarityWitness(namedtuple("SimilarityWitness", "W Winv r1 X Y Xginv Yginv")):
    """W with X == W @ Y @ Winv for the products X = A@B and Y = C@A of
    the triple it was built from (for a power witness, (A@B)^s and
    (C@A)^s); r1 is the common rank of the cores of X and Y, and Xginv
    and Yginv are the group inverses of X and Y."""

    __slots__ = ()


HypothesisReport = namedtuple(
    "HypothesisReport",
    "aba_equals_aca ab_group_invertible ca_group_invertible variant_conditions",
    defaults=((),),
)


VARIANTS = ("cor22", "cor23", "thm22", "cor24")

_MODES = ("product", "ginv", "projector", "core")


def _validate_triple(a: Mat, b: Mat, c: Mat):
    for mat in (a, b, c):
        if not mat.is_square():
            raise NotSquare("similarity inputs must be square")
    a._same_ring(b)
    a._same_ring(c)
    if not (a.shape == b.shape == c.shape):
        raise DimensionMismatch("similarity inputs must share one shape")


def _shared_products(a: Mat, b: Mat, c: Mat, ab: Mat | None = None):
    """(A@B, C@A, A@B@A) of a valid triple with A@B@A == A@C@A; raises
    HypothesisViolated, carrying both sides, otherwise.  ab is A@B when
    the caller has already formed it."""
    _validate_triple(a, b, c)
    x = a @ b if ab is None else ab
    y = c @ a
    aba = x @ a
    aca = a @ y
    if aba != aca:
        raise HypothesisViolated("A@B@A != A@C@A", lhs=aba, rhs=aca)
    return x, y, aba


def check_hypotheses(a: Mat, b: Mat, c: Mat) -> HypothesisReport:
    """Evaluate the base hypotheses without raising."""
    _validate_triple(a, b, c)
    x = a @ b
    y = c @ a
    res_x, _ = _group_inverse_attempt(x)
    res_y, _ = _group_inverse_attempt(y)
    return HypothesisReport(
        aba_equals_aca=(x @ a == a @ y),
        ab_group_invertible=res_x is not None,
        ca_group_invertible=res_y is not None,
    )


def _instance_dump(a: Mat, b: Mat, c: Mat, stage: str):
    from .io import matrix_to_doc

    return {
        "stage": stage,
        "A": matrix_to_doc(a),
        "B": matrix_to_doc(b),
        "C": matrix_to_doc(c),
    }


def similarity_witness(a: Mat, b: Mat, c: Mat) -> SimilarityWitness:
    """Construct and verify W with A@B == W @ (C@A) @ W^-1."""
    x, y, _ = _shared_products(a, b, c)
    res_x, fail_x = _group_inverse_attempt(x)
    if fail_x is not None:
        fail_x.side = "AB"
        raise fail_x
    res_y, fail_y = _group_inverse_attempt(y)
    if fail_y is not None:
        fail_y.side = "CA"
        raise fail_y
    return _witness_from(a, b, c, x, y, res_x.ginv, res_y.ginv)


def _witness_from(a: Mat, b: Mat, c: Mat, x: Mat, y: Mat, xg: Mat, yg: Mat) -> SimilarityWitness:
    """Steps 3-6 for a triple with A@B@A == A@C@A, given X = A@B and
    Y = C@A and their group inverses xg and yg."""
    ident = Mat.identity(a.ring, a.n)
    p1 = x @ xg
    p2 = y @ yg
    k1 = rank_factorization(ident - p1)
    k2 = rank_factorization(ident - p2)
    if k1.r != k2.r:
        raise InternalAssertion(
            "similar products reported different core ranks",
            instance=_instance_dump(a, b, c, "core-rank"),
        )
    w = a @ p2 + k1.L @ k2.Rt  # A @ P' == P @ A @ P'
    winv = p2 @ b @ xg + k2.L @ k1.Rt
    if faults.active("witness") or w @ winv != ident or w @ y @ winv != x:
        raise InternalAssertion(
            "witness failed final verification",
            instance=_instance_dump(a, b, c, "final"),
        )
    return SimilarityWitness(W=w, Winv=winv, r1=a.n - k1.r, X=x, Y=y, Xginv=xg, Yginv=yg)


def verify_witness(a: Mat, b: Mat, c: Mat, w: Mat, mode: str = "product") -> bool:
    """Check one conjugation identity for a claimed witness W.

    Modes: product   A@B == W @ (C@A) @ W^-1
           ginv      (A@B)^# == W @ (C@A)^# @ W^-1
           projector (A@B)(A@B)^# == W @ (C@A)(C@A)^# @ W^-1
           core      (A@B)^2 (A@B)^D == W @ (C@A)^2 (C@A)^D @ W^-1

    Verification is independent of the construction pipeline: it does
    not require A@B@A == A@C@A, only whatever inverses the mode itself
    needs.  W must be invertible over the ring.
    """
    _validate_triple(a, b, c)
    if not w.is_square() or w.shape != a.shape:
        raise DimensionMismatch("witness shape does not match the inputs")
    a._same_ring(w)
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {_MODES}")
    winv = inverse_over_ring(w)
    return _conjugations(a @ b, c @ a, w, winv, (mode,))[mode]


def _conjugations(x, y, w, winv, modes, xg=None, yg=None) -> dict:
    """{mode: verify_witness(a, b, c, w, mode)} given X = A@B, Y = C@A
    and W^-1.

    Each group or Drazin inverse is computed at most once for all the
    modes, and none at all when the group inverses xg of X and yg of Y
    are given: they are then also X^D and Y^D, and the core X^2 @ X^#
    is formed as X @ (X @ X^#) from the projector.
    """
    ver = {}
    proj = None  # the core projectors X @ X^# and Y @ Y^#, once formed
    for mode in modes:
        if mode == "product":
            lhs, rhs = x, y
        elif mode == "core" and xg is None:
            lhs = x @ x @ drazin(x).dinv
            rhs = y @ y @ drazin(y).dinv
        else:
            if xg is None:
                xg = group_inverse(x).ginv
                yg = group_inverse(y).ginv
            if mode == "ginv":
                lhs, rhs = xg, yg
            else:
                if proj is None:
                    proj = (x @ xg, y @ yg)
                lhs, rhs = proj
                if mode == "core":
                    lhs, rhs = x @ lhs, y @ rhs
        ver[mode] = lhs == w @ rhs @ winv
    return ver


def conjugate_witnesses(a: Mat, b: Mat, c: Mat) -> SimilarityWitness:
    """similarity_witness, whose W is verified to conjugate the products,
    plus verification that the same W transports group inverses, core
    projectors, and cores.

    A returned witness has passed every mode of verify_witness, each
    checked once on the products the construction formed.  Any failure
    of the derived conjugations is a bug, not an input problem, and
    raises InternalAssertion.
    """
    wit = similarity_witness(a, b, c)
    _derived_conjugations(a, b, c, wit)
    return wit


def _derived_conjugations(a: Mat, b: Mat, c: Mat, wit: SimilarityWitness) -> None:
    """Check that the witness built from the triple also conjugates the
    group inverses, core projectors and cores of its products."""
    ver = _conjugations(
        wit.X, wit.Y, wit.W, wit.Winv, ("ginv", "projector", "core"), wit.Xginv, wit.Yginv
    )
    for mode, ok in ver.items():
        if not ok:
            raise InternalAssertion(
                f"constructed witness failed derived conjugation {mode!r}",
                instance=_instance_dump(a, b, c, f"conjugate-{mode}"),
            )


def power_witness(a: Mat, b: Mat, c: Mat, s: int) -> SimilarityWitness:
    """Witness conjugating (A@B)^s to (C@A)^s for s at least max(index, 1).

    Reduces to the base construction on the modified triple
    B' = B @ (A@B)^(s-1) and C' = (C@A)^(s-1) @ C, for which
    A @ B' == (A@B)^s and C' @ A == (C@A)^s.  The floor uses the Drazin
    index k of A@B; s == k is attempted and verified rather than
    assumed, so a (C@A)-side failure at s == k surfaces as
    NotGroupInvertible.
    """
    return _power_witness(a, b, c, s, None, None)


def _power_witness(a: Mat, b: Mat, c: Mat, s: int, ab, dr_ab) -> SimilarityWitness:
    """power_witness, reusing the product ab = A@B and its Drazin inverse
    dr_ab when the caller already has them (None computes each)."""
    x, y, _ = _shared_products(a, b, c, ab)
    if dr_ab is None:
        dr_ab = drazin(x)  # may raise NotDrazinInvertible
    k = dr_ab.index
    floor = max(k, 1)
    if s < floor:
        raise IndexTooSmall(
            f"s={s} is below max(index, 1)={floor}", s=s, index=k
        )
    xp = x ** (s - 1)
    yp = y ** (s - 1)
    b2 = b @ xp
    c2 = yp @ c
    xs = a @ b2
    ys = c2 @ a
    if xs != x @ xp or ys != yp @ y:
        raise InternalAssertion(
            "power reduction identities failed",
            instance=_instance_dump(a, b, c, f"power-reduce s={s}"),
        )
    if xs @ a != a @ ys:
        raise InternalAssertion(
            "reduced triple lost the shared-product identity",
            instance=_instance_dump(a, b, c, f"power-hypothesis s={s}"),
        )
    res_abs, fail_abs = _group_inverse_attempt(xs)
    if fail_abs is not None:
        # guaranteed for s >= index of A@B; failure means a bug
        raise InternalAssertion(
            "(A@B)^s is not group invertible despite s >= index",
            instance=_instance_dump(a, b, c, f"power-ab s={s}"),
        )
    res_cas, fail_cas = _group_inverse_attempt(ys)
    if fail_cas is not None:
        # legitimately possible at s == k when index(C@A) == k + 1
        fail_cas.side = "CA^s"
        raise fail_cas
    return _witness_from(a, b2, c2, xs, ys, res_abs.ginv, res_cas.ginv)


def cline_verify(a: Mat, b: Mat, c: Mat) -> bool:
    """Check the exchange formula for Drazin inverses on a valid triple.

    Computes (C@A)^D independently and compares it with
    C @ [(A@B)^D]^2 @ A, and checks index(C@A) <= index(A@B) + 1.
    Returns the conjunction.
    """
    return _cline(a, b, c)[0]


def _cline(a: Mat, b: Mat, c: Mat):
    """cline_verify's verdict with the two Drazin results it rests on:
    (verdict, (A@B)^D result, (C@A)^D result)."""
    x, y, _ = _shared_products(a, b, c)
    dr_ab = drazin(x)  # may raise NotDrazinInvertible
    candidate = c @ (dr_ab.dinv @ dr_ab.dinv) @ a
    try:
        dr_ca = drazin(y)
    except NotDrazinInvertible as exc:
        raise InternalAssertion(
            "C@A lost Drazin invertibility despite the exchange formula",
            instance=_instance_dump(a, b, c, "cline"),
        ) from exc
    ok = dr_ca.dinv == candidate and dr_ca.index <= dr_ab.index + 1
    return ok, dr_ab, dr_ca


def _variant_conditions(a: Mat, b: Mat, c: Mat, ab: Mat, ca: Mat, aba: Mat, variant: str):
    """The named column-module equalities of a variant, given the
    products AB = A@B, CA = C@A and ABA = A@B@A."""
    if variant == "cor22":
        return (("Rr(A)=Rr(ABA)", col_module_equal(a, aba)),)
    if variant == "cor23":
        return (
            ("Rr(A)=Rr(AB)", col_module_equal(a, ab)),
            ("Rr(B)=Rr(BA)", col_module_equal(b, b @ a)),
        )
    if variant == "thm22":
        return (
            ("Rr(AB)=Rr(ABA)", col_module_equal(ab, aba)),
            ("Rr(CA)=Rr(CAB)", col_module_equal(ca, ca @ b)),
        )
    if variant == "cor24":
        return (
            ("Rr(A)=Rr(AC)", col_module_equal(a, a @ c)),
            ("Rr(A)=Rr(ABA)", col_module_equal(a, aba)),
        )
    raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def corollary_check(a: Mat, b: Mat, c: Mat, variant: str):
    """Evaluate a sufficient-condition variant, then build the witness.

    Each variant is a set of named column-module equalities which, for a
    triple with A@B@A == A@C@A, force both A@B and C@A to be group
    invertible.  If every equality holds, group invertibility is
    asserted (a failure would contradict the theory, so it raises
    InternalAssertion) and the base witness is returned.  If some
    equality fails, ConditionNotMet carries the failing names and the
    full report.  The cor24 variant checks its stated equalities but,
    like the others, certifies A@B similar to C@A.
    """
    x, y, aba = _shared_products(a, b, c)
    conditions = _variant_conditions(a, b, c, x, y, aba, variant)
    res_x, _ = _group_inverse_attempt(x)
    res_y, _ = _group_inverse_attempt(y)
    report = HypothesisReport(
        aba_equals_aca=True,
        ab_group_invertible=res_x is not None,
        ca_group_invertible=res_y is not None,
        variant_conditions=conditions,
    )
    failed = tuple(name for name, ok in conditions if not ok)
    if failed:
        raise ConditionNotMet(
            "variant conditions failed: " + ", ".join(failed),
            failed=failed,
            report=report,
        )
    if res_x is None or res_y is None:
        raise InternalAssertion(
            "variant conditions hold but a product is not group invertible",
            instance=_instance_dump(a, b, c, f"variant-{variant}"),
        )
    return report, _witness_from(a, b, c, x, y, res_x.ginv, res_y.ginv)
