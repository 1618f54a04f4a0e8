"""Unimodular similarity certificates for products sharing a middle factor.

Setting: square matrices A, B, C over the ring with

    A @ B @ A == A @ C @ A,

and both X = A@B and Y = C@A group invertible.  Then X and Y are
similar, and the similarity can be realized by an explicitly invertible
W over the ring.  The construction here is block-free to state and
fully checkable at runtime:

  1. The shared-product identity gives the intertwining X @ A == A @ Y.
  2. Compute X^#.  Y^# exists exactly when C @ (X^#)^2 @ A, which the
     exchange formula makes Y^D, passes Y's group equations.
  3. The group checks give the core projectors P = X @ X^# and
     P' = Y @ Y^#; form the inverse candidate Q = P' @ B @ X^#.  The
     shared-product identity and the group-inverse equations give
     A @ Q == P and Q @ A == P'.
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

Powers reuse the construction on (A, B @ X^(s-1), C' = Y^(s-1) @ C),
whose products X^s, Y^s and shared-product identity hold by
associativity, unchecked; for s >= ind(X), (X^s)^# == (X^D)^s, and step
2 on this triple gives (Y^s)^# == C' @ ((X^D)^s)^2 @ A, checked.

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
    NotDrazinInvertible,
    NotGroupInvertible,
    NotSquare,
)
from .ginverse import NO_GROUP_INVERSE, _drazin_index, _group_inverse_attempt, drazin, group_inverse
from .io import matrix_to_doc
from .matrix import Mat, inverse_over_ring
from .normal_forms import _rank_factorization, col_module_equal


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
    return HypothesisReport(
        aba_equals_aca=(x @ a == a @ y),
        ab_group_invertible=_group_inverse_attempt(x) is not None,
        ca_group_invertible=_group_inverse_attempt(y) is not None,
    )


def _instance_dump(a: Mat, b: Mat, c: Mat, stage: str):
    return {
        "stage": stage,
        "A": matrix_to_doc(a),
        "B": matrix_to_doc(b),
        "C": matrix_to_doc(c),
    }


def similarity_witness(a: Mat, b: Mat, c: Mat) -> SimilarityWitness:
    """Construct and verify W with A@B == W @ (C@A) @ W^-1."""
    return _similarity_witness(a, b, c)[0]


def _similarity_witness(a: Mat, b: Mat, c: Mat):
    """similarity_witness with the core projectors: (witness, (P, P'))."""
    x, y, _ = _shared_products(a, b, c)
    found = _group_inverse_attempt(x)
    if found is None:
        raise NotGroupInvertible(NO_GROUP_INVERSE, side="AB")
    xg, p1 = found
    yg, p2 = _exchange(a, c, y, xg, "CA")
    return _witness_from(a, b, c, x, y, xg, yg, p1, p2)


def _exchange(a: Mat, c: Mat, y: Mat, xg: Mat, side: str):
    """(Y^#, Y @ Y^#) for Y = C@A, Y^# taken as C @ xg^2 @ A, xg = (A@B)^#,
    by the exchange formula; raises NotGroupInvertible naming side when
    that fails Y's group equations."""
    yg = c @ xg @ xg @ a
    p2 = y @ yg
    if _drazin_index(y, yg, p2, 1) is None:
        raise NotGroupInvertible(NO_GROUP_INVERSE, side=side)
    return yg, p2


def _witness_from(a: Mat, b: Mat, c: Mat, x: Mat, y: Mat, xg: Mat, yg: Mat, p1: Mat, p2: Mat):
    """Steps 3-6 for a triple with A@B@A == A@C@A, given X = A@B and
    Y = C@A, their group inverses xg and yg and the core projectors
    (P, P') = (X @ xg, Y @ yg).  Returns the witness and (P, P')."""
    ident = Mat.identity(a.ring, a.n)
    k1 = _rank_factorization(ident - p1)
    k2 = _rank_factorization(ident - p2)
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
    wit = SimilarityWitness(W=w, Winv=winv, r1=a.n - k1.r, X=x, Y=y, Xginv=xg, Yginv=yg)
    return wit, (p1, p2)


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
    x, y = a @ b, c @ a
    if mode == "product":
        lhs, rhs = x, y
    elif mode == "core":
        lhs, rhs = (m @ m @ drazin(m).dinv for m in (x, y))
    else:
        lhs, rhs = (group_inverse(m).ginv for m in (x, y))
        if mode == "projector":
            lhs, rhs = x @ lhs, y @ rhs
    return lhs == w @ rhs @ winv


def conjugate_witnesses(a: Mat, b: Mat, c: Mat) -> SimilarityWitness:
    """similarity_witness, whose W is verified to conjugate the products,
    plus verification that the same W transports group inverses, core
    projectors, and cores.

    A returned witness has passed every mode of verify_witness, each
    checked once on the products the construction formed.  Any failure
    of the derived conjugations is a bug, not an input problem, and
    raises InternalAssertion.
    """
    wit, proj = _similarity_witness(a, b, c)
    _derived_conjugations(a, b, c, wit, proj)
    return wit


def _derived_conjugations(a: Mat, b: Mat, c: Mat, wit: SimilarityWitness, proj) -> None:
    """Check that the witness built from the triple also conjugates the
    group inverses, core projectors and cores of its products; proj is
    the pair of core projectors the witness was built from."""
    p1, p2 = proj
    for mode, lhs, rhs in (
        ("ginv", wit.Xginv, wit.Yginv),
        ("projector", p1, p2),
        ("core", wit.X @ p1, wit.Y @ p2),  # X^2 @ X^# == X @ (X @ X^#)
    ):
        if lhs != wit.W @ rhs @ wit.Winv:
            raise InternalAssertion(
                f"constructed witness failed derived conjugation {mode!r}",
                instance=_instance_dump(a, b, c, f"conjugate-{mode}"),
            )


def power_witness(a: Mat, b: Mat, c: Mat, s: int) -> SimilarityWitness:
    """Witness conjugating (A@B)^s to (C@A)^s for s at least max(index, 1).

    Reduces to the base construction on B' = B @ (A@B)^(s-1) and
    C' = (C@A)^(s-1) @ C, whose products and shared-product identity hold
    by associativity.  The floor uses the Drazin inverse D of A@B, of
    index k; ((A@B)^s)^# == D^s, and ((C@A)^s)^# == C' @ (D^s)^2 @ A by
    the exchange formula on the reduced triple when it exists, which at
    s == k it may not: a (C@A)-side failure raises NotGroupInvertible.
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
        raise IndexTooSmall(f"s={s} is below max(index, 1)={floor}", s=s, index=k)
    b2 = b @ x ** (s - 1)
    c2 = y ** (s - 1) @ c
    xs = a @ b2
    ys = c2 @ a
    xsg = dr_ab.dinv ** s
    p1 = xs @ xsg
    if _drazin_index(xs, xsg, p1, 1) is None:
        raise InternalAssertion(
            "((A@B)^D)^s failed the group equations of (A@B)^s despite s >= index",
            instance=_instance_dump(a, b, c, f"power-ab s={s}"),
        )
    # refused legitimately at s == k when index(C@A) == k + 1
    ysg, p2 = _exchange(a, c2, ys, xsg, "CA^s")
    return _witness_from(a, b2, c2, xs, ys, xsg, ysg, p1, p2)[0]


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
    report, wit, _ = _corollary_check(a, b, c, variant)
    return report, wit


def _corollary_check(a: Mat, b: Mat, c: Mat, variant: str):
    """corollary_check with the witness's core projectors: (report,
    witness, (P, P'))."""
    x, y, aba = _shared_products(a, b, c)
    conditions = _variant_conditions(a, b, c, x, y, aba, variant)
    found_x = _group_inverse_attempt(x)
    found_y = _group_inverse_attempt(y)
    report = HypothesisReport(
        aba_equals_aca=True,
        ab_group_invertible=found_x is not None,
        ca_group_invertible=found_y is not None,
        variant_conditions=conditions,
    )
    failed = tuple(name for name, ok in conditions if not ok)
    if failed:
        raise ConditionNotMet(
            "variant conditions failed: " + ", ".join(failed),
            failed=failed,
            report=report,
        )
    if found_x is None or found_y is None:
        raise InternalAssertion(
            "variant conditions hold but a product is not group invertible",
            instance=_instance_dump(a, b, c, f"variant-{variant}"),
        )
    (xg, p1), (yg, p2) = found_x, found_y
    return (report, *_witness_from(a, b, c, x, y, xg, yg, p1, p2))
