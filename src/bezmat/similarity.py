"""Unimodular similarity certificates for products sharing a middle factor.

Setting: square matrices A, B, C over the ring with

    A @ B @ A == A @ C @ A,

and both X = A@B and Y = C@A group invertible.  Then X and Y are
similar, and the similarity can be realized by an explicitly invertible
W over the ring.  The construction here is block-free to state and
fully checkable at runtime:

  1. The shared-product identity gives the intertwining X @ A == A @ Y.
  2. Compute group inverses X^#, Y^#.
  3. Core-split both: X == H1 @ diag(M1, 0) @ H1^-1 and
     Y == H2 @ diag(M2, 0) @ H2^-1 with M1, M2 invertible r1 x r1.
  4. At = H1^-1 @ A @ H2 then has zero off-diagonal blocks, because
     diag(M1, 0) @ At == At @ diag(M2, 0) and the cores are invertible.
  5. The top-left block At11 is invertible over the ring: with
     Q = Y @ Y^# @ B @ X^#, the identity A @ Q == X @ X^# (a consequence
     of the intertwining and the group-inverse equations) forces
     At11 @ G11 == I for G11 the top-left block of H2^-1 @ Q @ H1.
  6. W  = H1 @ diag(At11, I) @ H2^-1 and
     Winv = H2 @ diag(G11, I) @ H1^-1 satisfy W @ Winv == I and
     A@B == W @ (C@A) @ Winv; both are verified before returning.

Every step that the underlying theory guarantees is asserted; a failed
assertion raises InternalAssertion with a replayable instance dump,
never a silent wrong answer.  The degenerate rank-0 case yields
W = H1 @ H2^-1 through the same code path.
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
from .ginverse import _core_split_with, _group_inverse_attempt, drazin, group_inverse
from .matrix import Mat, block_diag, inverse_over_ring, split_blocks
from .normal_forms import col_module_equal


class SimilarityWitness(namedtuple(
    "SimilarityWitness", "W Winv r1 X Y H1 H2 Acore AcoreInv Xginv Yginv"
)):
    """W with X == W @ Y @ Winv for the products X = A@B and Y = C@A of
    the triple it was built from (for a power witness, (A@B)^s and
    (C@A)^s), with the pieces of its construction; Xginv and Yginv are
    the group inverses of X and Y."""

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
    ring = a.ring
    n = a.n
    cs1 = _core_split_with(x, xg)
    cs2 = _core_split_with(y, yg)
    if cs1.r != cs2.r:
        raise InternalAssertion(
            "similar products reported different core ranks",
            instance=_instance_dump(a, b, c, "core-rank"),
        )
    r1 = cs1.r
    h1, h2 = cs1.H, cs2.H
    h1inv, h2inv = cs1.Hinv, cs2.Hinv

    at = h1inv @ a @ h2
    at11, at12, at21, _ = split_blocks(at, r1)
    if not (at12.is_zero() and at21.is_zero()):
        raise InternalAssertion(
            "transformed middle factor has nonzero off-diagonal blocks",
            instance=_instance_dump(a, b, c, "block-zeroing"),
        )

    q = y @ yg @ b @ xg
    g = h2inv @ q @ h1
    g11, g12, g21, g22 = split_blocks(g, r1)
    if not (g12.is_zero() and g21.is_zero() and g22.is_zero()):
        raise InternalAssertion(
            "inverse candidate is not supported on the cores",
            instance=_instance_dump(a, b, c, "support"),
        )
    ident_r = Mat.identity(ring, r1)
    if faults.active("witness") or at11 @ g11 != ident_r or g11 @ at11 != ident_r:
        raise InternalAssertion(
            "core block of the middle factor failed to invert",
            instance=_instance_dump(a, b, c, "core-inverse"),
        )

    ident_tail = Mat.identity(ring, n - r1)
    w = h1 @ block_diag(at11, ident_tail) @ h2inv
    winv = h2 @ block_diag(g11, ident_tail) @ h1inv
    if w @ winv != Mat.identity(ring, n) or w @ y @ winv != x:
        raise InternalAssertion(
            "witness failed final verification",
            instance=_instance_dump(a, b, c, "final"),
        )
    return SimilarityWitness(
        W=w,
        Winv=winv,
        r1=r1,
        X=x,
        Y=y,
        H1=h1,
        H2=h2,
        Acore=at11,
        AcoreInv=g11,
        Xginv=xg,
        Yginv=yg,
    )


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
    are given: they are then also X^D and Y^D.
    """
    ver = {}
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
            elif mode == "projector":
                lhs, rhs = x @ xg, y @ yg
            else:
                lhs, rhs = x @ x @ xg, y @ y @ yg
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
