"""Similarity witnesses: construction, verification, power and variant forms.

Fixture values (witness matrices, failing-condition names, Drazin
exchange results) were computed independently by hand and frozen here.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bezmat import faults
from bezmat.errors import (
    ConditionNotMet,
    DimensionMismatch,
    HypothesisViolated,
    IndexTooSmall,
    InternalAssertion,
    NotDrazinInvertible,
    NotGroupInvertible,
    NotInvertibleOverRing,
    NotSquare,
    RingMismatch,
)
from bezmat.generate import (
    GenConfig,
    SplitMix64,
    _random_matrix,
    gen_corollary_true,
    gen_drazin_triple,
    gen_flanders_triple,
)
from bezmat.ginverse import drazin, group_inverse
from bezmat.matrix import Mat, inverse_over_ring
from bezmat.normal_forms import left_kernel_basis, right_kernel_basis
from bezmat.rings import QQ, ZZ, get_ring
from bezmat.similarity import (
    VARIANTS,
    check_hypotheses,
    cline_verify,
    conjugate_witnesses,
    corollary_check,
    power_witness,
    similarity_witness,
    verify_witness,
)


def mat(rows):
    return Mat.from_rows(ZZ, rows)


# The "swap" triple: A@B and C@A are the two coordinate projectors,
# conjugate by the permutation that swaps the axes.
SWAP_A = [[0, 1], [0, 0]]
SWAP_B = [[0, 0], [1, 0]]
SWAP_C = [[0, 0], [1, 0]]

# A triple whose shared-product identity fails, with a hand-checked W
# that nevertheless conjugates C@A to A@B.
BAD_A = [[1, 1], [0, -1]]
BAD_B = [[1, 1], [0, 0]]
BAD_C = [[1, -1], [0, 0]]
BAD_W = [[1, 1], [0, 1]]

# A@B == 0 (group invertible), C@A nilpotent nonzero (index two):
# the one-sided index jump the power machinery must report cleanly.
JUMP_A = [[0, 1], [0, 0]]
JUMP_B = [[0, 0], [0, 0]]
JUMP_C = [[1, 0], [0, 0]]


def swap_triple():
    return mat(SWAP_A), mat(SWAP_B), mat(SWAP_C)


def jump_triple():
    return mat(JUMP_A), mat(JUMP_B), mat(JUMP_C)


# ---------------------------------------------------------------------------
# base witness
# ---------------------------------------------------------------------------


def test_witness_frozen_swap():
    a, b, c = swap_triple()
    wit = similarity_witness(a, b, c)
    assert wit.W == mat([[0, 1], [1, 0]])
    assert wit.Winv == mat([[0, 1], [1, 0]])
    assert wit.r1 == 1
    assert wit.W @ wit.Winv == Mat.identity(ZZ, 2)
    assert a @ b == wit.W @ (c @ a) @ wit.Winv


def test_witness_identity_triple():
    i = Mat.identity(ZZ, 3)
    wit = similarity_witness(i, i, i)
    assert wit.r1 == 3
    assert wit.W @ (i) @ wit.Winv == i


def test_witness_zero_core():
    # both products zero: the degenerate rank-0 path
    a, b, c = jump_triple()
    z = Mat.zeros(ZZ, 2, 2)
    wit = similarity_witness(a, z, z)
    assert wit.r1 == 0
    # P and P' vanish, and I - P == I factors as I @ I on both sides
    assert wit.W == wit.Winv == Mat.identity(ZZ, 2)


def test_witness_full_core():
    # A@B is unimodular, so P == P' == I, the kernel terms are empty,
    # W == P @ A @ P' == A and W^-1 == Q == B @ (A@B)^-1 == A^-1
    a, b = mat([[2, 1], [1, 1]]), mat([[1, 1], [0, 1]])
    wit = similarity_witness(a, b, b)
    assert wit.r1 == 2
    assert wit.W == a
    assert wit.Winv == mat([[1, -1], [-1, 2]])


def test_witness_hypothesis_violated_carries_products():
    a, b, c = mat(BAD_A), mat(BAD_B), mat(BAD_C)
    with pytest.raises(HypothesisViolated) as exc_info:
        similarity_witness(a, b, c)
    assert exc_info.value.lhs == mat([[1, 0], [0, 0]])
    assert exc_info.value.rhs == mat([[1, 2], [0, 0]])


def test_witness_group_invertibility_failure_names_side():
    a, b, c = jump_triple()
    with pytest.raises(NotGroupInvertible) as exc_info:
        similarity_witness(a, b, c)
    assert exc_info.value.side == "CA"
    # mirrored failure on the other side
    with pytest.raises(NotGroupInvertible) as exc_info2:
        similarity_witness(a.transpose(), c.transpose(), b.transpose())
    assert exc_info2.value.side == "AB"


def test_witness_input_validation():
    a, b, c = swap_triple()
    with pytest.raises(NotSquare):
        similarity_witness(Mat.zeros(ZZ, 2, 3), b, c)
    with pytest.raises(DimensionMismatch):
        similarity_witness(a, Mat.identity(ZZ, 3), c)
    bq = Mat.from_rows(QQ, [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)]])
    with pytest.raises(RingMismatch):
        similarity_witness(a, bq, c)


def test_witness_rational_ring():
    a, b, c = (
        Mat.from_rows(QQ, [[Fraction(e) for e in row] for row in rows])
        for rows in (SWAP_A, SWAP_B, SWAP_C)
    )
    wit = similarity_witness(a, b, c)
    assert a @ b == wit.W @ (c @ a) @ wit.Winv


# ---------------------------------------------------------------------------
# verify_witness
# ---------------------------------------------------------------------------


def test_verify_does_not_need_shared_product():
    a, b, c = mat(BAD_A), mat(BAD_B), mat(BAD_C)
    assert verify_witness(a, b, c, mat(BAD_W), mode="product") is True


def test_verify_wrong_witness_is_false_not_error():
    a, b, c = swap_triple()
    assert verify_witness(a, b, c, Mat.identity(ZZ, 2)) is False


def test_verify_all_modes_on_constructed_witness():
    a, b, c = swap_triple()
    wit = similarity_witness(a, b, c)
    for mode in ("product", "ginv", "projector", "core"):
        assert verify_witness(a, b, c, wit.W, mode=mode) is True


def test_verify_rejects_bad_inputs():
    a, b, c = swap_triple()
    with pytest.raises(DimensionMismatch):
        verify_witness(a, b, c, Mat.identity(ZZ, 3))
    with pytest.raises(NotInvertibleOverRing):
        verify_witness(a, b, c, mat([[2, 0], [0, 1]]))
    with pytest.raises(ValueError):
        verify_witness(a, b, c, Mat.identity(ZZ, 2), mode="nonsense")


def test_conjugate_witnesses_same_w():
    a, b, c = swap_triple()
    wit = conjugate_witnesses(a, b, c)
    assert wit.W == similarity_witness(a, b, c).W


@st.composite
def flanders_configs(draw):
    ring = draw(st.sampled_from(["int", "rat", "polyrat"]))
    n = draw(st.integers(1, 4 if ring == "polyrat" else 6))
    core_rank = draw(st.integers(0, n))
    seed = draw(st.integers(0, 10**6))
    return GenConfig(ring=ring, n=n, seed=seed, entry_bound=3, core_rank=core_rank)


@settings(max_examples=60, deadline=None)
@given(cfg=flanders_configs(), c_equals_b=st.booleans())
def test_generated_witness_verifies_in_every_mode(cfg, c_equals_b):
    a, b, c = gen_flanders_triple(cfg, c_equals_b=c_equals_b)
    wit = conjugate_witnesses(a, b, c)
    assert wit.r1 == cfg.core_rank
    for mode in ("product", "ginv", "projector", "core"):
        assert verify_witness(a, b, c, wit.W, mode=mode) is True


# ---------------------------------------------------------------------------
# power witnesses and the Drazin exchange formula
# ---------------------------------------------------------------------------


def test_power_witness_at_floor_and_above():
    a, b, c = swap_triple()
    for s in (1, 2, 3):
        wit = power_witness(a, b, c, s)
        assert (a @ b) ** s == wit.W @ ((c @ a) ** s) @ wit.Winv


def test_power_witness_floor_enforced():
    a, b, c = swap_triple()
    with pytest.raises(IndexTooSmall) as exc_info:
        power_witness(a, b, c, 0)
    assert exc_info.value.s == 0
    assert exc_info.value.index == 1


def test_power_witness_index_jump_fails_at_k_succeeds_at_k_plus_one():
    # index(A@B) == 1 but index(C@A) == 2: s == 1 must fail on the
    # C@A side with the side recorded, s == 2 must succeed.
    a, b, c = jump_triple()
    with pytest.raises(NotGroupInvertible) as exc_info:
        power_witness(a, b, c, 1)
    assert exc_info.value.side == "CA^s"
    wit = power_witness(a, b, c, 2)
    assert (a @ b) ** 2 == wit.W @ ((c @ a) ** 2) @ wit.Winv


@pytest.mark.parametrize("ring_name", ["int", "rat", "polyrat"])
@pytest.mark.parametrize("c_equals_b", [True, False])
def test_power_witness_group_inverses_match_index_search(ring_name, c_equals_b):
    # (A@B)^s takes its group inverse from (A@B)^D; the index search on
    # each power, which power_witness no longer runs for (A@B)^s, is the
    # reference for both sides
    bound = 2 if ring_name == "polyrat" else 9
    for k in (1, 2, 3):
        cfg = GenConfig(ring=ring_name, n=k + 2, seed=16 + k, entry_bound=bound, core_rank=1)
        a, b, c = gen_drazin_triple(cfg, k, c_equals_b)
        for s in (max(k, 1), k + 1, k + 2):
            wit = power_witness(a, b, c, s)
            assert wit.Xginv == group_inverse((a @ b) ** s).ginv
            assert wit.Yginv == group_inverse((c @ a) ** s).ginv
            assert wit.X == wit.W @ wit.Y @ wit.Winv


def _outcome(make, side):
    """("ok", Y^#) from make(), or the refusal's (type, side, message),
    naming side when the refusal does not name one."""
    try:
        return "ok", make()
    except NotGroupInvertible as exc:
        return type(exc).__name__, exc.side or side, str(exc)


def _kernel_perturbed_triples(ring_name, count):
    """count triples (A, B, B + N) with A of rank 1..n-1 for n = 2..4 and
    A @ N @ A == 0, N drawn from A's right and left kernel bases."""
    ring = get_ring(ring_name)
    for i in range(count):
        n = 2 + i % 3
        rng = SplitMix64(7919 * n + i // 3)
        r = 1 + rng.below(n - 1)
        a = _random_matrix(ring, rng, n, r, 1) @ _random_matrix(ring, rng, r, n, 1)
        b = _random_matrix(ring, rng, n, n, 1)
        right, left = right_kernel_basis(a), left_kernel_basis(a)
        noise = right @ _random_matrix(ring, rng, right.n, n, 1)
        yield a, b, b + noise + _random_matrix(ring, rng, n, left.m, 1) @ left


def _generated_triples():
    for ring_name in ("int", "rat", "polyrat"):
        bound = 2 if ring_name == "polyrat" else 9
        for seed in range(3):
            for n in (3, 4):
                cfg = GenConfig(ring=ring_name, n=n, seed=seed, entry_bound=bound, core_rank=n - 2)
                yield gen_flanders_triple(cfg, c_equals_b=bool(seed % 2))
                yield gen_drazin_triple(cfg, 2, c_equals_b=bool(seed % 2))


def test_exchange_formula_inverses_match_index_search():
    # similarity_witness and power_witness take (C@A)^# and ((C@A)^s)^#
    # from (A@B)'s inverse by the exchange formula; the index search on
    # C@A and (C@A)^s is the reference for every inverse and refusal
    triples = [
        *_generated_triples(),
        *_kernel_perturbed_triples("int", 900),
        *_kernel_perturbed_triples("rat", 300),
    ]
    refusals = {"CA": 0, "CA^s": 0}
    for a, b, c in triples:
        x, y = a @ b, c @ a
        try:
            group_inverse(x)
        except NotGroupInvertible:
            pass
        else:
            got = _outcome(lambda: similarity_witness(a, b, c).Yginv, None)
            assert got == _outcome(lambda: group_inverse(y).ginv, "CA")
            refusals["CA"] += got[0] != "ok"
        try:
            k = drazin(x).index
        except NotDrazinInvertible:
            continue
        for s in (max(k, 1), max(k, 1) + 1):
            got = _outcome(lambda: power_witness(a, b, c, s).Yginv, None)
            assert got == _outcome(lambda: group_inverse(y ** s).ginv, "CA^s")
            refusals["CA^s"] += got[0] != "ok"
    assert min(refusals.values()) >= 20, refusals


def test_power_witness_checks_shared_product():
    a, b, c = mat(BAD_A), mat(BAD_B), mat(BAD_C)
    with pytest.raises(HypothesisViolated):
        power_witness(a, b, c, 1)


def test_cline_exchange_on_swap():
    a, b, c = swap_triple()
    assert cline_verify(a, b, c) is True
    # hand value: (C@A)^D == C @ ((A@B)^D)^2 @ A == diag(0, 1)
    assert c @ a == mat([[0, 0], [0, 1]])


def test_cline_exchange_on_index_jump():
    assert cline_verify(*jump_triple()) is True


def test_cline_checks_shared_product():
    a, b, c = mat(BAD_A), mat(BAD_B), mat(BAD_C)
    with pytest.raises(HypothesisViolated):
        cline_verify(a, b, c)


# ---------------------------------------------------------------------------
# hypothesis report and sufficient-condition variants
# ---------------------------------------------------------------------------


def test_check_hypotheses_reports():
    rep = check_hypotheses(*swap_triple())
    assert rep.aba_equals_aca
    assert rep.ab_group_invertible and rep.ca_group_invertible

    rep2 = check_hypotheses(mat(BAD_A), mat(BAD_B), mat(BAD_C))
    assert not rep2.aba_equals_aca

    rep3 = check_hypotheses(*jump_triple())
    assert rep3.aba_equals_aca
    assert rep3.ab_group_invertible
    assert not rep3.ca_group_invertible


def test_reports_give_the_ca_flag_when_ab_has_no_group_inverse():
    # A@B is nilpotent of index 2 while C@A == 0: the reports search C@A
    # on its own rather than derive it from an A@B inverse that is missing
    a, b = mat([[0, 1], [0, 0]]), mat([[0, 0], [0, 1]])
    rep = check_hypotheses(a, b, b)
    assert rep.aba_equals_aca
    assert not rep.ab_group_invertible and rep.ca_group_invertible
    with pytest.raises(ConditionNotMet) as exc_info:
        corollary_check(a, b, b, "cor22")
    rep = exc_info.value.report
    assert not rep.ab_group_invertible and rep.ca_group_invertible


def test_corollary_check_true_on_all_variants():
    a, b, c = swap_triple()
    for variant in VARIANTS:
        report, wit = corollary_check(a, b, c, variant)
        assert all(ok for _, ok in report.variant_conditions)
        assert a @ b == wit.W @ (c @ a) @ wit.Winv


@pytest.mark.parametrize("variant", VARIANTS)
def test_corollary_check_witness_verifies_in_every_mode(variant):
    # corollary_check certifies its witness as conjugate_witnesses does
    for i in range(6):
        n = 2 + i % 3
        cfg = GenConfig(ring="int", n=n, seed=7_000 + i, entry_bound=9, core_rank=i % (n + 1))
        a, b, c = gen_corollary_true(cfg, c_equals_b=i % 2 == 0)
        _, wit = corollary_check(a, b, c, variant)
        for mode in ("product", "ginv", "projector", "core"):
            assert verify_witness(a, b, c, wit.W, mode=mode) is True


def test_corollary_check_raises_on_a_failed_derived_conjugation(monkeypatch):
    from bezmat import similarity

    witness_from = similarity._witness_from

    def yginv_off_by_one(*args):
        wit = witness_from(*args)
        y = wit.Yginv
        return wit._replace(Yginv=y + Mat.diagonal(y.ring, [1], y.m, y.n))

    monkeypatch.setattr(similarity, "_witness_from", yginv_off_by_one)
    with pytest.raises(InternalAssertion) as exc_info:
        corollary_check(*swap_triple(), "cor22")
    assert exc_info.value.instance["stage"] == "conjugate-ginv"


def test_corollary_check_failed_names_are_exact():
    a, b, c = jump_triple()
    expected = {
        "cor22": ("Rr(A)=Rr(ABA)",),
        "cor23": ("Rr(A)=Rr(AB)",),
        "thm22": ("Rr(CA)=Rr(CAB)",),
        "cor24": ("Rr(A)=Rr(AC)", "Rr(A)=Rr(ABA)"),
    }
    for variant, failed in expected.items():
        with pytest.raises(ConditionNotMet) as exc_info:
            corollary_check(a, b, c, variant)
        assert exc_info.value.failed == failed
        assert exc_info.value.report.variant_conditions


def test_corollary_check_rejects_unknown_variant_and_bad_triple():
    a, b, c = swap_triple()
    with pytest.raises(ValueError):
        corollary_check(a, b, c, "cor99")
    with pytest.raises(HypothesisViolated):
        corollary_check(mat(BAD_A), mat(BAD_B), mat(BAD_C), "cor22")


# ---------------------------------------------------------------------------
# fault injection
# ---------------------------------------------------------------------------


def test_witness_fault_raises_internal_assertion_with_dump():
    a, b, c = swap_triple()
    faults.activate("witness")
    try:
        with pytest.raises(InternalAssertion) as exc_info:
            similarity_witness(a, b, c)
    finally:
        faults.clear()
    dump = exc_info.value.instance
    assert dump is not None
    assert {"A", "B", "C", "stage"} <= set(dump)
    assert dump["stage"] == "final"
    # switch off: construction succeeds again
    assert similarity_witness(a, b, c).r1 == 1


def test_unequal_core_ranks_raise_internal_assertion(monkeypatch):
    # the two rank factorizations cannot disagree on valid input; if they
    # do, the construction stops with a dump instead of building W
    from bezmat import similarity

    real = similarity._rank_factorization
    calls = []

    def second_rank_off(m):
        calls.append(m)
        rf = real(m)
        return rf._replace(r=rf.r + 1) if len(calls) == 2 else rf

    monkeypatch.setattr(similarity, "_rank_factorization", second_rank_off)
    with pytest.raises(InternalAssertion) as exc_info:
        similarity_witness(*swap_triple())
    assert exc_info.value.instance["stage"] == "core-rank"
