"""Deterministic instance generation.

The splitmix64 reference outputs below are the widely published test
vector for seed 0 (first three 64-bit outputs), so any reimplementation
of the generator can be validated against the same constants.
"""

import pytest

from bezmat.errors import ConditionNotMet, InternalAssertion
from bezmat.generate import (
    GenConfig,
    GeneratedTriple,
    SplitMix64,
    _kernel_basis,
    gen_corollary_false,
    gen_corollary_true,
    gen_drazin_triple,
    gen_flanders_triple,
    gen_group_invertible,
    random_matrix,
    random_unimodular,
)
from bezmat.ginverse import drazin, is_group_invertible
from bezmat.matrix import Mat, det
from bezmat.normal_forms import rank, right_kernel_basis
from bezmat.rings import get_ring
from bezmat.similarity import VARIANTS, corollary_check


def test_splitmix64_reference_vector():
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix64_helpers_in_range():
    rng = SplitMix64(42)
    for _ in range(200):
        assert 0 <= rng.below(7) < 7
        assert -3 <= rng.int_in(-3, 5) <= 5
    assert SplitMix64(1).choice("abc") in "abc"


def test_splitmix64_seed_masking():
    # seeds are reduced mod 2^64; equal residues give equal streams
    assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()


@pytest.mark.parametrize("ring_name", ["int", "rat", "polyrat"])
def test_random_matrix_deterministic_and_bounded(ring_name):
    bound = 4 if ring_name != "polyrat" else 2
    cfg = GenConfig(ring=ring_name, n=3, seed=7, entry_bound=bound)
    a = random_matrix(cfg)
    assert a == random_matrix(cfg)
    assert a != random_matrix(GenConfig(ring=ring_name, n=3, seed=8, entry_bound=bound))
    assert a.shape == (3, 3)
    for row in a.rows:
        for e in row:
            if ring_name == "int":
                assert abs(e) <= bound
            elif ring_name == "rat":
                assert abs(e.numerator) <= bound and 1 <= e.denominator <= bound
            else:
                assert e.degree <= bound


def test_random_matrix_rectangular():
    cfg = GenConfig(ring="int", n=3, seed=1)
    a = random_matrix(cfg, m=2, n=5)
    assert a.shape == (2, 5)


@pytest.mark.parametrize("ring_name", ["int", "rat", "polyrat"])
def test_random_unimodular_has_unit_determinant(ring_name):
    ring = get_ring(ring_name)
    bound = 3 if ring_name != "polyrat" else 2
    for seed in range(5):
        u = random_unimodular(GenConfig(ring=ring_name, n=3, seed=seed, entry_bound=bound))
        assert ring.is_unit(det(u))


def test_gen_group_invertible_rank_and_property():
    for r in (0, 1, 2, 3):
        cfg = GenConfig(ring="int", n=3, seed=10 + r, core_rank=r)
        x = gen_group_invertible(cfg)
        assert rank(x) == r
        assert is_group_invertible(x)
    with pytest.raises(ValueError):
        gen_group_invertible(GenConfig(n=2, core_rank=3))


@pytest.mark.parametrize("c_equals_b", [False, True])
def test_gen_flanders_triple_properties(c_equals_b):
    for seed in range(6):
        cfg = GenConfig(ring="int", n=3 + seed % 2, seed=seed, core_rank=1 + seed % 2)
        t = gen_flanders_triple(cfg, c_equals_b)
        a, b, c = t
        assert a @ b @ a == a @ c @ a
        assert is_group_invertible(a @ b)
        assert is_group_invertible(c @ a)
        # the aligned-core family never hits the rejection loop
        assert t.retries == 0
        if c_equals_b:
            assert c == b


def test_gen_flanders_triple_deterministic():
    cfg = GenConfig(ring="int", n=3, seed=77, core_rank=2)
    t1 = gen_flanders_triple(cfg, False)
    t2 = gen_flanders_triple(cfg, False)
    assert (t1.A, t1.B, t1.C) == (t2.A, t2.B, t2.C)
    assert isinstance(t1, GeneratedTriple)


def test_perturbation_kernel_basis_is_fixed():
    # The kernel basis is part of the instance definition, so it must not
    # follow the library's Hermite transform, which gives another basis
    # of the same kernel here.
    a = Mat.from_rows(get_ring("int"), [[4, -2, 1, 3], [-3, -4, 3, 0]])
    kb = _kernel_basis(a)
    assert kb.rows == ((2, -9), (15, -63), (22, -93), (0, 1))
    assert right_kernel_basis(a) != kb
    assert a @ kb == Mat.zeros(get_ring("int"), 2, 2)
    assert _kernel_basis(Mat.zeros(get_ring("int"), 0, 2)) == Mat.identity(get_ring("int"), 2)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gen_drazin_triple_index_is_exact(k):
    cfg = GenConfig(ring="int", n=k + 2, seed=5 * k, core_rank=1, entry_bound=4)
    t = gen_drazin_triple(cfg, k, c_equals_b=False)
    a, b, c = t
    assert a @ b @ a == a @ c @ a
    assert drazin(a @ b).index == k
    assert drazin(c @ a).index <= max(k, 1)


def test_generator_self_checks_survive_optimized_mode(monkeypatch):
    # the generators check their own constructions with exceptions, not
    # assert statements, so the checks also run under python -O
    from bezmat import generate
    from bezmat.ginverse import DrazinResult

    cfg = GenConfig(ring="int", n=4, seed=1, core_rank=1, entry_bound=4)
    with monkeypatch.context() as m:
        m.setattr(generate, "drazin", lambda x: DrazinResult(index=5, dinv=x))
        with pytest.raises(InternalAssertion, match="ind"):
            gen_drazin_triple(cfg, 2, c_equals_b=False)
    monkeypatch.setattr(
        generate, "_perturbation", lambda ring, rng, a, bound: Mat.identity(ring, a.n)
    )
    with pytest.raises(InternalAssertion, match="perturbation"):
        gen_flanders_triple(GenConfig(ring="int", n=4, seed=1, core_rank=2), False)
    with pytest.raises(InternalAssertion, match="perturbation"):
        gen_drazin_triple(cfg, 2, c_equals_b=False)


def test_gen_drazin_triple_argument_validation():
    with pytest.raises(ValueError):
        gen_drazin_triple(GenConfig(n=3, core_rank=1), 0, False)
    with pytest.raises(ValueError):
        # chain of index 3 needs n - core_rank >= 3
        gen_drazin_triple(GenConfig(n=3, core_rank=1), 3, False)


def test_gen_corollary_true_satisfies_all_variants():
    for seed in range(4):
        cfg = GenConfig(ring="int", n=3, seed=seed, core_rank=1)
        a, b, c = gen_corollary_true(cfg)
        for variant in VARIANTS:
            report, wit = corollary_check(a, b, c, variant)
            assert all(ok for _, ok in report.variant_conditions)
            assert a @ b == wit.W @ (c @ a) @ wit.Winv


@pytest.mark.parametrize("variant", VARIANTS)
def test_gen_corollary_false_names_match(variant):
    for seed in range(6):
        cfg = GenConfig(ring="int", n=3, seed=seed)
        a, b, c, expected_failed = gen_corollary_false(cfg, variant)
        assert a @ b @ a == a @ c @ a
        with pytest.raises(ConditionNotMet) as exc_info:
            corollary_check(a, b, c, variant)
        assert exc_info.value.failed == expected_failed


def test_gen_corollary_false_argument_validation():
    with pytest.raises(ValueError):
        gen_corollary_false(GenConfig(ring="rat", n=3), "cor22")
    with pytest.raises(ValueError):
        gen_corollary_false(GenConfig(ring="int", n=1), "cor22")
    with pytest.raises(ValueError):
        gen_corollary_false(GenConfig(ring="int", n=3), "cor99")


def test_gen_config_round_trip_dict():
    cfg = GenConfig(ring="polyrat", n=4, seed=9, entry_bound=2, core_rank=2)
    assert GenConfig(**cfg.to_dict()) == cfg
