"""Deterministic instance generation.

The splitmix64 reference outputs below are the widely published test
vector for seed 0 (first three 64-bit outputs), so any reimplementation
of the generator can be validated against the same constants.
"""

import hashlib
import json
import random

import pytest

from bezmat.errors import ConditionNotMet, InternalAssertion
from bezmat.generate import (
    GenConfig,
    GeneratedTriple,
    _FIRST_BLOCK,
    _MAX_BLOCK,
    SplitMix64,
    _random_unimodular,
    gen_corollary_false,
    gen_corollary_true,
    gen_drazin_triple,
    gen_flanders_triple,
    gen_group_invertible,
    random_matrix,
    random_unimodular,
)
from bezmat.ginverse import _drazin_index, drazin, is_group_invertible
from bezmat.io import matrix_to_doc
from bezmat.matrix import Mat, det, inverse_over_ring
from bezmat.normal_forms import col_module_equal, left_kernel_basis, rank, right_kernel_basis
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


class ScalarSplitMix64:
    """The generate module docstring's algorithm, one output per step:
    the reference that SplitMix64's block draws must reproduce."""

    def __init__(self, seed):
        self.state = seed % 2**64

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) % 2**64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        return z ^ (z >> 31)

    def below(self, n):
        return self.next_u64() % n

    def int_in(self, lo, hi):
        return lo + self.next_u64() % (hi - lo + 1)

    def ints(self, count, lo, hi):
        return [self.int_in(lo, hi) for _ in range(count)]

    def choice(self, seq):
        return seq[self.below(len(seq))]


# counts around the first block and the block cap, and the draws of a
# 48 x 48 integer matrix
COUNTS = [0, 1, 2, 50, _FIRST_BLOCK - 1, _FIRST_BLOCK, _FIRST_BLOCK + 1, _MAX_BLOCK + 1, 2304]


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("lo, hi", [(-9, 9), (1, 1), (0, 1 << 70)], ids=["entries", "one-value", "wide"])
def test_splitmix64_ints_is_repeated_int_in(count, lo, hi):
    # ints(count, ...) is count calls of int_in, and every draw method, in
    # any interleaving and across block refills, hands out the outputs and
    # leaves the state of the scalar algorithm
    for seed in (0, 2**64 - 1, 2**64 + 5):
        batched, single = SplitMix64(seed), ScalarSplitMix64(seed)
        assert batched.ints(count, lo, hi) == [single.int_in(lo, hi) for _ in range(count)]
        assert batched.state == single.state
        pick = random.Random(f"{seed} {count} {lo} {hi}")
        for _ in range(30):
            name = pick.choice(("next_u64", "below", "int_in", "choice", "ints"))
            args = {
                "next_u64": (),
                "below": (pick.randint(1, 40),),
                "int_in": (lo, hi),
                "choice": ("abcdefg"[:pick.randint(1, 7)],),
                "ints": (pick.choice(COUNTS), lo, hi),
            }[name]
            assert getattr(batched, name)(*args) == getattr(single, name)(*args), (name, args)
            assert batched.state == single.state, (name, args)


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
@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_random_matrix_zero_sized_shapes(ring_name, shape):
    a = random_matrix(GenConfig(ring=ring_name, n=3, seed=1), m=shape[0], n=shape[1])
    assert a.shape == shape
    assert a.rows == ((),) * shape[0]


@pytest.mark.parametrize("ring_name", ["int", "rat", "polyrat"])
def test_random_unimodular_has_unit_determinant(ring_name):
    ring = get_ring(ring_name)
    bound = 3 if ring_name != "polyrat" else 2
    for seed in range(5):
        u = random_unimodular(GenConfig(ring=ring_name, n=3, seed=seed, entry_bound=bound))
        assert ring.is_unit(det(u))


@pytest.mark.parametrize("ring_name", ["int", "rat", "polyrat"])
@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_random_unimodular_carries_its_inverse(ring_name, n):
    ring = get_ring(ring_name)
    for seed in range(4):
        h, hinv = _random_unimodular(ring, SplitMix64(seed), n)
        assert h.shape == hinv.shape == (n, n)
        assert hinv == inverse_over_ring(h)


def test_random_unimodular_checks_with_one_product(count_calls):
    # H @ H^-1 == I makes H^-1 @ H == I for square matrices
    counts = count_calls(("bezmat.matrix", "Mat.__matmul__"))
    random_unimodular(GenConfig(ring="int", n=5, seed=2))
    assert counts["__matmul__"] == 1


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
        # the aligned-core family has no rejection loop
        assert t.retries == 0
        if c_equals_b:
            assert c == b


def test_gen_flanders_triple_deterministic():
    cfg = GenConfig(ring="int", n=3, seed=77, core_rank=2)
    t1 = gen_flanders_triple(cfg, False)
    t2 = gen_flanders_triple(cfg, False)
    assert (t1.A, t1.B, t1.C) == (t2.A, t2.B, t2.C)
    assert isinstance(t1, GeneratedTriple)


@pytest.mark.parametrize("ring_name", ["int", "rat", "polyrat"])
def test_perturbation_factors_span_the_kernels(ring_name, monkeypatch):
    # the perturbation takes ker A from the construction's own unimodular
    # factors: they must annihilate A and generate its whole kernels
    from bezmat import generate

    seen = []
    perturbation = generate._perturbation

    def capture(ring, rng, right, left, bound):
        seen.append((right, left))
        return perturbation(ring, rng, right, left, bound)

    monkeypatch.setattr(generate, "_perturbation", capture)
    bound = 2 if ring_name == "polyrat" else 9

    def cfg(n, seed, r):
        return GenConfig(ring=ring_name, n=n, seed=seed, entry_bound=bound, core_rank=r)

    makes = [lambda r=r: gen_flanders_triple(cfg(3, 30 + r, r), False) for r in range(4)]
    makes += [lambda k=k: gen_drazin_triple(cfg(k + 2, 40 + k, 1), k, False) for k in (1, 2, 3)]
    for make in makes:
        seen.clear()
        a = make().A
        right, left = seen[-1]  # the call that made the returned C
        assert (a @ right).is_zero() and right.m == a.n
        assert (left @ a).is_zero() and left.n == a.n
        assert col_module_equal(right, right_kernel_basis(a))
        assert col_module_equal(left.transpose(), left_kernel_basis(a).transpose())


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gen_drazin_triple_index_is_exact(k):
    cfg = GenConfig(ring="int", n=k + 2, seed=5 * k, core_rank=1, entry_bound=4)
    t = gen_drazin_triple(cfg, k, c_equals_b=False)
    a, b, c = t
    assert a @ b @ a == a @ c @ a
    assert drazin(a @ b).index == k
    assert drazin(c @ a).index <= max(k, 1)


def test_gen_drazin_triple_does_not_retry_on_missing_drazin_inverse(monkeypatch):
    # C@A has the Drazin inverse C @ ((A@B)^D)^2 @ A whenever A@B has one,
    # so a candidate failing the Drazin equations of C@A is a fault to
    # report, not a draw to reject
    from bezmat import generate

    calls = []

    def ca_fails(x, d, xd, last):
        calls.append(x)
        if len(calls) == 2:  # A@B first, then C@A
            return None
        return _drazin_index(x, d, xd, last)

    monkeypatch.setattr(generate, "_drazin_index", ca_fails)
    cfg = GenConfig(ring="int", n=4, seed=1, core_rank=1, entry_bound=4)
    with pytest.raises(InternalAssertion, match="exchange formula"):
        gen_drazin_triple(cfg, 2, c_equals_b=False)
    assert len(calls) == 2


@pytest.mark.parametrize("ring_name", ["int", "rat", "polyrat"])
def test_generators_check_their_construction_without_searching(ring_name, count_calls):
    # the constructions carry A@B's inverse (H1 @ diag(MB^-1 MA^-1, 0) @
    # H1^-1) and C@A's follows by the exchange formula, so the guards
    # check the Drazin equations and never search for an inverse
    bound = 2 if ring_name == "polyrat" else 9
    counts = count_calls(
        ("bezmat.matrix", "det"),
        ("bezmat.normal_forms", "_column_hermite"),
        ("bezmat.ginverse", "drazin"),
        ("bezmat.ginverse", "_group_inverse_attempt"),
    )
    for seed in range(3):
        cfg = GenConfig(ring=ring_name, n=5, seed=seed, entry_bound=bound, core_rank=2)
        gen_flanders_triple(cfg, c_equals_b=False)
        gen_drazin_triple(cfg, 2, c_equals_b=False)
    for name in ("det", "_column_hermite", "drazin", "_group_inverse_attempt"):
        assert counts[name] == 0, name


def test_generator_self_checks_survive_optimized_mode(monkeypatch):
    # the generators check their own constructions with exceptions, not
    # assert statements, so the checks also run under python -O
    from bezmat import generate

    cfg = GenConfig(ring="int", n=4, seed=1, core_rank=1, entry_bound=4)
    with monkeypatch.context() as m:
        # every product off by e_00, as H @ H^-1 is for a wrong carried inverse
        matmul = Mat.__matmul__
        m.setattr(Mat, "__matmul__", lambda a, b: matmul(a, b) + Mat.diagonal(a.ring, [1], a.m, b.n))
        with pytest.raises(InternalAssertion, match="carried unimodular inverse"):
            random_unimodular(cfg)
        with pytest.raises(InternalAssertion, match="carried unimodular inverse"):
            gen_drazin_triple(cfg, 2, c_equals_b=False)
    with monkeypatch.context() as m:
        m.setattr(generate, "_drazin_index", lambda x, d, xd, last: 5)
        with pytest.raises(InternalAssertion, match="ind"):
            gen_drazin_triple(cfg, 2, c_equals_b=False)
    with monkeypatch.context() as m:
        m.setattr(generate, "_drazin_index", lambda x, d, xd, last: None)
        with pytest.raises(InternalAssertion, match="group invertible"):
            gen_flanders_triple(GenConfig(ring="int", n=4, seed=1, core_rank=2), False)
    monkeypatch.setattr(
        generate, "_perturbation", lambda ring, rng, right, left, bound: Mat.identity(ring, right.m)
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


# sha256 of the matrix_to_doc JSON of one instance per family and ring,
# recorded before the batched draws and carried inverses went in; the
# C != B rows (c_equals_b=False and the Drazin rows) re-recorded when the
# perturbations began to take ker A from the construction's factors.  The
# 48 x 48 and 8 x 8 matrices, which span many generator blocks, were
# recorded before the draws were computed in blocks.  Any change to the
# stream, the draw order or the constructions shows here.
REPLAY_DIGESTS = {
    ('int', 'random_matrix'): '95c27daa6e55185f7e9f6d12ce8c85a351c25868ec5afbc2121d159149f4e6b4',
    ('int', 'random_matrix 2x5'): 'bcb4de0bcc3477d1c48323268db1cff3bff3de0734faa447713b00381929c766',
    ('int', 'random_matrix 48x48'): 'feebf579522424982de87084a5b45d047635e0a786f2afb8ca2351c6fa55e202',
    ('int', 'random_unimodular'): '3d9d23b460f528b862491b32bdc9faee379fdfbf872e57d5e0c4657960778a8f',
    ('int', 'gen_group_invertible'): 'c2c99d78b502752adcf91b04b200a764daf6f65b892f264fc75f89b76d7f5e5b',
    ('int', 'gen_flanders_triple c_equals_b=True'): '0cc9071a042c161804a1dfa5f1b7bdf07ba7e7a336dd8c75518d0c21d0d88d25',
    ('int', 'gen_flanders_triple c_equals_b=False'): '748f58150ea47e792948205cf2593fed9b104ccb1a78f70b9a0c0764b9f0ddc9',
    ('int', 'gen_drazin_triple k=1'): 'c62a32fbb414e74422c637ef2c09d70dfd01aa4563c00d70416bb9568c20e585',
    ('int', 'gen_drazin_triple k=2'): '4b237491d6ecff77624e65e6e84ba5757139a353fd8f133faa404701fb229710',
    ('int', 'gen_drazin_triple k=3'): '9f87a5a7d768bddd3cb56b0b3953a24e82660ff06074c5c675ac36709a1d2a2f',
    ('int', 'gen_corollary_false cor22'): '5af81df30df57aeb20604b99002bffd3e6c5c601eb93eb4e45cb1cfaad80efea',
    ('int', 'gen_corollary_false cor23'): '0d1f17f2db3fa0147d50ab541a5b28a74c83616110dbd84fc9a842b38a1d72af',
    ('int', 'gen_corollary_false thm22'): '914a245b1c4ace455783c45278d3cee44ea3b25f2361a2b862bce4aaf33e95a0',
    ('int', 'gen_corollary_false cor24'): 'b491f5164aca043a4bec4900248e1eeaf37ad1652eb73c8a51087aff7f828e9b',
    ('rat', 'random_matrix'): 'db28a3ece094e1939f8d0b39d340f114e40ef44f8c5c5a7e527f1005262d090d',
    ('rat', 'random_matrix 2x5'): 'b021279b7f8e2c4dd9b0de92810ee81c5725a0edb772ee50c6034c52a17017d7',
    ('rat', 'random_unimodular'): '493a325db594c36736c140d7147a28ffff2cba106f78cdfa626d7cb78126e3a3',
    ('rat', 'gen_group_invertible'): '7a3af1b6a7894a84adaa967c89c4f83825ec70af95923b6ce547251b89d7c522',
    ('rat', 'gen_flanders_triple c_equals_b=True'): '88c12ac5570e2f01315a0a4e2035af73871fb73f7918ca653b9844248fd4489b',
    ('rat', 'gen_flanders_triple c_equals_b=False'): 'dd7f129c26b35572f9c0e02111accf55d52528d5d4bb928bd461c912b9d47b71',
    ('rat', 'gen_drazin_triple k=1'): '72dbf4877019c2e45b96a729b8ba849c8d51199941e83f629cae3956da6231f9',
    ('rat', 'gen_drazin_triple k=2'): '21f160e0fcff80d9506aa6a6880c80a99e103f133803aa664b755b85650cd35e',
    ('rat', 'gen_drazin_triple k=3'): 'ad39366c854a212cb3a57572ec8d509956b1230fd524a8f04f5bc3a1004f4ffd',
    ('polyrat', 'random_matrix'): '923e146a4e8e9a48f9fd03da9a00e9933a1fa16564040a7f117e4e37532d46e5',
    ('polyrat', 'random_matrix 2x5'): '49ae70fa9107cce0ac5014e9baf316015ceb5b119440b4f62016a0935ce04ba1',
    ('polyrat', 'random_matrix 8x8'): '1ef49fcab2816d4eaa483baada86d232179c95fa8378b1f5edfb98e608b9dbb0',
    ('polyrat', 'random_unimodular'): '137cd54cd674c4e1f3c1091a6a3dc74a6716eb6755f534ca8833d49089e7f925',
    ('polyrat', 'gen_group_invertible'): '185180a8986e7d8340653502816aca85e3636b7658486d32f94dcafaaecea163',
    ('polyrat', 'gen_flanders_triple c_equals_b=True'): '8bd6202035d40c26cc2eb95e4b7a6e8b975a082b33215eceafef179346ec0f01',
    ('polyrat', 'gen_flanders_triple c_equals_b=False'): '641ea2762ee90b24723e05270c704a60f5be1cd9e0cbdf567ca7878bfb3ec455',
    ('polyrat', 'gen_drazin_triple k=1'): '67523e398cdb9b7876a71dd8f47671cb05503c52f9de828b8a7dbb76843f2483',
    ('polyrat', 'gen_drazin_triple k=2'): '187e405e4cdcb85570b26daa877f5c055710c52755f85547b033f1f2d9adca02',
    ('polyrat', 'gen_drazin_triple k=3'): 'bd66b0d2bd1523ff1c2d38b00fb918feb8785a453e7e9d893877eafe34cd8f0e',
}


def _replay_digest(*mats):
    doc = json.dumps([matrix_to_doc(m) for m in mats], sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def _replay_instances(ring_name):
    bound = 2 if ring_name == "polyrat" else 9

    def cfg(n, seed, r=1):
        return GenConfig(ring=ring_name, n=n, seed=seed, entry_bound=bound, core_rank=r)

    yield "random_matrix", random_matrix(cfg(4, 11))
    yield "random_matrix 2x5", random_matrix(cfg(4, 12), m=2, n=5)
    # many generator blocks: 2,304 draws over Z, a few hundred over Q[x]
    if ring_name == "int":
        yield "random_matrix 48x48", random_matrix(GenConfig(ring="int", n=48, seed=21, entry_bound=9))
    if ring_name == "polyrat":
        yield "random_matrix 8x8", random_matrix(GenConfig(ring="polyrat", n=8, seed=22, entry_bound=9))
    yield "random_unimodular", random_unimodular(cfg(5, 13))
    yield "gen_group_invertible", gen_group_invertible(cfg(4, 14, 2))
    for c_equals_b in (True, False):
        yield f"gen_flanders_triple c_equals_b={c_equals_b}", *gen_flanders_triple(cfg(4, 15, 2), c_equals_b)
    for k in (1, 2, 3):
        yield f"gen_drazin_triple k={k}", *gen_drazin_triple(cfg(k + 2, 16 + k), k, c_equals_b=False)
    if ring_name == "int":
        for variant in ("cor22", "cor23", "thm22", "cor24"):
            yield f"gen_corollary_false {variant}", *gen_corollary_false(cfg(4, 20), variant)[:3]


@pytest.mark.parametrize("ring_name", ["int", "rat", "polyrat"])
def test_instances_replay_bit_for_bit(ring_name):
    got = {(ring_name, name): _replay_digest(*mats) for name, *mats in _replay_instances(ring_name)}
    assert got == {key: d for key, d in REPLAY_DIGESTS.items() if key[0] == ring_name}
