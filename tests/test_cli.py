"""Command-line interface: exit codes, JSON documents, replayability.

A few tests run the real ``python3 -m bezmat`` entry point in a
subprocess; the rest use the in-process driver for speed.  Expected
exit codes follow the documented contract: 0 success (including
"verified": false), 2 hypothesis/condition failures, 3 nonexistence
over the ring, 4 format/usage errors, 5 internal assertions.
"""

import json
import os
import subprocess
import sys

import pytest

from bezmat.cli import main, run_argv
from bezmat.errors import NotDrazinInvertible, NotGroupInvertible
from bezmat.generate import GenConfig, gen_drazin_triple, gen_flanders_triple
from bezmat.io import dumps_doc, matrix_from_doc, matrix_to_doc
from bezmat.matrix import Mat
from bezmat.rings import ZZ


SWAP_A = {"ring": "int", "rows": 2, "cols": 2, "entries": [["0", "1"], ["0", "0"]]}
SWAP_B = {"ring": "int", "rows": 2, "cols": 2, "entries": [["0", "0"], ["1", "0"]]}
BAD_A = {"ring": "int", "rows": 2, "cols": 2, "entries": [["1", "1"], ["0", "-1"]]}
BAD_B = {"ring": "int", "rows": 2, "cols": 2, "entries": [["1", "1"], ["0", "0"]]}
BAD_C = {"ring": "int", "rows": 2, "cols": 2, "entries": [["1", "-1"], ["0", "0"]]}
BAD_W = {"ring": "int", "rows": 2, "cols": 2, "entries": [["1", "1"], ["0", "1"]]}


@pytest.fixture
def write_doc(tmp_path):
    def _write(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    return _write


def run_json(argv):
    code, out = run_argv(argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# real subprocess entry point
# ---------------------------------------------------------------------------


def test_module_entry_point_rank(write_doc):
    path = write_doc("a.json", SWAP_A)
    proc = subprocess.run(
        [sys.executable, "-m", "bezmat", "rank", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc == {"ring": "int", "rows": 2, "cols": 2, "rank": 1}


def test_module_entry_point_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "bezmat", "frobnicate"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 4


def test_module_entry_point_witness(write_doc):
    a = write_doc("a.json", SWAP_A)
    b = write_doc("b.json", SWAP_B)
    proc = subprocess.run(
        [sys.executable, "-m", "bezmat", "witness", a, b, b],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert matrix_from_doc(doc["W"]) == Mat.from_rows(ZZ, [[0, 1], [1, 0]])
    assert doc["r1"] == 1
    assert all(doc["verified"].values())


_COLD_IMPORT = """
import json, sys
import bezmat.cli
loaded = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import tracer
print(json.dumps({
    "heavy": sorted({"dataclasses", "inspect"} & loaded),
    "untraceable": sorted(
        f"{mod}.{attr}" for mod, attr, *_ in tracer.SPANNED + tracer.COUNTED
        if mod not in loaded or not hasattr(sys.modules[mod], attr)
    ),
}))
"""


def test_cold_import_of_cli_is_light_and_traceable():
    # every CLI request pays for this import; dataclasses pulls in
    # inspect, ast, dis and tokenize.  The benchmark tracer wraps what it
    # finds in sys.modules right after the import, so every module it
    # spans must be loaded eagerly.
    bench = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_IMPORT, bench], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"heavy": [], "untraceable": []}


# ---------------------------------------------------------------------------
# in-process driver: success paths
# ---------------------------------------------------------------------------


def test_hnf_and_smith_docs(write_doc):
    path = write_doc("a.json", {"ring": "int", "rows": 2, "cols": 2, "entries": [["2", "4"], ["1", "3"]]})
    code, doc = run_json(["hnf", path])
    assert code == 0
    assert set(doc) >= {"H", "T", "pivot_rows", "rank"}
    assert doc["rank"] == 2
    code, doc = run_json(["smith", path])
    assert code == 0
    assert doc["diagonal"] == ["1", "2"]
    assert doc["rank"] == 2


def test_hnf_of_zero_row_matrix_has_square_transform(write_doc):
    path = write_doc("e.json", {"ring": "int", "rows": 0, "cols": 3, "entries": []})
    code, doc = run_json(["hnf", path])
    assert code == 0
    assert matrix_from_doc(doc["T"]) == Mat.identity(ZZ, 3)
    assert (doc["H"]["rows"], doc["H"]["cols"], doc["rank"]) == (0, 3, 0)
    code, doc = run_json(["rank", path])
    assert code == 0 and doc["cols"] == 3


def test_ginv_and_drazin_docs(write_doc):
    p = write_doc("x.json", {"ring": "int", "rows": 3, "cols": 3, "entries": [["3", "-1", "1"], ["1", "0", "0"], ["0", "0", "0"]]})
    code, doc = run_json(["ginv", p])
    assert code == 0
    assert matrix_from_doc(doc["ginv"]) == Mat.from_rows(
        ZZ, [[0, 1, -1], [-1, 3, -3], [0, 0, 0]]
    )
    n = write_doc("n.json", {"ring": "int", "rows": 2, "cols": 2, "entries": [["0", "1"], ["0", "0"]]})
    code, doc = run_json(["drazin", n])
    assert code == 0
    assert doc["index"] == 2
    assert matrix_from_doc(doc["dinv"]).is_zero()


def test_witness_derives_each_inverse_once(write_doc, count_calls):
    # X^# is searched once, Y^# comes from it by the exchange formula, W^-1
    # comes from the construction, which also gives X^D and Y^D, and no
    # Smith form is needed anywhere; A@B and C@A are formed once, and
    # each printed identity is evaluated once
    cfg = GenConfig(ring="int", n=12, seed=12, entry_bound=9, core_rank=6)
    tr = gen_flanders_triple(cfg, c_equals_b=False)
    files = [write_doc(name, matrix_to_doc(m)) for name, m in zip("ABC", tr)]
    counts = count_calls(
        ("bezmat.ginverse", "_group_inverse_attempt"),
        ("bezmat.matrix", "inverse_over_ring"),
        ("bezmat.matrix", "det"),
        ("bezmat.normal_forms", "_column_hermite"),
        ("bezmat.normal_forms", "smith"),
        ("bezmat.ginverse", "drazin"),
        ("bezmat.matrix", "Mat.__matmul__"),
    )
    code, doc = run_json(["witness", *files])
    assert code == 0 and doc["r1"] == 6 and all(doc["verified"].values())
    # one det, one Hermite form and one core inversion for X^#, and one
    # Hermite form per rank factorization of I - X@X^# and I - Y@Y^#;
    # W^-1 comes from the construction, not from an inversion
    assert counts["_group_inverse_attempt"] == 1
    assert counts["inverse_over_ring"] == 0
    assert counts["det"] <= 1
    assert counts["_column_hermite"] <= 3
    assert counts["smith"] == 0
    assert counts["drazin"] == 0
    # Y@Y^# is formed once, by the check of Y^#, and handed to the witness
    assert counts["__matmul__"] <= 35
    counts.clear()
    code, doc = run_json(["check", *files, "--variant", "cor22"])
    assert code == 0 and all(doc["witness"]["verified"].values())
    # the hypothesis report searches both products, so that it can give
    # the C@A flag even when A@B has no group inverse
    assert counts["_group_inverse_attempt"] == 2
    assert counts["det"] == 2
    assert counts["_column_hermite"] == 6
    assert counts["__matmul__"] <= 36


@pytest.mark.parametrize("verb,drazin_calls", [("verify-cline", 2), ("witness-power", 1)])
def test_drazin_verbs_derive_each_inverse_once(write_doc, count_calls, verb, drazin_calls):
    # verify-cline needs (A@B)^D and (C@A)^D; witness-power without --s
    # needs (A@B)^D for both the default s and the witness
    cfg = GenConfig(ring="int", n=10, seed=3, entry_bound=9, core_rank=4)
    tr = gen_drazin_triple(cfg, 2, c_equals_b=False)
    files = [write_doc(name, matrix_to_doc(m)) for name, m in zip("ABC", tr)]
    counts = count_calls(
        ("bezmat.ginverse", "drazin"),
        ("bezmat.ginverse", "_group_inverse_attempt"),
        ("bezmat.matrix", "det"),
        ("bezmat.normal_forms", "_column_hermite"),
        ("bezmat.matrix", "Mat.__matmul__"),
    )
    code, doc = run_json([verb, *files])
    assert code == 0
    if verb == "verify-cline":
        assert doc["verified"] is True and doc["index_ab"] == 2
    else:
        assert doc["s"] == 2 and doc["verified"] == {"power_product": True}
        # A@B, A@B' and C'@A are formed once, and the power identity is
        # evaluated once, by the library; (A@B)^s and (C@A)^s take their
        # group inverses from (A@B)^D, the latter by the exchange formula,
        # so no group inverse is searched
        assert counts["_group_inverse_attempt"] == 0
        assert counts["det"] <= 1
        assert counts["_column_hermite"] <= 4
        # the core projectors are formed once each, by the group checks
        assert counts["__matmul__"] <= 40
    assert counts["drazin"] == drazin_calls


def test_verify_true_and_false_both_exit_zero(write_doc):
    a = write_doc("a.json", BAD_A)
    b = write_doc("b.json", BAD_B)
    c = write_doc("c.json", BAD_C)
    w = write_doc("w.json", BAD_W)
    code, doc = run_json(["verify", a, b, c, w])
    assert code == 0
    assert doc == {"mode": "product", "verified": True}
    ident = write_doc("i.json", {"ring": "int", "rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "1"]]})
    code, doc = run_json(["verify", a, b, c, ident])
    assert code == 0
    assert doc == {"mode": "product", "verified": False}


def test_verify_cline_reports_indexes(write_doc):
    a = write_doc("a.json", SWAP_A)
    b = write_doc("b.json", SWAP_B)
    code, doc = run_json(["verify-cline", a, b, b])
    assert code == 0
    assert doc == {"verified": True, "index_ab": 1, "index_ca": 1}


def test_check_variant_success(write_doc):
    a = write_doc("a.json", SWAP_A)
    b = write_doc("b.json", SWAP_B)
    code, doc = run_json(["check", a, b, b, "--variant", "cor22"])
    assert code == 0
    assert doc["variant"] == "cor22"
    assert doc["hypotheses"]["shared_product"] is True
    assert all(cond["holds"] for cond in doc["conditions"])
    assert all(doc["witness"]["verified"].values())


def test_witness_power_default_and_explicit(write_doc):
    a = write_doc("a.json", SWAP_A)
    b = write_doc("b.json", SWAP_B)
    code, doc = run_json(["witness-power", a, b, b])
    assert code == 0
    assert doc["s"] == 1
    assert doc["verified"] == {"power_product": True}
    code, doc = run_json(["witness-power", a, b, b, "--s", "3"])
    assert code == 0
    assert doc["s"] == 3


# ---------------------------------------------------------------------------
# gen: embedded config and exact replay
# ---------------------------------------------------------------------------


def test_gen_bundle_replays_identically(write_doc, tmp_path):
    argv = ["gen", "triple", "--ring", "int", "--n", "3", "--seed", "11", "--core-rank", "2"]
    code1, out1 = run_argv(argv)
    code2, out2 = run_argv(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    bundle = json.loads(out1)
    assert bundle["config"] == {
        "ring": "int",
        "n": 3,
        "seed": 11,
        "entry_bound": 9,
        "core_rank": 2,
    }
    # the bundle's triple feeds straight back into witness
    paths = []
    for key in ("A", "B", "C"):
        p = tmp_path / f"{key}.json"
        p.write_text(dumps_doc(bundle[key]))
        paths.append(str(p))
    code, doc = run_json(["witness", *paths])
    assert code == 0
    assert all(doc["verified"].values())


def test_gen_corollary_false_feeds_check(write_doc, tmp_path):
    code, out = run_argv(["gen", "corollary-false", "--variant", "thm22", "--seed", "3"])
    assert code == 0
    bundle = json.loads(out)
    assert bundle["expected_failed"] == ["Rr(CA)=Rr(CAB)"]
    paths = []
    for key in ("A", "B", "C"):
        p = tmp_path / f"{key}.json"
        p.write_text(dumps_doc(bundle[key]))
        paths.append(str(p))
    code, doc = run_json(["check", *paths, "--variant", "thm22"])
    assert code == 2
    assert doc["error"] == "ConditionNotMet"
    assert doc["failed"] == ["Rr(CA)=Rr(CAB)"]


def test_gen_argument_validation():
    code, out = run_argv(["gen", "drazin", "--index", "0"])
    assert code == 4
    code, out = run_argv(["gen", "drazin", "--n", "2", "--core-rank", "2", "--index", "1"])
    assert code == 4
    code, out = run_argv(["gen", "corollary-false"])  # missing --variant
    assert code == 4


# ---------------------------------------------------------------------------
# failure exit codes
# ---------------------------------------------------------------------------


def test_exit_2_hypothesis_violated_carries_products(write_doc):
    a = write_doc("a.json", BAD_A)
    b = write_doc("b.json", BAD_B)
    c = write_doc("c.json", BAD_C)
    code, doc = run_json(["witness", a, b, c])
    assert code == 2
    assert doc["error"] == "HypothesisViolated"
    assert matrix_from_doc(doc["lhs"]) == Mat.from_rows(ZZ, [[1, 0], [0, 0]])
    assert matrix_from_doc(doc["rhs"]) == Mat.from_rows(ZZ, [[1, 2], [0, 0]])


def test_exit_2_index_too_small(write_doc):
    a = write_doc("a.json", SWAP_A)
    b = write_doc("b.json", SWAP_B)
    code, doc = run_json(["witness-power", a, b, b, "--s", "0"])
    assert code == 2
    assert doc["error"] == "IndexTooSmall"
    assert doc["s"] == 0
    assert doc["index"] == 1


def test_witness_power_reports_errors_in_input_order(write_doc):
    # doubly invalid inputs: witness-power without --s forms A@B and its
    # Drazin inverse before it checks the triple, so a shape error comes
    # from that product, and a product with no Drazin inverse exits 3
    # although the shared-product hypothesis fails as well
    wide = write_doc("w.json", {"ring": "int", "rows": 2, "cols": 3, "entries": [["1", "0", "0"], ["0", "1", "0"]]})
    sq = write_doc("s.json", BAD_B)
    code, doc = run_json(["witness-power", wide, sq, sq])
    assert code == 4
    assert doc == {"error": "DimensionMismatch", "message": "matmul: (2, 3) @ (2, 2)"}
    a = write_doc("a.json", {"ring": "int", "rows": 2, "cols": 2, "entries": [["2", "0"], ["0", "1"]]})
    ident = write_doc("i.json", {"ring": "int", "rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "1"]]})
    zero = write_doc("z.json", {"ring": "int", "rows": 2, "cols": 2, "entries": [["0", "0"], ["0", "0"]]})
    code, doc = run_json(["witness-power", a, ident, zero])
    assert code == 3
    assert doc["error"] == "NotDrazinInvertible"
    # with --s no Drazin inverse is needed first, so the hypothesis fails
    code, doc = run_json(["witness-power", a, ident, zero, "--s", "1"])
    assert code == 2
    assert doc["error"] == "HypothesisViolated"


def test_exit_3_not_group_invertible(write_doc):
    p = write_doc("x.json", {"ring": "int", "rows": 2, "cols": 2, "entries": [["2", "2"], ["2", "2"]]})
    code, doc = run_json(["ginv", p])
    assert code == 3
    assert doc["error"] == "NotGroupInvertible"


def test_exit_3_not_drazin_invertible(write_doc):
    p = write_doc("x.json", {"ring": "int", "rows": 2, "cols": 2, "entries": [["2", "0"], ["0", "1"]]})
    code, doc = run_json(["drazin", p])
    assert code == 3
    assert doc["error"] == "NotDrazinInvertible"


def test_exit_4_format_errors(write_doc, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, doc = run_json(["rank", str(bad)])
    assert code == 4
    assert doc["error"] == "FormatError"
    code, doc = run_json(["rank", str(tmp_path / "missing.json")])
    assert code == 4


def test_exit_5_injected_fault_dumps_instance(write_doc):
    a = write_doc("a.json", SWAP_A)
    b = write_doc("b.json", SWAP_B)
    code, doc = run_json(["witness", a, b, b, "--inject-fault", "witness"])
    assert code == 5
    assert doc["error"] == "InternalAssertion"
    assert doc["instance"]["stage"] == "final"
    assert {"A", "B", "C"} <= set(doc["instance"])
    # the fault switch must not leak into later runs
    code, doc = run_json(["witness", a, b, b])
    assert code == 0


def run_swap_exit_5(write_doc, argv):
    """Run a verb on the swap triple (A, B, B) and return the dump of the
    internal assertion it must stop with."""
    a = write_doc("a.json", SWAP_A)
    b = write_doc("b.json", SWAP_B)
    code, doc = run_json([argv[0], a, b, b, *argv[1:]])
    assert code == 5
    assert doc["error"] == "InternalAssertion"
    assert {"A", "B", "C"} <= set(doc["instance"])
    return doc["instance"]


@pytest.mark.parametrize("extra", [[], ["--variant", "cor22"]], ids=["witness", "check"])
def test_exit_5_derived_conjugation_failure_dumps_instance(write_doc, monkeypatch, extra):
    # the library verifies the derived conjugations of the witness it
    # prints; a failure there is an internal assertion of the library's
    # own stage, with the triple in the dump
    from bezmat import similarity

    witness_from = similarity._witness_from

    def yginv_off_by_one(*args):
        wit, proj = witness_from(*args)
        y = wit.Yginv
        return wit._replace(Yginv=y + Mat.diagonal(y.ring, [1], y.m, y.n)), proj

    monkeypatch.setattr(similarity, "_witness_from", yginv_off_by_one)
    instance = run_swap_exit_5(write_doc, ["check" if extra else "witness", *extra])
    assert instance["stage"] == "conjugate-ginv"


def test_exit_5_cline_losing_drazin_invertibility_dumps_instance(write_doc, monkeypatch):
    # (C@A)^D exists whenever (A@B)^D does; a failure of the second
    # Drazin inverse is the library's own fault
    from bezmat import similarity

    real = similarity.drazin
    calls = []

    def second_fails(x):
        calls.append(x)
        if len(calls) == 2:
            raise NotDrazinInvertible("injected")
        return real(x)

    monkeypatch.setattr(similarity, "drazin", second_fails)
    assert run_swap_exit_5(write_doc, ["verify-cline"])["stage"] == "cline"


def test_exit_5_variant_without_group_inverse_dumps_instance(write_doc, monkeypatch):
    # cor22 holds on the swap triple, so both products must be group
    # invertible; a product reported otherwise contradicts the theory
    from bezmat import similarity

    monkeypatch.setattr(similarity, "_group_inverse_attempt", lambda x: None)
    instance = run_swap_exit_5(write_doc, ["check", "--variant", "cor22"])
    assert instance["stage"] == "variant-cor22"


def test_exit_5_power_not_group_invertible_dumps_instance(write_doc, monkeypatch):
    # ((A@B)^D)^s is the group inverse of (A@B)^s for every s >= index(A@B);
    # a Drazin inverse off by one entry must fail its group equations
    from bezmat import similarity

    real = similarity.drazin

    def off_by_one(x):
        res = real(x)
        return res._replace(dinv=res.dinv + Mat.diagonal(x.ring, [1], x.m, x.n))

    monkeypatch.setattr(similarity, "drazin", off_by_one)
    instance = run_swap_exit_5(write_doc, ["witness-power", "--s", "2"])
    assert instance["stage"] == "power-ab s=2"
    # the dump replays: its own triple stops at the same stage
    files = [write_doc(f"{name}.json", instance[name]) for name in "ABC"]
    code, doc = run_json(["witness-power", *files, "--s", "2"])
    assert code == 5 and doc["instance"] == instance


def test_main_returns_code_without_exiting(write_doc):
    a = write_doc("a.json", SWAP_A)
    assert main(["rank", a]) == 0
    assert main(["rank", "/nonexistent/170x.json"]) == 4
