"""Acceptance gate: every stated criterion at full strength, exact arithmetic.

Each test runs one criterion suite from ``bezmat.acceptance`` at the
full profile and asserts it passed; its one-line PASS/FAIL summary is
collected and printed in a dedicated terminal section after the run.
All comparisons inside the suites are exact (integer / rational /
polynomial equality) — there are no tolerances to configure.

Wall-clock budgets: the fixture check must finish in under 0.1 seconds
and the witness suite in under 60 seconds; both are asserted here.

The quick profile's stdout, and the lines the fault switches produce,
are pinned word for word: criteria 2-7 report through one case runner,
and this is the text it must keep printing.
"""

import io

import pytest

from bezmat import acceptance, faults

FULL = acceptance.PROFILES["full"]
BASE_SEED = 0


def _run(criterion_fn, acceptance_lines, budget=None):
    res = criterion_fn(base_seed=BASE_SEED, counts=FULL)
    acceptance_lines.append(res.line)
    assert res.passed, res.line
    if budget is not None:
        assert res.duration < budget, (
            f"criterion {res.criterion} took {res.duration:.3f}s, budget {budget}s"
        )
    return res


def test_criterion_1_counterexample_fixture(acceptance_lines):
    _run(acceptance.criterion_1, acceptance_lines, budget=0.1)


def test_criterion_2_witness_identities(acceptance_lines):
    _run(acceptance.criterion_2, acceptance_lines, budget=60.0)


def test_criterion_3_derived_conjugations(acceptance_lines):
    _run(acceptance.criterion_3, acceptance_lines)


def test_criterion_4_power_witnesses_and_exchange(acceptance_lines):
    _run(acceptance.criterion_4, acceptance_lines)


def test_criterion_5_oracle_agreement(acceptance_lines):
    _run(acceptance.criterion_5, acceptance_lines)


def test_criterion_6_normal_form_invariants(acceptance_lines):
    _run(acceptance.criterion_6, acceptance_lines)


def test_criterion_7_condition_variants(acceptance_lines):
    _run(acceptance.criterion_7, acceptance_lines)


def test_criterion_8_negative_path_contract(acceptance_lines):
    _run(acceptance.criterion_8, acceptance_lines)


QUICK_STDOUT = """\
acceptance profile=quick base_seed=0
criterion 1: PASS [n=1] counterexample fixture: witness accepted=True, hypothesis violation with computed products=True
criterion 2: PASS [n=60] similarity witness suite: exact W identities on 60/60, internal assertions: 0
criterion 3: PASS [n=60] derived conjugation suite: same-W conjugation of inverse/projector/core on 60/60
criterion 4: PASS [n=58] power witness suite: power witnesses s in {k,k+1,k+2} on 18/18, exchange formula on 40/40
criterion 5: PASS [n=160] oracle agreement suite: ring/field agreement and exact defining equations on 160/160
criterion 6: PASS [n=450] normal form suite: transform/unimodularity/divisibility/rank invariants on 450/450
criterion 7: PASS [n=128] corollary checker suite: engineered-true witnessed and engineered-false named exactly on 128/128
criterion 8: PASS [n=4] negative-path contract: exit codes 3/2/4/5 with instance dump
acceptance: ALL PASS
"""

FAULT_LINES = (
    ("witness", acceptance.criterion_2,
     "criterion 2: FAIL [n=60] similarity witness suite: first failure: seed 2000000: internal assertion"),
    ("witness", acceptance.criterion_3,
     "criterion 3: FAIL [n=60] derived conjugation suite: first failure: seed 2000000: InternalAssertion"),
    ("witness", acceptance.criterion_4,
     "criterion 4: FAIL [n=58] power witness suite: first failure: seed 4000000: InternalAssertion"),
    ("witness", acceptance.criterion_7,
     "criterion 7: FAIL [n=128] corollary checker suite: first failure: seed 7000000 (cor22): InternalAssertion"),
    ("oracle", acceptance.criterion_5,
     "criterion 5: FAIL [n=160] oracle agreement suite: first failure: seed 5000000 (int): group existence disagrees"),
)


def test_quick_selftest_text_is_pinned():
    out, err = io.StringIO(), io.StringIO()
    passed, _ = acceptance.run_all(profile="quick", out=out, err=err)
    assert passed
    assert out.getvalue() == QUICK_STDOUT
    quick = acceptance.PROFILES["quick"]
    try:
        for fault, criterion, line in FAULT_LINES:
            faults.clear()
            faults.activate(fault)
            assert criterion(BASE_SEED, quick).line == line
    finally:
        faults.clear()
