"""Acceptance suites: one callable per criterion, plus a runner.

Each suite returns a SuiteResult whose `line` is a deterministic
one-line summary (no timings — those go to stderr), so two runs with
the same profile and base seed print byte-identical stdout.  Per-
instance seeds are derived as  base_seed + criterion * 1_000_000 + i,
so any failure message pinpoints a replayable GenConfig.  Every
criterion streams its cases through one runner, ``_suite``: criterion 1
a frozen fixture, criteria 2-7 generated instances and criterion 8
requests to the in-process CLI.

Profiles:
  quick — reduced counts for a fast smoke run;
  full  — the contract scale (500 similarity triples, 100 index-k
          triples, 200 exchange-formula triples, 500 oracle matrices
          per ring, 1000 normal-form matrices per ring, 200 engineered
          triples per corollary variant).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from collections import namedtuple
from functools import partial

from .errors import (
    BezmatError,
    ConditionNotMet,
    HypothesisViolated,
    InternalAssertion,
    NotDrazinInvertible,
    NotGroupInvertible,
)
from . import faults
from .cli import run_argv
from .field_oracle import fraction_field_oracle
from .generate import (
    GenConfig,
    gen_corollary_false,
    gen_corollary_true,
    gen_drazin_triple,
    gen_flanders_triple,
    random_matrix,
)
from .ginverse import drazin, group_inverse
from .io import dumps_doc, matrix_to_doc
from .matrix import Mat, det
from .normal_forms import column_hermite, rank, row_hermite, smith
from .rings import ZZ, get_ring
from .similarity import VARIANTS, corollary_check, cline_verify, power_witness, similarity_witness, verify_witness


class SuiteResult(namedtuple("SuiteResult", "criterion name passed count detail duration")):
    __slots__ = ()

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.criterion}: {status} [n={self.count}] {self.name}: {self.detail}"


PROFILES = {
    "quick": {
        "triples": 60,
        "drazin": 18,
        "cline": 40,
        "oracle": 80,
        "normal": 150,
        "corollary": 24,
    },
    "full": {
        "triples": 500,
        "drazin": 102,
        "cline": 200,
        "oracle": 500,
        "normal": 1000,
        "corollary": 200,
    },
}


def _seed(base: int, criterion: int, i: int) -> int:
    return base + criterion * 1_000_000 + i


def _mat(rows) -> Mat:
    return Mat.from_rows(ZZ, rows)


# --------------------------------------------------------------- criterion 1


def _counterexample_case():
    a = _mat([[1, 1], [0, -1]])
    b = _mat([[1, 1], [0, 0]])
    c = _mat([[1, -1], [0, 0]])
    if not verify_witness(a, b, c, _mat([[1, 1], [0, 1]]), mode="product"):
        return "witness rejected"
    try:
        similarity_witness(a, b, c)
    except HypothesisViolated as exc:
        if exc.lhs == _mat([[1, 0], [0, 0]]) and exc.rhs == _mat([[1, 2], [0, 0]]):
            return None
        return "hypothesis violation with other products"
    return "no hypothesis violation"


def criterion_1(base_seed: int = 0, counts: dict | None = None) -> SuiteResult:
    """Frozen counterexample fixture: a triple whose shared-product
    hypothesis fails with specific computed products, while a claimed
    witness matrix still passes the product-mode verification (showing
    verification is independent of the construction hypotheses)."""
    summary = "witness accepted=True, hypothesis violation with computed products=True"
    return _suite(1, "counterexample fixture", [("fixture", _counterexample_case)], summary)


# ----------------------------------------------------------------- suites


def _suite(criterion: int, name: str, cases, summary: str) -> SuiteResult:
    """Run one criterion's cases and summarise them in one line.

    A case is ``(label, check, *args)``: ``check(*args)`` returns None
    when the case passes, or else the reason it failed; a BezmatError
    fails the case with its class name.  Every case runs.  The detail is
    `summary` when all pass, else the first failure with its label.
    """
    t0 = time.perf_counter()
    count = 0
    first = None
    for label, check, *args in cases:
        count += 1
        try:
            reason = check(*args)
        except BezmatError as exc:
            reason = type(exc).__name__
        if reason is not None and first is None:
            first = f"{label}: {reason}"
    detail = summary if first is None else f"first failure: {first}"
    return SuiteResult(criterion, name, first is None, count, detail, time.perf_counter() - t0)


def _conjugates(tr, wit) -> bool:
    """W @ W^-1 == I and A@B == W @ (C@A) @ W^-1, checked afresh."""
    ident = Mat.identity(tr.A.ring, tr.A.n)
    return wit.W @ wit.Winv == ident and tr.A @ tr.B == wit.W @ (tr.C @ tr.A) @ wit.Winv


# ------------------------------------------------------- criteria 2 and 3


def _flanders_cases(base_seed: int, count: int, check):
    """Deterministic stream of integer triples, n <= 5, entries within
    [-9, 9], alternating the C == B and C != B regimes."""
    for i in range(count):
        n = 1 + i % 5
        cfg = GenConfig(
            ring="int", n=n, seed=_seed(base_seed, 2, i), entry_bound=9, core_rank=i % (n + 1)
        )
        yield f"seed {cfg.seed}", check, cfg, i % 2 == 0


def _witness_case(cfg: GenConfig, c_equals_b: bool):
    try:
        tr = gen_flanders_triple(cfg, c_equals_b)
        wit = similarity_witness(tr.A, tr.B, tr.C)
    except InternalAssertion:
        return "internal assertion"
    if not _conjugates(tr, wit):
        return "witness identity failed"
    return None


def criterion_2(base_seed: int = 0, counts: dict | None = None) -> SuiteResult:
    total = (counts or PROFILES["quick"])["triples"]
    summary = f"exact W identities on {total}/{total}, internal assertions: 0"
    return _suite(2, "similarity witness suite", _flanders_cases(base_seed, total, _witness_case), summary)


def _derived_case(cfg: GenConfig, c_equals_b: bool):
    tr = gen_flanders_triple(cfg, c_equals_b)
    wit = similarity_witness(tr.A, tr.B, tr.C)
    for mode in ("ginv", "projector", "core"):
        if not verify_witness(tr.A, tr.B, tr.C, wit.W, mode=mode):
            return f"mode {mode} failed"
    return None


def criterion_3(base_seed: int = 0, counts: dict | None = None) -> SuiteResult:
    """On the same instance stream as criterion 2, the identical W must
    also transport group inverses, core projectors, and cores."""
    total = (counts or PROFILES["quick"])["triples"]
    summary = f"same-W conjugation of inverse/projector/core on {total}/{total}"
    return _suite(3, "derived conjugation suite", _flanders_cases(base_seed, total, _derived_case), summary)


# ------------------------------------------------------------- criterion 4


def _power_case(cfg: GenConfig, k: int, c_equals_b: bool):
    tr = gen_drazin_triple(cfg, k, c_equals_b=c_equals_b)
    ab = tr.A @ tr.B
    ca = tr.C @ tr.A
    dr = drazin(ab)
    if dr.index != k:
        return f"index {dr.index} != {k}"
    for s in (max(k, 1), k + 1, k + 2):
        wit = power_witness(tr.A, tr.B, tr.C, s)
        lhs = ab ** s
        if lhs != wit.W @ (ca ** s) @ wit.Winv:
            return f"power witness s={s} failed"
        # proof identities at the matrix level
        ds = dr.dinv ** s
        if lhs @ ds != ab @ dr.dinv:
            return f"power projector identity s={s}"
        if group_inverse(lhs).ginv != ds:
            return f"power group-inverse identity s={s}"
    return None


def _cline_case(make_triple):
    tr = make_triple()
    # the verdict includes index(C@A) <= index(A@B) + 1
    if not cline_verify(tr.A, tr.B, tr.C):
        return "exchange formula failed"
    return None


def _power_and_exchange_cases(base_seed: int, total: int, cline_total: int):
    for i in range(total):
        k = 1 + i % 3
        n = 3 + i % 3
        core = max(0, n - k - (i % 2))
        if n - core < k:
            core = n - k
        cfg = GenConfig(
            ring="int", n=n, seed=_seed(base_seed, 4, i), entry_bound=9, core_rank=core
        )
        yield f"seed {cfg.seed}", _power_case, cfg, k, i % 2 == 0
    for i in range(cline_total):
        sd = _seed(base_seed, 4, 500_000 + i)
        c_equals_b = i % 4 < 2
        if i % 2 == 0:
            k = 1 + i % 3
            n = 3 + i % 3
            cfg = GenConfig(ring="int", n=n, seed=sd, entry_bound=9, core_rank=n - k)
            make = partial(gen_drazin_triple, cfg, k, c_equals_b=c_equals_b)
        else:
            n = 2 + i % 4
            cfg = GenConfig(ring="int", n=n, seed=sd, entry_bound=9, core_rank=i % (n + 1))
            make = partial(gen_flanders_triple, cfg, c_equals_b=c_equals_b)
        yield f"seed {sd}", _cline_case, make


def criterion_4(base_seed: int = 0, counts: dict | None = None) -> SuiteResult:
    counts = counts or PROFILES["quick"]
    total = counts["drazin"]
    cline_total = counts["cline"]
    summary = (
        f"power witnesses s in {{k,k+1,k+2}} on {total}/{total}, "
        f"exchange formula on {cline_total}/{cline_total}"
    )
    cases = _power_and_exchange_cases(base_seed, total, cline_total)
    return _suite(4, "power witness suite", cases, summary)


# ------------------------------------------------------------- criterion 5


def _check_defining_equations(x: Mat, g: Mat, k: int) -> bool:
    """X@G == G@X, G@X@G == G and X^(k+1)@G == X^k; k = 1 gives the
    group equations, since X@G@X == X^2@G once X and G commute."""
    return x @ g == g @ x and g @ x @ g == g and (x ** (k + 1)) @ g == x ** k


def _oracle_case(x: Mat):
    rep = fraction_field_oracle(x)
    try:
        rg = group_inverse(x).ginv
    except NotGroupInvertible:
        rg = None
    if (rg is not None) != bool(rep.group_exists and rep.group_integral):
        return "group existence disagrees"
    if rg is not None:
        if rg != rep.group_ring:
            return "group value disagrees"
        if not _check_defining_equations(x, rg, 1):
            return "group equations"
    try:
        dr = drazin(x)
    except NotDrazinInvertible:
        dr = None
    if (dr is not None) != rep.drazin_integral:
        return "drazin existence disagrees"
    if dr is not None:
        if dr.index != rep.drazin_index or dr.dinv != rep.drazin_ring:
            return "drazin value disagrees"
        if not _check_defining_equations(x, dr.dinv, dr.index):
            return "drazin equations"
    return None


_ORACLE_PLANS = (("int", 5, 9), ("polyrat", 4, 2))


def _oracle_cases(base_seed: int, per_ring: int):
    for ring_name, max_n, bound in _ORACLE_PLANS:
        for i in range(per_ring):
            sd = _seed(base_seed, 5, i if ring_name == "int" else 500_000 + i)
            cfg = GenConfig(ring=ring_name, n=1 + i % max_n, seed=sd, entry_bound=bound, core_rank=0)
            yield f"seed {sd} ({ring_name})", _oracle_case, random_matrix(cfg)


def criterion_5(base_seed: int = 0, counts: dict | None = None) -> SuiteResult:
    per_ring = (counts or PROFILES["quick"])["oracle"]
    total = per_ring * len(_ORACLE_PLANS)
    summary = f"ring/field agreement and exact defining equations on {total}/{total}"
    return _suite(5, "oracle agreement suite", _oracle_cases(base_seed, per_ring), summary)


# ------------------------------------------------------------- criterion 6


def _normal_form_case(x: Mat):
    ring = x.ring
    hr = column_hermite(x)
    if x @ hr.T != hr.H:
        return "transform identity"
    if not ring.is_unit(det(hr.T)):
        return "T not unimodular"
    if column_hermite(hr.H).H != hr.H:
        return "HNF not idempotent"
    sr = smith(x)
    if sr.U @ sr.S @ sr.V != x:
        return "Smith reconstruction"
    if not (ring.is_unit(det(sr.U)) and ring.is_unit(det(sr.V))):
        return "U/V not unimodular"
    diag = sr.diagonal()
    if any(not ring.divides(diag[j], diag[j + 1]) for j in range(len(diag) - 1)):
        return "divisibility chain"
    if not (len(hr.pivot_rows) == len(row_hermite(x).pivot_cols) == len(diag)):
        return "rank notions disagree"
    if x.is_zero() and rank(x) != 0:
        return "rank(0) != 0"
    return None


_NORMAL_PLANS = (("int", 5, 9, 0), ("rat", 4, 9, 400_000), ("polyrat", 3, 2, 800_000))


def _normal_form_cases(base_seed: int, per_ring: int):
    for ring_name, max_n, bound, offset in _NORMAL_PLANS:
        ring = get_ring(ring_name)
        for i in range(per_ring):
            sd = _seed(base_seed, 6, offset + i)
            m = 1 + i % max_n
            n = 1 + (i // max_n) % max_n
            if i % 97 == 0:
                x = Mat.zeros(ring, m, n)
            else:
                cfg = GenConfig(ring=ring_name, n=n, seed=sd, entry_bound=bound, core_rank=0)
                x = random_matrix(cfg, m=m, n=n)
            yield f"seed {sd} ({ring_name})", _normal_form_case, x


def criterion_6(base_seed: int = 0, counts: dict | None = None) -> SuiteResult:
    per_ring = (counts or PROFILES["quick"])["normal"]
    total = per_ring * len(_NORMAL_PLANS)
    summary = f"transform/unimodularity/divisibility/rank invariants on {total}/{total}"
    return _suite(6, "normal form suite", _normal_form_cases(base_seed, per_ring), summary)


# ------------------------------------------------------------- criterion 7


def _corollary_true_case(cfg: GenConfig, variant: str, c_equals_b: bool):
    tr = gen_corollary_true(cfg, c_equals_b=c_equals_b)
    report, wit = corollary_check(tr.A, tr.B, tr.C, variant)
    if not all(ok for _, ok in report.variant_conditions):
        return "engineered-true condition failed"
    if not (report.ab_group_invertible and report.ca_group_invertible):
        return "group invertibility not confirmed"
    if not _conjugates(tr, wit):
        return "witness identity failed"
    return None


def _corollary_false_case(cfg: GenConfig, variant: str):
    a, b, c, expected = gen_corollary_false(cfg, variant)
    try:
        corollary_check(a, b, c, variant)
    except ConditionNotMet as exc:
        if exc.failed != expected:
            return f"failed {exc.failed} != expected {expected}"
        return None
    return "expected ConditionNotMet"


def _corollary_cases(base_seed: int, per_variant: int, false_per_variant: int):
    for vi, variant in enumerate(VARIANTS):
        for i in range(per_variant):
            sd = _seed(base_seed, 7, vi * 200_000 + i)
            n = 2 + i % 3
            cfg = GenConfig(ring="int", n=n, seed=sd, entry_bound=9, core_rank=i % (n + 1))
            yield f"seed {sd} ({variant})", _corollary_true_case, cfg, variant, i % 2 == 0
        for i in range(false_per_variant):
            sd = _seed(base_seed, 7, vi * 200_000 + 100_000 + i)
            cfg = GenConfig(ring="int", n=2 + i % 3, seed=sd, entry_bound=5, core_rank=1)
            yield f"seed {sd} ({variant})", _corollary_false_case, cfg, variant


def criterion_7(base_seed: int = 0, counts: dict | None = None) -> SuiteResult:
    per_variant = (counts or PROFILES["quick"])["corollary"]
    false_per_variant = max(8, per_variant // 4)
    total = (per_variant + false_per_variant) * len(VARIANTS)
    summary = f"engineered-true witnessed and engineered-false named exactly on {total}/{total}"
    cases = _corollary_cases(base_seed, per_variant, false_per_variant)
    return _suite(7, "corollary checker suite", cases, summary)


# ------------------------------------------------------------- criterion 8


def _exit_case(argv, expected: int):
    """Run argv through the in-process CLI; an exit 5 must also carry a
    replayable instance dump."""
    code, out = run_argv(argv)
    if code != expected:
        return f"exit {code}"
    if code == 5 and not {"A", "B", "C"} <= set(json.loads(out).get("instance", ())):
        return "no replayable dump"
    return None


def _contract_cases():
    """One CLI request per exit code, on files in a temporary directory
    that stays open until the last case has run."""
    with tempfile.TemporaryDirectory() as tmp:
        def write(name, obj) -> str:
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(obj if isinstance(obj, str) else dumps_doc(matrix_to_doc(_mat(obj))))
            return path

        bad = write("x.json", [[2, 0], [0, 0]])
        yield "group-noninvertible exit 3", _exit_case, ["ginv", bad], 3
        a = write("a.json", [[1, 1], [0, -1]])
        b = write("b.json", [[1, 1], [0, 0]])
        c = write("c.json", [[1, -1], [0, 0]])
        yield "hypothesis-violated exit 2", _exit_case, ["witness", a, b, c], 2
        mal = write("mal.json", "{ this is not json")
        yield "malformed file exit 4", _exit_case, ["rank", mal], 4
        sa = write("sa.json", [[0, 1], [0, 0]])
        sb = write("sb.json", [[0, 0], [1, 0]])
        faults.clear()
        yield (
            "injected fault exit 5 with replayable dump",
            _exit_case,
            ["witness", sa, sb, sb, "--inject-fault", "witness"],
            5,
        )
        faults.clear()


def criterion_8(base_seed: int = 0, counts: dict | None = None) -> SuiteResult:
    """Exit-code contract, exercised through the in-process CLI runner."""
    summary = "exit codes 3/2/4/5 with instance dump"
    return _suite(8, "negative-path contract", _contract_cases(), summary)


# ----------------------------------------------------------------- runner


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
)


def run_all(profile: str = "quick", base_seed: int = 0, out=None, err=None):
    """Run every criterion; returns (all_passed, results).  Summary
    lines go to `out` (deterministic); timings go to `err`."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    counts = PROFILES[profile]
    results = []
    print(f"acceptance profile={profile} base_seed={base_seed}", file=out)
    for fn in CRITERIA:
        res = fn(base_seed, counts)
        results.append(res)
        print(res.line, file=out)
        print(f"criterion {res.criterion}: {res.duration:.2f}s", file=err)
    all_passed = all(r.passed for r in results)
    print("acceptance: " + ("ALL PASS" if all_passed else "FAILURES PRESENT"), file=out)
    return all_passed, results
