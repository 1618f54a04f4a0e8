"""Acceptance suites: one callable per criterion, plus a runner.

Each suite returns a SuiteResult whose `line` is a deterministic
one-line summary (no timings — those go to stderr), so two runs with
the same profile and base seed print byte-identical stdout.  Per-
instance seeds are derived as  base_seed + criterion * 1_000_000 + i,
so any failure message pinpoints a replayable GenConfig.

Profiles:
  quick — reduced counts for a fast smoke run;
  full  — the contract scale (500 similarity triples, 100 index-k
          triples, 200 exchange-formula triples, 500 oracle matrices
          per ring, 1000 normal-form matrices per ring, 200 engineered
          triples per corollary variant).
"""

from __future__ import annotations

import sys
import time
from collections import namedtuple

from .errors import (
    BezmatError,
    ConditionNotMet,
    HypothesisViolated,
    InternalAssertion,
    NotDrazinInvertible,
    NotGroupInvertible,
)
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
from .matrix import Mat, det, inverse_over_ring
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


def criterion_1(base_seed: int = 0, counts: dict | None = None) -> SuiteResult:
    """Frozen counterexample fixture: a triple whose shared-product
    hypothesis fails with specific computed products, while a claimed
    witness matrix still passes the product-mode verification (showing
    verification is independent of the construction hypotheses)."""
    t0 = time.perf_counter()
    a = _mat([[1, 1], [0, -1]])
    b = _mat([[1, 1], [0, 0]])
    c = _mat([[1, -1], [0, 0]])
    p = _mat([[1, 1], [0, 1]])
    ok = verify_witness(a, b, c, p, mode="product")
    hypothesis_report = None
    try:
        similarity_witness(a, b, c)
        pipeline_ok = False
    except HypothesisViolated as exc:
        pipeline_ok = (
            exc.lhs == _mat([[1, 0], [0, 0]]) and exc.rhs == _mat([[1, 2], [0, 0]])
        )
        hypothesis_report = (exc.lhs.tolist(), exc.rhs.tolist())
    passed = bool(ok and pipeline_ok)
    detail = (
        f"witness accepted={ok}, hypothesis violation with computed products={pipeline_ok}"
    )
    return SuiteResult(1, "counterexample fixture", passed, 1, detail, time.perf_counter() - t0)


# ------------------------------------------------------- criteria 2 and 3


def _flanders_instances(base_seed: int, count: int):
    """Deterministic stream of integer triples, n <= 5, entries within
    [-9, 9], alternating the C == B and C != B regimes."""
    for i in range(count):
        n = 1 + i % 5
        core = i % (n + 1)
        cfg = GenConfig(
            ring="int", n=n, seed=_seed(base_seed, 2, i), entry_bound=9, core_rank=core
        )
        yield cfg, (i % 2 == 0)


def criterion_2(base_seed: int = 0, counts: dict | None = None) -> SuiteResult:
    counts = counts or PROFILES["quick"]
    total = counts["triples"]
    t0 = time.perf_counter()
    failures: list[str] = []
    internal = 0
    done = 0
    for cfg, ceb in _flanders_instances(base_seed, total):
        try:
            tr = gen_flanders_triple(cfg, ceb)
            wit = similarity_witness(tr.A, tr.B, tr.C)
        except InternalAssertion:
            internal += 1
            failures.append(f"seed {cfg.seed}: internal assertion")
            continue
        except BezmatError as exc:
            failures.append(f"seed {cfg.seed}: {type(exc).__name__}")
            continue
        ident = Mat.identity(tr.A.ring, tr.A.n)
        if wit.W @ wit.Winv != ident or tr.A @ tr.B != wit.W @ (tr.C @ tr.A) @ wit.Winv:
            failures.append(f"seed {cfg.seed}: witness identity failed")
            continue
        done += 1
    passed = not failures and internal == 0 and done == total
    detail = (
        f"exact W identities on {done}/{total}, internal assertions: {internal}"
        if passed
        else f"first failure: {failures[0]}"
    )
    return SuiteResult(2, "similarity witness suite", passed, total, detail, time.perf_counter() - t0)


def criterion_3(base_seed: int = 0, counts: dict | None = None) -> SuiteResult:
    """On the same instance stream as criterion 2, the identical W must
    also transport group inverses, core projectors, and cores."""
    counts = counts or PROFILES["quick"]
    total = counts["triples"]
    t0 = time.perf_counter()
    failures: list[str] = []
    done = 0
    for cfg, ceb in _flanders_instances(base_seed, total):
        try:
            tr = gen_flanders_triple(cfg, ceb)
            wit = similarity_witness(tr.A, tr.B, tr.C)
            for mode in ("ginv", "projector", "core"):
                if not verify_witness(tr.A, tr.B, tr.C, wit.W, mode=mode):
                    failures.append(f"seed {cfg.seed}: mode {mode} failed")
                    break
            else:
                done += 1
        except BezmatError as exc:
            failures.append(f"seed {cfg.seed}: {type(exc).__name__}")
    passed = not failures and done == total
    detail = (
        f"same-W conjugation of inverse/projector/core on {done}/{total}"
        if passed
        else f"first failure: {failures[0]}"
    )
    return SuiteResult(3, "derived conjugation suite", passed, total, detail, time.perf_counter() - t0)


# ------------------------------------------------------------- criterion 4


def criterion_4(base_seed: int = 0, counts: dict | None = None) -> SuiteResult:
    counts = counts or PROFILES["quick"]
    total = counts["drazin"]
    cline_total = counts["cline"]
    t0 = time.perf_counter()
    failures: list[str] = []
    done = 0
    for i in range(total):
        k = 1 + i % 3
        n = 3 + i % 3
        core = max(0, n - k - (i % 2))
        if n - core < k:
            core = n - k
        cfg = GenConfig(
            ring="int", n=n, seed=_seed(base_seed, 4, i), entry_bound=9, core_rank=core
        )
        try:
            tr = gen_drazin_triple(cfg, k, c_equals_b=(i % 2 == 0))
            ab = tr.A @ tr.B
            dr = drazin(ab)
            if dr.index != k:
                failures.append(f"seed {cfg.seed}: index {dr.index} != {k}")
                continue
            ok = True
            for s in (max(k, 1), k + 1, k + 2):
                wit = power_witness(tr.A, tr.B, tr.C, s)
                lhs = (tr.A @ tr.B) ** s
                if lhs != wit.W @ ((tr.C @ tr.A) ** s) @ wit.Winv:
                    failures.append(f"seed {cfg.seed}: power witness s={s} failed")
                    ok = False
                    break
                # proof identities at the matrix level
                ds = dr.dinv ** s
                if lhs @ ds != ab @ dr.dinv:
                    failures.append(f"seed {cfg.seed}: power projector identity s={s}")
                    ok = False
                    break
                if group_inverse(lhs).ginv != ds:
                    failures.append(f"seed {cfg.seed}: power group-inverse identity s={s}")
                    ok = False
                    break
            if ok:
                done += 1
        except BezmatError as exc:
            failures.append(f"seed {cfg.seed}: {type(exc).__name__}")
    cline_done = 0
    for i in range(cline_total):
        use_drazin = i % 2 == 0
        sd = _seed(base_seed, 4, 500_000 + i)
        try:
            if use_drazin:
                k = 1 + i % 3
                n = 3 + i % 3
                core = n - k
                cfg = GenConfig(ring="int", n=n, seed=sd, entry_bound=9, core_rank=core)
                tr = gen_drazin_triple(cfg, k, c_equals_b=(i % 4 < 2))
            else:
                n = 2 + i % 4
                cfg = GenConfig(ring="int", n=n, seed=sd, entry_bound=9, core_rank=i % (n + 1))
                tr = gen_flanders_triple(cfg, c_equals_b=(i % 4 < 2))
            if not cline_verify(tr.A, tr.B, tr.C):
                failures.append(f"seed {sd}: exchange formula failed")
                continue
            if drazin(tr.C @ tr.A).index > drazin(tr.A @ tr.B).index + 1:
                failures.append(f"seed {sd}: index bound violated")
                continue
            cline_done += 1
        except BezmatError as exc:
            failures.append(f"seed {sd}: {type(exc).__name__}")
    passed = not failures and done == total and cline_done == cline_total
    detail = (
        f"power witnesses s in {{k,k+1,k+2}} on {done}/{total}, exchange formula on {cline_done}/{cline_total}"
        if passed
        else f"first failure: {failures[0]}"
    )
    return SuiteResult(4, "power witness suite", passed, total + cline_total, detail, time.perf_counter() - t0)


# ------------------------------------------------------------- criterion 5


def _check_defining_equations(x: Mat, g: Mat, kind: str, k: int = 0) -> bool:
    if kind == "group":
        return x @ g == g @ x and g @ x @ g == g and x @ g @ x == x
    kk = max(k, 0)
    return (
        x @ g == g @ x
        and g @ x @ g == g
        and (x ** (kk + 1)) @ g == x ** kk
    )


def criterion_5(base_seed: int = 0, counts: dict | None = None) -> SuiteResult:
    counts = counts or PROFILES["quick"]
    per_ring = counts["oracle"]
    t0 = time.perf_counter()
    failures: list[str] = []
    done = 0
    plans = (("int", 5, 9), ("polyrat", 4, 2))
    for ring_name, max_n, bound in plans:
        for i in range(per_ring):
            sd = _seed(base_seed, 5, i if ring_name == "int" else 500_000 + i)
            n = 1 + i % max_n
            cfg = GenConfig(ring=ring_name, n=n, seed=sd, entry_bound=bound, core_rank=0)
            x = random_matrix(cfg)
            try:
                rep = fraction_field_oracle(x)
                try:
                    rg = group_inverse(x).ginv
                    ring_has_group = True
                except NotGroupInvertible:
                    rg = None
                    ring_has_group = False
                oracle_group = bool(rep.group_exists and rep.group_integral)
                if ring_has_group != oracle_group:
                    failures.append(f"seed {sd} ({ring_name}): group existence disagrees")
                    continue
                if ring_has_group:
                    if rg != rep.group_ring:
                        failures.append(f"seed {sd} ({ring_name}): group value disagrees")
                        continue
                    if not _check_defining_equations(x, rg, "group"):
                        failures.append(f"seed {sd} ({ring_name}): group equations")
                        continue
                try:
                    dr = drazin(x)
                    ring_has_drazin = True
                except NotDrazinInvertible:
                    ring_has_drazin = False
                if ring_has_drazin != rep.drazin_integral:
                    failures.append(f"seed {sd} ({ring_name}): drazin existence disagrees")
                    continue
                if ring_has_drazin:
                    if dr.index != rep.drazin_index or dr.dinv != rep.drazin_ring:
                        failures.append(f"seed {sd} ({ring_name}): drazin value disagrees")
                        continue
                    if not _check_defining_equations(x, dr.dinv, "drazin", dr.index):
                        failures.append(f"seed {sd} ({ring_name}): drazin equations")
                        continue
                done += 1
            except BezmatError as exc:
                failures.append(f"seed {sd} ({ring_name}): {type(exc).__name__}")
    total = per_ring * len(plans)
    passed = not failures and done == total
    detail = (
        f"ring/field agreement and exact defining equations on {done}/{total}"
        if passed
        else f"first failure: {failures[0]}"
    )
    return SuiteResult(5, "oracle agreement suite", passed, total, detail, time.perf_counter() - t0)


# ------------------------------------------------------------- criterion 6


def criterion_6(base_seed: int = 0, counts: dict | None = None) -> SuiteResult:
    counts = counts or PROFILES["quick"]
    per_ring = counts["normal"]
    t0 = time.perf_counter()
    failures: list[str] = []
    done = 0
    plans = (("int", 5, 9), ("rat", 4, 9), ("polyrat", 3, 2))
    for ring_name, max_n, bound in plans:
        ring = get_ring(ring_name)
        for i in range(per_ring):
            sd = _seed(base_seed, 6, {"int": 0, "rat": 400_000, "polyrat": 800_000}[ring_name] + i)
            m = 1 + i % max_n
            n = 1 + (i // max_n) % max_n
            if i % 97 == 0:
                x = Mat.zeros(ring, m, n)
            else:
                cfg = GenConfig(ring=ring_name, n=n, seed=sd, entry_bound=bound, core_rank=0)
                x = random_matrix(cfg, m=m, n=n)
            try:
                hr = column_hermite(x)
                if x @ hr.T != hr.H:
                    failures.append(f"seed {sd} ({ring_name}): transform identity")
                    continue
                if not ring.is_unit(det(hr.T)):
                    failures.append(f"seed {sd} ({ring_name}): T not unimodular")
                    continue
                if column_hermite(hr.H).H != hr.H:
                    failures.append(f"seed {sd} ({ring_name}): HNF not idempotent")
                    continue
                sr = smith(x)
                if sr.U @ sr.S @ sr.V != x:
                    failures.append(f"seed {sd} ({ring_name}): Smith reconstruction")
                    continue
                if not (ring.is_unit(det(sr.U)) and ring.is_unit(det(sr.V))):
                    failures.append(f"seed {sd} ({ring_name}): U/V not unimodular")
                    continue
                diag = sr.diagonal()
                if any(not ring.divides(diag[j], diag[j + 1]) for j in range(len(diag) - 1)):
                    failures.append(f"seed {sd} ({ring_name}): divisibility chain")
                    continue
                col_rank = len(hr.pivot_rows)
                row_rank = len(row_hermite(x).pivot_cols)
                smith_rank = len(diag)
                if not (col_rank == row_rank == smith_rank):
                    failures.append(f"seed {sd} ({ring_name}): rank notions disagree")
                    continue
                if x.is_zero() and rank(x) != 0:
                    failures.append(f"seed {sd} ({ring_name}): rank(0) != 0")
                    continue
                done += 1
            except BezmatError as exc:
                failures.append(f"seed {sd} ({ring_name}): {type(exc).__name__}")
    total = per_ring * len(plans)
    passed = not failures and done == total
    detail = (
        f"transform/unimodularity/divisibility/rank invariants on {done}/{total}"
        if passed
        else f"first failure: {failures[0]}"
    )
    return SuiteResult(6, "normal form suite", passed, total, detail, time.perf_counter() - t0)


# ------------------------------------------------------------- criterion 7


def criterion_7(base_seed: int = 0, counts: dict | None = None) -> SuiteResult:
    counts = counts or PROFILES["quick"]
    per_variant = counts["corollary"]
    false_per_variant = max(8, per_variant // 4)
    t0 = time.perf_counter()
    failures: list[str] = []
    done = 0
    for vi, variant in enumerate(VARIANTS):
        for i in range(per_variant):
            sd = _seed(base_seed, 7, vi * 200_000 + i)
            n = 2 + i % 3
            cfg = GenConfig(ring="int", n=n, seed=sd, entry_bound=9, core_rank=i % (n + 1))
            try:
                tr = gen_corollary_true(cfg, c_equals_b=(i % 2 == 0))
                report, wit = corollary_check(tr.A, tr.B, tr.C, variant)
                if not all(ok for _, ok in report.variant_conditions):
                    failures.append(f"seed {sd} ({variant}): engineered-true condition failed")
                    continue
                if not (report.ab_group_invertible and report.ca_group_invertible):
                    failures.append(f"seed {sd} ({variant}): group invertibility not confirmed")
                    continue
                ident = Mat.identity(tr.A.ring, tr.A.n)
                if wit.W @ wit.Winv != ident or tr.A @ tr.B != wit.W @ (tr.C @ tr.A) @ wit.Winv:
                    failures.append(f"seed {sd} ({variant}): witness identity failed")
                    continue
                done += 1
            except BezmatError as exc:
                failures.append(f"seed {sd} ({variant}): {type(exc).__name__}")
        for i in range(false_per_variant):
            sd = _seed(base_seed, 7, vi * 200_000 + 100_000 + i)
            cfg = GenConfig(ring="int", n=2 + i % 3, seed=sd, entry_bound=5, core_rank=1)
            try:
                a, b, c, expected = gen_corollary_false(cfg, variant)
                try:
                    corollary_check(a, b, c, variant)
                    failures.append(f"seed {sd} ({variant}): expected ConditionNotMet")
                    continue
                except ConditionNotMet as exc:
                    if exc.failed != expected:
                        failures.append(
                            f"seed {sd} ({variant}): failed {exc.failed} != expected {expected}"
                        )
                        continue
                done += 1
            except BezmatError as exc:
                failures.append(f"seed {sd} ({variant}): {type(exc).__name__}")
    total = (per_variant + false_per_variant) * len(VARIANTS)
    passed = not failures and done == total
    detail = (
        f"engineered-true witnessed and engineered-false named exactly on {done}/{total}"
        if passed
        else f"first failure: {failures[0]}"
    )
    return SuiteResult(7, "corollary checker suite", passed, total, detail, time.perf_counter() - t0)


# ------------------------------------------------------------- criterion 8


def criterion_8(base_seed: int = 0, counts: dict | None = None) -> SuiteResult:
    """Exit-code contract, exercised through the in-process CLI runner."""
    import json
    import os
    import tempfile

    from . import faults
    from .cli import run_argv
    from .io import dumps_doc, matrix_to_doc

    t0 = time.perf_counter()
    checks: list[tuple[str, bool]] = []
    with tempfile.TemporaryDirectory() as tmp:
        def write(name, obj) -> str:
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(obj if isinstance(obj, str) else dumps_doc(obj))
            return path

        bad = write("x.json", matrix_to_doc(_mat([[2, 0], [0, 0]])))
        code, out = run_argv(["ginv", bad])
        checks.append(("group-noninvertible exit 3", code == 3))

        a = write("a.json", matrix_to_doc(_mat([[1, 1], [0, -1]])))
        b = write("b.json", matrix_to_doc(_mat([[1, 1], [0, 0]])))
        c = write("c.json", matrix_to_doc(_mat([[1, -1], [0, 0]])))
        code, out = run_argv(["witness", a, b, c])
        checks.append(("hypothesis-violated exit 2", code == 2))

        mal = write("mal.json", "{ this is not json")
        code, out = run_argv(["rank", mal])
        checks.append(("malformed file exit 4", code == 4))

        sa = write("sa.json", matrix_to_doc(_mat([[0, 1], [0, 0]])))
        sb = write("sb.json", matrix_to_doc(_mat([[0, 0], [1, 0]])))
        faults.clear()
        code, out = run_argv(["witness", sa, sb, sb, "--inject-fault", "witness"])
        faults.clear()
        dump_ok = False
        if code == 5 and out:
            try:
                doc = json.loads(out)
                inst = doc.get("instance") or {}
                dump_ok = all(key in inst for key in ("A", "B", "C"))
            except json.JSONDecodeError:
                dump_ok = False
        checks.append(("injected fault exit 5 with replayable dump", code == 5 and dump_ok))

    failed = [name for name, ok in checks if not ok]
    passed = not failed
    detail = (
        "exit codes 3/2/4/5 with instance dump"
        if passed
        else f"first failure: {failed[0]}"
    )
    return SuiteResult(8, "negative-path contract", passed, len(checks), detail, time.perf_counter() - t0)


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
