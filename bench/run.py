"""bezmat benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1 [--out FILE]
    python3 bench/run.py --compare OLD.jsonl NEW.jsonl

Runs from a checkout with no install: the library is imported from
``src/`` and CLI children get ``PYTHONPATH=<checkout>/src``.  Stdlib only.

One client, one operation in flight (closed loop).  An untraced run
(``--trace 0``) sets the workload up three times (import, instance
generation, file writing) and reports the median as ``setup_s``, then
cycles through the workload's operations until ``--seconds`` of
operation time and at least ``MIN_OPS`` operations have passed.  Each
output is checked outside the timed region with the benchmark's own
exact arithmetic; a repeat of an operation must give the same output as
its first run.  Failures (exception, wrong exit code, failed check)
count in ``failed``.

A traced run (``--trace 1``) sets up once with the tracer installed, so
``generate.*`` is measured, runs one round untraced and the same round
traced, and reports per-layer metrics from the traced round.  A round is
the first ``TRACE_OPS`` operations of the pool (the whole pool of
``polyrat_crosscheck`` and ``certify_cli``), whatever ``--seconds`` says,
so counts repeat exactly for a seed.  It writes the size-labelled
operation log and every span to ``bench/_out/trace-<workload>-<seed>.jsonl``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is a stamp with the Python version, git SHA, nproc and
seed.  ``--out FILE`` also appends ``{"stamp", "result"}`` to FILE, and
``--compare`` prints the median and quartiles of two such files side by
side, per workload and metric.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import Counter
from time import perf_counter

import tracer
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 3
MIN_OPS = 100  # at least ten latency samples beyond p90
# 50 blocks of normal_forms_int (whose whole pool takes 90 s to run twice);
# the smaller pools of the other workloads run whole.
TRACE_OPS = 600
BEZMAT_MODULES = (
    "errors", "faults", "rings", "matrix", "normal_forms", "ginverse",
    "similarity", "field_oracle", "generate", "io", "cli",
)


class Bezmat:
    """The library's modules, freshly imported."""

    def __init__(self):
        for name in BEZMAT_MODULES:
            setattr(self, name, importlib.import_module(f"bezmat.{name}"))


def purge_bezmat():
    for name in [m for m in sys.modules if m == "bezmat" or m.startswith("bezmat.")]:
        del sys.modules[name]


def git_sha():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def checked(op, out):
    try:
        return op.check(out)
    except (KeyError, TypeError, ValueError) as exc:  # malformed output document
        return f"malformed output: {type(exc).__name__}: {exc}"


def run_ops(ops, rounds=None, seconds=0.0, first=None, before=None, after=None):
    """Run ops in order, cycling; check each output outside the timed region.

    Stops after ``rounds`` whole rounds, or else as soon as ``seconds`` of
    operation time and ``MIN_OPS`` operations have passed.  ``first`` maps
    op index to (digest, reason) of its first run, so repeats are compared
    with it.
    """
    first = {} if first is None else first
    latencies, failures = [], []
    timed = 0.0
    for n in range(len(ops) * rounds) if rounds is not None else itertools.count():
        if rounds is None and timed >= seconds and len(latencies) >= MIN_OPS:
            break
        i = n % len(ops)
        op = ops[i]
        if before is not None:
            before(i)
        t0 = perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # any exception is a failed operation
            out, reason = None, f"{type(exc).__name__}: {exc}"
        else:
            reason = None
        dt = perf_counter() - t0
        latencies.append(dt)
        timed += dt
        if reason is None:
            digest = op.digest(out)
            if i not in first:
                first[i] = (digest, checked(op, out))
            prev_digest, reason = first[i]
            if digest != prev_digest:
                reason = "output differs from the first run of this operation"
        if reason is not None:
            failures.append({"op": i, "kind": op.kind, "reason": reason})
        if after is not None:
            after(i, op, out, dt)
    return latencies, failures


def assert_no_faults(bz):
    if bz.faults._active:
        raise SystemExit(f"fault switches are active: {sorted(bz.faults._active)}")


def result(latencies, failures, metrics):
    return {
        "correct": not failures,
        "attempted": len(latencies),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def untraced_run(setup, seed, seconds, workdir, in_process):
    times = []
    for _ in range(SETUP_REPEATS):
        purge_bezmat()
        t0 = perf_counter()
        bz = Bezmat()
        ops, _ = setup(bz, seed, workdir)
        times.append(perf_counter() - t0)
    assert_no_faults(bz)
    latencies, failures = run_ops(ops, seconds=seconds)
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    q = statistics.quantiles(latencies, n=10)
    metrics = {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (q[8] * 1e3, "ms"),
        "setup_s": (statistics.median(times), "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    return result(latencies, failures, metrics), failures, []


# (span name, measures): one per-layer metric "<name>.<measure>" each.
LAYERS = (
    ("similarity.similarity_witness", ("calls", "self_s")),
    ("similarity.verify_witness", ("calls", "self_s")),
    ("similarity.power_witness", ("self_s",)),
    ("similarity.cline_verify", ("self_s",)),
    ("similarity.corollary_check", ("self_s",)),
    ("ginverse.group_inverse_attempt", ("calls", "self_s")),
    ("ginverse.drazin", ("calls", "self_s")),
    ("ginverse.core_split", ("calls", "self_s")),
    ("matrix.matmul", ("calls", "self_s")),
    ("matrix.det", ("calls", "self_s")),
    ("matrix.inverse_over_ring", ("calls", "self_s")),
    ("normal_forms.column_hermite", ("calls", "self_s", "max_bits")),
    ("normal_forms.smith", ("calls", "self_s", "max_bits", "max_degree")),
    ("field_oracle.fraction_field_oracle", ("calls", "self_s")),
)
UNITS = {"calls": "count", "self_s": "s", "max_bits": "bits", "max_degree": "degree"}


def layer_metrics(spans, setup_spans, counts):
    """Per-layer metrics of a traced round; layers that did not run read 0."""
    tot = tracer.layer_totals(spans)

    def get(name):
        return tot[name] if name in tot else tracer.empty_total()

    m = {
        "io.load_s": (get("io.load")["self_s"], "s"),
        "io.dump_s": (get("io.dump")["self_s"], "s"),
    }
    for name, measures in LAYERS:
        t = get(name)
        values = {"calls": t["calls"], "self_s": t["self_s"], "max_bits": t["bits"], "max_degree": max(t["degree"], 0)}
        for key in measures:
            m[f"{name}.{key}"] = (values[key], UNITS[key])
    for key, name in (("ginverse.distinct_attempt_ratio", "ginverse.group_inverse_attempt"),
                      ("matrix.inverse_over_ring.distinct_ratio", "matrix.inverse_over_ring")):
        t = get(name)
        m[key] = (len(t["inputs"]) / t["calls"] if t["calls"] else 0.0, "ratio")
    for name in ("rings.xgcd", "rings.exact_div", "rings.poly_divmod"):
        m[f"{name}.calls"] = (counts[name], "count")
    gen = [t for name, t in tracer.layer_totals(setup_spans).items() if name.startswith("generate.")]
    m["generate.self_s"] = (sum(t["self_s"] for t in gen), "s")
    m["generate.retries"] = (sum(t["retries"] for t in gen), "count")
    return m


def traced_run(setup, seed, workdir):
    bz = Bezmat()
    assert_no_faults(bz)
    setup_tracer = tracer.Tracer()
    setup_tracer.op = "setup"
    setup_tracer.install()
    try:
        ops, cli = setup(bz, seed, workdir)
    finally:
        setup_tracer.uninstall()

    ops = ops[:TRACE_OPS]
    first = {}
    plain, plain_failures = run_ops(ops, rounds=1, first=first)

    tr = tracer.Tracer()
    log = []

    def before(i):
        tr.op = i
        if cli is not None:
            cli.op = i

    def after(i, op, out, dt):
        entry = {"type": "op", "op": i, "kind": op.kind, "wall_s": dt}
        if out is not None:
            entry.update(op.size(out))
        log.append(entry)

    if cli is not None:
        cli.traced = True
    else:
        tr.install()
    try:
        traced, failures = run_ops(ops, rounds=1, first=first, before=before, after=after)
    finally:
        tr.uninstall()
        if cli is not None:
            cli.traced = False

    spans, counts = tr.spans, Counter(tr.counts)
    import_s, process_s, stdout_bytes = [], [], 0
    for op, wall, nbytes, rec in cli.records if cli is not None else ():
        tracer.append_spans(spans, rec["spans"], op)
        counts.update(rec["counts"])
        import_s.append(rec["import_s"])
        process_s.append(wall - rec["child_s"])
        stdout_bytes += nbytes
    failures = plain_failures + failures
    m = {
        "cli.import_s": (statistics.median(import_s) if import_s else 0.0, "s"),
        "cli.process_s": (statistics.median(process_s) if process_s else 0.0, "s"),
        "io.stdout_bytes": (stdout_bytes, "bytes"),
    }
    m.update(layer_metrics(spans, setup_tracer.spans, counts))
    m["trace.overhead_ratio"] = (sum(traced) / sum(plain), "ratio")
    m["fail_ratio"] = (len(failures) / (len(plain) + len(traced)), "ratio")

    span_lines = [
        {"type": "span", "op": s[2], "id": s[0], "parent": s[1], "name": s[3],
         "start": s[4], "end": s[5], "excluded": s[6]}
        for s in setup_tracer.spans + spans
    ]
    res = result(plain + traced, failures, m)
    return res, failures, log + span_lines


def stamp(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(old_path, new_path):
    sides = []
    for path in (old_path, new_path):
        runs = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    rec = json.loads(line)
                    key = (rec["stamp"]["workload"], rec["stamp"]["trace"])
                    for name, metric in rec["result"]["metrics"].items():
                        runs.setdefault(key, {}).setdefault(name, []).append(metric["value"])
        sides.append(runs)
    old, new = sides
    print(f"{'workload':<20} {'metric':<44} {'old median [q1, q3] (n)':>36} {'new median [q1, q3] (n)':>36} {'change':>8}")
    for key in sorted(set(old) | set(new)):
        names = sorted(set(old.get(key, {})) | set(new.get(key, {})))
        for name in names:
            cells = []
            meds = []
            for side in (old, new):
                vals = side.get(key, {}).get(name)
                if vals:
                    q1, med, q3 = quartiles(vals)
                    meds.append(med)
                    cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] ({len(vals)})")
                else:
                    cells.append("-")
            change = f"{(meds[1] / meds[0] - 1) * 100:+.1f}%" if len(meds) == 2 and meds[0] else "-"
            label = key[0] + (" (traced)" if key[1] else "")
            print(f"{label:<20} {name:<44} {cells[0]:>36} {cells[1]:>36} {change:>8}")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append {stamp, result} as one JSON line to this file")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "bezmat", "__init__.py")):
        print(f"bezmat sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    setup = WORKLOADS[args.workload]
    in_process = args.workload != "certify_cli"
    workdir = os.path.join(ROOT, "bench", "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            res, failures, lines = traced_run(setup, args.seed, workdir)
        else:
            res, failures, lines = untraced_run(setup, args.seed, args.seconds, workdir, in_process)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    st = stamp(args)
    for f in failures[:20]:
        print(f"failed op {f['op']} ({f['kind']}): {f['reason']}", file=sys.stderr)
    if lines:
        out_dir = os.path.join(ROOT, "bench", "_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"type": "stamp", **st}) + "\n")
            for line in lines:
                fh.write(json.dumps(line) + "\n")
        print(f"trace written to {path}", file=sys.stderr)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"stamp": st, "result": res}) + "\n")
    print("stamp: " + json.dumps(st))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
