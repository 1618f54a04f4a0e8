"""The three workloads: instance pools, timed operations and output checks.

Every instance seed is ``seed * 1_000_000 + family * 1_000 + i`` for the
workload seed, a fixed family number and the instance's place in the
pool; no seed is picked to include or avoid a slow instance.  A run
cycles through its pool, whose families are interleaved so that a run
cut at any point has done a fair share of each.

Why each workload:

* ``certify_cli``: the user path, one ``python -m bezmat VERB`` process
  per operation on JSON files.  Small n is dominated by process start
  and JSON I/O; the largest requests (n = 20 near full rank, n = 24 at
  half rank) by the construct-then-re-verify pipeline (group-inverse
  attempts, inversions, products).
* ``normal_forms_int``: in process, ``column_hermite`` + ``smith`` +
  ``det`` on random dense, rectangular and rank-deficient integer
  matrices.  Integer coefficient growth in ``normal_forms`` and
  ``inverse_over_ring`` does nearly all the work; no ``similarity``,
  ``ginverse``, ``field_oracle``, ``io`` or ``cli`` code runs.  Square
  sizes stop at n = 18: from n = 20 up, one seed's Smith form takes
  anywhere from 0.03 s to 25 s (the coefficient explosion that bounded
  growth normal forms are to remove), and a single such instance would
  decide a whole run.
* ``polyrat_crosscheck``: in process, Q[x] matrices at the acceptance
  suite's oracle scale (n = 1..4, entry bound 2), each taking the
  ring-level group/Drazin decision and the fraction-field oracle's, plus
  Q[x] similarity witnesses with n = 3..6.  ``Poly`` arithmetic and the
  oracle dominate.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import exact
from exact import IntOps, PolyOps

CLI_TIMEOUT_S = 60


def inst_seed(seed: int, family: int, i: int) -> int:
    return seed * 1_000_000 + family * 1_000 + i


@dataclass
class Op:
    kind: str
    run: Callable[[], object]  # timed
    check: Callable[[object], "str | None"]  # reason for a wrong output, or None
    digest: Callable[[object], object]  # must repeat exactly between repeats
    size: Callable[[object], dict]  # input size, logged by the traced run


def interleave(groups):
    """Merge op lists in proportion to their lengths, so that any stretch
    of the result mixes every family."""
    keyed = [((k + 0.5) / len(g), j, op) for j, g in enumerate(groups) for k, op in enumerate(g)]
    return [op for _, _, op in sorted(keyed, key=lambda t: t[:2])]


def _int_size(mat_rows, rank):
    return {
        "ring": "int",
        "m": len(mat_rows),
        "n": len(mat_rows[0]) if mat_rows else 0,
        "rank": rank,
        "max_bits": exact.max_bits(mat_rows),
    }


def _poly_size(mats, rank):
    return {
        "ring": "polyrat",
        "n": len(mats[0]),
        "rank": rank,
        "max_degree": max(exact.max_degree(m) for m in mats),
        "coeff_bits": max(exact.max_bits(m) for m in mats),
    }


def _conjugation_error(ops, lhs, rhs, w, winv):
    """None when W @ Winv == I and lhs @ W == W @ rhs."""
    if not exact.same(exact.matmul(ops, w, winv), exact.identity(ops, len(w))):
        return "W @ Winv != I"
    if not exact.same(exact.matmul(ops, lhs, w), exact.matmul(ops, w, rhs)):
        return "conjugation identity fails"
    return None


# -- normal_forms_int -----------------------------------------------------------

# (rows, cols, rank of an L @ R product, or None for a random dense matrix)
NF_SHAPES = (
    (8, 8, None),
    (10, 10, None),
    (12, 12, None),
    (14, 14, None),
    (16, 16, None),
    (18, 18, None),
    (10, 16, None),
    (16, 10, None),
    (12, 18, None),
    (18, 12, None),
    (16, 16, 8),
    (18, 18, 12),
)
NF_BLOCKS = 200


def _column_echelon(h):
    """Pivot rows strictly increase left to right; zero columns come last."""
    last = -1
    seen_zero = False
    for col in zip(*h) if h else ():
        piv = next((i for i, x in enumerate(col) if x), None)
        if piv is None:
            seen_zero = True
            continue
        if seen_zero or piv <= last or col[piv] <= 0:
            return False
        last = piv
    return True


def _smith_diagonal_error(s):
    diag = []
    for i, row in enumerate(s):
        for j, x in enumerate(row):
            if i != j and x:
                return "S is not diagonal"
            if i == j:
                diag.append(x)
    nonzero = [d for d in diag if d]
    if diag[: len(nonzero)] != nonzero or any(d < 0 for d in nonzero):
        return "S diagonal is not canonical"
    if any(b % a for a, b in zip(nonzero, nonzero[1:])):
        return "S diagonal breaks the divisibility chain"
    return None


def _nf_op(bz, x):
    rows = exact.from_mat(x)

    def run():
        h = bz.normal_forms.column_hermite(x)
        s = bz.normal_forms.smith(x)
        d = bz.matrix.det(x) if x.m == x.n else None
        return h, s, d

    def check(out):
        h, s, d = out
        H, T = exact.from_mat(h.H), exact.from_mat(h.T)
        if not exact.same(exact.matmul(IntOps, rows, T), H):
            return "x @ T != H"
        if not exact.is_unimodular(T):
            return "T is not unimodular"
        rank = exact.rank_int(rows)
        if not _column_echelon(H) or len(h.pivot_rows) != rank:
            return "H is not a column echelon form of the right rank"
        U, S, V = exact.from_mat(s.U), exact.from_mat(s.S), exact.from_mat(s.V)
        if not exact.same(exact.matmul(IntOps, exact.matmul(IntOps, U, S), V), rows):
            return "U @ S @ V != x"
        if not (exact.is_unimodular(U) and exact.is_unimodular(V)):
            return "U or V is not unimodular"
        reason = _smith_diagonal_error(S)
        if reason is None and sum(1 for i in range(min(x.m, x.n)) if S[i][i]) != rank:
            reason = "Smith rank differs from the rank"
        if reason is None and d is not None and d != exact.det_int(rows):
            reason = "det differs from the Bareiss determinant"
        return reason

    def digest(out):
        h, s, d = out
        return hash((h.H.rows, h.T.rows, h.pivot_rows, s.U.rows, s.S.rows, s.V.rows, d))

    return Op("hermite+smith+det", run, check, digest, lambda out: _int_size(rows, exact.rank_int(rows)))


def setup_normal_forms(bz, seed, workdir):
    gen = bz.generate
    ops = []
    for b in range(NF_BLOCKS):
        for f, (m, n, r) in enumerate(NF_SHAPES):
            if r is None:
                cfg = gen.GenConfig(ring="int", n=n, seed=inst_seed(seed, f, b), entry_bound=9)
                x = gen.random_matrix(cfg, m=m, n=n)
            else:
                left = gen.random_matrix(
                    gen.GenConfig(ring="int", n=n, seed=inst_seed(seed, f, b), entry_bound=3), m=m, n=r
                )
                right = gen.random_matrix(
                    gen.GenConfig(ring="int", n=n, seed=inst_seed(seed, 100 + f, b), entry_bound=3), m=r, n=n
                )
                x = left @ right
            ops.append(_nf_op(bz, x))
    return ops, None


# -- polyrat_crosscheck -----------------------------------------------------------

# Sizes of the decision matrices in one block.  n = 3 four times and
# n = 4 twice put the median and the 90th percentile operation well
# inside one size class each, rather than in the sparse tail between two.
# Witness triples (every other block) have n = 3..6 and core rank at most
# n/2: at n = 6 with core rank 4 or 5, one seed in about 40 made the
# witness (or the triple's generation) run for minutes.
PR_SIZES = (1, 2, 3, 3, 3, 3, 4, 4)
PR_BLOCKS = 32


def _decision_op(bz, x):
    def run():
        errors = bz.errors
        try:
            g = bz.ginverse.group_inverse(x).ginv
        except errors.NotGroupInvertible:
            g = None
        try:
            dr = bz.ginverse.drazin(x)
            d = (dr.index, dr.dinv)
        except errors.NotDrazinInvertible:
            d = None
        return g, d, bz.field_oracle.fraction_field_oracle(x)

    def check(out):
        g, d, rep = out
        if (g is not None) != bool(rep.group_exists and rep.group_integral):
            return "group inverse existence disagrees with the oracle"
        if g is not None and g != rep.group_ring:
            return "group inverse differs from the oracle's"
        if (d is not None) != rep.drazin_integral:
            return "Drazin inverse existence disagrees with the oracle"
        if d is not None and (d[0] != rep.drazin_index or d[1] != rep.drazin_ring):
            return "Drazin inverse differs from the oracle's"
        return None

    def digest(out):
        g, d, rep = out
        return hash((g, d, rep.rank, rep.group_exists, rep.group_integral, rep.drazin_index, rep.drazin_integral))

    return Op("ginv+drazin+oracle", run, check, digest, lambda out: _poly_size([exact.from_mat(x)], out[2].rank))


def _poly_witness_op(bz, tr, rank):
    def run():
        return bz.similarity.similarity_witness(tr.A, tr.B, tr.C)

    def check(wit):
        a, b, c = (exact.from_mat(m) for m in tr)
        ab, ca = exact.matmul(PolyOps, a, b), exact.matmul(PolyOps, c, a)
        return _conjugation_error(PolyOps, ab, ca, exact.from_mat(wit.W), exact.from_mat(wit.Winv))

    return Op(
        "polyrat witness",
        run,
        check,
        lambda wit: hash((wit.W.rows, wit.Winv.rows)),
        lambda out: _poly_size([exact.from_mat(m) for m in tr], rank),
    )


def setup_polyrat(bz, seed, workdir):
    gen = bz.generate
    groups = [[] for _ in range(len(PR_SIZES) + 1)]
    for b in range(PR_BLOCKS):
        for j, n in enumerate(PR_SIZES):
            cfg = gen.GenConfig(ring="polyrat", n=n, seed=inst_seed(seed, 1 + j, b), entry_bound=2, core_rank=0)
            groups[j].append(_decision_op(bz, gen.random_matrix(cfg)))
        if b % 2:
            continue
        n = 3 + (b // 2) % 4
        r = 1 + (b // 8) % (n // 2)
        cfg = gen.GenConfig(ring="polyrat", n=n, seed=inst_seed(seed, 10 + n, b), entry_bound=2, core_rank=r)
        tr = gen.gen_flanders_triple(cfg, c_equals_b=(b // 8) % 2 == 1)
        groups[-1].append(_poly_witness_op(bz, tr, r))
    return interleave(groups), None


# -- certify_cli ------------------------------------------------------------------

# (n, core rank) of the aligned-core witness triples.  Near-full-rank
# n = 24 is left out: on 2 of 15 seeds its witness took 12 s and over
# 2 min, so one seed would decide a run or run past its time limit.
WITNESS_GRID = ((8, 4), (8, 7), (12, 6), (12, 11), (16, 8), (16, 15), (20, 10), (20, 19), (24, 12))
DRAZIN_N, DRAZIN_CORE = 10, 4
CHECK_N, CHECK_CORE = 10, 5
INVERSE_SIZES = (3, 4, 5, 6, 8)


class Cli:
    """Runs CLI requests as child processes of a clean checkout.

    ``bezmat`` is not installed: children run ``sys.executable -m bezmat``
    with ``PYTHONPATH`` set to the checkout's ``src``.  When ``traced``,
    the benchmark's launcher runs the request instead and leaves a record
    of import time, in-child time, spans and kernel counts."""

    def __init__(self, root, workdir):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.launcher = os.path.join(root, "bench", "launcher.py")
        self.traced = False
        self.op = None
        self.records = []  # traced only: (op id, wall s, stdout bytes, launcher record)

    def call(self, argv):
        if self.traced:
            spans_path = os.path.join(self.workdir, "spans.json")
            cmd = [sys.executable, self.launcher, spans_path, *argv]
        else:
            cmd = [sys.executable, "-m", "bezmat", *argv]
        t0 = perf_counter()
        proc = subprocess.run(
            cmd, cwd=self.root, env=self.env, capture_output=True, timeout=CLI_TIMEOUT_S
        )
        wall = perf_counter() - t0
        if self.traced:
            with open(spans_path, encoding="utf-8") as fh:
                self.records.append((self.op, wall, len(proc.stdout), json.load(fh)))
            os.remove(spans_path)
        return proc.returncode, proc.stdout, proc.stderr


def _cli_op(cli, kind, argv, size, check_doc):
    """check_doc(doc) -> reason or None, for a request expected to exit 0."""

    def check(out):
        code, stdout, stderr = out
        if code != 0:
            return f"exit {code}: {stderr.decode(errors='replace')[-300:] or stdout[:300]!r}"
        return check_doc(json.loads(stdout))

    return Op(kind, lambda: cli.call(argv), check, _cli_digest, size)


def _cli_digest(out):
    return out[0], hashlib.sha256(out[1]).hexdigest()


def _products(tr, s=1):
    """(A@B)^s and (C@A)^s in the benchmark's own arithmetic."""
    a, b, c = (exact.from_mat(m) for m in tr)
    return exact.power(IntOps, exact.matmul(IntOps, a, b), s), exact.power(IntOps, exact.matmul(IntOps, c, a), s)


def _witness_doc_error(doc, tr, s=1):
    if not doc["verified"] or not all(doc["verified"].values()):
        return "witness not re-verified in every mode"
    return _conjugation_error(IntOps, *_products(tr, s), exact.from_doc(doc["W"]), exact.from_doc(doc["Winv"]))


def _inverse_op(cli, verb, path, mat, rep):
    if verb == "ginv":
        exists = bool(rep.group_exists and rep.group_integral)
        want = {"ginv": rep.group_ring} if exists else None
    else:
        exists = rep.drazin_integral
        want = {"index": rep.drazin_index, "dinv": rep.drazin_ring} if exists else None
    expected_code = 0 if exists else 3

    def check(out):
        code, stdout, _ = out
        if code != expected_code:
            return f"exit {code}, the oracle expects {expected_code}"
        if want is None:
            return None
        doc = json.loads(stdout)
        got = {k: exact.from_doc(v) if isinstance(v, dict) else v for k, v in doc.items()}
        wanted = {k: exact.from_mat(v) if k != "index" else v for k, v in want.items()}
        return None if got == wanted else f"{verb} result differs from the oracle's"

    return Op(
        f"{verb} (expect exit {expected_code})",
        lambda: cli.call([verb, path]),
        check,
        _cli_digest,
        lambda out: _int_size(exact.from_mat(mat), rep.rank),
    )


def _triple_size(tr, rank):
    return lambda out: _int_size(exact.from_mat(tr.A), rank)


def setup_certify(bz, seed, workdir):
    gen = bz.generate
    cli = Cli(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), workdir)
    paths = []

    def save(*mats):
        out = []
        for mat in mats:
            out.append(os.path.join(workdir, f"m{len(paths)}.json"))
            paths.append(out[-1])
            bz.io.save_matrix(out[-1], mat)
        return out

    witness, verify, power, check = [], [], [], []
    for k, (n, r) in enumerate(WITNESS_GRID):
        cfg = gen.GenConfig(ring="int", n=n, seed=inst_seed(seed, 1, k), entry_bound=9, core_rank=r)
        tr = gen.gen_flanders_triple(cfg, c_equals_b=k % 2 == 0)
        files = save(*tr)
        witness.append(
            _cli_op(cli, f"witness n={n} r={r}", ["witness", *files], _triple_size(tr, r),
                    lambda doc, tr=tr: _witness_doc_error(doc, tr))
        )
        if r == n // 2:
            (w_file,) = save(bz.similarity.similarity_witness(*tr).W)
            verify.append(
                _cli_op(cli, f"verify core n={n}", ["verify", *files, w_file, "--mode", "core"], _triple_size(tr, r),
                        lambda doc: None if doc == {"mode": "core", "verified": True} else "not verified")
            )

    for index in (1, 2, 3):
        cfg = gen.GenConfig(ring="int", n=DRAZIN_N, seed=inst_seed(seed, 2, index), entry_bound=9, core_rank=DRAZIN_CORE)
        tr = gen.gen_drazin_triple(cfg, index, c_equals_b=index == 2)
        files = save(*tr)
        size = _triple_size(tr, DRAZIN_CORE + index - 1)

        def power_error(doc, tr=tr, index=index):
            if doc["s"] != index or doc["verified"] != {"power_product": True}:
                return f"unexpected power document (s={doc['s']})"
            return _witness_doc_error(doc, tr, index)

        def cline_error(doc, index=index):
            ok = doc.get("verified") is True and doc.get("index_ab") == index
            return None if ok and doc["index_ca"] <= index + 1 else "exchange formula not verified"

        power.append(_cli_op(cli, f"witness-power index={index}", ["witness-power", *files], size, power_error))
        power.append(_cli_op(cli, f"verify-cline index={index}", ["verify-cline", *files], size, cline_error))

    for i, variant in enumerate(bz.similarity.VARIANTS):
        cfg = gen.GenConfig(ring="int", n=CHECK_N, seed=inst_seed(seed, 3, i), entry_bound=9, core_rank=CHECK_CORE)
        tr = gen.gen_corollary_true(cfg, c_equals_b=False)

        def check_error(doc, tr=tr):
            if not all(doc["hypotheses"].values()) or not all(c["holds"] for c in doc["conditions"]):
                return "a hypothesis or condition does not hold"
            return _witness_doc_error(doc["witness"], tr)

        check.append(
            _cli_op(cli, f"check {variant}", ["check", *save(*tr), "--variant", variant],
                    _triple_size(tr, CHECK_CORE), check_error)
        )

    inverses = []
    for i, n in enumerate(INVERSE_SIZES):
        dense = gen.random_matrix(gen.GenConfig(ring="int", n=n, seed=inst_seed(seed, 4, i), entry_bound=9))
        group = gen.gen_group_invertible(
            gen.GenConfig(ring="int", n=n, seed=inst_seed(seed, 5, i), entry_bound=9, core_rank=max(1, n // 2))
        )
        for mat in (dense, group):
            (path,) = save(mat)
            rep = bz.field_oracle.fraction_field_oracle(mat)
            for verb in ("ginv", "drazin"):
                inverses.append(_inverse_op(cli, verb, path, mat, rep))

    return interleave([witness, inverses, verify, power, check]), cli


WORKLOADS = {
    "certify_cli": setup_certify,
    "normal_forms_int": setup_normal_forms,
    "polyrat_crosscheck": setup_polyrat,
}
