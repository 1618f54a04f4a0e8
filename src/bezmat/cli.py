"""Command-line interface.

Every verb reads matrix documents (JSON files), performs one exact
computation, and prints a single JSON result document on stdout.
Every identity a witness-producing verb prints as verified was checked
in-process by the library call that produced the witness, before
anything is printed, so an exit status of 0 certifies the printed
identities.  Every failure past argument parsing, a usage error
included, is a BezmatError that one function, _error_exit, turns into
an error document and exit code; argparse's own errors exit 4 with
usage text on stderr.  While a verb runs, Python's limit on converting
integers of more than 4,300 digits to and from strings is lifted.

Exit codes:
  0  success (including ``verify`` runs whose answer is false)
  1  a random generator exhausted its retry budget, or selftest failed
  2  an input hypothesis or checked condition is not satisfied
  3  the requested inverse does not exist over the ring
  4  unreadable/malformed input, shape or ring mismatch, bad usage
  5  internal assertion: a certified identity failed (library bug);
     the result document carries a replayable instance dump
"""

from __future__ import annotations

import argparse
import sys

from . import faults
from .errors import (
    BezmatError,
    ConditionNotMet,
    GenerationExhausted,
    HypothesisViolated,
    IndexTooSmall,
    InternalAssertion,
    NotDrazinInvertible,
    NotGroupInvertible,
    NotInvertibleOverRing,
)
from .generate import (
    GenConfig,
    gen_corollary_false,
    gen_drazin_triple,
    gen_flanders_triple,
    gen_group_invertible,
    random_matrix,
)
from .ginverse import drazin, group_inverse
from .io import dumps_doc, load_matrix, matrix_to_doc, witness_to_doc
from .normal_forms import column_hermite, rank, smith
from .rings import RINGS
from .similarity import (
    _MODES,
    VARIANTS,
    _cline,
    _power_witness,
    conjugate_witnesses,
    corollary_check,
    verify_witness,
)


class UsageError(BezmatError):
    """A request argparse accepts but the verb cannot serve."""


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 4."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(4)


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--inject-fault",
        choices=("witness", "oracle"),
        default=None,
        help=argparse.SUPPRESS,
    )
    triple = argparse.ArgumentParser(add_help=False)
    for name in "abc":
        triple.add_argument(name, metavar=name.upper())
    parser = _Parser(
        prog="bezmat",
        description="Exact generalized inverses and similarity witnesses over "
        "the integers, rationals, and rational-coefficient polynomials.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="VERB")

    def verb(name, handler, help, *parents):
        p = sub.add_parser(name, parents=[common, *parents], help=help)
        p.set_defaults(handler=handler)
        return p

    p = verb("rank", _cmd_rank, "rank of a matrix over its ring")
    p.add_argument("matrix", help="matrix document (JSON file)")

    p = verb("hnf", _cmd_hnf, "column echelon form H = A*T with unimodular T")
    p.add_argument("matrix")

    p = verb("smith", _cmd_smith, "diagonal form A = U*S*V with unimodular U, V")
    p.add_argument("matrix")

    p = verb("ginv", _cmd_ginv, "group inverse over the ring, if it exists")
    p.add_argument("matrix")

    p = verb("drazin", _cmd_drazin, "Drazin inverse over the ring and its index")
    p.add_argument("matrix")

    verb(
        "witness",
        _cmd_witness,
        "invertible W with A*B = W*(C*A)*W^-1, given A*B*A = A*C*A "
        "and both products group invertible",
        triple,
    )

    p = verb(
        "witness-power",
        _cmd_witness_power,
        "invertible W with (A*B)^s = W*((C*A)^s)*W^-1 for s at or above "
        "the index of A*B",
        triple,
    )
    p.add_argument(
        "--s",
        type=int,
        default=None,
        help="power (natural number); defaults to max(index of A*B, 1)",
    )

    p = verb(
        "verify",
        _cmd_verify,
        "check a claimed witness W against one conjugation identity",
        triple,
    )
    p.add_argument("w", metavar="W")
    p.add_argument("--mode", choices=_MODES, default="product")

    verb(
        "verify-cline",
        _cmd_verify_cline,
        "check the exchange formula (C*A)^D = C*((A*B)^D)^2*A and the "
        "index bound ind(C*A) <= ind(A*B) + 1",
        triple,
    )

    p = verb(
        "check",
        _cmd_check,
        "evaluate one named set of column-module conditions; on success "
        "also produce and verify the witness they imply",
        triple,
    )
    p.add_argument("--variant", choices=VARIANTS, required=True)

    p = verb(
        "gen",
        _cmd_gen,
        "generate random instances (bundles embed the generating "
        "configuration for exact replay)",
    )
    p.add_argument(
        "kind",
        choices=("matrix", "group", "triple", "drazin", "corollary-false"),
        help="matrix: random dense; group: random group-invertible; "
        "triple: (A,B,C) meeting every witness hypothesis; drazin: triple "
        "with prescribed index of A*B; corollary-false: triple engineered "
        "to fail named conditions",
    )
    p.add_argument("--ring", choices=tuple(RINGS), default="int")
    p.add_argument("--n", type=int, default=3, help="matrix size")
    p.add_argument("--seed", type=int, default=0, help="64-bit generator seed")
    p.add_argument("--entry-bound", type=int, default=9, help="entry magnitude / degree bound")
    p.add_argument("--core-rank", type=int, default=1, help="rank of the invertible core")
    p.add_argument("--c-equals-b", action="store_true", help="generate with C == B")
    p.add_argument("--index", type=int, default=1, help="target index for kind=drazin")
    p.add_argument("--variant", choices=VARIANTS, default=None, help="for kind=corollary-false")

    p = verb(
        "selftest",
        _cmd_selftest,
        "run the acceptance suites (summary on stdout, timing on stderr)",
    )
    p.add_argument("--profile", choices=("quick", "full"), default="quick")
    p.add_argument("--seed", type=int, default=0, help="base seed for all suites")

    return parser


def _load_triple(args):
    return load_matrix(args.a), load_matrix(args.b), load_matrix(args.c)


def _cmd_rank(args) -> dict:
    x = load_matrix(args.matrix)
    return {"ring": x.ring.name, "rows": x.m, "cols": x.n, "rank": rank(x)}


def _cmd_hnf(args) -> dict:
    x = load_matrix(args.matrix)
    hr = column_hermite(x)
    return {
        "H": matrix_to_doc(hr.H),
        "T": matrix_to_doc(hr.T),
        "pivot_rows": list(hr.pivot_rows),
        "rank": len(hr.pivot_rows),
    }


def _cmd_smith(args) -> dict:
    x = load_matrix(args.matrix)
    sr = smith(x)
    return {
        "S": matrix_to_doc(sr.S),
        "U": matrix_to_doc(sr.U),
        "V": matrix_to_doc(sr.V),
        "diagonal": [x.ring.format_entry(d) for d in sr.diagonal()],
        "rank": sr.rank,
    }


def _cmd_ginv(args) -> dict:
    x = load_matrix(args.matrix)
    return {"ginv": matrix_to_doc(group_inverse(x).ginv)}


def _cmd_drazin(args) -> dict:
    x = load_matrix(args.matrix)
    res = drazin(x)
    return {"index": res.index, "dinv": matrix_to_doc(res.dinv)}


def _cmd_witness(args) -> dict:
    a, b, c = _load_triple(args)
    return witness_to_doc(conjugate_witnesses(a, b, c), dict.fromkeys(_MODES, True))


def _cmd_witness_power(args) -> dict:
    a, b, c = _load_triple(args)
    s, ab, dr_ab = args.s, None, None
    if s is None:
        ab = a @ b
        dr_ab = drazin(ab)
        s = max(dr_ab.index, 1)
    doc = witness_to_doc(_power_witness(a, b, c, s, ab, dr_ab), {"power_product": True})
    doc["s"] = s
    return doc


def _cmd_verify(args) -> dict:
    a, b, c = _load_triple(args)
    w = load_matrix(args.w)
    ok = verify_witness(a, b, c, w, mode=args.mode)
    return {"mode": args.mode, "verified": bool(ok)}


def _cmd_verify_cline(args) -> dict:
    a, b, c = _load_triple(args)
    ok, dr_ab, dr_ca = _cline(a, b, c)
    doc = {"verified": bool(ok)}
    if ok:
        doc["index_ab"] = dr_ab.index
        doc["index_ca"] = dr_ca.index
    return doc


def _cmd_check(args) -> dict:
    a, b, c = _load_triple(args)
    report, wit = corollary_check(a, b, c, args.variant)
    return {
        "variant": args.variant,
        "hypotheses": {
            "shared_product": report.aba_equals_aca,
            "ab_group_invertible": report.ab_group_invertible,
            "ca_group_invertible": report.ca_group_invertible,
        },
        "conditions": [
            {"name": name, "holds": bool(ok)} for name, ok in report.variant_conditions
        ],
        "witness": witness_to_doc(wit, dict.fromkeys(_MODES, True)),
    }


def _cmd_gen(args) -> dict:
    if args.n < 0 or args.entry_bound < 0 or args.core_rank < 0 or args.seed < 0:
        raise UsageError("gen sizes, bounds, and seeds must be nonnegative")
    if args.core_rank > args.n:
        raise UsageError("--core-rank cannot exceed --n")
    cfg = GenConfig(
        ring=args.ring,
        n=args.n,
        seed=args.seed,
        entry_bound=args.entry_bound,
        core_rank=args.core_rank,
    )
    kind = args.kind
    doc: dict = {"kind": kind, "config": cfg.to_dict()}
    if kind == "matrix":
        doc["X"] = matrix_to_doc(random_matrix(cfg))
        return doc
    if kind == "group":
        doc["X"] = matrix_to_doc(gen_group_invertible(cfg))
        return doc
    if kind == "triple":
        tr = gen_flanders_triple(cfg, c_equals_b=args.c_equals_b)
    elif kind == "drazin":
        if args.index < 1:
            raise UsageError("--index must be at least 1")
        if args.n - args.core_rank < args.index:
            raise UsageError("need n - core_rank >= index for kind=drazin")
        doc["index"] = args.index
        tr = gen_drazin_triple(cfg, args.index, c_equals_b=args.c_equals_b)
    else:  # corollary-false
        if args.variant is None:
            raise UsageError("--variant is required for kind=corollary-false")
        if args.ring != "int":
            raise UsageError("kind=corollary-false supports --ring int only")
        a, b, c, expected = gen_corollary_false(cfg, args.variant)
        doc["variant"] = args.variant
        doc["expected_failed"] = list(expected)
        doc["A"] = matrix_to_doc(a)
        doc["B"] = matrix_to_doc(b)
        doc["C"] = matrix_to_doc(c)
        return doc
    doc["c_equals_b"] = bool(args.c_equals_b)
    doc["retries"] = tr.retries
    doc["A"] = matrix_to_doc(tr.A)
    doc["B"] = matrix_to_doc(tr.B)
    doc["C"] = matrix_to_doc(tr.C)
    return doc


def _cmd_selftest(args) -> int:
    from . import acceptance

    if args.seed < 0:
        raise UsageError("--seed must be nonnegative")
    ok, _results = acceptance.run_all(profile=args.profile, base_seed=args.seed)
    return 0 if ok else 1


def _error_exit(exc: BezmatError) -> int:
    """Map a library error to (printed document, exit code)."""
    doc = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, HypothesisViolated):
        if exc.lhs is not None and exc.rhs is not None:
            doc["lhs"] = matrix_to_doc(exc.lhs)
            doc["rhs"] = matrix_to_doc(exc.rhs)
        code = 2
    elif isinstance(exc, ConditionNotMet):
        doc["failed"] = list(exc.failed)
        if exc.report is not None:
            doc["conditions"] = [
                {"name": name, "holds": bool(ok)}
                for name, ok in exc.report.variant_conditions
            ]
        code = 2
    elif isinstance(exc, IndexTooSmall):
        doc["s"] = exc.s
        doc["index"] = exc.index
        code = 2
    elif isinstance(exc, NotGroupInvertible):
        if exc.side is not None:
            doc["side"] = exc.side
        code = 3
    elif isinstance(exc, (NotDrazinInvertible, NotInvertibleOverRing)):
        code = 3
    elif isinstance(exc, GenerationExhausted):
        code = 1
    elif isinstance(exc, InternalAssertion):
        if exc.instance is not None:
            doc["instance"] = exc.instance
        code = 5
    else:
        # UsageError, FormatError, NotSquare, NoSolution, NotDivisible,
        # RingMismatch, DimensionMismatch, DivisionByZero: input problems.
        code = 4
    print(dumps_doc(doc))
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 4
    fault = args.inject_fault
    if fault:
        faults.activate(fault)
    # entries are exact integers of any size, and Python refuses to convert
    # one of more than 4,300 digits to or from a string until this is lifted
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        result = args.handler(args)
    except BezmatError as exc:
        return _error_exit(exc)
    except ValueError as exc:
        print(dumps_doc({"error": "ValueError", "message": str(exc)}))
        return 4
    else:
        if isinstance(result, int):
            return result
        print(dumps_doc(result))
        return 0
    finally:
        if fault:
            faults.deactivate(fault)
        if digits is not None:
            sys.set_int_max_str_digits(digits)


def run_argv(argv):
    """In-process invocation: returns (exit_code, captured_stdout)."""
    import io as _io

    buf = _io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(list(argv))
    finally:
        sys.stdout = old
    return code, buf.getvalue()
