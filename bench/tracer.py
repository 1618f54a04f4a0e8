"""Layer spans recorded from outside the library.

``Tracer.install`` wraps module functions of ``bezmat`` at run time and
rebinds every name that refers to the original, in every ``bezmat``
module that imported it, so calls between modules are seen as well as
calls from the benchmark.  ``Mat.__matmul__`` is wrapped on the class.
Ring kernels (``xgcd``, ``exact_div``, ``Poly.divmod``) are only counted:
they run millions of times, and a span each would swamp what it measures.

A span is ``[id, parent id, op id, name, start, end, excluded, extra]``.
``excluded`` is time the tracer itself spent inside the span after a
child ended (measuring entry sizes), so that self times leave it out.
A layer's self time is its span minus its child spans.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

import exact

# (module, attribute, span name, extra-info key)
SPANNED = (
    ("bezmat.matrix", "det", "matrix.det", None),
    ("bezmat.matrix", "inverse_over_ring", "matrix.inverse_over_ring", "input"),
    ("bezmat.normal_forms", "column_hermite", "normal_forms.column_hermite", "hermite"),
    ("bezmat.normal_forms", "smith", "normal_forms.smith", "smith"),
    ("bezmat.ginverse", "_group_inverse_attempt", "ginverse.group_inverse_attempt", "input"),
    ("bezmat.ginverse", "drazin", "ginverse.drazin", None),
    ("bezmat.ginverse", "_core_split_with", "ginverse.core_split", None),
    ("bezmat.similarity", "similarity_witness", "similarity.similarity_witness", None),
    ("bezmat.similarity", "verify_witness", "similarity.verify_witness", None),
    ("bezmat.similarity", "power_witness", "similarity.power_witness", None),
    ("bezmat.similarity", "cline_verify", "similarity.cline_verify", None),
    ("bezmat.similarity", "corollary_check", "similarity.corollary_check", None),
    ("bezmat.field_oracle", "fraction_field_oracle", "field_oracle.fraction_field_oracle", None),
    ("bezmat.io", "load_matrix", "io.load", None),
    ("bezmat.io", "dumps_doc", "io.dump", None),
    ("bezmat.generate", "random_matrix", "generate.random_matrix", None),
    ("bezmat.generate", "gen_group_invertible", "generate.gen_group_invertible", None),
    ("bezmat.generate", "gen_flanders_triple", "generate.gen_flanders_triple", "retries"),
    ("bezmat.generate", "gen_drazin_triple", "generate.gen_drazin_triple", "retries"),
    # gen_corollary_true returns gen_flanders_triple's result; its retries count once.
    ("bezmat.generate", "gen_corollary_true", "generate.gen_corollary_true", None),
)

# (module, class, method, counter name)
COUNTED = (
    ("bezmat.rings", "IntegerRing", "xgcd", "rings.xgcd"),
    ("bezmat.rings", "RationalField", "xgcd", "rings.xgcd"),
    ("bezmat.rings", "PolynomialRing", "xgcd", "rings.xgcd"),
    ("bezmat.rings", "IntegerRing", "exact_div", "rings.exact_div"),
    ("bezmat.rings", "RationalField", "exact_div", "rings.exact_div"),
    ("bezmat.rings", "PolynomialRing", "exact_div", "rings.exact_div"),
    ("bezmat.rings", "Poly", "divmod", "rings.poly_divmod"),
)


def mat_size(mat):
    """(max entry bits, max degree) of a bezmat matrix; degree -1 for ints."""
    rows = exact.from_mat(mat)
    deg = exact.max_degree(rows) if mat.ring.name == "polyrat" else -1
    return exact.max_bits(rows), deg


def _extra(kind, args, res):
    if kind == "input":
        return hash(args[0])
    if kind == "retries":
        return res.retries
    mats = (res.H, res.T) if kind == "hermite" else (res.U, res.S, res.V)
    sizes = [mat_size(m) for m in mats]
    return max(s[0] for s in sizes), max(s[1] for s in sizes)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._saved = []

    def install(self):
        for modname, attr, name, kind in SPANNED:
            original = getattr(sys.modules[modname], attr)
            self._rebind(original, self._spanned(name, kind, original))
        mat_cls = sys.modules["bezmat.matrix"].Mat
        self._set(mat_cls, "__matmul__", self._spanned("matrix.matmul", None, mat_cls.__matmul__))
        for modname, cls_name, method, name in COUNTED:
            cls = getattr(sys.modules[modname], cls_name)
            self._set(cls, method, self._counted(name, cls.__dict__[method]))

    def uninstall(self):
        for obj, attr, original in reversed(self._saved):
            setattr(obj, attr, original)
        self._saved.clear()

    def _set(self, obj, attr, value):
        self._saved.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def _rebind(self, original, wrapped):
        for modname, mod in list(sys.modules.items()):
            if modname != "bezmat" and not modname.startswith("bezmat."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)

    def _spanned(self, name, kind, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            rec = [len(spans), stack[-1][0] if stack else -1, self.op, name, 0.0, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec)
            rec[4] = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                rec[5] = perf_counter()
                stack.pop()
            if kind is not None:
                rec[7] = _extra(kind, args, res)
                spent = perf_counter() - rec[5]
                for outer in stack:
                    outer[6] += spent
            return res

        return wrapped

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped


def append_spans(into, spans, op):
    """Append spans that another process recorded for op, renumbering ids."""
    offset = len(into)
    for s in spans:
        into.append([s[0] + offset, s[1] + offset if s[1] >= 0 else -1, op, *s[3:]])


def empty_total():
    return {"calls": 0, "self_s": 0.0, "inputs": set(), "bits": 0, "degree": -1, "retries": 0}


def layer_totals(spans):
    """Per span name: calls, self seconds, distinct inputs per op, max bits
    and max degree."""
    dur = [s[5] - s[4] - s[6] for s in spans]
    child = defaultdict(float)
    for s in spans:
        if s[1] >= 0:
            child[s[1]] += dur[s[0]]
    out = defaultdict(empty_total)
    for s in spans:
        t = out[s[3]]
        t["calls"] += 1
        t["self_s"] += dur[s[0]] - child[s[0]]
        extra = s[7]
        if isinstance(extra, (tuple, list)):
            t["bits"] = max(t["bits"], extra[0])
            t["degree"] = max(t["degree"], extra[1])
        elif s[3].startswith("generate.") and extra is not None:
            t["retries"] += extra
        elif extra is not None:
            t["inputs"].add((s[2], extra))
    return out
