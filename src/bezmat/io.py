"""Matrix and certificate (de)serialization.

One shared JSON shape for matrices:

    {"ring": "int" | "rat" | "polyrat",
     "rows": m, "cols": n,
     "entries": [[...], ...]}        # m rows of n entries, row-major

Entry syntax per ring:
  int      decimal string ("-42"); bare JSON integers also accepted
  rat      "p/q" with q > 0 and gcd(p, q) = 1, or "p" when q = 1
  polyrat  ascending coefficient array of rationals, e.g.
           ["-1", "0", "1"] for x^2 - 1; [] is the zero polynomial

Printing always emits strings (and coefficient arrays of strings), so
parse(print(M)) == M bit-exactly.  Anything malformed raises
FormatError — a document either loads completely or not at all.
"""

from __future__ import annotations

import json

from .errors import FormatError
from .matrix import Mat
from .rings import get_ring

_MATRIX_KEYS = {"ring", "rows", "cols", "entries"}


def matrix_to_doc(mat: Mat) -> dict:
    fmt = mat.ring.format_entry
    return {
        "ring": mat.ring.name,
        "rows": mat.m,
        "cols": mat.n,
        "entries": [[fmt(e) for e in row] for row in mat.rows],
    }


def _require_nat(doc: dict, key: str) -> int:
    val = doc.get(key)
    if isinstance(val, bool) or not isinstance(val, int) or val < 0:
        raise FormatError(f"field {key!r} must be a nonnegative integer, got {val!r}")
    return val


def matrix_from_doc(doc) -> Mat:
    if not isinstance(doc, dict):
        raise FormatError(f"matrix document must be a JSON object, got {type(doc).__name__}")
    keys = set(doc)
    if keys != _MATRIX_KEYS:
        missing = sorted(_MATRIX_KEYS - keys)
        extra = sorted(keys - _MATRIX_KEYS)
        parts = []
        if missing:
            parts.append("missing " + ", ".join(missing))
        if extra:
            parts.append("unexpected " + ", ".join(extra))
        raise FormatError("bad matrix document keys: " + "; ".join(parts))
    ring = get_ring(doc["ring"])
    m = _require_nat(doc, "rows")
    n = _require_nat(doc, "cols")
    entries = doc["entries"]
    if not isinstance(entries, list) or len(entries) != m:
        raise FormatError(f"expected {m} rows of entries")
    parsed = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != n:
            raise FormatError(f"row {i} must be a list of {n} entries")
        parsed.append([ring.parse_entry(e) for e in row])
    return Mat.from_rows(ring, parsed, ncols=n)


def loads_matrix(text: str) -> Mat:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    return matrix_from_doc(doc)


def load_matrix(path: str) -> Mat:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    try:
        return loads_matrix(text)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def dumps_doc(doc) -> str:
    """Deterministic JSON used for every CLI result document."""
    return json.dumps(doc, indent=2, sort_keys=False)


def save_matrix(path: str, mat: Mat) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_doc(matrix_to_doc(mat)) + "\n")


def witness_to_doc(wit, verifications: dict) -> dict:
    """Bundle a similarity witness with its verification flags."""
    return {
        "W": matrix_to_doc(wit.W),
        "Winv": matrix_to_doc(wit.Winv),
        "r1": wit.r1,
        "verified": dict(verifications),
    }
