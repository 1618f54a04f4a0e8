"""Matrix document serialization: strict parsing, bit-exact round trips."""

import json
from fractions import Fraction

import pytest

from bezmat.errors import FormatError
from bezmat.io import (
    dumps_doc,
    load_matrix,
    loads_matrix,
    matrix_from_doc,
    matrix_to_doc,
    save_matrix,
    witness_to_doc,
)
from bezmat.matrix import Mat
from bezmat.rings import QQ, QQX, ZZ, Poly
from bezmat.similarity import similarity_witness


def doc(ring, rows, cols, entries):
    return {"ring": ring, "rows": rows, "cols": cols, "entries": entries}


def test_round_trip_int():
    m = Mat.from_rows(ZZ, [[0, -7], [123456789012345678901234567890, 1]])
    assert matrix_from_doc(matrix_to_doc(m)) == m


def test_round_trip_rat():
    m = Mat.from_rows(QQ, [[Fraction(-3, 7), Fraction(0)], [Fraction(10), Fraction(22, 4)]])
    assert matrix_from_doc(matrix_to_doc(m)) == m
    d = matrix_to_doc(m)
    assert d["entries"][0][0] == "-3/7"
    assert d["entries"][1][1] == "11/2"


def test_round_trip_polyrat():
    x = Poly.x()
    half = Poly.constant(Fraction(1, 2))
    m = Mat.from_rows(QQX, [[x * x - 1, half], [Poly.constant(Fraction(0)), x]])
    d = matrix_to_doc(m)
    assert d["entries"][0][0] == ["-1", "0", "1"]
    assert d["entries"][1][0] == []
    assert matrix_from_doc(d) == m


def test_round_trip_empty():
    m = Mat.zeros(ZZ, 0, 0)
    assert matrix_from_doc(matrix_to_doc(m)) == m


@pytest.mark.parametrize("ring", [ZZ, QQ, QQX], ids=lambda r: r.name)
@pytest.mark.parametrize("shape", [(0, 3), (3, 0)], ids=["0x3", "3x0"])
def test_round_trip_zero_sized(ring, shape):
    m = Mat.zeros(ring, *shape)
    back = matrix_from_doc(matrix_to_doc(m))
    assert back.shape == shape
    assert back == m


def test_parse_accepts_bare_ints_for_int_ring():
    m = matrix_from_doc(doc("int", 1, 2, [[1, "-2"]]))
    assert m == Mat.from_rows(ZZ, [[1, -2]])


def test_parse_normalizes_unreduced_rationals():
    m = matrix_from_doc(doc("rat", 1, 1, [["2/4"]]))
    assert m.rows[0][0] == Fraction(1, 2)


def test_parse_normalizes_trailing_zero_coefficients():
    m = matrix_from_doc(doc("polyrat", 1, 1, [[["1", "0"]]]))
    assert m.rows[0][0] == Poly.constant(Fraction(1))


def test_strict_keys():
    good = doc("int", 1, 1, [["3"]])
    extra = dict(good, comment="hi")
    with pytest.raises(FormatError) as exc_info:
        matrix_from_doc(extra)
    assert "comment" in str(exc_info.value)
    missing = {k: v for k, v in good.items() if k != "cols"}
    with pytest.raises(FormatError) as exc_info2:
        matrix_from_doc(missing)
    assert "cols" in str(exc_info2.value)


def test_dimension_fields_validated():
    with pytest.raises(FormatError):
        matrix_from_doc(doc("int", -1, 1, [["1"]]))
    with pytest.raises(FormatError):
        matrix_from_doc(doc("int", True, 1, [["1"]]))
    with pytest.raises(FormatError):
        matrix_from_doc(doc("int", "1", 1, [["1"]]))
    with pytest.raises(FormatError):
        matrix_from_doc(doc("int", 2, 1, [["1"]]))  # row count mismatch
    with pytest.raises(FormatError):
        matrix_from_doc(doc("int", 1, 2, [["1"]]))  # row length mismatch


def test_non_dict_and_unknown_ring():
    with pytest.raises(FormatError):
        matrix_from_doc([1, 2])
    with pytest.raises(FormatError):
        matrix_from_doc(doc("gauss", 1, 1, [["1"]]))


def test_bad_entries_rejected():
    for bad in ("x", "1.5", "1/0", "", None, 1.5):
        with pytest.raises(FormatError):
            matrix_from_doc(doc("int" if isinstance(bad, str) else "int", 1, 1, [[bad]]))
    with pytest.raises(FormatError):
        matrix_from_doc(doc("polyrat", 1, 1, [["3"]]))  # string, not array
    with pytest.raises(FormatError):
        matrix_from_doc(doc("polyrat", 1, 1, [[[["1"]]]]))  # nested array


def test_loads_rejects_invalid_json():
    with pytest.raises(FormatError) as exc_info:
        loads_matrix("{not json")
    assert "JSON" in str(exc_info.value)


def test_load_matrix_wraps_oserror_and_prefixes_path(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(FormatError) as exc_info:
        load_matrix(str(missing))
    assert "nope.json" in str(exc_info.value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc("int", 1, 1, [["x"]])))
    with pytest.raises(FormatError) as exc_info2:
        load_matrix(str(bad))
    assert "bad.json" in str(exc_info2.value)


def test_load_matrix_rejects_non_utf8_with_path(tmp_path):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"ring": "int", "rows": 1, "cols": 1, "entries": [["\xe9"]]}')
    with pytest.raises(FormatError) as exc_info:
        load_matrix(str(latin1))
    assert str(exc_info.value).startswith(f"{latin1}: not UTF-8 text: ")


def test_save_load_file_round_trip(tmp_path):
    m = Mat.from_rows(QQ, [[Fraction(1, 3), Fraction(-5)]])
    p = tmp_path / "m.json"
    save_matrix(str(p), m)
    assert load_matrix(str(p)) == m
    # deterministic: a second save produces identical bytes
    first = p.read_bytes()
    save_matrix(str(p), m)
    assert p.read_bytes() == first


def test_dumps_doc_is_deterministic():
    d = doc("int", 1, 1, [["1"]])
    assert dumps_doc(d) == dumps_doc(json.loads(json.dumps(d)))


def test_witness_doc_shape():
    a = Mat.from_rows(ZZ, [[0, 1], [0, 0]])
    b = Mat.from_rows(ZZ, [[0, 0], [1, 0]])
    wit = similarity_witness(a, b, b)
    d = witness_to_doc(wit, {"product": True, "ginv": True})
    assert set(d) == {"W", "Winv", "r1", "verified"}
    assert d["r1"] == 1
    assert matrix_from_doc(d["W"]) == wit.W
    assert d["verified"] == {"product": True, "ginv": True}
