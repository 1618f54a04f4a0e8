"""Result records: immutable values with named fields.

Every record the library returns is a named tuple, except
GeneratedTriple, which iterates over (A, B, C) only and keeps its
retry count as a separate field.  Each record is built twice from the
same input, so equal values must be equal and hash alike.
"""

import pytest

from bezmat.acceptance import SuiteResult
from bezmat.field_oracle import fraction_field_oracle
from bezmat.generate import GenConfig, GeneratedTriple, gen_flanders_triple
from bezmat.ginverse import core_split, drazin, group_inverse
from bezmat.matrix import Mat
from bezmat.normal_forms import column_hermite, rank_factorization, row_hermite, smith
from bezmat.rings import ZZ
from bezmat.similarity import check_hypotheses, similarity_witness

X = Mat.from_rows(ZZ, [[1, 1], [0, 0]])
A = Mat.from_rows(ZZ, [[0, 1], [0, 0]])
B = Mat.from_rows(ZZ, [[0, 0], [1, 0]])
CFG = GenConfig(ring="int", n=4, seed=5, entry_bound=5, core_rank=2)

RECORDS = {
    "HermiteResult": lambda: column_hermite(X),
    "RowHermiteResult": lambda: row_hermite(X),
    "SmithResult": lambda: smith(X),
    "RankFactorization": lambda: rank_factorization(X),
    "GroupInverseResult": lambda: group_inverse(X),
    "DrazinResult": lambda: drazin(X),
    "CoreSplit": lambda: core_split(X),
    "SimilarityWitness": lambda: similarity_witness(A, B, B),
    "HypothesisReport": lambda: check_hypotheses(A, B, B),
    "OracleReport": lambda: fraction_field_oracle(X),
    "GenConfig": lambda: GenConfig(ring="polyrat", n=2, seed=7),
    "GeneratedTriple": lambda: gen_flanders_triple(CFG, c_equals_b=False),
    "SuiteResult": lambda: SuiteResult(1, "fixture", True, 1, "ok", 0.25),
}
FIELDS = {
    "HermiteResult": ("H", "T", "pivot_rows"),
    "RowHermiteResult": ("H", "T", "pivot_cols"),
    "SmithResult": ("U", "S", "V"),
    "RankFactorization": ("L", "Rt", "r"),
    "GroupInverseResult": ("ginv",),
    "DrazinResult": ("index", "dinv"),
    "CoreSplit": ("H", "Hinv", "M", "r"),
    "SimilarityWitness": ("W", "Winv", "r1", "X", "Y", "Xginv", "Yginv"),
    "HypothesisReport": (
        "aba_equals_aca", "ab_group_invertible", "ca_group_invertible", "variant_conditions",
    ),
    "OracleReport": (
        "ring", "n", "rank", "group_exists", "group_integral", "group_ring",
        "drazin_index", "drazin_integral", "drazin_ring",
    ),
    "GenConfig": ("ring", "n", "seed", "entry_bound", "core_rank"),
    "GeneratedTriple": ("A", "B", "C", "retries"),
    "SuiteResult": ("criterion", "name", "passed", "count", "detail", "duration"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_an_immutable_value(name):
    rec, again = RECORDS[name](), RECORDS[name]()
    assert type(rec).__name__ == name
    for field in FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
    with pytest.raises(AttributeError):
        rec.extra = None
    assert rec == again and hash(rec) == hash(again)
    parts = ", ".join(f"{field}={getattr(rec, field)!r}" for field in FIELDS[name])
    assert repr(rec) == f"{name}({parts})"


@pytest.mark.parametrize("name", sorted(set(RECORDS) - {"GeneratedTriple"}))
def test_named_tuple_records_unpack_and_index(name):
    rec = RECORDS[name]()
    assert rec._fields == FIELDS[name]
    assert tuple(rec) == tuple(getattr(rec, field) for field in FIELDS[name])
    assert rec[0] is getattr(rec, FIELDS[name][0])


def test_smith_result_diagonal_and_rank():
    full = smith(Mat.from_rows(ZZ, [[2, 4], [6, 8]]))
    assert full.diagonal() == (2, 4) and full.rank == 2
    assert smith(X).diagonal() == (1,) and smith(X).rank == 1
    zero = smith(Mat.zeros(ZZ, 2, 3))
    assert zero.diagonal() == () and zero.rank == 0


def test_gen_config_defaults_and_dict():
    cfg = GenConfig()
    assert cfg.to_dict() == {"ring": "int", "n": 3, "seed": 0, "entry_bound": 9, "core_rank": 1}
    assert list(CFG.to_dict()) == ["ring", "n", "seed", "entry_bound", "core_rank"]
    assert type(cfg.to_dict()) is dict
    assert GenConfig(**CFG.to_dict()) == CFG


def test_generated_triple_unpacks_three_matrices():
    tr = gen_flanders_triple(CFG, c_equals_b=False)
    a, b, c = tr
    assert (a, b, c) == (tr.A, tr.B, tr.C)
    assert all(isinstance(m, Mat) for m in (a, b, c))
    assert tr.retries == gen_flanders_triple(CFG, c_equals_b=False).retries >= 0
    other = GeneratedTriple(A=a, B=b, C=c, retries=tr.retries + 1)
    assert other != tr and list(other) == list(tr)
    assert other != (a, b, c)
