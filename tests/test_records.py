import os
import subprocess
import sys

import pytest

import qschub
from qschub.polyring import QPoly, QP_ONE
from qschub.rep import BCScan, CharacterValue, RepMatrix, bc_scan, generator_matrix
from qschub.schubert import CoinvariantVector, SchubertTable, build_schubert_table
from qschub.verify import SuiteResult


def test_the_package_imports_without_dataclasses():
    # dataclasses imports inspect, ast, dis and tokenize: most of a cold
    # start's imports beyond the interpreter's own.
    code = ("import sys, qschub.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qschub.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_records_compare_by_class_and_fields():
    value = CharacterValue(1, (2, 1), QPoly((1, -1)))
    assert value == CharacterValue(1, (2, 1), QPoly((1, -1)))
    assert hash(value) == hash(CharacterValue(1, (2, 1), QPoly((1, -1))))
    assert value != CharacterValue(2, (2, 1), QPoly((1, -1)))
    assert value != (1, (2, 1), QPoly((1, -1)))
    assert CoinvariantVector(1, {(2, 1): QP_ONE}) == CoinvariantVector(1, {(2, 1): QP_ONE})
    assert CoinvariantVector(1, {}) != CoinvariantVector(2, {})
    assert SuiteResult("x") == SuiteResult("x", [], [])
    assert SuiteResult("x") != SuiteResult("x", ["line"])
    assert bc_scan(3) == bc_scan(3) != BCScan(3, [], [])
    assert BCScan(3, [], ["v"]) != BCScan(3, [], [])
    with pytest.raises(TypeError):
        hash(SuiteResult("x"))  # its lists grow in place, so it hashes not at all
    assert repr(value) == "CharacterValue(k=1, mu=(2, 1), value=QPoly(1-q))"


def test_a_matrix_compares_without_its_packed_columns():
    m = generator_matrix("rho1", 1, 1, build_schubert_table(3))
    copy = RepMatrix(m.action, m.k, m.basis, dict(m.columns))
    m.packed_columns(8)
    assert m == copy and m.norm == copy.norm == 2
    assert m != RepMatrix("symq1", m.k, m.basis, dict(m.columns))
    with pytest.raises(TypeError):
        hash(m)


@pytest.mark.parametrize("record, field", [
    (CharacterValue(1, (2, 1), QP_ONE), "value"),
    (RepMatrix("rho1", 0, ((1, 2),), {(1, 2): {(1, 2): QP_ONE}}), "columns"),
    (SchubertTable(1, {}), "polys"),
    (CoinvariantVector(0, {}), "k"),
    (SuiteResult("x"), "failures"),
    (BCScan(3, [], []), "structural_violations"),
])
def test_frozen_fields_are_read_only(record, field):
    with pytest.raises(AttributeError, match=f"field '{field}'"):
        setattr(record, field, None)
    with pytest.raises(AttributeError, match=f"field '{field}'"):
        delattr(record, field)

