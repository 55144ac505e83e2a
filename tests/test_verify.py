from fractions import Fraction

import pytest

from helpers import diagonal_scaling_samples
from qschub.perm import perm_str
from qschub.rep import MINUS_Q, descent_pairs
from qschub.verify import (
    SUITES,
    SuiteResult,
    character_table,
    run_suites,
    _mahonian,
    _rank,
)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes_n3(name):
    result = SUITES[name](3, degree_bound=3, seed=17)
    assert result.passed, result.failures[:5]
    assert result.lines


@pytest.mark.parametrize("name", ["word-invariance", "a-minus-r"])
def test_seeded_suites_pass_n4(name):
    result = SUITES[name](4, degree_bound=3, seed=23)
    assert result.passed, result.failures[:5]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_diagonal_scaling_oracle_scales_by_minus_q(n):
    samples = diagonal_scaling_samples(n)
    assert len(samples) == 3 * len(descent_pairs(n))
    for i, w, word, before, after in samples:
        assert after == MINUS_Q * before, (i, perm_str(w), word)
    assert any(before for *_, before, _ in samples)


def test_run_suites_all():
    results = run_suites("all", 2, degree_bound=3, seed=17)
    assert [r.name for r in results] == list(SUITES)
    assert all(r.passed for r in results)


def test_run_suites_subset():
    results = run_suites(["knuth", "relations"], 3, degree_bound=2, seed=17)
    assert [r.name for r in results] == ["knuth", "relations"]


def test_character_table_structure():
    table = character_table(3)
    assert list(table) == [(k, mu) for k in range(4) for mu in ((3,), (2, 1), (1, 1, 1))]
    assert all(len(set(values)) == 1 for values in table.values())
    assert str(table[(1, (3,))][2]) == "-q"
    assert character_table(3, ("weights",))[(1, (3,))] == (table[(1, (3,))][2],)


def test_mahonian():
    assert _mahonian(3) == [1, 2, 2, 1]
    assert _mahonian(4) == [1, 3, 5, 6, 5, 3, 1]
    assert _mahonian(1) == [1]


def test_rank():
    F = Fraction
    assert _rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert _rank([[F(1), F(0)], [F(0), F(1)]]) == 2
    assert _rank([[F(0), F(0)]]) == 0


def test_result_rendering():
    result = SuiteResult("demo", lines=["checked things"], failures=["bad case"])
    text = result.render()
    assert "FAIL" in text and "bad case" in text
    assert SuiteResult("demo").passed



def test_equivalence_report_line_names_the_cross_check_only_where_it_runs(monkeypatch):
    from qschub import verify
    from qschub.rep import EquivalenceReport

    monkeypatch.setattr(verify, "trace_equivalence_report",
                        lambda n: EquivalenceReport(n, [], []))
    assert verify.suite_equivalence(4).lines == [
        "coinvariant trace pairs compared at the classes T_mu: 0; "
        "rho1's quotient-vs-upstairs cross-check included"
    ]
    assert verify.suite_equivalence(5).lines == [
        "coinvariant trace pairs compared at the classes T_mu: 0; "
        "rho1's quotient-vs-upstairs cross-check runs for n <= 4"
    ]
