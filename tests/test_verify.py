import re
from collections import Counter
from fractions import Fraction

import pytest

from helpers import _rank, dense_fixed_space_dim, diagonal_scaling_samples, monomial_exponents
from qschub import verify
from qschub.operators import _pairwise, _sorting_rule, op_a, op_r, op_rstar
from qschub.perm import partitions_of, perm_str
from qschub.polyring import MPoly, ONE_MINUS_Q, Q
from qschub.rep import MINUS_Q, descent_pairs
from qschub.verify import (
    SUITES,
    SuiteResult,
    character_table,
    run_suites,
    _mahonian,
)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes_n3(name):
    result = SUITES[name](3, degree_bound=3, seed=17)
    assert result.passed, result.failures[:5]
    assert result.lines


@pytest.mark.parametrize("name", ["a-minus-r"])
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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dense_fixed_space_dim_is_the_i_symmetric_count(n):
    # The oracle of the kernels suite's claim, at the special values -1, 0
    # and 1 too: the i-symmetric polynomials of degree d have one basis
    # element per exponent orbit {e, s_i e}.
    points = [Fraction(-1), Fraction(0), Fraction(1), Fraction(-3, 7), Fraction(5, 2)]
    for op in (op_a, op_r):
        for i in range(1, n):
            for d in range(5):
                exps = monomial_exponents(n, d)
                expected = (len(exps) + sum(e[i - 1] == e[i] for e in exps)) // 2
                for r in points:
                    assert dense_fixed_space_dim(op, i, exps, r) == expected, (op, i, d, r)


def test_a_term_leaving_its_block_fails_the_kernels_suite(monkeypatch):
    # The stray term also breaks the image's i-symmetry and the fixed orbit
    # sum x^(0, 0, 1), so all three checks of that image fail.
    def leaky_r(f, i):
        out = op_r(f, i)
        if i == 1 and f == MPoly.monomial(3, (0, 0, 1)):
            out = out + MPoly.monomial(3, (1, 0, 0))
        return out

    monkeypatch.setattr(verify, "op_r", leaky_r)
    result = verify.suite_kernels(3, degree_bound=2)
    assert result.failures == [
        "R image of x^(0, 0, 1) at i=1 leaves its block: (1, 0, 0)",
        "R image of x^(0, 0, 1) at i=1 plus q x^(0, 0, 1) is not i-symmetric",
        "R at i=1 does not fix the orbit sum of x^(0, 0, 1)",
    ]


def test_a_wrong_fixed_space_fails_the_kernels_suite(monkeypatch):
    # The identity fixes everything: every orbit sum stays fixed, but
    # x^e + q x^e is not i-symmetric wherever e_i != e_{i+1}.
    monkeypatch.setattr(verify, "op_a", lambda f, i: f)
    result = verify.suite_kernels(3, degree_bound=2)
    assert result.failures == [
        f"A image of x^{e} at i={i} plus q x^{e} is not i-symmetric"
        for i in (1, 2)
        for d in range(3)
        for e in sorted(monomial_exponents(3, d), reverse=True)
        if e[i - 1] != e[i]
    ]
    assert result.lines == ["A and R fixed spaces = i-symmetric polynomials, "
                            "over Z[q]: 108 identities checked, FAIL (12 counterexamples)"]


# R's rule with the ascent swap weighted q, as in Rstar's.
_Q_ASCENT_SWAP_RULE = _sorting_rule(Q, ONE_MINUS_Q, Q)


@pytest.mark.parametrize("name, mutant, failures", [
    ("R", lambda f, i: _pairwise(f, i, _Q_ASCENT_SWAP_RULE), 28),
    ("R", op_rstar, 42),
    ("A", lambda f, i: f, 28),
], ids=["R-with-q-on-the-ascent-swap", "R-as-Rstar", "A-as-the-identity"])
def test_a_mutated_operator_fails_the_kernels_suite(monkeypatch, name, mutant, failures):
    monkeypatch.setattr(verify, f"op_{name.lower()}", mutant)
    result = verify.suite_kernels(3, degree_bound=3)
    assert len(result.failures) == failures
    # Every label names the operator, i and the exponent vector e.
    e = r"x\^\(\d, \d, \d\)"
    label = re.compile(rf"{name} (image of {e} at i=[12] .+|at i=[12] does not fix the orbit sum of {e})")
    assert all(label.fullmatch(f) for f in result.failures), result.failures


def test_result_rendering():
    result = SuiteResult("demo", lines=["checked things"], failures=["bad case"])
    text = result.render()
    assert "FAIL" in text and "bad case" in text
    assert SuiteResult("demo").passed


def test_tally_counts_checks_and_records_failures_after_the_prefix():
    result = SuiteResult("demo")
    assert result.tally("none", []) == 0
    assert result.tally("mixed", [(True, "a"), (False, "b"), (False, "c")], "p: ") == 3
    assert result.lines == ["none: 0 identities checked, PASS",
                            "mixed: 3 identities checked, FAIL (2 counterexamples)"]
    assert result.failures == ["p: b", "p: c"]


def test_equivalence_report_line_names_the_cross_check_only_where_it_runs(monkeypatch):
    monkeypatch.setattr(verify, "character_table", lambda n: {})
    monkeypatch.setattr(verify, "upstairs_class_traces", lambda n, action, top: {})
    assert verify.suite_characters(4).lines == [
        "trace = trace = weight sum: 0 cells",
        "coinvariant trace pairs compared at the classes T_mu: 0; "
        "rho1's quotient-vs-upstairs cross-check included",
    ]
    assert verify.suite_characters(5).lines == [
        "trace = trace = weight sum: 0 cells",
        "coinvariant trace pairs compared at the classes T_mu: 0; "
        "rho1's quotient-vs-upstairs cross-check runs for n <= 4",
    ]


def test_a_full_verify_run_computes_each_rho1_cell_once(monkeypatch):
    # The characters suite's table is the only rho1 pass: the trace
    # certificate reads its rho1 column instead of computing the cells again.
    from qschub import rep

    genuine = rep.graded_character
    rho1_cells = Counter()

    def counting(action, mu, k, n):
        if action == "rho1":
            rho1_cells[(tuple(mu), k)] += 1
        return genuine(action, mu, k, n)

    monkeypatch.setattr(rep, "graded_character", counting)
    monkeypatch.setattr(verify, "graded_character", counting)
    results = run_suites(["all"], 4, 4, 17)
    assert all(r.passed for r in results)
    assert rho1_cells == Counter({(mu, k): 1 for mu in partitions_of(4) for k in range(7)})


def test_a_failing_relation_renders_its_counterexamples(monkeypatch):
    monkeypatch.setitem(verify.RELATION_FAMILIES, "Rstar", lambda f, i: f.scale(Q))
    result = verify.suite_relations(2, 1)
    assert result.render() == "\n".join([
        "[FAIL] relations",
        "  S relations: 3 identities checked, PASS",
        "  A relations: 3 identities checked, PASS",
        "  B relations: 3 identities checked, PASS",
        "  R relations: 3 identities checked, PASS",
        "  Rstar relations: 3 identities checked, FAIL (3 counterexamples)",
        "  counterexample: Rstar: quadratic i=1 on 1",
        "  counterexample: Rstar: quadratic i=1 on x1",
        "  counterexample: Rstar: quadratic i=1 on x2",
    ])
