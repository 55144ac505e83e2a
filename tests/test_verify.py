import re
from collections import Counter
from fractions import Fraction

import pytest

from helpers import _rank, dense_fixed_space_dim, diagonal_scaling_samples, monomial_exponents
from qschub import operators, verify
from qschub.operators import _R_RULE, _pairwise, _sorting_rule, op_a, op_r, op_rstar
from qschub.perm import partitions_of, perm_str
from qschub.polyring import MPoly, ONE_MINUS_Q, Q, QP_ONE
from qschub.rep import MINUS_Q, descent_pairs
from qschub.verify import (
    SUITES,
    SuiteResult,
    character_table,
    run_suites,
    _mahonian,
)


# The one form of a suite's summary line, as ``SuiteResult.tally`` writes it.
SUMMARY_LINE = re.compile(r".+: \d+ identities checked, (PASS|FAIL \(\d+ counterexamples\))")


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes_n3(name):
    result = SUITES[name](3)
    assert result.passed, result.failures[:5]
    assert result.lines
    assert all(SUMMARY_LINE.fullmatch(line) for line in result.lines), result.lines


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_diagonal_scaling_oracle_scales_by_minus_q(n):
    samples = diagonal_scaling_samples(n)
    assert len(samples) == 3 * len(descent_pairs(n))
    for i, w, word, before, after in samples:
        assert after == MINUS_Q * before, (i, perm_str(w), word)
    assert any(before for *_, before, _ in samples)


def test_run_suites_all():
    results = run_suites("all", 2)
    assert [r.name for r in results] == list(SUITES)
    assert all(r.passed for r in results)


def test_run_suites_subset():
    results = run_suites(["knuth", "relations"], 3)
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
    monkeypatch.setattr(verify, "KERNEL_CHECK_DEGREE", 2)
    result = verify.suite_kernels(3)
    assert result.failures == [
        "R image of x^(0, 0, 1) at i=1 leaves its block: (1, 0, 0)",
        "R image of x^(0, 0, 1) at i=1 plus q x^(0, 0, 1) is not i-symmetric",
        "R at i=1 does not fix the orbit sum of x^(0, 0, 1)",
    ]


def test_a_wrong_fixed_space_fails_the_kernels_suite(monkeypatch):
    # The identity fixes everything: every orbit sum stays fixed, but
    # x^e + q x^e is not i-symmetric wherever e_i != e_{i+1}.
    monkeypatch.setattr(verify, "op_a", lambda f, i: f)
    monkeypatch.setattr(verify, "KERNEL_CHECK_DEGREE", 2)
    result = verify.suite_kernels(3)
    assert result.failures == [
        f"A image of x^{e} at i={i} plus q x^{e} is not i-symmetric"
        for i in (1, 2)
        for d in range(3)
        for e in sorted(monomial_exponents(3, d), reverse=True)
        if e[i - 1] != e[i]
    ]
    assert result.lines == ["A and R fixed spaces = i-symmetric polynomials, over Z[q], "
                            "degree <= 2: 108 identities checked, FAIL (12 counterexamples)"]


# R's rule with the ascent swap weighted q, as in Rstar's.
_Q_ASCENT_SWAP_RULE = _sorting_rule(Q, ONE_MINUS_Q, Q)


@pytest.mark.parametrize("name, mutant, failures", [
    ("R", lambda f, i: _pairwise(f, i, _Q_ASCENT_SWAP_RULE), 28),
    ("R", op_rstar, 42),
    ("A", lambda f, i: f, 28),
], ids=["R-with-q-on-the-ascent-swap", "R-as-Rstar", "A-as-the-identity"])
def test_a_mutated_operator_fails_the_kernels_suite(monkeypatch, name, mutant, failures):
    monkeypatch.setattr(verify, f"op_{name.lower()}", mutant)
    monkeypatch.setattr(verify, "KERNEL_CHECK_DEGREE", 3)
    result = verify.suite_kernels(3)
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
    # Above the cap the rho1 cross-check's line stays, a tally over no checks
    # whose title names the cap, and rho1's upstairs traces are not computed.
    cell = {(0, (1,)): (QP_ONE, QP_ONE, QP_ONE)}
    computed = []

    def upstairs(n, action, top):
        computed.append((n, action))
        return {((1,), 0): QP_ONE}

    monkeypatch.setattr(verify, "character_table", lambda n: cell)
    monkeypatch.setattr(verify, "upstairs_class_traces", upstairs)
    monkeypatch.setattr(verify, "coinvariant_traces_from_graded", lambda traces, n, top: traces)
    lines = [
        "trace = trace = weight sum: 1 identities checked, PASS",
        "rho1 quotient vs upstairs-derived traces at the classes T_mu (runs for n <= 4): "
        "{} identities checked, PASS",
        "rho1 vs rho2 coinvariant traces at the classes T_mu: 1 identities checked, PASS",
    ]
    assert verify.suite_characters(4).lines == [line.format(1) for line in lines]
    assert verify.suite_characters(5).lines == [line.format(0) for line in lines]
    assert computed == [(4, "rho1"), (4, "rho2"), (5, "rho2")]


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
    results = run_suites(["all"], 4)
    assert all(r.passed for r in results)
    assert rho1_cells == Counter({(mu, k): 1 for mu in partitions_of(4) for k in range(7)})


def test_a_failing_relation_renders_its_counterexamples(monkeypatch):
    monkeypatch.setitem(verify.RELATION_FAMILIES, "Rstar", lambda f, i: f.scale(Q))
    monkeypatch.setattr(verify, "OPERATOR_CHECK_DEGREE", 1)
    result = verify.suite_relations(2)
    assert result.render() == "\n".join([
        "[FAIL] relations",
        "  S relations, degree <= 1: 3 identities checked, PASS",
        "  A relations, degree <= 1: 3 identities checked, PASS",
        "  B relations, degree <= 1: 3 identities checked, PASS",
        "  R relations, degree <= 1: 3 identities checked, PASS",
        "  Rstar relations, degree <= 1: 3 identities checked, FAIL (3 counterexamples)",
        "  counterexample: Rstar: quadratic i=1 on 1",
        "  counterexample: Rstar: quadratic i=1 on x1",
        "  counterexample: Rstar: quadratic i=1 on x2",
    ])


@pytest.mark.parametrize("name, constant, line", [
    ("relations", "OPERATOR_CHECK_DEGREE", 0),
    ("commutation", "OPERATOR_CHECK_DEGREE", 0),
    ("a-minus-r", "A_MINUS_R_MAX_POWER", 0),
    ("a-minus-r", "OPERATOR_CHECK_DEGREE", 1),
    ("kernels", "KERNEL_CHECK_DEGREE", 0),
])
def test_a_fixed_reach_title_follows_its_constant(monkeypatch, name, constant, line):
    # A report names the reach of each such section, since no flag does.
    titles, counts = [], []
    for reach in (1, 2):
        monkeypatch.setattr(verify, constant, reach)
        title, summary = SUITES[name](3).lines[line].rsplit(": ", 1)
        titles.append(title)
        counts.append(int(summary.split()[0]))
    assert titles[0].endswith(" <= 1") and titles[1] == titles[0][:-1] + "2"
    assert counts[0] < counts[1]


def _balanced_pairs_weighted_q_squared(genuine):
    # R, but a balanced exponent pair is weighted q^2 instead of fixed.  The
    # extra (q^2 - 1) x^e keeps A - R i-symmetric and divisible by 1 - q, so
    # only the q-free witness check sees it.
    def rule(a, b):
        return (((a, b), Q * Q),) if a == b else _R_RULE(a, b)
    return lambda f, i: _pairwise(f, i, rule)


def _drop_diagonal(genuine):
    return lambda i, w: {z: c for z, c in genuine(i, w).items() if z != w}


def _drop_first_plus_term(genuine):
    return lambda i, w: (genuine(i, w)[0][1:], genuine(i, w)[1])


def _negate_shape_21(genuine):
    return lambda lam, mu: -genuine(lam, mu) if lam == (2, 1) else genuine(lam, mu)


def _rho2_trace_plus_one(genuine):
    def traces(n, action, top):
        out = genuine(n, action, top)
        if action == "rho2":
            out[((2, 1), 2)] = out[((2, 1), 2)] + QP_ONE
        return out
    return traces


@pytest.mark.parametrize("name, module, attr, mutant, failing_line, failures", [
    ("descent-columns", verify, "descent_column_formula", _drop_diagonal, 0, [
        "closed form at i=1, w=2,1,3",
        "closed form at i=1, w=3,1,2",
        "closed form at i=1, w=3,2,1",
        "closed form at i=2, w=1,3,2",
        "closed form at i=2, w=2,3,1",
        "closed form at i=2, w=3,2,1",
    ]),
    ("schubert-recursion", verify, "x_action_on_schubert", _drop_first_plus_term, 3, [
        "x-action at i=1, w=1,2,3",
        "x-action at i=1, w=1,3,2",
        "x-action at i=1, w=2,1,3",
        "x-action at i=1, w=2,3,1",
        "x-action at i=2, w=1,2,3",
        "x-action at i=2, w=2,1,3",
        "x-action at i=2, w=3,1,2",
    ]),
    ("a-minus-r", operators, "op_r", _balanced_pairs_weighted_q_squared, 1, [
        "q-free witness i=1 on 1",
        "q-free witness i=2 on 1",
        "q-free witness i=2 on x1",
        "q-free witness i=1 on x3",
        "q-free witness i=2 on x1^2",
        "q-free witness i=1 on x1*x2",
        "q-free witness i=2 on x2*x3",
        "q-free witness i=1 on x3^2",
        "q-free witness i=2 on x1^3",
        "q-free witness i=1 on x1*x2*x3",
        "q-free witness i=2 on x1*x2*x3",
        "q-free witness i=1 on x3^3",
    ]),
    ("knuth", verify, "symmetric_group_character", _negate_shape_21, 0, [
        "q=1 character at shape 2+1, mu=3: -1 vs 1",
        "q=1 character at shape 2+1, mu=1+1+1: 2 vs -2",
    ]),
    ("characters", verify, "upstairs_class_traces", _rho2_trace_plus_one, 2, [
        "coinvariant trace mismatch at mu=2+1, k=2: 1-q vs 2-q",
        "coinvariant trace mismatch at mu=2+1, k=3: -q vs -1-q",
    ]),
], ids=["descent-columns", "schubert-recursion", "a-minus-r", "knuth", "characters"])
def test_a_broken_dependency_fails_only_its_own_line(
        monkeypatch, name, module, attr, mutant, failing_line, failures):
    monkeypatch.setattr(module, attr, mutant(getattr(module, attr)))
    # The a-minus-r labels above are those of the monomials of degree <= 3.
    monkeypatch.setattr(verify, "OPERATOR_CHECK_DEGREE", 3)
    try:
        result = SUITES[name](3)
    finally:
        # The mutant's values must not stay in the border-strip oracle's cache.
        monkeypatch.undo()
        verify.symmetric_group_character.cache_clear()
    assert result.failures == failures
    assert [j for j, line in enumerate(result.lines) if not line.endswith(", PASS")] == [failing_line]
    assert result.lines[failing_line].endswith(f", FAIL ({len(failures)} counterexamples)")
