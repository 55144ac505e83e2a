import os
import random
import subprocess
import sys

import pytest

from helpers import act_variable_permutation, apply_partial_w, divided_difference_oracle, specialize_q

from qschub import verify
from qschub.operators import (
    a_minus_r_factor,
    divided_difference,
    monomials_up_to,
    mul_x,
    op_a,
    op_b,
    op_r,
    op_rstar,
    op_s,
)
from qschub.perm import all_perms, canonical_reduced_word, mult_right_s
from qschub.polyring import (
    MPoly,
    ONE_MINUS_Q,
    Q,
    QPoly,
    is_i_symmetric,
    swap_variables,
)
from qschub.polyring import _raw
from qschub.rep import apply_action_word
from qschub.schubert import unpack
from qschub.verify import RELATION_FAMILIES, commutation_checks, relation_checks, suite_commutation


def x(i, n=2):
    return MPoly.variable(n, i)


def random_poly(n, rng, degree=3, q_free=False, terms=4):
    f = MPoly.zero(n)
    for mono in rng.sample(monomials_up_to(n, degree), k=terms):
        if q_free:
            c = QPoly((rng.randint(-3, 3),))
        else:
            c = QPoly((rng.randint(-2, 2), rng.randint(-2, 2)))
        f = f + mono.scale(c)
    return f


def telescoped_difference(a, b, m, n, i):
    """The divided difference of x_i^a x_{i+1}^b m as the geometric sum between
    the two exponents.  This is the library's own closed form, written out
    again; the independent oracle is ``divided_difference_oracle``."""
    out = MPoly.zero(n)
    if a == b:
        return out
    sign = 1 if a > b else -1
    lo, hi = min(a, b), max(a, b)
    for s in range(lo, hi):
        e = list(m)
        e[i - 1] += s
        e[i] += lo + hi - 1 - s
        out = out + MPoly.monomial(n, e, sign)
    return out


class TestDividedDifference:
    def test_examples(self):
        assert divided_difference(x(1) * x(1), 1) == x(1) + x(2)
        assert divided_difference(x(2), 1) == MPoly.const(2, -1)
        assert divided_difference(x(1) * x(2), 1) == MPoly.zero(2)

    def test_telescoping_oracle(self):
        rng = random.Random(2)
        for _ in range(30):
            n = rng.randint(2, 4)
            i = rng.randint(1, n - 1)
            a, b = rng.randint(0, 4), rng.randint(0, 4)
            rest = [0] * n
            for j in range(n):
                if j not in (i - 1, i):
                    rest[j] = rng.randint(0, 3)
            e = list(rest)
            e[i - 1] += a
            e[i] += b
            f = MPoly.monomial(n, e)
            assert divided_difference(f, i) == telescoped_difference(a, b, rest, n, i)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_against_synthetic_division_and_defining_identity(self, n):
        # (x_i - x_{i+1}) * d_i f == f - s_i f, on random Z[q] polynomials
        rng = random.Random(20 + n)
        for _ in range(12):
            f = random_poly(n, rng, degree=5, terms=10)
            for i in range(1, n):
                d = divided_difference(f, i)
                assert d == divided_difference_oracle(f, i)
                assert mul_x(d, i) - mul_x(d, i + 1) == f - swap_variables(f, i)

    def test_kills_exactly_symmetric(self):
        rng = random.Random(5)
        for _ in range(10):
            f = random_poly(3, rng)
            for i in (1, 2):
                killed = not divided_difference(f, i)
                assert killed == is_i_symmetric(i, f)

    def test_degree_drop(self):
        f = MPoly.monomial(3, (3, 1, 0))
        g = divided_difference(f, 1)
        assert g.homogeneous_degree() == 3

    def test_square_zero(self):
        rng = random.Random(6)
        for _ in range(8):
            f = random_poly(3, rng)
            assert not divided_difference(divided_difference(f, 2), 2)

    def test_leibniz(self):
        rng = random.Random(8)
        for n in (2, 3, 4):
            for _ in range(6):
                f, g = random_poly(n, rng, 2), random_poly(n, rng, 2)
                for i in range(1, n):
                    lhs = divided_difference(f * g, i)
                    rhs = divided_difference(f, i) * g + swap_variables(f, i) * divided_difference(g, i)
                    assert lhs == rhs

    def test_index_range(self):
        with pytest.raises(ValueError):
            divided_difference(x(1), 2)


class TestGeneratorOps:
    def test_a_example(self):
        assert op_a(x(1), 1) == x(1) + x(2) - x(1).scale(Q)

    def test_a_is_swap_at_q_one(self):
        for n in (2, 3, 4):
            for f in monomials_up_to(n, 6):
                for i in range(1, n):
                    assert specialize_q(op_a(f, i), 1) == specialize_q(swap_variables(f, i), 1)

    def test_a_operator_identity(self):
        # the q-commutator equals 1 + (X_{i+1} - q X_i) after one difference
        for n in (2, 3, 4):
            for f in monomials_up_to(n, 6):
                for i in range(1, n):
                    d = divided_difference(f, i)
                    rhs = f + mul_x(d, i + 1) - mul_x(d, i).scale(Q)
                    assert op_a(f, i) == rhs

    def test_r_examples(self):
        assert op_r(x(1), 1) == x(2).scale(Q)
        assert op_r(x(2), 1) == x(2).scale(ONE_MINUS_Q) + x(1)
        assert op_r(x(1) * x(2), 1) == x(1) * x(2)

    def test_rstar_examples(self):
        assert op_rstar(x(1), 1) == x(2)
        assert op_rstar(x(2), 1) == x(2).scale(ONE_MINUS_Q) + x(1).scale(Q)

    def test_b_examples(self):
        assert op_b(x(1), 1) == x(2).scale(Q)
        assert op_b(MPoly.const(2, 1), 1) == MPoly.const(2, 1)

    def test_rstar_transposes_r(self):
        for n in (2, 3, 4):
            for d in range(6):
                monos = [f for f in monomials_up_to(n, d) if f.homogeneous_degree() == d]
                exps = [next(iter(f.terms)) for f in monos]
                index = {e: j for j, e in enumerate(exps)}
                for i in range(1, n):
                    m_r = [[None] * len(exps) for _ in exps]
                    m_rs = [[None] * len(exps) for _ in exps]
                    for j, f in enumerate(monos):
                        for matrix, op in ((m_r, op_r), (m_rs, op_rstar)):
                            image = op(f, i)
                            for z in range(len(exps)):
                                matrix[z][j] = image.terms.get(exps[z], QPoly())
                    for a in range(len(exps)):
                        for b in range(len(exps)):
                            assert m_r[a][b] == m_rs[b][a]

    def test_fix_i_symmetric(self):
        rng = random.Random(9)
        for _ in range(8):
            f = random_poly(3, rng)
            for i in (1, 2):
                sym = f + swap_variables(f, i)
                assert op_a(sym, i) == sym
                assert op_r(sym, i) == sym

    def test_a_multiplicative_over_symmetric(self):
        rng = random.Random(10)
        for _ in range(6):
            f = random_poly(3, rng, 2)
            g = random_poly(3, rng, 2)
            for i in (1, 2):
                sym = f + swap_variables(f, i)
                assert op_a(sym * g, i) == sym * op_a(g, i)

    def test_r_multiplicative_over_balanced_monomials(self):
        rng = random.Random(12)
        for _ in range(6):
            g = random_poly(3, rng, 2)
            for i in (1, 2):
                e = [rng.randint(0, 2)] * 3
                e[i - 1] = e[i] = rng.randint(0, 2)
                balanced = MPoly.monomial(3, e)
                assert op_r(balanced * g, i) == balanced * op_r(g, i)

    def test_r_multiplicativity_boundary(self):
        # Non-monomial symmetric factors break the product rule for the
        # monomial-sorting action (and with it invariance of the symmetric
        # ideal); this pins the exact defect.
        n = 3
        e1 = MPoly.variable(n, 1) + MPoly.variable(n, 2) + MPoly.variable(n, 3)
        g = MPoly.variable(n, 1)
        gap = op_r(e1 * g, 1) - e1 * op_r(g, 1)
        assert gap == (MPoly.variable(n, 1) * MPoly.variable(n, 2)).scale(ONE_MINUS_Q)

    def test_s_action(self):
        f = x(1) ** 2
        assert op_s(f, 1) == act_variable_permutation((2, 1), f)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            op_r(x(1), 2)
        with pytest.raises(ValueError):
            mul_x(x(1), 3)


class TestIntegerQ:
    """At an integer q the operators are the Z[q] operators followed by the
    ring map q -> q value: read back from q = 2^SHIFT, the image is the
    symbolic one."""

    SHIFT = 16

    @pytest.mark.parametrize("op", [op_a, op_r, op_s])
    def test_image_at_a_power_of_two_unpacks_to_the_symbolic_image(self, op):
        bound = (1 << (self.SHIFT - 1)) - 1
        checked = with_q = 0
        for n in (2, 3, 4):
            for f in monomials_up_to(n, 4):
                f_int = _raw(n, {e: c.as_int() for e, c in f.terms.items()})
                for i in range(1, n):
                    packed = op(f_int, i, 1 << self.SHIFT)
                    assert all(type(v) is int for v in packed.terms.values())
                    image = MPoly(n, {e: unpack(v, self.SHIFT, 2, bound, "coefficient", e)
                                      for e, v in packed.terms.items()})
                    expected = op(f, i)
                    assert image == expected, (n, i, f)
                    checked += 1
                    with_q += any(c.degree > 0 for c in expected.terms.values())
        assert checked == 295 and (with_q > 0) == (op is not op_s)

    def test_a_weight_that_vanishes_at_q_stores_no_term(self):
        # R_i at q = 1 keeps an ascending pair with weight 1 - q = 0, and at
        # q = 0 swaps a descending one with weight q = 0.
        assert op_r(_raw(2, {(0, 1): 5}), 1, 1).terms == {(1, 0): 5}
        assert op_r(_raw(2, {(1, 0): 5}), 1, 0).terms == {}
        assert op_r(_raw(2, {(0, 1): 5}), 1, 0).terms == {(0, 1): 5, (1, 0): 5}


class TestWords:
    def test_empty_word(self):
        f = x(1) ** 2
        assert apply_action_word("rho1", (), f) == f

    def test_difference_chain(self):
        f = MPoly.monomial(3, (2, 1, 0))
        chain = divided_difference(divided_difference(f, 2), 1)
        assert chain == MPoly.variable(3, 1) + MPoly.variable(3, 2)

    def test_quadratic_relation_via_words(self):
        rng = random.Random(13)
        for _ in range(5):
            f = random_poly(3, rng)
            assert apply_action_word("rho1", (1, 1), f) == op_a(f, 1).scale(ONE_MINUS_Q) + f.scale(Q)


class TestPartialChains:
    def test_identity(self):
        f = x(1) ** 2
        assert apply_partial_w((1, 2), f) == f

    def test_longest_in_s2(self):
        assert apply_partial_w((2, 1), x(1)) == MPoly.const(2, 1)

    def test_longest_in_s3(self):
        f = MPoly.monomial(3, (2, 1, 0))
        assert apply_partial_w((3, 2, 1), f) == MPoly.const(3, 1)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_word_independence(self, n):
        # The chain along every reduced word of w, the words built by
        # peeling right descents, equals the chain along the canonical one.
        def reduced_words(w):
            if all(a < b for a, b in zip(w, w[1:])):
                return {()}
            return {word + (i,) for i in range(1, n) if w[i - 1] > w[i]
                    for word in reduced_words(mult_right_s(w, i))}

        def chain(word, f):
            for i in reversed(word):
                f = divided_difference(f, i)
            return f

        rng = random.Random(14)
        polys = [random_poly(n, rng) for _ in range(3)]
        for w in all_perms(n):
            words = reduced_words(w)
            assert canonical_reduced_word(w) in words
            for f in polys:
                expected = apply_partial_w(w, f)
                assert all(chain(word, f) == expected for word in words), w


class TestRelationHarnesses:
    @pytest.mark.parametrize("family", ["S", "A", "B", "R", "Rstar"])
    def test_families_pass(self, family):
        checks = list(relation_checks(RELATION_FAMILIES[family], 3, 4, family == "S"))
        assert checks
        assert [label for ok, label in checks if not ok][:3] == []

    def test_commutation_passes(self):
        checks = list(commutation_checks(3, 4))
        assert checks
        assert [label for ok, label in checks if not ok][:3] == []

    def test_commutation_fails_on_a_broken_braid(self, monkeypatch):
        # d_2 negated: d_1 d_2 d_1 and d_2 d_1 d_2 then differ in sign.
        def corrupted(f, i):
            g = divided_difference(f, i)
            return -g if i == 2 else g

        monkeypatch.setattr(verify, "divided_difference", corrupted)
        monkeypatch.setattr(verify, "OPERATOR_CHECK_DEGREE", 3)
        result = suite_commutation(3)
        assert not result.passed
        assert "FAIL" in result.lines[0]
        assert "braid i=1 on x1^2*x2" in result.failures

    def test_commutation_fails_on_a_broken_far_commutation(self, monkeypatch):
        # d_3 applied after exchanging x_1 and x_2: d_1 d_3 then picks up a
        # sign that d_3 d_1, on an image symmetric in x_1 and x_2, does not.
        def corrupted(f, i):
            return divided_difference(swap_variables(f, 1) if i == 3 else f, i)

        monkeypatch.setattr(verify, "divided_difference", corrupted)
        monkeypatch.setattr(verify, "OPERATOR_CHECK_DEGREE", 2)
        result = suite_commutation(4)
        assert not result.passed
        assert "commute (1,3) on x1*x3" in result.failures

    def test_specific_commutation_facts(self):
        f = MPoly.variable(2, 1) ** 3
        assert not divided_difference(divided_difference(f, 1), 1)
        rng = random.Random(15)
        g = random_poly(4, rng)
        assert divided_difference(mul_x(g, 1), 1) - mul_x(divided_difference(g, 1), 2) == g
        d13 = divided_difference(divided_difference(g, 3), 1)
        d31 = divided_difference(divided_difference(g, 1), 3)
        assert d13 == d31


class TestAMinusR:
    def test_variable_example(self):
        diff, witness = a_minus_r_factor(1, x(1))
        assert diff == (x(1) + x(2)).scale(ONE_MINUS_Q)
        assert diff == divided_difference(x(1) ** 2, 1).scale(ONE_MINUS_Q)
        assert witness == x(1) + x(2)

    def test_symmetric_input_vanishes(self):
        diff, witness = a_minus_r_factor(1, x(1) * x(2))
        assert not diff and not witness

    def test_high_power_example(self):
        diff, _ = a_minus_r_factor(1, x(2) ** 3)
        assert diff == divided_difference(x(2) ** 4, 1).scale(ONE_MINUS_Q)

    def test_witness_q_free_for_integer_input(self):
        rng = random.Random(16)
        for _ in range(6):
            f = random_poly(3, rng, q_free=True)
            for i in (1, 2):
                diff, witness = a_minus_r_factor(i, f)
                assert witness.scale(ONE_MINUS_Q) == diff
                assert all(c.degree <= 0 for c in witness.terms.values())

    @pytest.mark.parametrize("n", [3, 4])
    def test_witness_of_a_combination_is_the_combination_of_witnesses(self, n):
        # Why the a-minus-r suite need factor monomials only.
        rng = random.Random(n)
        monos = monomials_up_to(n, 3)
        for _ in range(4):
            terms = [(mono, QPoly((rng.randint(-3, 3),))) for mono in rng.sample(monos, 4)]
            combo = sum((mono.scale(c) for mono, c in terms), MPoly.zero(n))
            for i in range(1, n):
                witnesses = (a_minus_r_factor(i, mono)[1].scale(c) for mono, c in terms)
                assert a_minus_r_factor(i, combo)[1] == sum(witnesses, MPoly.zero(n))


# Each case corrupts one input or helper and calls the code that checks the
# broken invariant; it prints the InvariantViolation message, or "no raise".
INVARIANT_SCRIPT = """
import contextlib
import sys
from unittest import mock
from qschub import operators, rep, schubert
from qschub.polyring import MPoly, QP_ONE, QPoly

def raises(call, *patch):
    with mock.patch.object(*patch) if patch else contextlib.nullcontext():
        try:
            call()
        except operators.InvariantViolation as exc:
            return str(exc)
    return "no raise"

zero = lambda f, i: MPoly.zero(f.n)
stair = schubert.staircase_monomial
read = rep._read_column
# Every off-diagonal entry of a column read becomes q^2: the shape still holds.
q_squared = lambda action, word, w, k, table: {
    z: c if z == w else QPoly.q_power(2) for z, c in read(action, word, w, k, table).items()}
print(sys.flags.optimize)
print(*[
    raises(lambda: operators.a_minus_r_factor(1, MPoly.variable(2, 1)), operators, "op_r", zero),
    raises(lambda: rep._check_column_shape(1, (1, 2), {})),
    raises(lambda: rep._check_column_shape(1, (2, 1), {})),
    raises(lambda: rep._check_column_shape(1, (2, 1, 4, 3),
                                           {(2, 1, 4, 3): rep.MINUS_Q, (3, 1, 2, 4): QP_ONE})),
    raises(lambda: schubert.build_schubert_table(3),
           schubert, "staircase_monomial", lambda n: MPoly.variable(n, 1)),
    raises(lambda: schubert.build_schubert_table(3),
           schubert, "staircase_monomial", lambda n: -stair(n)),
    raises(lambda: schubert.build_schubert_table(3),
           schubert, "staircase_monomial", lambda n: stair(n).scale(2)),
    raises(lambda: schubert.build_schubert_table(3),
           schubert, "staircase_monomial", lambda n: MPoly.monomial(n, (0, 1, 2))),
    raises(lambda: schubert.build_schubert_table(3), schubert, "_difference_rule",
           lambda a, b: tuple((p, -w) for p, w in operators._difference_rule(a, b))),
    raises(lambda: schubert.build_schubert_table(3), schubert, "_difference_rule",
           lambda a, b: (((0, a + b - 1), 1),)),
    raises(lambda: schubert.expand_homogeneous(MPoly.variable(3, 1).scale(3), 1,
                                               schubert.build_schubert_table(3)),
           schubert, "_coordinate_bound", lambda f, k: 0),
    raises(lambda: rep.generator_matrix("rho1", 1, 1, schubert.build_schubert_table(3)),
           rep, "_letter_mass", lambda action, k: 0),
    raises(lambda: rep.generator_matrix("rho1", 1, 2, schubert.build_schubert_table(3)),
           rep, "_read_column", q_squared),
    raises(lambda: rep.graded_character("rho1", (2, 1), 1, 3), rep.RepMatrix, "norm", 0),
    raises(lambda: rep.graded_character("rho2", (2, 1), 1, 3),
           rep, "_letter_mass", lambda action, k: 0),
    raises(lambda: rep.graded_character("rho1", (2, 1), 2, 3),
           rep, "_rho1_trace", lambda mu, k, table: QPoly.q_power(2)),
], sep="\\n")
"""


class TestInvariantChecks:
    def test_corrupted_inputs_raise_under_optimize(self):
        import qschub

        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qschub.__file__)))
        done = subprocess.run([sys.executable, "-O", "-c", INVARIANT_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            "1",
            "A-R difference must be i-symmetric",
            "ascent column at i=1, w=(1, 2) is not a unit column",
            "descent diagonal at i=1, w=(2, 1) is not -q",
            "descent column at i=1, w=(2, 1, 4, 3) has an entry at (3, 1, 2, 4), a descent at 1",
            "wrong degree at (3, 2, 1)",
            "non-positive coefficient at (3, 2, 1)",
            "the identity's Schubert polynomial is not 1",
            "exponent (0, 1, 2) off the staircase at (3, 2, 1)",
            "non-positive coefficient at (2, 3, 1)",
            "exponent (0, 2, 0) off the staircase at (2, 3, 1)",
            "packed coordinate at (2, 1, 3) does not decode within the bound",
            "packed coordinate at (1, 3, 2) does not decode within the bound",
            "rho1 entry at i=1, w=(2, 1, 3), z=(1, 3, 2) has q-degree 2 > 1: no dual",
            "packed rho1 trace at mu=(2, 1), degree 1 does not decode within the bound",
            "packed rho2 trace at mu=(2, 1), degree 1 does not decode within the bound",
            "rho1 trace at mu=(2, 1), degree 1 has q-degree 2 > 1: no dual",
        ]
