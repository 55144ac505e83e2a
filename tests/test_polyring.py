import random
from fractions import Fraction

import pytest

from helpers import act_variable_permutation, from_word
from qschub.operators import mul_x
from qschub.polyring import (
    MPoly,
    ONE_MINUS_Q,
    Q,
    QPoly,
    QP_ONE,
    QP_ZERO,
    _raw,
    is_i_symmetric,
    minus_q_power,
    swap_variables,
)


def x(i, n=3):
    return MPoly.variable(n, i)


class TestQPoly:
    def test_difference_of_squares(self):
        assert ONE_MINUS_Q * QPoly((1, 1)) == QPoly((1, 0, -1))

    def test_minus_q_squared(self):
        assert QPoly((0, -1)) * QPoly((0, -1)) == QPoly((0, 0, 1))

    def test_quadratic_eigenvalue(self):
        # -q satisfies the deformed involution t^2 = (1-q)t + q
        t = QPoly((0, -1))
        assert t * t == ONE_MINUS_Q * t + Q

    def test_canonical_form(self):
        assert QPoly((1, 2, 0, 0)).c == (1, 2)
        assert QPoly((0, 0, 0)).c == ()
        assert not QPoly()
        assert QPoly((5,))

    def test_int_coercion(self):
        assert QPoly((2,)) + 3 == QPoly((5,))
        assert 2 * Q == QPoly((0, 2))
        assert 1 - Q == ONE_MINUS_Q

    def test_integer_scaling_is_the_canonical_product(self):
        rng = random.Random(3)
        for _ in range(200):
            p = QPoly([rng.randint(-3, 3) for _ in range(rng.randint(0, 4))])
            m = rng.randint(-3, 3)
            for scaled in (p * m, m * p):
                assert scaled.c == (p * QPoly((m,))).c
                assert not scaled.c or scaled.c[-1] != 0
        assert (ONE_MINUS_Q * 0).c == () and not QP_ZERO * 5

    def test_constants_hash_as_their_ints(self):
        for v in (0, 1, -1, 2, -7, 1 << 70):
            assert QPoly((v,)) == v and hash(QPoly((v,))) == hash(v)
            assert len({QPoly((v,)), v}) == 1
        assert hash(QP_ZERO) == hash(0) == 0 and len({QP_ONE, 1}) == 1
        assert len({QP_ZERO, 0, QP_ONE, 1, Q}) == 3

    def test_evaluate(self):
        p = QPoly((1, -2, 1))
        assert p.evaluate(1) == 0
        assert p.evaluate(Fraction(1, 2)) == Fraction(1, 4)
        assert p.evaluate(0) == 1

    def test_divide_one_minus_q(self):
        p = ONE_MINUS_Q * QPoly((3, 0, -2))
        assert p.divide_one_minus_q() == QPoly((3, 0, -2))
        with pytest.raises(ValueError):
            Q.divide_one_minus_q()

    def test_minus_q_power(self):
        assert minus_q_power(0) == QP_ONE
        assert minus_q_power(1) == QPoly((0, -1))
        assert minus_q_power(2) == QPoly((0, 0, 1))

    def test_str(self):
        assert str(QP_ZERO) == "0"
        assert str(ONE_MINUS_Q) == "1-q"
        assert str(QPoly((0, -1))) == "-q"
        assert str(QPoly((2, 3, -1))) == "2+3*q-q^2"

    def test_ring_axioms_random(self):
        rng = random.Random(4)
        polys = [QPoly(tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 4)))) for _ in range(12)]
        for a, b, c in zip(polys, polys[1:], polys[2:]):
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a


class TestMPolyArithmetic:
    def test_add_sub(self):
        assert x(1) + x(2) - x(1) == x(2)

    def test_mul(self):
        assert x(1) * x(2) == MPoly.monomial(3, (1, 1, 0))

    def test_coefficient_collapse(self):
        assert x(1).scale(ONE_MINUS_Q) + x(1).scale(Q) == x(1)

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            MPoly.variable(2, 1) + MPoly.variable(3, 1)

    def test_pow(self):
        assert x(1) ** 3 == MPoly.monomial(3, (3, 0, 0))
        assert x(1) ** 0 == MPoly.const(3, 1)

    def test_zero_handling(self):
        z = MPoly.zero(3)
        assert not z
        assert z + x(1) == x(1)
        assert z * x(1) == z
        assert x(1) - x(1) == z

    def test_ring_axioms_random(self):
        rng = random.Random(11)

        def rand_poly():
            f = MPoly.zero(3)
            for _ in range(rng.randint(1, 4)):
                e = tuple(rng.randint(0, 2) for _ in range(3))
                f = f + MPoly.monomial(3, e, QPoly((rng.randint(-2, 2), rng.randint(-1, 1))))
            return f

        for _ in range(8):
            a, b, c = rand_poly(), rand_poly(), rand_poly()
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a


class TestIntCoefficients:
    """The integer and packed chains of the Schubert and representation
    layers keep int coefficients ints."""

    f = _raw(3, {(1, 0, 0): 3, (0, 2, 0): -5})
    g = _raw(3, {(1, 0, 0): -3, (0, 0, 1): 7})

    def test_add_sub_neg_scale_and_mul_x_stay_int(self):
        f, g = self.f, self.g
        for h in (f + g, f - g, -f, f.scale(4), f.scale(-1), mul_x(f, 2), swap_variables(f, 1)):
            assert h and all(type(c) is int for c in h.terms.values()), h
        assert (f + g).terms == {(0, 2, 0): -5, (0, 0, 1): 7}
        assert (f - g).terms == {(1, 0, 0): 6, (0, 2, 0): -5, (0, 0, 1): -7}
        assert f.scale(-2).terms == {(1, 0, 0): -6, (0, 2, 0): 10}
        assert mul_x(f, 2).terms == {(1, 1, 0): 3, (0, 3, 0): -5}

    def test_cancellation_and_zero_scale_leave_no_term(self):
        assert (self.f - self.f).terms == {}
        assert (self.f + -self.f).terms == {}
        assert self.f.scale(0).terms == {}

    def test_an_int_meets_a_qpoly(self):
        assert (self.f + x(1).scale(Q)).terms == {(1, 0, 0): QPoly((3, 1)), (0, 2, 0): -5}
        assert self.f.scale(Q).terms == {(1, 0, 0): QPoly((0, 3)), (0, 2, 0): QPoly((0, -5))}
        assert self.f == x(1).scale(3) - (x(2) ** 2).scale(5)

    def test_equal_qpoly_polynomial_hashes_and_prints_alike(self):
        same = x(1).scale(3) - (x(2) ** 2).scale(5)
        assert hash(self.f) == hash(same) and len({self.f, same}) == 1
        assert str(self.f) == str(same) == "3*x1 - 5*x2^2"


class TestVariablePermutation:
    """Adjacent swaps against the full variable-permutation action in
    helpers.py."""

    def test_transposition(self):
        assert swap_variables(MPoly.variable(2, 1), 1) == MPoly.variable(2, 2)

    def test_symmetric_monomial_fixed(self):
        f = x(1, 2) * x(2, 2)
        assert swap_variables(f, 1) == f

    def test_relabeling(self):
        # s_1 then s_2 sends x1 -> x3 and x2 -> x1
        f = x(1) * x(1) * x(2)
        assert swap_variables(swap_variables(f, 1), 2) == x(3) * x(3) * x(1)

    def test_swap_matches_act(self):
        f = x(1) ** 2 + x(2) * x(3)
        assert swap_variables(f, 1) == act_variable_permutation((2, 1, 3), f)

    def test_multiplicative(self):
        rng = random.Random(7)
        for _ in range(6):
            f = MPoly.monomial(3, (rng.randint(0, 2),) * 3, QPoly((1, 1))) + x(rng.randint(1, 3))
            g = x(rng.randint(1, 3)) + MPoly.const(3, rng.randint(1, 3))
            i = rng.randint(1, 2)
            assert swap_variables(f * g, i) == swap_variables(f, i) * swap_variables(g, i)

    def test_composition_order(self):
        # Swapping along a word, last letter first, acts as the word's product.
        f = x(1) ** 2 * x(2) + x(2) * x(3) ** 3
        for word in [(1, 2), (2, 1), (1, 2, 1), (2, 1, 2, 2)]:
            g = f
            for i in reversed(word):
                g = swap_variables(g, i)
            assert g == act_variable_permutation(from_word(3, word), f)


class TestISymmetric:
    def test_examples(self):
        assert is_i_symmetric(1, x(1, 2) + x(2, 2))
        assert not is_i_symmetric(1, x(1, 2))
        assert is_i_symmetric(1, x(1) * x(2) + x(3))

    def test_product_of_symmetric(self):
        f = x(1) + x(2)
        g = x(1) * x(2) + MPoly.const(3, 1)
        assert is_i_symmetric(1, f * g)


class TestTextFormat:
    def test_printing(self):
        f = (x(1) ** 2 * x(2)).scale(ONE_MINUS_Q) + x(3).scale(QPoly((0, 0, 1)))
        assert str(f) == "(1-q)*x1^2*x2 + q^2*x3"

    def test_negative_leading(self):
        assert str(-x(1)) == "-x1"
        assert str(x(2) - x(1)) == "-x1 + x2"

    def test_constants(self):
        assert str(MPoly.const(2, 1)) == "1"
        assert str(MPoly.zero(2)) == "0"
        assert str(MPoly.const(2, ONE_MINUS_Q)) == "(1-q)"
