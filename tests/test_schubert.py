import itertools
import math
import random
from fractions import Fraction

import pytest

from helpers import (
    apply_partial_w,
    elementary_symmetric,
    ideal_spanning_columns,
    in_ideal_rational,
    monomial_exponents,
    solve_exact,
    specialize_q,
)

from qschub import schubert
from qschub.operators import divided_difference
from qschub.perm import (
    all_perms,
    has_left_descent,
    identity,
    length,
    mult_left_s,
    mult_right_s,
    perms_by_length,
    perms_of_length,
)
from qschub.polyring import MPoly, QPoly, QP_ONE, QP_ZERO
from qschub.rep import coordinate_at
from qschub.schubert import (
    build_schubert_table,
    expand_homogeneous,
    monk_products,
    monomial_class,
    schubert_table_rows,
    staircase_monomial,
    x_action_on_schubert,
)


def x(i, n=3):
    return MPoly.variable(n, i)


class TestTable:
    def test_n1(self):
        table = build_schubert_table(1)
        assert table[(1,)] == MPoly.const(1, 1)

    def test_n2(self):
        table = build_schubert_table(2)
        assert table[(1, 2)] == MPoly.const(2, 1)
        assert table[(2, 1)] == MPoly.variable(2, 1)

    def test_n3_exact(self):
        table = build_schubert_table(3)
        assert table[(2, 1, 3)] == x(1)
        assert table[(1, 3, 2)] == x(1) + x(2)
        assert table[(2, 3, 1)] == x(1) * x(2)
        assert table[(3, 1, 2)] == x(1) ** 2
        assert table[(3, 2, 1)] == x(1) ** 2 * x(2)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_linear_classes(self, n):
        table = build_schubert_table(n)
        acc = MPoly.zero(n)
        for i in range(1, n):
            acc = acc + MPoly.variable(n, i)
            assert table[mult_right_s(identity(n), i)] == acc

    def test_staircase_top(self):
        table = build_schubert_table(4)
        assert table[(4, 3, 2, 1)] == staircase_monomial(4)
        assert staircase_monomial(4) == MPoly.monomial(4, (3, 2, 1, 0))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_recursion(self, n):
        table = build_schubert_table(n)
        for w in all_perms(n):
            for i in range(1, n):
                image = divided_difference(table[w], i)
                if w[i - 1] > w[i]:
                    assert image == table[mult_right_s(w, i)]
                else:
                    assert not image

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_degrees_and_positivity(self, n):
        table = build_schubert_table(n)
        for w, f in table.polys.items():
            assert f.homogeneous_degree() == length(w)
            assert all(c.__class__ is int and c > 0 for c in f.terms.values())

    def test_coefficients_are_ints_on_shared_staircase_keys(self):
        # The table stays on ints, keyed on one tuple per staircase exponent
        # vector; the Z[q] view and the expansion hand out QPolys.
        n = 5
        table = build_schubert_table(n)
        staircase = set(itertools.product(*(range(n - j) for j in range(n))))
        keys, values = {}, set()
        for f in table.polys.values():
            for e, c in f.terms.items():
                assert e in staircase
                assert keys.setdefault(e, e) is e
                values.add(c)
        assert len(keys) == len(staircase) == math.factorial(n)
        assert sorted(values) == [1, 2] and all(c.__class__ is int for c in values)
        vec = expand_homogeneous(MPoly.monomial(5, (0, 2, 2, 0, 0)), 4, table)
        assert len(vec.coords) > 1
        assert all(c.__class__ is QPoly for c in vec.coords.values())
        assert expand_homogeneous(MPoly.const(5, 7), 0, table).coords == {identity(5): QPoly((7,))}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_view_matches_a_qpoly_chain(self, n):
        # Oracle: the chain rerun on Z[q] coefficients from the QPoly
        # staircase, each w reached from its last ascent rather than the
        # table's first.
        table = build_schubert_table(n)
        by_len = perms_by_length(n)
        top = len(by_len) - 1
        oracle = {by_len[top][0]: staircase_monomial(n)}
        for k in range(top - 1, -1, -1):
            for w in by_len[k]:
                i = max(i for i in range(1, n) if w[i - 1] < w[i])
                oracle[w] = divided_difference(oracle[mult_right_s(w, i)], i)
        for w in all_perms(n):
            view = table[w]
            assert view == oracle[w] and view is not table[w]
            assert all(c.__class__ is QPoly for c in view.terms.values())
            shared = {}
            assert all(shared.setdefault(c, c) is c for c in view.terms.values())

    def test_int_table_and_view_are_equal_and_hash_alike(self):
        table = build_schubert_table(4)
        for w in all_perms(4):
            f, view = table.polys[w], table[w]
            assert f == view and hash(f) == hash(view) and len({f, view}) == 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_basis_sizes(self, n):
        table = build_schubert_table(n)
        for k in range(table.max_degree + 1):
            assert len(table.basis(k)) == len(perms_of_length(n, k))
        assert sum(len(table.basis(k)) for k in range(table.max_degree + 1)) == len(all_perms(n))


class TestExpansion:
    def test_duality(self):
        for n in (2, 3, 4):
            table = build_schubert_table(n)
            for w in all_perms(n):
                vec = expand_homogeneous(table[w], length(w), table)
                assert vec.coords == {w: QP_ONE}

    def test_linear_ideal_class(self):
        table = build_schubert_table(2)
        vec = expand_homogeneous(MPoly.variable(2, 1) + MPoly.variable(2, 2), 1, table)
        assert vec.is_zero()

    def test_symmetric_multiple_vanishes(self):
        table = build_schubert_table(3)
        e1_x1 = (x(1) + x(2) + x(3)) * x(1)
        vec = expand_homogeneous(e1_x1, 2, table)
        assert vec.is_zero()

    def test_zero_polynomial(self):
        table = build_schubert_table(3)
        assert expand_homogeneous(MPoly.zero(3), 2, table).is_zero()

    def test_errors(self):
        table = build_schubert_table(3)
        with pytest.raises(ValueError):
            expand_homogeneous(x(1) + x(1) * x(2), 1, table)
        with pytest.raises(ValueError):
            expand_homogeneous(x(1), 2, table)
        with pytest.raises(ValueError):
            expand_homogeneous(MPoly.variable(2, 1), 1, table)

    def _random_homogeneous(self, n, k, rng):
        f = MPoly.zero(n)
        for e in rng.sample(monomial_exponents(n, k), k=min(4, len(monomial_exponents(n, k)))):
            f = f + MPoly.monomial(n, e, QPoly((rng.randint(-3, 3), rng.randint(-2, 2))))
        return f

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_round_trip_reexpansion(self, k):
        n = 3
        table = build_schubert_table(n)
        rng = random.Random(20 + k)
        for _ in range(5):
            f = self._random_homogeneous(n, k, rng)
            vec = expand_homogeneous(f, k, table)
            residue = f
            for z, c in vec.coords.items():
                residue = residue - table[z].scale(c)
            assert expand_homogeneous(residue, k, table).is_zero()
            # exact ideal membership at random rational q values
            for q in (Fraction(2, 3), Fraction(-1, 2), Fraction(5)):
                assert in_ideal_rational(specialize_q(residue, q), n, k)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_against_linear_solve_oracle(self, k):
        """Dense solve modulo the ideal slice reproduces the chain coordinates."""
        n = 3
        table = build_schubert_table(n)
        rng = random.Random(30 + k)
        basis = table.basis(k)
        monos = monomial_exponents(n, k)
        index = {e: i for i, e in enumerate(monos)}
        schubert_cols = [
            {e: Fraction(c.as_int()) for e, c in table[z].terms.items()} for z in basis
        ]
        ideal_cols = ideal_spanning_columns(n, k)
        for _ in range(5):
            f = self._random_homogeneous(n, k, rng)
            vec = expand_homogeneous(f, k, table)
            for q in (Fraction(3, 2), Fraction(-2)):
                spec = specialize_q(f, q)
                rows = [
                    [col.get(e, Fraction(0)) for col in schubert_cols + ideal_cols]
                    for e in monos
                ]
                rhs = [spec.get(e, Fraction(0)) for e in monos]
                solution = solve_exact(rows, rhs)
                assert solution is not None
                for j, z in enumerate(basis):
                    assert solution[j] == Fraction(vec[z].evaluate(q))


class TestEveryDescentSweep:
    """The sweep reaches z from the smallest source s_i z over every left
    descent i and skips z when any source is zero; both rest on
    d_z = d_i d_{s_i z} for every left descent i."""

    @pytest.mark.parametrize("n", [4, 5])
    def test_matches_the_chain_of_every_z(self, n):
        table = build_schubert_table(n)
        top = table.max_degree
        rng = random.Random(50 + n)
        constant = (0,) * n

        def random_homogeneous(k, terms):
            monos = monomial_exponents(n, k)
            out = MPoly.zero(n)
            for e in rng.sample(monos, min(terms, len(monos))):
                out = out + MPoly.monomial(n, e, QPoly((rng.randint(-3, 3), rng.randint(-2, 2))))
            return out

        def constant_of(g):
            return g.terms.get(constant, QP_ZERO)

        skips = 0
        # k = 0 reads f itself at the identity; k = top + 1 lies past every
        # Schubert class, so its expansion must be zero.
        for k in range(top + 2):
            basis = table.basis(k) if k <= top else ()
            for _ in range(3):
                f = random_homogeneous(k, rng.randint(1, 4))
                for j in range(1, min(n, k) + 1):  # ideal parts e_j * g_j
                    f = f + elementary_symmetric(n, j) * random_homogeneous(k - j, 2)
                if not f:
                    continue
                vec = expand_homogeneous(f, k, table)
                for z in basis:
                    assert vec[z] == constant_of(apply_partial_w(z, f)), (k, z)
                assert set(vec.coords) <= set(basis) and (k <= top or vec.is_zero())
                # z whose first-descent source is nonzero but another is zero
                values = {u: apply_partial_w(u, f) for j in range(min(k, top) + 1)
                          for u in perms_of_length(n, j)}
                for z, value in values.items():
                    sources = [values[mult_left_s(z, i)] for i in range(1, n)
                               if has_left_descent(z, i)]
                    if sources and sources[0] and not all(sources):
                        assert not value, z
                        skips += 1
        assert skips, "no input reached the skip path"


def monk_coordinates(f, k, table):
    """The nonzero degree-k Schubert coordinates of f by the Monk route on
    Z[q] coefficients, with no packing: ``coordinate_at`` at each z."""
    coords = {z: coordinate_at(f, z) for z in table.basis(k)}
    return {z: c for z, c in coords.items() if c}


class TestPackedExpansion:
    @pytest.mark.parametrize("n", [4, 5])
    def test_wide_coefficients_match_the_monk_route(self, n):
        # Coefficients past 2^70 of either sign and of q-degree 4 to 6, so the
        # packed sweep's ints span several 2^B digits; an ideal term e_1*h and
        # a subtracted Schubert term make whole coordinates cancel in it.
        table = build_schubert_table(n)
        rng = random.Random(n)
        big = 1 << 70

        def wide():
            return QPoly([rng.choice((-1, 1)) * rng.randrange(big, 2 * big)
                          for _ in range(rng.randint(5, 7))])

        def random_poly(k, terms):
            monos = monomial_exponents(n, k)
            out = MPoly.zero(n)
            for e in rng.sample(monos, min(terms, len(monos))):
                out = out + MPoly.monomial(n, e, wide())
            return out

        e1 = elementary_symmetric(n, 1)
        widest = 0
        for k in range(table.max_degree + 1):
            g = random_poly(k, 6) + table[rng.choice(table.basis(k))].scale(wide())
            vec = expand_homogeneous(g, k, table)
            assert vec.coords and vec.coords == monk_coordinates(g, k, table), k
            z, c = next(iter(vec.coords.items()))
            f = g - table[z].scale(c)
            if k:
                f = f + e1 * random_poly(k - 1, 3)
            expected = {y: v for y, v in vec.coords.items() if y != z}
            assert expand_homogeneous(f, k, table).coords == expected, k
            assert monk_coordinates(f, k, table) == expected, k
            widest = max(widest, *(abs(d) for v in vec.coords.values() for d in v.c))
        assert widest >= big


def swap_positions(w, j, k):
    out = list(w)
    out[j - 1], out[k - 1] = out[k - 1], out[j - 1]
    return tuple(out)


def monk_products_by_length(i, w):
    """Monk's rule by its definition: every w t_jk, j <= i < k, one longer."""
    n = len(w)
    return tuple(sorted(wt for j in range(1, i + 1) for k in range(i + 1, n + 1)
                        if length(wt := swap_positions(w, j, k)) == length(w) + 1))


def x_action_by_length(i, w):
    """x_i on the class of w by its definition: w t_ik (k > i) positively,
    w t_ji (j < i) negatively, the images one longer than w only."""
    n = len(w)
    plus = [wt for k in range(i + 1, n + 1) if length(wt := swap_positions(w, i, k)) == length(w) + 1]
    minus = [wt for j in range(1, i) if length(wt := swap_positions(w, j, i)) == length(w) + 1]
    return tuple(sorted(plus)), tuple(sorted(minus))


class TestMonk:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_cover_reads_match_the_length_definition(self, n):
        for w in all_perms(n):
            for i in range(1, n):
                assert monk_products(i, w) == monk_products_by_length(i, w), (i, w)
            for i in range(1, n + 1):
                assert x_action_on_schubert(i, w) == x_action_by_length(i, w), (i, w)

    def test_examples(self):
        assert monk_products(1, (2, 1, 3)) == ((3, 1, 2),)
        assert monk_products(1, (1, 2)) == ((2, 1),)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_against_polynomial_expansion(self, n):
        table = build_schubert_table(n)
        for i in range(1, n):
            si_class = table[mult_right_s(identity(n), i)]
            for w in all_perms(n):
                k = length(w) + 1
                vec = expand_homogeneous(si_class * table[w], k, table)
                expected = monk_products(i, w)
                assert vec.support() == expected
                assert all(vec[z] == QP_ONE for z in expected)

    def test_lengths(self):
        for w in all_perms(4):
            for i in range(1, 4):
                for wt in monk_products(i, w):
                    assert length(wt) == length(w) + 1


class TestXAction:
    def test_first_variable_on_identity(self):
        plus, minus = x_action_on_schubert(1, identity(3))
        assert plus == ((2, 1, 3),)
        assert minus == ()

    def test_second_variable_on_identity(self):
        plus, minus = x_action_on_schubert(2, identity(3))
        assert plus == ((1, 3, 2),)
        assert minus == ((2, 1, 3),)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_against_expansion(self, n):
        from qschub.operators import mul_x

        table = build_schubert_table(n)
        for i in range(1, n + 1):
            for w in all_perms(n):
                plus, minus = x_action_on_schubert(i, w)
                vec = expand_homogeneous(mul_x(table[w], i), length(w) + 1, table)
                signed = {}
                for z in plus:
                    signed[z] = signed.get(z, 0) + 1
                for z in minus:
                    signed[z] = signed.get(z, 0) - 1
                assert vec.coords == {z: QPoly((v,)) for z, v in signed.items() if v}


def sweep_class(e, table):
    """Integer coordinates of x^e from the divided-difference sweep."""
    vec = expand_homogeneous(MPoly.monomial(table.n, e), sum(e), table)
    return {z: c.as_int() for z, c in vec.coords.items()}


class TestMonomialClass:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_monomial_up_to_the_top_degree(self, n, monkeypatch):
        monkeypatch.setattr(schubert, "_MONOMIAL_CLASSES", {})  # fill from cold
        table = build_schubert_table(n)
        checked = 0
        for e in itertools.product(range(table.max_degree + 1), repeat=n):
            if sum(e) <= table.max_degree:
                assert monomial_class(e) == sweep_class(e, table), e
                checked += 1
        assert checked == math.comb(table.max_degree + n, n)

    def test_n5_staircase_and_one_past_it(self, monkeypatch):
        # Every e with e_j <= n - j + 1: the staircase exponents and one more.
        monkeypatch.setattr(schubert, "_MONOMIAL_CLASSES", {})
        table = build_schubert_table(5)
        checked = nonzero = 0
        for e in itertools.product(*(range(7 - j) for j in range(1, 6))):
            if sum(e) <= table.max_degree:
                cls = monomial_class(e)
                assert cls == sweep_class(e, table), e
                checked += 1
                nonzero += bool(cls)
        assert checked > 600 and 0 < nonzero < checked

    def test_ideal_members_have_no_class(self):
        assert monomial_class((3, 0, 0)) == {}  # x1^n lies in the ideal
        assert monomial_class((2, 1, 1)) == {}  # past the top degree


class TestOracleIndependence:
    def test_dropped_monk_term_is_caught_and_the_sweep_is_untouched(self, monkeypatch):
        import qschub
        from qschub import verify

        table = build_schubert_table(3)
        exponents = [e for e in itertools.product(range(3), repeat=3) if sum(e) <= 3]
        before = {e: sweep_class(e, table) for e in exponents}
        original = schubert.x_action_on_schubert

        def dropped_term(i, w):
            plus, minus = original(i, w)
            return plus[1:], minus

        for module in (qschub, schubert, verify):
            if getattr(module, "x_action_on_schubert", None) is original:
                monkeypatch.setattr(module, "x_action_on_schubert", dropped_term)
        monkeypatch.setattr(schubert, "_MONOMIAL_CLASSES", {})

        assert not verify.suite_schubert_recursion(3).passed
        assert {e: sweep_class(e, table) for e in exponents} == before
        assert any(monomial_class(e) != before[e] for e in exponents)


class TestRendering:
    def test_n2_strings(self):
        assert list(schubert_table_rows(2)) == [("1,2", "1"), ("2,1", "x1")]

    def test_n1_strings(self):
        assert list(schubert_table_rows(1)) == [("1", "1")]
