import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import (
    apply_partial_w,
    empty_rep_caches,
    from_word,
    graded_character_oracle,
    identity_matrix,
    left_descent_steps,
    matrix_product,
    matrix_trace,
    module_trace_oracle,
    quotient_basis_traces_oracle,
    quotient_traces_by_descent_steps,
    record_pool_sizes,
    spread_class_traces_oracle,
    symmetric_hilbert_dims,
    upstairs_class_traces_oracle,
    upstairs_graded_traces_oracle,
    upstairs_traces_by_descent_steps,
)
from qschub import perm, rep, verify
from qschub.operators import InvariantViolation, monomials_up_to
from qschub.perm import (
    all_perms,
    coset_weight,
    identity,
    knuth_classes,
    length,
    mult_left_s,
    partition_word,
    partitions_of,
    perms_of_length,
)
from qschub.polyring import MPoly, ONE_MINUS_Q, QPoly, QP_ONE, QP_ZERO
from qschub.rep import (
    ACTIONS,
    apply_action_word,
    basis_element_matrix,
    bc_scan,
    coinvariant_traces_from_graded,
    coordinate_at,
    descent_column_formula,
    descent_pairs,
    generator_matrix,
    graded_character,
    orbit_of_type,
    orbit_type_counts,
    quotient_basis_traces,
    quotient_class_traces,
    spread_class_traces,
    upstairs_class_traces,
    upstairs_graded_traces,
    weight_character,
    word_matrix,
)
from qschub.schubert import build_schubert_table
from qschub.verify import suite_characters, symmetric_group_character

MINUS_Q = QPoly((0, -1))


def record_word_matrix_reads(monkeypatch) -> list[tuple[str, int]]:
    """Make every ``rep.word_matrix`` call append its (action, k) to the
    returned list, then read the matrix as before."""
    reads = []
    genuine = rep.word_matrix

    def word_matrix_(action, word, k, table):
        reads.append((action, k))
        return genuine(action, word, k, table)

    monkeypatch.setattr(rep, "word_matrix", word_matrix_)
    return reads


def random_traces(rng: random.Random, keys, max_degree: int) -> dict:
    """A random element of Z[q], zero about a fifth of the time, at every
    (key, degree) up to max_degree."""
    return {(x, d): QPoly([rng.randint(-5, 5) for _ in range(rng.randint(0, 4))])
            for x in keys for d in range(max_degree + 1)}


class TestGeneratorMatrix:
    def test_rank_one_cases(self):
        table = build_schubert_table(2)
        for action in ("rho1", "rho2"):
            m = generator_matrix(action, 1, 1, table)
            assert m.basis == ((2, 1),)
            assert m.entries == ((MINUS_Q,),)

    def test_n3_columns(self):
        table = build_schubert_table(3)
        m = generator_matrix("rho1", 1, 1, table)
        assert m.basis == ((1, 3, 2), (2, 1, 3))
        assert m.columns[(2, 1, 3)] == {(2, 1, 3): MINUS_Q, (1, 3, 2): QP_ONE}
        assert m.columns[(1, 3, 2)] == {(1, 3, 2): QP_ONE}

    def test_basis_is_lexicographic(self):
        table = build_schubert_table(4)
        for k in range(7):
            basis = generator_matrix("rho1", 1, k, table).basis
            assert basis == tuple(sorted(basis))

    @pytest.mark.parametrize("action", ["rho1", "rho2"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_column_structure(self, action, n):
        table = build_schubert_table(n)
        for i in range(1, n):
            for k in range(table.max_degree + 1):
                m = generator_matrix(action, i, k, table)
                for w in m.basis:
                    col = m.columns[w]
                    if w[i - 1] < w[i]:
                        assert col == {w: QP_ONE}
                    else:
                        assert col[w] == MINUS_Q

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_columns_are_the_stored_format(self, n):
        table = build_schubert_table(n)
        degrees = range(table.max_degree + 1)
        generators = [generator_matrix(action, i, k, table)
                      for action in ACTIONS for i in range(1, n) for k in degrees]
        words = [word_matrix(action, word, k, table)
                 for action in ACTIONS for word in [(1, 1), tuple(range(1, n))] for k in degrees]
        for m in generators + words:
            assert list(m.columns) == list(m.basis)
            for wi, w in enumerate(m.basis):
                assert set(m.columns[w]) <= set(m.basis)
                assert all(c for c in m.columns[w].values())
                for zi, z in enumerate(m.basis):
                    assert m.entries[zi][wi] == m.columns[w].get(z, 0)
        for m in generators:
            if m.action == "rho1":
                assert all(len(col) <= 1 + 2 * (n - 2) for col in m.columns.values())

    def test_bad_action(self):
        with pytest.raises(ValueError):
            generator_matrix("rho3", 1, 1, build_schubert_table(2))

    @staticmethod
    def _read_column_with_stray_entry(monkeypatch, action, i, w, z, c=QP_ONE):
        """Empty the generator cache and make the column read of S_w under
        the i-th generator return one extra entry c at z, or, when c is not
        1, c in place of its entry at z."""
        genuine = rep._read_column

        def read(action_, word, v, k, table):
            col = genuine(action_, word, v, k, table)
            if (action_, word, v) == (action, (i,), w):
                assert (z in col) == (c != QP_ONE)
                col = {**col, z: c}
            return col

        empty_rep_caches(monkeypatch)
        monkeypatch.setattr(rep, "_read_column", read)

    def test_stray_entry_in_an_ascent_column_fails_the_build(self, monkeypatch):
        self._read_column_with_stray_entry(monkeypatch, "rho1", 1, (1, 3, 2), (2, 1, 3))
        with pytest.raises(InvariantViolation,
                           match=r"^ascent column at i=1, w=\(1, 3, 2\) is not a unit column$"):
            generator_matrix("rho1", 1, 1, build_schubert_table(3))
        assert rep._GEN_CACHE == {}

    def test_descent_column_entry_at_a_descent_class_fails_the_build(self, monkeypatch):
        w, z = (2, 1, 4, 3), (3, 1, 2, 4)
        self._read_column_with_stray_entry(monkeypatch, "rho2", 1, w, z)
        with pytest.raises(InvariantViolation,
                           match=r"^descent column at i=1, w=\(2, 1, 4, 3\) has an entry "
                                 r"at \(3, 1, 2, 4\), a descent at 1$"):
            generator_matrix("rho2", 1, 2, build_schubert_table(4))
        assert rep._GEN_CACHE == {}

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_dual_degrees_match_the_monk_read(self, monkeypatch, n):
        empty_rep_caches(monkeypatch)
        table = build_schubert_table(n)
        for action in ("rho1", "symq1"):
            for i in range(1, n):
                for k in range(table.max_degree + 1):
                    assert generator_matrix(action, i, k, table).entries == \
                        word_matrix(action, (i,), k, table).entries, (action, i, k)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_the_length_one_twist_is_the_entry_twist(self, n):
        # Every distinct entry a0 + a1 q of a Monk-read rho1 generator, at every
        # i and degree, twists to -a1 - a0 q, the entry twist written out on
        # its coefficients.
        table = build_schubert_table(n)
        entries = {c for i in range(1, n) for k in range(table.max_degree + 1)
                   for col in word_matrix("rho1", (i,), k, table).columns.values()
                   for c in col.values()}
        assert {QP_ONE, rep.MINUS_Q} <= entries
        for c in entries:
            a0, a1 = c.c + (0,) * (2 - len(c.c))
            assert rep._twist(c, 1, "x") == QPoly((-a1, -a0)), c

    def test_a_cold_dual_request_reads_and_caches_both_degrees(self, monkeypatch):
        table = build_schubert_table(5)
        reads = record_word_matrix_reads(monkeypatch)
        for action in ("rho1", "symq1"):
            empty_rep_caches(monkeypatch)
            reads.clear()
            dual_first = generator_matrix(action, 2, 7, table)
            assert reads == [(action, 3)]
            assert set(rep._GEN_CACHE) == {(5, action, 2, 3), (5, action, 2, 7)}
            source = generator_matrix(action, 2, 3, table)
            assert reads == [(action, 3)]
            empty_rep_caches(monkeypatch)
            assert generator_matrix(action, 2, 3, table).entries == source.entries
            assert generator_matrix(action, 2, 7, table).entries == dual_first.entries
            assert reads == [(action, 3), (action, 3)]
        empty_rep_caches(monkeypatch)
        reads.clear()
        generator_matrix("rho2", 2, 7, table)
        assert reads == [("rho2", 7)]

    def test_stray_entry_in_a_source_column_fails_the_dual_build(self, monkeypatch):
        self._read_column_with_stray_entry(monkeypatch, "rho1", 1, (1, 3, 2), (2, 1, 3))
        with pytest.raises(InvariantViolation,
                           match=r"^ascent column at i=1, w=\(1, 3, 2\) is not a unit column$"):
            generator_matrix("rho1", 1, 2, build_schubert_table(3))
        assert rep._GEN_CACHE == {}

    def test_a_source_entry_of_q_degree_two_has_no_dual(self, monkeypatch):
        self._read_column_with_stray_entry(monkeypatch, "rho1", 1, (2, 1, 3), (1, 3, 2),
                                           QPoly.q_power(2))
        with pytest.raises(InvariantViolation,
                           match=r"^rho1 entry at i=1, w=\(2, 1, 3\), z=\(1, 3, 2\) "
                                 r"has q-degree 2 > 1: no dual$"):
            generator_matrix("rho1", 1, 2, build_schubert_table(3))
        assert rep._GEN_CACHE == {}


class TestWordMatrix:
    def test_empty_word_is_identity(self):
        table = build_schubert_table(3)
        m = word_matrix("rho1", (), 2, table)
        assert m.entries == identity_matrix(2, table.basis(2)).entries

    @pytest.mark.parametrize("action", ["rho1", "rho2"])
    def test_braid_well_defined(self, action):
        table = build_schubert_table(3)
        for k in range(4):
            m1 = word_matrix(action, (1, 2, 1), k, table)
            m2 = word_matrix(action, (2, 1, 2), k, table)
            assert m1.entries == m2.entries

    @pytest.mark.parametrize("action", ["rho1", "rho2"])
    def test_quadratic_well_defined(self, action):
        table = build_schubert_table(3)
        for k in range(4):
            twice = word_matrix(action, (1, 1), k, table)
            single = generator_matrix(action, 1, k, table)
            ident = identity_matrix(k, table.basis(k))
            for zi in range(len(single.basis)):
                for wi in range(len(single.basis)):
                    expected = (
                        QPoly((1, -1)) * single.entries[zi][wi]
                        + QPoly((0, 1)) * ident.entries[zi][wi]
                    )
                    assert twice.entries[zi][wi] == expected

    def test_qcommutator_words_equal_matrix_products(self):
        # the q-commutator action preserves the ideal, so composing upstairs
        # and multiplying single-generator matrices agree
        table = build_schubert_table(3)
        words = [(1,), (2, 1), (1, 2), (1, 2, 1), (2, 2), (1, 1, 2)]
        for word in words:
            for k in range(4):
                composite = word_matrix("rho1", word, k, table)
                product = identity_matrix(k, table.basis(k))
                for i in word:
                    product = matrix_product(product, generator_matrix("rho1", i, k, table))
                assert composite.entries == product.entries

    def test_sorting_action_words_escape_matrix_products(self):
        # the monomial-sorting action leaks out of the ideal: composing
        # upstairs differs from multiplying projected generator matrices
        table = build_schubert_table(3)
        composite = word_matrix("rho2", (1, 2), 2, table)
        product = matrix_product(generator_matrix("rho2", 1, 2, table),
                                 generator_matrix("rho2", 2, 2, table))
        assert composite.entries != product.entries

    def test_basis_element_matrix_word_independent(self):
        table = build_schubert_table(3)
        m = basis_element_matrix("rho2", (3, 2, 1), 2, table)
        alt = word_matrix("rho2", (1, 2, 1), 2, table)
        assert m.entries == alt.entries


class TestPackedColumns:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_packed_columns_match_the_symbolic_read(self, n):
        # The Z[q] route, independent of the Monk classes: the word applied
        # to the Schubert polynomial over Z[q], then read by the
        # divided-difference sweep.
        from qschub.schubert import expand_homogeneous

        table = build_schubert_table(n)
        rng = random.Random(n)
        words = [(), (1,), (n - 1, 1, n - 1)] + [
            tuple(rng.randrange(1, n) for _ in range(rng.randint(2, 6))) for _ in range(3)]
        for action in ACTIONS:
            for word in words:
                for k in range(table.max_degree + 1):
                    for w in table.basis(k):
                        image = apply_action_word(action, word, table[w])
                        assert rep._read_column(action, word, w, k, table) == \
                            expand_homogeneous(image, k, table).coords, (action, word, w)

    def test_one_letter_grows_the_l1_norm_by_at_most_its_mass(self):
        # The premise of _read_column's packing bound; every mass is reached
        # in each degree k >= 1, so none can be lowered.
        def l1(f):
            return sum(abs(d) for c in f.terms.values() for d in c.c)

        worst = {}
        for n in (2, 3, 4):
            for f in monomials_up_to(n, 5):
                k = f.homogeneous_degree()
                for action, op in rep._ACTION_OPS.items():
                    for i in range(1, n):
                        for c in (QP_ONE, QPoly((1, -1)), QPoly((0, 2, -1))):
                            g = f.scale(c)
                            ratio = Fraction(l1(op(g, i)), l1(g))
                            assert ratio <= rep._letter_mass(action, k)
                            worst[(action, k)] = max(worst.get((action, k), 0), ratio)
        assert all(worst[(action, k)] == rep._letter_mass(action, k)
                   for action in ACTIONS for k in range(1, 6))


class TestCharacters:
    def test_rank_one_trace(self):
        for action in ("rho1", "rho2"):
            assert graded_character(action, (2,), 1, 2).value == MINUS_Q

    def test_n3_full_cycle_row(self):
        expected = [QP_ONE, MINUS_Q, MINUS_Q, QPoly((0, 0, 1))]
        for action in ("rho1", "rho2"):
            values = [graded_character(action, (3,), k, 3).value for k in range(4)]
            assert values == expected

    def test_identity_word_gives_dimensions(self):
        values = [graded_character("rho1", (1, 1, 1), k, 3).value for k in range(4)]
        assert values == [QPoly((d,)) for d in (1, 2, 2, 1)]

    def test_weight_examples(self):
        assert weight_character((2, 1), 1, 3).value == QPoly((1, -1))
        assert weight_character((2, 1), 3, 3).value == MINUS_Q
        assert weight_character((3,), 1, 3).value.evaluate(1) == -1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_main_identity(self, n):
        for mu in partitions_of(n):
            for k in range(n * (n - 1) // 2 + 1):
                t1 = graded_character("rho1", mu, k, n).value
                t2 = graded_character("rho2", mu, k, n).value
                ws = weight_character(mu, k, n).value
                assert t1 == ws and t2 == ws

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_rho1_matches_the_polynomial_oracle(self, n):
        # Both actions' packed cells, rho1's column products and rho2's
        # packed upstairs words, against the Z[q] route.
        for action in ("rho1", "rho2"):
            for k in range(n * (n - 1) // 2 + 1):
                for mu in partitions_of(n):
                    got = graded_character(action, mu, k, n).value
                    assert got == graded_character_oracle(action, mu, k, n), (action, mu, k)

    def test_rho2_matches_the_weight_sum_at_n6(self):
        # All 176 n=6 cells: rho2 is the coset-weight sum.
        n = 6
        for k in range(n * (n - 1) // 2 + 1):
            for mu in partitions_of(n):
                ws = weight_character(mu, k, n).value
                assert graded_character("rho2", mu, k, n).value == ws, (mu, k)

    @pytest.mark.parametrize("action", ["symq1", "rho3"])
    def test_graded_characters_are_of_rho1_and_rho2_only(self, action):
        with pytest.raises(ValueError, match="unknown action"):
            graded_character(action, (2, 1), 1, 3)

    def test_each_staircase_monomial_goes_through_the_word_once(self, monkeypatch):
        action = "rho2"
        n, mu, k = 5, (3, 2), 4
        inputs = []

        def recording(act, word, f, q):
            inputs.append(f.terms)
            return apply_action_word(act, word, f, q)

        monkeypatch.setattr(rep, "apply_action_word", recording)
        got = graded_character(action, mu, k, n).value
        assert all(len(terms) == 1 and set(terms.values()) == {1} for terms in inputs)
        table = build_schubert_table(n)
        staircase = {e for w in table.basis(k) for e in table.polys[w].terms}
        pushed = Counter(e for terms in inputs for e in terms)
        assert set(pushed) == staircase and set(pushed.values()) == {1}
        assert got == graded_character_oracle(action, mu, k, n)

    @pytest.mark.parametrize("order", ["upward", "downward"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_every_rho1_cell_from_an_empty_memo(self, monkeypatch, n, order):
        # Downward, each cell above the middle degree is asked before its
        # dual and computes it; upward, it is the twist of a memoized cell.
        empty_rep_caches(monkeypatch)
        top = n * (n - 1) // 2
        degrees = range(top + 1) if order == "upward" else range(top, -1, -1)
        for k in degrees:
            for mu in partitions_of(n):
                got = graded_character("rho1", mu, k, n).value
                assert got == weight_character(mu, k, n).value, (mu, k)
                if n <= 4:
                    assert got == graded_character_oracle("rho1", mu, k, n), (mu, k)

    def test_a_cold_cell_above_the_middle_builds_only_its_dual_degree(self, monkeypatch):
        n, mu, k = 5, (3, 2), 7  # top 10: the dual degree is 3
        empty_rep_caches(monkeypatch)
        reads = record_word_matrix_reads(monkeypatch)
        upper = graded_character("rho1", mu, k, n).value
        assert upper == weight_character(mu, k, n).value
        assert sorted(set(reads)) == [("rho1", 3)]
        assert set(rep._GEN_CACHE) == {(n, "rho1", i, 3) for i in range(1, n)}
        lower = graded_character_oracle("rho1", mu, 3, n)
        assert rep._CELL_CACHE == {(n, mu, 3): lower}
        # A repeat builds nothing, and a list mu finds the tuple's entry.
        reads.clear()
        cached = dict(rep._GEN_CACHE)
        assert graded_character("rho1", mu, k, n).value == upper
        assert graded_character("rho1", list(mu), 3, n).value == lower
        assert graded_character("rho1", list(mu), k, n).value == upper
        assert reads == [] and rep._GEN_CACHE == cached
        assert rep._CELL_CACHE == {(n, mu, 3): lower}

    def test_the_twist_reverses_and_signs_the_lower_cell(self):
        # (-q)^3 (1 + 2/q) = -2q^2 - q^3: neither palindromic nor of even length.
        assert rep._twist(QPoly((1, 2)), 3, "x") == QPoly((0, 0, -2, -1))
        assert rep._twist(QPoly((1, 2)), 2, "x") == QPoly((0, 2, 1))
        assert rep._twist(QP_ZERO, 1, "x") == QP_ZERO

    def test_a_lower_cell_wider_than_the_word_has_no_dual(self, monkeypatch):
        empty_rep_caches(monkeypatch)
        monkeypatch.setattr(rep, "_rho1_trace", lambda mu, k, table: QPoly.q_power(2))
        with pytest.raises(InvariantViolation,
                           match=r"^rho1 trace at mu=\(2, 1\), degree 1 has q-degree 2 > 1: no dual$"):
            graded_character("rho1", (2, 1), 2, 3)

    @pytest.mark.parametrize("k", [-1, 7])
    def test_a_degree_outside_the_algebra_is_named(self, k):
        # n = 4 has degrees 0..6.  Above the middle degree rho1 and symq1 once
        # named the dual degree, 6 - k, instead of k.
        table = build_schubert_table(4)
        message = rf"^no permutations of length {k} in S_4$"
        for action in ACTIONS:
            with pytest.raises(ValueError, match=message):
                generator_matrix(action, 1, k, table)
        for action in ("rho1", "rho2"):
            with pytest.raises(ValueError, match=message):
                graded_character(action, (2, 1, 1), k, 4)
        with pytest.raises(ValueError, match=message):
            weight_character((2, 1, 1), k, 4)

    def test_character_value_metadata(self):
        cv = graded_character("rho2", (2, 1), 1, 3)
        assert (cv.k, cv.mu) == (1, (2, 1))
        cv = weight_character((2, 1), 1, 3)
        assert (cv.k, cv.mu) == (1, (2, 1))


class TestQOneCollapse:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_generator_matrices_become_permutation_action(self, n):
        table = build_schubert_table(n)
        for i in range(1, n):
            for k in range(table.max_degree + 1):
                deformed = generator_matrix("rho1", i, k, table)
                plain = generator_matrix("symq1", i, k, table)
                assert [[c.evaluate(1) for c in row] for row in deformed.entries] == [
                    [c.evaluate(1) for c in row] for row in plain.entries
                ]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_symq1_descent_column_structure(self, n):
        table = build_schubert_table(n)
        for i in range(1, n):
            for k in range(table.max_degree + 1):
                m = generator_matrix("symq1", i, k, table)
                for w in m.basis:
                    col = m.columns[w]
                    if w[i - 1] < w[i]:
                        assert col == {w: QP_ONE}
                    else:
                        assert col[w] == QPoly((-1,))
                        assert all(c.as_int() in (-1, 1) for c in col.values())

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_regular_representation_sums(self, n):
        top = n * (n - 1) // 2
        for mu in partitions_of(n):
            total = sum(
                graded_character("rho1", mu, k, n).value.evaluate(1) for k in range(top + 1)
            )
            assert total == (math.factorial(n) if mu == (1,) * n else 0)


class TestDescentColumnFormula:
    def test_rank_one(self):
        assert descent_column_formula(1, (2, 1)) == {(2, 1): MINUS_Q}

    def test_n3_example(self):
        col = descent_column_formula(1, (2, 1, 3))
        assert col == {(2, 1, 3): MINUS_Q, (1, 3, 2): QP_ONE}

    def test_ascent_rejected(self):
        with pytest.raises(ValueError):
            descent_column_formula(1, (1, 2, 3))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_matrices(self, n):
        table = build_schubert_table(n)
        for i, w in descent_pairs(n):
            col = generator_matrix("rho1", i, length(w), table).columns[w]
            assert col == descent_column_formula(i, w)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_support_condition(self, n):
        # off-diagonal support only on classes with an ascent at i
        table = build_schubert_table(n)
        for action in ("rho1", "rho2"):
            for i, w in descent_pairs(n):
                col = generator_matrix(action, i, length(w), table).columns[w]
                for z in col:
                    if z != w:
                        assert z[i - 1] < z[i]


def rho2_ledger_rows(i, w, table):
    return rep._ledger_rows(i, w, generator_matrix("rho2", i, length(w), table).columns[w])


def knuth_class_sum(cls, mu):
    return sum((coset_weight(w, mu) for w in cls), QP_ZERO)


class TestBCSplit:
    def test_rank_one_empty(self):
        assert rho2_ledger_rows(1, (2, 1), build_schubert_table(2)) == []
        assert bc_scan(2).entries == []

    def test_n3_example(self):
        rows = rho2_ledger_rows(1, (2, 1, 3), build_schubert_table(3))
        assert rows == [(1, (2, 1, 3), (1, 3, 2), -1, 1)]

    def test_reconstruction(self):
        table = build_schubert_table(4)
        rows = {(i, w, z): (b, c) for i, w, z, b, c in bc_scan(4).entries}
        expected = set()
        for i, w in descent_pairs(4):
            col = generator_matrix("rho2", i, length(w), table).columns[w]
            for z, entry in col.items():
                if z == w:
                    continue
                expected.add((i, w, z))
                b, c = rows[(i, w, z)]
                assert entry == QPoly((1, -1)) * b + c
                assert c in (-1, 0, 1)
        assert set(rows) == expected

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_scan(self, n):
        scan = bc_scan(n)
        assert not scan.structural_violations
        assert all(c in (-1, 0, 1) for _, _, _, _, c in scan.entries)
        hist = scan.b_histogram()
        assert sum(hist.values()) == len(scan.entries)

    def test_scan_n3_contents(self):
        scan = bc_scan(3)
        assert (1, (2, 1, 3), (1, 3, 2), -1, 1) in scan.entries
        assert scan.b_histogram() == {-1: 1, 0: 1, 1: 2}
        assert scan.b_outliers() == []


class TestKnuthCharacters:
    # The coset-weight sum over a Knuth class, as ``verify.suite_knuth``
    # takes it.
    def test_shape_21_classes_agree(self):
        classes = dict(knuth_classes(3))[(2, 1)]
        for mu in partitions_of(3):
            values = {knuth_class_sum(cls, mu) for cls in classes}
            assert len(values) == 1
        assert knuth_class_sum(classes[0], (2, 1)) == QPoly((1, -1))

    def test_trivial_class(self):
        cls = ((1, 2, 3),)
        for mu in partitions_of(3):
            assert knuth_class_sum(cls, mu) == QP_ONE

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_q_one_matches_oracle(self, n):
        for shape, classes in knuth_classes(n):
            for mu in partitions_of(n):
                for cls in classes:
                    value = knuth_class_sum(cls, mu).evaluate(1)
                    assert value == symmetric_group_character(shape, mu)


class TestSymmetricGroupCharacterOracle:
    def test_trivial(self):
        for n in range(1, 6):
            for mu in partitions_of(n):
                assert symmetric_group_character((n,), mu) == 1

    def test_sign(self):
        for n in range(2, 6):
            for mu in partitions_of(n):
                expected = (-1) ** (n - len(mu))
                assert symmetric_group_character((1,) * n, mu) == expected

    def test_standard_values(self):
        assert symmetric_group_character((2, 1), (2, 1)) == 0
        assert symmetric_group_character((2, 1), (1, 1, 1)) == 2
        assert symmetric_group_character((2, 1), (3,)) == -1
        assert symmetric_group_character((2, 2), (2, 2)) == 2
        assert symmetric_group_character((3, 2), (2, 2, 1)) == 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_orthogonality(self, n):
        def class_size(mu):
            z = 1
            for part in set(mu):
                m = mu.count(part)
                z *= part**m * math.factorial(m)
            return math.factorial(n) // z

        shapes = partitions_of(n)
        for a, lam in enumerate(shapes):
            for rho in shapes[a:]:
                total = sum(
                    class_size(mu)
                    * symmetric_group_character(lam, mu)
                    * symmetric_group_character(rho, mu)
                    for mu in shapes
                )
                assert total == (math.factorial(n) if lam == rho else 0)

    @pytest.mark.parametrize("n", [3, 4])
    def test_identity_column_squares(self, n):
        total = sum(
            symmetric_group_character(lam, (1,) * n) ** 2 for lam in partitions_of(n)
        )
        assert total == math.factorial(n)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            symmetric_group_character((2, 1), (2, 2))


class TestEquivalence:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_report(self, n):
        result = suite_characters(n)
        assert result.passed, result.failures[:3]
        rows = len(partitions_of(n)) * (n * (n - 1) // 2 + 1)
        assert result.lines == [
            f"trace = trace = weight sum: {rows} identities checked, PASS",
            "rho1 quotient vs upstairs-derived traces at the classes T_mu (runs for n <= 4): "
            f"{rows} identities checked, PASS",
            f"rho1 vs rho2 coinvariant traces at the classes T_mu: {rows} identities checked, PASS",
        ]

    def test_identity_element_rows_are_dimensions(self):
        # T_mu at mu = (1, 1, 1) is the identity.
        n, mu = 3, (1, 1, 1)
        quotient1 = quotient_class_traces(n)
        derived2 = coinvariant_traces_from_graded(upstairs_class_traces(n, "rho2", 3), n, 3)
        for k in range(4):
            dim = QPoly((len(perms_of_length(n, k)),))
            assert quotient1[(mu, k)] == dim and derived2[(mu, k)] == dim

    @pytest.mark.parametrize("action", ["rho2", "rho1"])
    def test_a_corrupted_upstairs_trace_is_reported(self, monkeypatch, action):
        # One unit too many in the rho2 trace at (mu, d) must fail that pair;
        # in rho1's direct upstairs trace, the cross-check.
        n, mu, d = 3, (2, 1), 2
        genuine = rep.upstairs_class_traces

        def corrupted(n, which, max_degree):
            traces = genuine(n, which, max_degree)
            if which == action:
                traces[(mu, d)] = traces[(mu, d)] + QP_ONE
            return traces

        monkeypatch.setattr(verify, "upstairs_class_traces", corrupted)
        failures = suite_characters(n).failures
        if action == "rho2":
            assert failures[0].startswith("coinvariant trace mismatch at mu=2+1, k=2: ")
            assert all(f.startswith("coinvariant trace mismatch") for f in failures)
        else:
            assert failures[0].startswith(
                "quotient vs upstairs-derived rho1 trace at T_mu, mu=(2, 1), degree 2: ")
            assert not any(f.startswith("coinvariant trace mismatch") for f in failures)

    def test_report_needs_no_spread(self, monkeypatch):
        def no_spread(*args):
            raise AssertionError("the report compares at the T_mu only")

        monkeypatch.setattr(rep, "spread_class_traces", no_spread)
        assert suite_characters(4).passed

    def test_graded_traces_recover_weights_at_subproducts(self):
        n = 3
        g2 = upstairs_graded_traces(n, "rho2", 3)
        derived = coinvariant_traces_from_graded(g2, n, 3)
        for mu in partitions_of(n):
            element = from_word(n, partition_word(mu))
            for k in range(4):
                assert derived[(element, k)] == weight_character(mu, k, n).value

    def test_symmetric_hilbert_dims(self):
        # partitions into parts of size <= n
        assert symmetric_hilbert_dims(3, 6) == [1, 1, 2, 3, 4, 5, 7]
        assert symmetric_hilbert_dims(2, 4) == [1, 1, 2, 2, 3]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_deconvolution_is_undone_by_the_hilbert_dims(self, n):
        # Convolving the coinvariant traces with the symmetric Hilbert
        # dimensions gives back the random Z[q] traces they came from, keyed
        # by class and by a sample of permutations.
        rng = random.Random(40 + n)
        top = n * (n - 1) // 2
        perms = rng.sample(all_perms(n), min(6, math.factorial(n)))
        for max_degree in sorted({0, n - 1, top, top + 2}):
            dims = symmetric_hilbert_dims(n, max_degree)
            for keys in (partitions_of(n), perms):
                graded = random_traces(rng, keys, max_degree)
                out = coinvariant_traces_from_graded(graded, n, max_degree)
                assert set(out) == set(graded)
                for (x, k), t in graded.items():
                    back = QP_ZERO
                    for j in range(k + 1):
                        back = back + out[(x, k - j)] * dims[j]
                    assert back == t, (x, k, max_degree)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_spread_matches_the_per_element_oracle(self, n, monkeypatch):
        # One row per distinct class polynomial against the sum for every
        # T_v.  The memo starts empty, as in a fresh process: filling it
        # replaces entries with equal new dicts, so at n = 5 rows keyed by
        # a dict's id would pick up another polynomial's row.
        monkeypatch.setattr(perm, "_CLASS_POLYNOMIALS", {})
        traces = random_traces(random.Random(60 + n), partitions_of(n), 3)
        assert spread_class_traces(traces, n, 3) == spread_class_traces_oracle(traces, n, 3)

    def test_quotient_traces_match_basis_element_matrices(self):
        n = 3
        table = build_schubert_table(n)
        traces = quotient_basis_traces(n)
        for v in all_perms(n):
            for k in range(4):
                assert traces[(v, k)] == matrix_trace(basis_element_matrix("rho1", v, k, table))


class TestTraceKernels:
    """The traces at the T_mu, spread by class polynomials, against the
    oracles in helpers.py: the polynomial routes, which share neither the
    generator matrices nor the orbit reduction with them, and the
    left-descent recursions over every T_v, which share no class
    polynomial."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_quotient_traces_match_the_polynomial_oracle(self, n):
        assert quotient_basis_traces(n) == quotient_basis_traces_oracle(n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_quotient_traces_match_the_descent_step_oracle(self, n):
        assert quotient_basis_traces(n) == quotient_traces_by_descent_steps(n)

    @pytest.mark.parametrize("action", ["rho2"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_upstairs_traces_match_the_descent_step_oracle(self, n, action):
        top = n * (n - 1) // 2
        assert upstairs_graded_traces(n, action, top) == upstairs_traces_by_descent_steps(n, action, top)

    def test_quotient_traces_are_traces_of_generator_products(self, monkeypatch):
        # Random integer matrices in place of the generators satisfy no Hecke
        # relation, so the trace at T_mu must be that of their product along
        # partition_word(mu), in that order.  This sees a transposed column
        # read or a reversed word, which the real generators hide: Hecke
        # characters agree at T_v and T_{v^-1}.  Ascent columns stay unit
        # columns, the shape every rho1 generator is checked to have when it
        # is built and that the column product relies on.  The fakes are not
        # dual across degrees, so graded_character's twist above the middle
        # degree does not apply to them: the product kernel is called at
        # every degree.
        from qschub import rep

        n = 4
        table = build_schubert_table(n)
        rng = random.Random(5)
        fakes = {}

        def fake_generator(action, i, k, table):
            if (i, k) not in fakes:
                basis = table.basis(k)
                draws = [[QPoly((rng.randint(-2, 2),)) for _ in basis] for _ in basis]
                columns = {w: {w: QP_ONE} if w[i - 1] < w[i]
                               else {z: row[j] for z, row in zip(basis, draws) if row[j]}
                           for j, w in enumerate(basis)}
                fakes[(i, k)] = rep.RepMatrix("fake", k, basis, columns)
            return fakes[(i, k)]

        monkeypatch.setattr(rep, "generator_matrix", fake_generator)
        traces = {(mu, k): rep._rho1_trace(mu, k, table)
                  for mu in partitions_of(n) for k in range(table.max_degree + 1)}
        for (mu, k), trace in traces.items():
            product = identity_matrix(k, table.basis(k))
            for i in partition_word(mu):
                product = matrix_product(product, fake_generator("rho1", i, k, table))
            assert trace == matrix_trace(product), (mu, k)

    def test_quotient_traces_decode_wide_entries(self, monkeypatch):
        # The rho1 product runs on entries packed at q = 2^B.  The real
        # generators hold only 0, +-1 and +-q, so their products never carry
        # from one q-digit into the next; these fakes have entries up to q^2
        # with coefficients of both signs past 2^40, and unit ascent columns.
        # The product kernel is called at every degree, as above.
        from qschub import rep

        n = 4
        table = build_schubert_table(n)
        rng = random.Random(11)
        big = 1 << 41
        fakes = {}

        def fake_generator(action, i, k, table):
            if (i, k) not in fakes:
                basis = table.basis(k)
                columns = {w: {w: QP_ONE} if w[i - 1] < w[i]
                              else {z: QPoly([rng.randint(-big, big) for _ in range(3)])
                                    for z in basis if rng.random() < 0.6}
                           for w in basis}
                fakes[(i, k)] = rep.RepMatrix("fake", k, basis, columns)
            return fakes[(i, k)]

        monkeypatch.setattr(rep, "generator_matrix", fake_generator)
        traces = {(mu, k): rep._rho1_trace(mu, k, table)
                  for mu in partitions_of(n) for k in range(table.max_degree + 1)}
        for (mu, k), trace in traces.items():
            product = identity_matrix(k, table.basis(k))
            for i in partition_word(mu):
                product = matrix_product(product, fake_generator("rho1", i, k, table))
            assert trace == matrix_trace(product), (mu, k)
        assert any(t.degree == 6 and min(t.c) < -(1 << 120) < (1 << 120) < max(t.c)
                   for t in traces.values())

    def test_upstairs_graded_traces_reject_symq1(self):
        # symq1's swaps square to 1, so the Hecke class polynomials would
        # spread its traces wrongly.
        with pytest.raises(ValueError, match="symq1"):
            upstairs_graded_traces(3, "symq1", 3)

    @pytest.mark.parametrize("action", ["rho2"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_orbit_traces_match_the_per_monomial_oracle(self, n, action):
        top = n * (n - 1) // 2
        for max_degree in sorted({0, 3, top, top + 2}):
            expected = upstairs_graded_traces_oracle(n, action, max_degree)
            assert upstairs_graded_traces(n, action, max_degree) == expected, max_degree

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_rho2_upstairs_traces_match_the_module_closed_form(self, n):
        top = n * (n - 1) // 2
        assert upstairs_class_traces(n, "rho2", top) == upstairs_class_traces_oracle(n, top)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_coxeter_element_trace_on_each_orbit_module(self, n):
        # tr(T_(n) | M^lam) = (1 - q)^(l(lam) - 1), by the closed form and by
        # pushing each orbit monomial through the word.
        word = partition_word((n,))
        for lam in partitions_of(n):
            expected = QP_ONE
            for _ in range(len(lam) - 1):
                expected = expected * ONE_MINUS_Q
            assert module_trace_oracle(lam, (n,)) == expected, lam
            pushed = QP_ZERO
            for e in orbit_of_type(lam):
                pushed = pushed + apply_action_word("rho2", word, MPoly.monomial(n, e)).terms.get(e, QP_ZERO)
            assert pushed == expected, lam

    @pytest.mark.parametrize("n", [2, 3])
    def test_rho1_upstairs_traces_match_the_oracle(self, n):
        top = n * (n - 1) // 2
        assert upstairs_graded_traces(n, "rho1", top) == upstairs_graded_traces_oracle(n, "rho1", top)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_orbit_type_counts_cover_every_monomial_once(self, n):
        counts = orbit_type_counts(n, 12)
        assert set(counts) == set(partitions_of(n))
        for d in range(13):
            monomials = math.comb(d + n - 1, n - 1)
            assert sum(len(orbit_of_type(lam)) * per_degree[d]
                       for lam, per_degree in counts.items()) == monomials
            multisets = sum(1 for parts in partitions_of(d) if len(parts) <= n)
            assert sum(per_degree[d] for per_degree in counts.values()) == multisets

    def test_orbit_type_counts_small_cases(self):
        # n = 3: degree 2 has the multisets {2,0,0} of type (2,1) and
        # {1,1,0} of type (2,1); degree 3 has {3,0,0}, {2,1,0}, {1,1,1}.
        counts = orbit_type_counts(3, 3)
        assert counts == {(3,): [1, 0, 0, 1], (2, 1): [0, 1, 2, 1], (1, 1, 1): [0, 0, 0, 1]}

    def test_orbit_of_type(self):
        assert orbit_of_type((2, 1)) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
        for lam in partitions_of(4):
            orbit = orbit_of_type(lam)
            assert len(orbit) == math.factorial(4) // math.prod(math.factorial(p) for p in lam)
            assert all(sorted(e) == sorted(orbit[0]) for e in orbit)
            assert sorted(Counter(orbit[0]).values(), reverse=True) == list(lam)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_left_descent_steps(self, n):
        steps = left_descent_steps(n)
        seen = {identity(n)}
        for v, i, u in steps:
            assert u == mult_left_s(v, i) and u in seen
            assert length(u) == length(v) - 1
            seen.add(v)
        assert len(steps) == math.factorial(n) - 1 and seen == set(all_perms(n))


class TestCoordinateExtraction:
    def test_matches_expansion(self):
        from qschub.schubert import expand_homogeneous

        table = build_schubert_table(3)
        rng = random.Random(21)
        for _ in range(5):
            f = MPoly.zero(3)
            for e in [(2, 0, 0), (1, 1, 0), (0, 1, 1), (0, 0, 2)]:
                f = f + MPoly.monomial(3, e, QPoly((rng.randint(-2, 2), rng.randint(-1, 1))))
            vec = expand_homogeneous(f, 2, table)
            for z in table.basis(2):
                assert coordinate_at(f, z) == vec[z]

    def test_monomial_classes_agree_with_both_slow_routes(self, monkeypatch):
        from qschub import schubert
        from qschub.schubert import expand_homogeneous

        monkeypatch.setattr(schubert, "_MONOMIAL_CLASSES", {})  # fill from cold
        rng = random.Random(34)
        for n in range(1, 6):
            table = build_schubert_table(n)
            polys = [MPoly.zero(n)]
            for _ in range(4):
                # Mixed degrees; exponents mostly inside the staircase, where
                # coordinates are nonzero, sometimes one past it; drawn zero
                # coefficients drop out.
                f = MPoly.zero(n)
                for _ in range(rng.randint(1, 12)):
                    e = tuple(rng.randint(0, n - j + (rng.random() < 0.2)) for j in range(1, n + 1))
                    f = f + MPoly.monomial(n, e, QPoly((rng.randint(-3, 3), rng.randint(-2, 2))))
                polys.append(f)
            for f in polys:
                for z in all_perms(n):
                    k = length(z)
                    part = MPoly(n, {e: c for e, c in f.terms.items() if sum(e) == k})
                    got = coordinate_at(f, z)
                    assert got == apply_partial_w(z, f).terms.get((0,) * n, QPoly())
                    assert got == expand_homogeneous(part, k, table)[z]
        assert schubert._MONOMIAL_CLASSES

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_inhomogeneous_input_is_the_sum_over_its_degrees(self, n):
        # No degree filter: a term of another degree never meets z, so the
        # coordinate of f is the sum of the coordinates of its homogeneous
        # parts, each read on its own.
        rng = random.Random(55 + n)
        top = n * (n - 1) // 2
        f = MPoly.zero(n)
        for _ in range(30):
            e = tuple(rng.randint(0, n - j) for j in range(1, n + 1))
            f = f + MPoly.monomial(n, e, QPoly((rng.randint(-3, 3), rng.randint(-2, 2))))
        parts = [MPoly(n, {e: c for e, c in f.terms.items() if sum(e) == d}) for d in range(top + 1)]
        assert sum(bool(part) for part in parts) > 2
        nonzero = 0
        for z in all_perms(n):
            got = coordinate_at(f, z)
            assert got == sum((coordinate_at(part, z) for part in parts), QPoly())
            nonzero += bool(got)
        assert nonzero

    def test_ambient_mismatch_raises(self):
        with pytest.raises(ValueError, match="ambient mismatch"):
            coordinate_at(MPoly.variable(5, 1), (2, 1, 3))

    def test_word_application_order(self):
        from qschub.operators import op_a

        table = build_schubert_table(3)
        f = table[(2, 3, 1)]
        assert apply_action_word("rho1", (1, 2), f) == op_a(op_a(f, 2), 1)


class TestWorkerCount:
    def test_pools_are_clamped_to_cpus_and_tasks(self, monkeypatch):
        from qschub import rep, verify

        serial = bc_scan(4)
        sizes = record_pool_sizes(monkeypatch, cpus=3)
        empty_rep_caches(monkeypatch)
        assert bc_scan(4, jobs=1000) == serial  # 7 degrees
        cells = verify.character_table(4, jobs=1000)  # 4 dual pairs of degrees
        assert all(len(set(values)) == 1 for values in cells.values())
        monkeypatch.setattr("os.cpu_count", lambda: 64)
        assert bc_scan(4, jobs=1000) == serial
        verify.character_table(4, jobs=1000)
        assert rep.parallel_map(abs, [-2, 1, -3], jobs=2) == [2, 1, 3]
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert bc_scan(4, jobs=1000) == serial  # one worker: no pool
        verify.character_table(4, jobs=1000)
        assert sizes == [3, 3, 7, 4, 2]

    def test_a_degree_job_builds_only_its_degree(self, monkeypatch):
        # Degree 4 of top 6 is above the middle: its rho1 cells are the twists
        # of degree 2's, and no matrix of degree 4 is built.
        from qschub import rep, verify

        for k, built in [(2, 2), (4, 2)]:
            empty_rep_caches(monkeypatch)
            [row] = verify._character_degrees((4, verify.CHARACTER_COLUMNS, (k,)))
            assert len(row) == len(partitions_of(4))
            assert all(len(set(values)) == 1 for values in row)
            assert set(rep._GEN_CACHE) == {(4, "rho1", i, built) for i in range(1, 4)}
        empty_rep_caches(monkeypatch)
        part = rep._bc_degree((4, 2))
        assert set(part) == {(i, w) for i, w in descent_pairs(4) if length(w) == 2}
        assert set(rep._GEN_CACHE) == {(4, "rho2", i, 2) for i in range(1, 4)}

    def test_a_dual_pair_job_reads_rho1_at_its_lower_degree_only(self, monkeypatch):
        from qschub import rep, verify

        empty_rep_caches(monkeypatch)
        reads = record_word_matrix_reads(monkeypatch)
        rows = verify._character_degrees((4, verify.CHARACTER_COLUMNS, (2, 4)))
        assert sorted(set(reads)) == [("rho1", 2)]
        assert set(rep._GEN_CACHE) == {(4, "rho1", i, 2) for i in range(1, 4)}
        table = verify.character_table(4)
        assert rows == [[table[(k, mu)] for mu in partitions_of(4)] for k in (2, 4)]

    def test_dual_pair_jobs_give_the_rows_in_degree_order(self, monkeypatch):
        from qschub import rep, verify

        handed = []
        genuine = rep.parallel_map

        def parallel_map(fn, items, jobs=1):
            handed.extend(items)
            return genuine(fn, items, jobs)

        serial = verify.character_table(5)
        monkeypatch.setattr(verify, "parallel_map", parallel_map)
        record_pool_sizes(monkeypatch, cpus=2)
        paired = verify.character_table(5, jobs=2)
        assert [degrees for _, _, degrees in handed] == [(5,), (4, 6), (3, 7), (2, 8), (1, 9), (0, 10)]
        assert paired == serial
        assert list(paired) == [(k, mu) for k in range(11) for mu in partitions_of(5)]

    def test_one_worker_keeps_cached_matrices(self, monkeypatch):
        from qschub import rep

        expected = bc_scan(3)
        cached = dict(rep._GEN_CACHE)

        def no_build(*args):
            raise AssertionError("a cached generator matrix was rebuilt")

        monkeypatch.setattr(rep, "word_matrix", no_build)
        assert bc_scan(3, jobs=1) == expected
        assert rep._GEN_CACHE == cached

    @pytest.mark.parametrize("jobs", [1, 1000])
    def test_violations_keep_the_descent_pair_order(self, monkeypatch, jobs):
        n = 4
        genuine = bc_scan(n)
        bad = descent_pairs(n)[::3]
        degrees = [length(w) for _, w in bad]
        assert degrees != sorted(degrees)  # a merge grouped by degree would reorder them
        ledger_rows = rep._ledger_rows

        def failing_rows(i, w, column):
            if (i, w) in bad:
                raise ValueError(f"structural violation at ({i}, {w})")
            return ledger_rows(i, w, column)

        record_pool_sizes(monkeypatch, cpus=2)
        monkeypatch.setattr(rep, "_ledger_rows", failing_rows)
        scan = bc_scan(n, jobs=jobs)
        assert scan.structural_violations == [f"structural violation at ({i}, {w})" for i, w in bad]
        assert scan.entries == [row for row in genuine.entries if row[:2] not in bad]
