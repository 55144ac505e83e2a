from itertools import permutations

import pytest

from helpers import compose, coset_decompose, from_word, recompose, valley_weight
from qschub.perm import (
    all_perms,
    canonical_reduced_word,
    check_partition,
    class_polynomial,
    coset_weight,
    cycle_type,
    identity,
    is_cover,
    knuth_classes,
    lehmer_codes,
    length,
    mult_left_s,
    mult_right_s,
    partition_str,
    partition_word,
    partitions_of,
    perm_str,
    perms_by_length,
    perms_of_length,
    rsk_insertion_tableau,
    standard_tableaux_count,
)
from qschub.polyring import ONE_MINUS_Q, Q, QPoly, QP_ONE, QP_ZERO


def brute_length(w):
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


class TestLengthAndWords:
    @pytest.mark.parametrize("w,expected", [((1, 2, 3), 0), ((3, 2, 1), 3), ((2, 3, 1), 2)])
    def test_length_examples(self, w, expected):
        assert length(w) == expected

    def test_canonical_word_examples(self):
        assert canonical_reduced_word((1, 2, 3)) == ()
        assert canonical_reduced_word((2, 1, 3)) == (1,)
        assert canonical_reduced_word((3, 2, 1)) == (2, 1, 2)
        assert canonical_reduced_word((2, 1, 4, 3)) == (3, 1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_canonical_word_composes_and_is_reduced(self, n):
        for w in all_perms(n):
            word = canonical_reduced_word(w)
            assert from_word(n, word) == w
            assert len(word) == length(w) == brute_length(w)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_descent_criterion(self, n):
        for w in all_perms(n):
            for i in range(1, n):
                assert (length(mult_right_s(w, i)) < length(w)) == (w[i - 1] > w[i])

    def test_left_mult_swaps_values(self):
        assert mult_left_s((2, 3, 1), 1) == (1, 3, 2)

    def test_left_mult_is_composition_with_s_i(self):
        for i in range(1, 6):
            s_i = mult_right_s(identity(6), i)
            for w in all_perms(6):
                assert mult_left_s(w, i) == compose(s_i, w)


def brute_valley_weight(w):
    """Literal scan over all admissible prefix lengths m."""
    n = len(w)
    hits = []
    for m in range(n):
        ok = all(w[t] > w[t + 1] for t in range(m)) and all(
            w[t] < w[t + 1] for t in range(m, n - 1)
        )
        if ok:
            hits.append(m)
    if len(hits) != 1:
        return QP_ZERO
    m = hits[0]
    return QPoly((0,) * m + ((-1) ** m,))


class TestValleyWeight:
    def test_examples(self):
        assert valley_weight((1, 2, 3)) == QP_ONE
        assert valley_weight((3, 2, 1)) == QPoly((0, 0, 1))
        assert valley_weight((1, 3, 2)) == QP_ZERO
        assert valley_weight((3, 1, 2)) == QPoly((0, -1))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_against_literal_definition(self, n):
        for w in all_perms(n):
            assert valley_weight(w) == brute_valley_weight(w)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_support_count(self, n):
        supported = [w for w in all_perms(n) if valley_weight(w)]
        assert len(supported) == 2 ** (n - 1)
        for w in supported:
            p = w.index(1)
            assert all(w[t] > w[t + 1] for t in range(p))
            assert all(w[t] < w[t + 1] for t in range(p, n - 1))


class TestCosetDecomposition:
    def test_example(self):
        dec = coset_decompose((3, 1, 2), (2, 1))
        assert dec.blocks == ((2, 1), (1,))
        assert dec.r == (1, 3, 2)

    def test_identity(self):
        dec = coset_decompose(identity(4), (2, 2))
        assert dec.r == identity(4)
        assert dec.blocks == ((1, 2), (1, 2))

    def test_two_blocks(self):
        dec = coset_decompose((2, 1, 4, 3), (2, 2))
        assert dec.blocks == ((2, 1), (2, 1))
        assert dec.r == identity(4)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_invariants_exhaustive(self, n):
        for mu in partitions_of(n):
            for w in all_perms(n):
                dec = coset_decompose(w, mu)
                assert recompose(dec) == w
                assert length(w) == length(dec.r) + sum(length(b) for b in dec.blocks)
                offset = 0
                for part in mu:
                    segment = dec.r[offset:offset + part]
                    assert list(segment) == sorted(segment)
                    offset += part

    def test_bad_partition(self):
        with pytest.raises(ValueError):
            coset_decompose((1, 2, 3), (1, 2))
        with pytest.raises(ValueError):
            coset_decompose((1, 2, 3), (2, 2))


class TestCosetWeight:
    def test_examples(self):
        assert coset_weight((3, 1, 2), (2, 1)) == QPoly((0, -1))
        assert coset_weight((2, 1, 3), (3,)) == QPoly((0, -1))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_singleton_blocks(self, n):
        for w in all_perms(n):
            assert coset_weight(w, (1,) * n) == QP_ONE

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_one_pass_matches_the_block_product(self, n):
        # The oracle: standardize every block, multiply the valley weights.
        zeros = 0
        for mu in partitions_of(n):
            for w in all_perms(n):
                expected = QP_ONE
                for block in coset_decompose(w, mu).blocks:
                    expected = expected * valley_weight(block)
                assert coset_weight(w, mu) == expected, (w, mu)
                zeros += not expected
        assert zeros or n < 3

    def test_bad_partition(self):
        with pytest.raises(ValueError):
            coset_weight((1, 2, 3), (2, 2))
        with pytest.raises(ValueError):
            coset_weight((1, 2, 3), (1, 2))


class TestCover:
    def test_examples(self):
        assert is_cover((1, 2, 3), 1, 2) and is_cover((1, 2, 3), 2, 3)
        assert not is_cover((1, 2, 3), 1, 3)  # 2 lies between 1 and 3
        assert is_cover((1, 3, 2), 1, 3) and not is_cover((1, 3, 2), 2, 3)
        assert is_cover((1, 2, 3), 2, 1)  # t_21 = t_12
        assert not is_cover((1, 2, 3), 2, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_against_lengths(self, n):
        for w in all_perms(n):
            lw = length(w)
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    wt = list(w)
                    wt[j - 1], wt[k - 1] = wt[k - 1], wt[j - 1]
                    assert is_cover(w, j, k) == (length(tuple(wt)) - lw == 1), (w, j, k)


class TestEnumeration:
    def test_perms_of_length_examples(self):
        assert set(perms_of_length(3, 1)) == {(2, 1, 3), (1, 3, 2)}
        assert perms_of_length(3, 0) == (identity(3),)
        assert [len(perms_of_length(3, k)) for k in range(4)] == [1, 2, 2, 1]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_mahonian_counts(self, n):
        # coefficients of prod (1 + t + ... + t^i)
        coeffs = [1]
        for i in range(1, n):
            nxt = [0] * (len(coeffs) + i)
            for d, v in enumerate(coeffs):
                for s in range(i + 1):
                    nxt[d + s] += v
            coeffs = nxt
        assert [len(perms_of_length(n, k)) for k in range(n * (n - 1) // 2 + 1)] == coeffs

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            perms_of_length(3, 4)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_by_length_buckets_all_perms_by_inversions(self, n):
        buckets = [[] for _ in range(n * (n - 1) // 2 + 1)]
        for w in all_perms(n):
            buckets[brute_length(w)].append(w)
        assert perms_by_length(n) == tuple(tuple(b) for b in buckets)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_lehmer_codes_follow_all_perms(self, n):
        for w, code in zip(all_perms(n), lehmer_codes(n), strict=True):
            assert code == tuple(sum(1 for v in w[j + 1:] if v < w[j]) for j in range(n))

    def test_all_perms_sorted(self):
        assert all_perms(3) == tuple(permutations((1, 2, 3)))

    def test_partitions_of(self):
        assert partitions_of(3) == ((3,), (2, 1), (1, 1, 1))
        assert len(partitions_of(5)) == 7
        for mu in partitions_of(6):
            check_partition(mu, 6)


class TestPartitionWord:
    def test_examples(self):
        assert partition_word((3,)) == (1, 2)
        assert partition_word((2, 1)) == (1,)
        assert partition_word((1, 1, 1)) == ()
        assert partition_word((2, 2)) == (1, 3)


class TestCycleType:
    def test_examples(self):
        assert cycle_type(identity(3)) == (1, 1, 1)
        assert cycle_type((2, 1, 3)) == (2, 1)
        assert cycle_type((2, 3, 1)) == (3,)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_sums_to_n(self, n):
        for w in all_perms(n):
            assert sum(cycle_type(w)) == n


class TestClassPolynomial:
    def test_n3_longest_element(self):
        # T_{321} = T_1 T_{132} T_1 and T_1^2 = (1-q) T_1 + q.
        assert class_polynomial((3, 2, 1)) == {(3,): ONE_MINUS_Q, (2, 1): Q}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_q_one_gives_the_cycle_type_indicator(self, n):
        for v in all_perms(n):
            at_one = {mu: c.evaluate(1) for mu, c in class_polynomial(v).items()}
            assert {mu: c for mu, c in at_one.items() if c} == {cycle_type(v): 1}, v

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_partition_word_elements_are_unit_vectors(self, n):
        for mu in partitions_of(n):
            assert class_polynomial(from_word(n, partition_word(mu))) == {mu: QP_ONE}, mu


class TestKnuthClasses:
    def test_n3_structure(self):
        classes = dict(knuth_classes(3))
        assert classes[(3,)] == (((1, 2, 3),),)
        assert classes[(1, 1, 1)] == (((3, 2, 1),),)
        assert set(classes[(2, 1)]) == {((1, 3, 2), (3, 1, 2)), ((2, 1, 3), (2, 3, 1))}

    def test_n2(self):
        classes = dict(knuth_classes(2))
        assert classes == {(2,): (((1, 2),),), (1, 1): (((2, 1),),)}

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_class_counts_match_tableau_counts(self, n):
        total = 0
        for shape, classes in knuth_classes(n):
            assert len(classes) == standard_tableaux_count(shape)
            sizes = {len(cls) for cls in classes}
            assert sizes == {standard_tableaux_count(shape)}
            total += sum(len(cls) for cls in classes)
        assert total == len(all_perms(n))

    def test_insertion_tableau(self):
        assert rsk_insertion_tableau((2, 1, 3)) == ((1, 3), (2,))
        assert rsk_insertion_tableau((2, 3, 1)) == ((1, 3), (2,))
        assert rsk_insertion_tableau((1, 3, 2)) == ((1, 2), (3,))

    def test_hook_counts(self):
        assert standard_tableaux_count((3,)) == 1
        assert standard_tableaux_count((2, 1)) == 2
        assert standard_tableaux_count((2, 2)) == 2
        assert standard_tableaux_count((3, 2)) == 5


class TestSerialization:
    def test_perm_round_trip(self):
        for w in all_perms(3):
            assert tuple(int(v) for v in perm_str(w).split(",")) == w

    def test_partition_round_trip(self):
        for mu in partitions_of(5):
            assert tuple(int(p) for p in partition_str(mu).split("+")) == mu
