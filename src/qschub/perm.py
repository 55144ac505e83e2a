"""Permutation combinatorics for S_n.

Permutations are tuples in one-line notation with 1-based values: position i
(0-based index i-1) holds w(i).  Partitions are weakly decreasing tuples of
positive parts.

Conventions, fixed once and validated by the Schubert recursion tests:

* composition is (u o v)(i) = u(v(i));
* multiplying by the adjacent transposition s_i on the right swaps the
  entries in positions i, i+1; on the left it swaps the values i, i+1;
* hence length(w s_i) < length(w) exactly when w(i) > w(i+1).

>>> canonical_reduced_word((3, 2, 1))
(2, 1, 2)
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import permutations as _itertools_permutations
from itertools import product

from .polyring import ONE_MINUS_Q, Q, QPoly, QP_ZERO, QP_ONE, minus_q_power

Perm = tuple[int, ...]
Partition = tuple[int, ...]
Word = tuple[int, ...]


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def length(w: Perm) -> int:
    """Number of inversions of w."""
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def mult_right_s(w: Perm, i: int) -> Perm:
    """w * s_i: swap positions i and i+1 (1-based)."""
    ii = i - 1
    return w[:ii] + (w[ii + 1], w[ii]) + w[ii + 2:]


def mult_left_s(w: Perm, i: int) -> Perm:
    """s_i * w: swap values i and i+1."""
    s = list(w)
    s[w.index(i)], s[w.index(i + 1)] = i + 1, i
    return tuple(s)


def has_left_descent(w: Perm, i: int) -> bool:
    """True iff length(s_i w) < length(w), i.e. value i sits after value i+1."""
    return w.index(i) > w.index(i + 1)


def is_cover(w: Perm, j: int, k: int) -> bool:
    """True iff length(w t_jk) = length(w) + 1, t_jk swapping positions j and
    k (1-based).  For j < k that holds iff w(j) < w(k) and no w(t) with
    j < t < k lies between them (the Bruhat cover criterion; Bjorner--Brenti,
    *Combinatorics of Coxeter Groups*, 2005, ch. 2): an O(n) read, where two
    length counts are O(n^2)."""
    if j > k:
        j, k = k, j
    a, b = w[j - 1], w[k - 1]
    return a < b and not any(a < v < b for v in w[j:k - 1])


def canonical_reduced_word(w: Perm) -> Word:
    """Deterministic reduced word for w, via peeling the minimum to the front.

    Moving the smallest remaining value from position p to the front of its
    block costs the suffix (offset+1, ..., offset+p-1); recursing on the rest
    and concatenating the blocks in reverse recursion order gives a word whose
    length is the inversion number.
    """
    blocks = []
    cur = list(w)
    offset = 0
    while len(cur) > 1:
        p = cur.index(min(cur)) + 1
        blocks.append(range(offset + 1, offset + p))
        del cur[p - 1]
        offset += 1
    out: list[int] = []
    for block in reversed(blocks):
        out.extend(block)
    return tuple(out)


def check_partition(mu, n: int) -> Partition:
    mu = tuple(mu)
    if not mu or any(p <= 0 for p in mu) or any(a < b for a, b in zip(mu, mu[1:])):
        raise ValueError(f"not a partition: {mu}")
    if sum(mu) != n:
        raise ValueError(f"partition {mu} does not sum to {n}")
    return mu


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in decreasing lexicographic order."""

    def gen(rest: int, maxpart: int):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, maxpart), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    return tuple(gen(n, n))


def coset_weight(w: Perm, mu) -> QPoly:
    """Product of valley weights over the block components of w, read in one
    pass over w.

    Standardizing a block keeps the order of its values, so each mu-block of
    w is read raw: it must fall strictly to its minimum and rise strictly
    after it, or the weight is zero; otherwise it contributes (-q)^p, p the
    position of its minimum in the block, and the weight is (-q)^(sum of p).
    The product of ``valley_weight`` over ``coset_decompose(w, mu).blocks``,
    both in ``tests/helpers.py``, is the tests' oracle.
    """
    m = start = 0
    for part in check_partition(mu, len(w)):
        end = start + part
        t = start
        while t + 1 < end and w[t] > w[t + 1]:
            t += 1
        m += t - start
        while t + 1 < end and w[t] < w[t + 1]:
            t += 1
        if t + 1 < end:
            return QP_ZERO
        start = end
    return minus_q_power(m)


@lru_cache(maxsize=None)
def all_perms(n: int) -> tuple[Perm, ...]:
    """All of S_n in lexicographic order."""
    return tuple(_itertools_permutations(range(1, n + 1)))


def lehmer_codes(n: int):
    """The Lehmer codes of S_n, in the order of ``all_perms(n)``: the tuples
    c with 0 <= c_j < n - j (0-based j), lexicographically.

    The code of w counts, at each position j, the later entries below w(j),
    so its sum is length(w).  Both orders are lexicographic and the code
    determines w position by position, so the j-th permutation has the j-th
    code.  The same tuples are the exponents under the staircase
    x_1^{n-1} x_2^{n-2} ..., where every Schubert polynomial lives."""
    return product(*(range(n - j) for j in range(n)))


@lru_cache(maxsize=None)
def perms_by_length(n: int) -> tuple[tuple[Perm, ...], ...]:
    """Index k holds the permutations with k inversions, lexicographically.

    Bucketed by the sum of each permutation's Lehmer code
    (``lehmer_codes``), read in step with ``all_perms``: no inversion is
    counted."""
    top = n * (n - 1) // 2
    buckets: list[list[Perm]] = [[] for _ in range(top + 1)]
    for w, code in zip(all_perms(n), lehmer_codes(n)):
        buckets[sum(code)].append(w)
    return tuple(tuple(b) for b in buckets)


def perms_of_length(n: int, k: int) -> tuple[Perm, ...]:
    if not 0 <= k <= n * (n - 1) // 2:
        raise ValueError(f"no permutations of length {k} in S_{n}")
    return perms_by_length(n)[k]


def partition_word(mu) -> Word:
    """Ascending generator word 1, 2, ... omitting the block boundaries of mu."""
    mu = tuple(mu)
    out = []
    o = 0
    for part in mu:
        out.extend(range(o + 1, o + part))
        o += part
    return tuple(out)


def cycle_type(w: Perm) -> Partition:
    """Sorted cycle lengths of w, largest first."""
    seen = [False] * len(w)
    out = []
    for start in range(len(w)):
        if seen[start]:
            continue
        size = 0
        p = start
        while not seen[p]:
            seen[p] = True
            p = w[p] - 1
            size += 1
        out.append(size)
    return tuple(sorted(out, reverse=True))


_CLASS_POLYNOMIALS: dict[Perm, dict[Partition, QPoly]] = {}


def class_polynomial(v: Perm) -> dict[Partition, QPoly]:
    """The class polynomials f_{v,mu} of v: ``tr(T_v) = sum_mu f_{v,mu} *
    tr(T_mu)`` for every character of the Hecke algebra of S_n, where T_mu is
    the element of ``partition_word(mu)`` (Geck--Pfeiffer, *Characters of
    Finite Coxeter Groups and Iwahori--Hecke Algebras*, 2000, Thm 3.2.9 and
    section 8.2).  Zero coefficients are omitted; the dict is shared, so
    callers must not change it.

    The cyclic-shift class of v -- the elements reached by conjugations
    s_i u s_i that keep the length -- shares one value.  If a member u has a
    conjugate two shorter, then T_u = T_i T_{s_i u s_i} T_i, and
    (T_i - 1)(T_i + q) = 0 gives f_v = (1-q) f_{s_i u} + q f_{s_i u s_i}.
    Otherwise the class has minimal length in its conjugacy class, where
    every T_w has the trace of T_mu for mu = cycle_type(v).
    """
    f = _CLASS_POLYNOMIALS.get(v)
    if f is not None:
        return f
    lv = length(v)
    members, seen, step = [v], {v}, None
    for u in members:  # breadth first: the loop also visits appended members
        for i in range(1, len(v)):
            c = mult_left_s(mult_right_s(u, i), i)
            lc = length(c)
            if lc < lv:
                step = ((ONE_MINUS_Q, mult_left_s(u, i)), (Q, c))
                break
            if lc == lv and c not in seen:
                seen.add(c)
                members.append(c)
        if step:
            break
    if step is None:
        f = {cycle_type(v): QP_ONE}
    else:
        f = {}
        for weight, w in step:
            for mu, c in class_polynomial(w).items():
                f[mu] = f.get(mu, QP_ZERO) + weight * c
        f = {mu: c for mu, c in f.items() if c}
    for u in members:
        _CLASS_POLYNOMIALS[u] = f
    return f


# --- RSK and Knuth classes ---------------------------------------------------


def rsk_insertion_tableau(w: Perm) -> tuple[tuple[int, ...], ...]:
    """Row-insertion tableau of w (rows as tuples)."""
    rows: list[list[int]] = []
    for x in w:
        for row in rows:
            pos = bisect_right(row, x)
            if pos == len(row):
                row.append(x)
                x = None
                break
            row[pos], x = x, row[pos]
        if x is not None:
            rows.append([x])
    return tuple(tuple(r) for r in rows)


def tableau_shape(tab) -> Partition:
    return tuple(len(row) for row in tab)


@lru_cache(maxsize=None)
def knuth_classes(n: int) -> tuple[tuple[Partition, tuple[tuple[Perm, ...], ...]], ...]:
    """S_n split into Knuth classes, grouped by RSK shape.

    Two permutations share a class iff they have the same insertion tableau.
    Shapes are listed in decreasing lexicographic order; classes within a
    shape are sorted by their smallest member.
    """
    by_tableau: dict[tuple, list[Perm]] = {}
    for w in all_perms(n):
        by_tableau.setdefault(rsk_insertion_tableau(w), []).append(w)
    by_shape: dict[Partition, list[tuple[Perm, ...]]] = {}
    for tab, members in by_tableau.items():
        by_shape.setdefault(tableau_shape(tab), []).append(tuple(sorted(members)))
    return tuple(
        (shape, tuple(sorted(by_shape[shape])))
        for shape in sorted(by_shape, reverse=True)
    )


def standard_tableaux_count(shape) -> int:
    """Number of standard Young tableaux of the given shape (hook lengths)."""
    shape = tuple(shape)
    n = sum(shape)
    fact = 1
    for v in range(2, n + 1):
        fact *= v
    denom = 1
    for r, width in enumerate(shape):
        for c in range(width):
            arm = width - c - 1
            leg = sum(1 for row in shape[r + 1:] if row > c)
            denom *= arm + leg + 1
    return fact // denom


# --- serialization -----------------------------------------------------------


def perm_str(w: Perm) -> str:
    return ",".join(str(v) for v in w)


def partition_str(mu) -> str:
    return "+".join(str(p) for p in mu)
