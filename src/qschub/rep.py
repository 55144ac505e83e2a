"""Representation matrices of both Hecke actions on the graded components of
the coinvariant algebra, graded characters, the combinatorial weight formula,
closed-form descent columns, the (b, c) ledger of the randomized action's
descent columns, and the class traces of the trace-equivalence certificate.

Matrix convention: the degree-k basis is ordered lexicographically on
one-line notation, and ``columns[w][z]`` is the coefficient of the basis
class z in the image of the basis class w, nonzero coefficients only; the
dense view ``entries[z][w]`` holds the same coefficients with the zeros.

Words of generators: for the q-commutator action a word acts on the
quotient as the product of the single-generator matrices (the action is
multiplicative over i-symmetric factors, so the cutting ideal is invariant),
and rho1's traces have that one path: ``graded_character("rho1")`` applies
the cached matrices' columns along the word.  The monomial-sorting
action, while a genuine Hecke action on the polynomial ring, moves some
ideal elements off the ideal, so for it only the compressed word image is
well defined on the quotient basis: the whole word applied to a polynomial
representative, Schubert coordinates read once at the end.  Compression is
well defined per basis element because the upstairs operators satisfy the
Hecke relations exactly.

Schubert coordinates come from ``schubert.monomial_class``: the class of
each monomial in the quotient is built once by Monk's rule and memoized, and
a polynomial's coordinates are its coefficients times those integer classes,
summed over all its terms: a class holds only permutations of its monomial's
degree, so no term needs a degree filter.  Word matrices, and the generator
matrices of rho2 and of rho1 and symq1 at degree k with 2k <= top, read
every column on ints (``_read_column``): the Schubert polynomial, whose
coefficients are integers, is pushed through the word at q = 2^B, a ring map
Z[q] -> Z (Kronecker substitution; Harvey, *J. Symbolic Comput.* 44, 2009),
its packed coordinates are summed by ``schubert.packed_class_sum``, and each
nonzero one is decoded once (``schubert.unpack``).  ``coordinate_at`` reads
one coordinate of a polynomial, Z[q] or packed, by looking it up in the same
classes.  rho2's graded characters run on the same packed ints, by
linearity: the degree's basis Schubert polynomials are grouped by
staircase monomial, each monomial is pushed through the word once at
q = 2^B, its image's packed coordinate at every class w whose S_w holds it
is read by ``coordinate_at``, weighted by that coefficient of S_w, and the
cell's packed sum is decoded once.  No trace in ``graded_character`` runs
on Z[q] arithmetic; the polynomial route is the tests' oracle.  The
divided-difference sweep ``expand_homogeneous`` stays in ``schubert`` as the
independent oracle for the Monk classes.

Above the middle degree rho1's and symq1's generator matrices are not read
but derived, by Poincaré duality (``generator_matrix``, ``_dual_matrix``).
The coinvariant algebra carries the pairing <f, g> = d_{w0}(f g), under
which the divided difference d_i and x_i are self-adjoint and s_i is
anti-self-adjoint, since d_{w0} s_i = -d_{w0}.  A_i = d_i x_i - q x_i d_i
equals (1 - q) x_i d_i + s_i, so its adjoint is (1 - q)(x_i d_i + s_i) - s_i
= -q A_i at 1/q, and s_i's is -s_i.  The Schubert basis is self-dual,
d_{w0}(S_u S_v) = 1 if v = w0 u and 0 otherwise (Macdonald, *Notes on
Schubert Polynomials*, 1991).  So the matrix at degree top - k is the
transpose of the one at k, reindexed by w -> w0 w and twisted by
c -> -q c(1/q) for rho1 and c -> -c for symq1.  rho2 has no such adjoint:
R_i moves ideal elements off the ideal, so it does not act on the quotient
alone, and the transpose form fails on 4890 entries at n = 6; its matrices
are read at every degree.

The trace-equivalence certificate (in ``verify``'s ``characters`` suite,
from the parts below) compares the two actions once, in the coinvariant
algebra, at the p(n) elements T_mu of ``partition_word(mu)``,
minimal-length representatives of the conjugacy classes.  A Hecke-algebra
character is fixed by its values there: every basis element T_v takes
``tr(T_v) = sum_mu f_{v,mu} * tr(T_mu)`` with the class polynomials of
``perm.class_polynomial`` (Geck--Pfeiffer, *Characters of Finite Coxeter
Groups and Iwahori--Hecke Algebras*, Thm 3.2.9 and section 8.2), one fixed
linear map for every character, so equal traces at the T_mu are equal traces
at every T_v.  rho1's quotient traces at T_mu are its graded characters
(the suite's rho1 column).  rho2's traces on the full polynomial
components are computed on one exponent orbit per multiplicity type
lam |- n, each orbit monomial built once and pushed through every word, and
weighted by the number of degree-d multisets of that type
(``upstairs_class_traces``); its coinvariant traces divide the symmetric
Hilbert series prod_{i<=n} 1/(1 - t^i) out of them by multiplying with its
inverse, the finite product prod_{i<=n} (1 - t^i)
(``coinvariant_traces_from_graded``).  That product has integer
coefficients, so the division is exact over Z[q] and a bijection, and equal
coinvariant traces are equal full-component traces.
``spread_class_traces`` carries class traces to every T_v, one row per
distinct class polynomial, for the oracles and the benchmark; the
polynomial routes and the left-descent recursions over every T_v are kept
as test oracles only.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations

from .operators import InvariantViolation, monomials_up_to, op_a, op_r, op_s
from .perm import (
    Partition,
    Perm,
    all_perms,
    canonical_reduced_word,
    check_partition,
    class_polynomial,
    coset_weight,
    length,
    partition_word,
    partitions_of,
    perms_of_length,
)
from .polyring import MPoly, Q, QPoly, QP_ZERO, QP_ONE, _raw
from .schubert import (
    SchubertTable,
    build_schubert_table,
    monomial_class,
    pack,
    packed_class_sum,
    unpack,
)

ACTIONS = ("rho1", "rho2", "symq1")
_ACTION_OPS = {"rho1": op_a, "rho2": op_r, "symq1": op_s}

MINUS_Q = QPoly((0, -1))


@dataclass(frozen=True)
class RepMatrix:
    """Square matrix over Z[q] indexed by the length-k permutations, stored
    as the sparse columns ``columns[w]`` of the matrix convention above."""

    action: str
    k: int
    basis: tuple[Perm, ...]
    columns: dict[Perm, dict[Perm, QPoly]]
    # shift -> the columns packed at q = 2^shift; filled by packed_columns.
    _packed: dict[int, dict[Perm, dict[Perm, int]]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def norm(self) -> int:
        """The largest L1 norm of a column, summed over every q-coefficient
        of its entries: applying the matrix multiplies the L1 norm of a
        vector by at most this."""
        return max((sum(abs(v) for c in col.values() for v in c.c) for col in self.columns.values()),
                   default=0)

    @cached_property
    def q_degree(self) -> int:
        """The largest q-degree of an entry; 0 for the zero matrix."""
        return max((c.degree for col in self.columns.values() for c in col.values()), default=0)

    def packed_columns(self, shift: int) -> dict[Perm, dict[Perm, int]]:
        """The columns with every entry packed at q = 2^shift
        (``schubert.pack``), built once per shift; shared, do not mutate."""
        out = self._packed.get(shift)
        if out is None:
            out = self._packed[shift] = {
                w: {z: pack(c, shift) for z, c in col.items()} for w, col in self.columns.items()
            }
        return out

    @cached_property
    def entries(self) -> tuple[tuple[QPoly, ...], ...]:
        """Dense rows ``entries[z][w]``, zeros included; built when first read."""
        return tuple(tuple(self.columns[w].get(z, QP_ZERO) for w in self.basis) for z in self.basis)


_GEN_CACHE: dict[tuple[int, str, int, int], RepMatrix] = {}


def generator_matrix(action: str, i: int, k: int, table: SchubertTable) -> RepMatrix:
    """Matrix of the i-th generator of the given action on the degree-k
    component, in the Schubert basis, cached.

    rho2, and rho1 and symq1 at 2k <= top, are read as ``word_matrix`` of
    the one-letter word (i,).  rho1 and symq1 at 2k > top are the dual of
    the degree top - k matrix (``_dual_matrix``), which is read first if it
    is not cached.  Under the pairing <f, g> = d_{w0}(f g) of the
    coinvariant algebra, d_i and x_i are self-adjoint and s_i is
    anti-self-adjoint (d_{w0} s_i = -d_{w0}); so A_i = (1 - q) x_i d_i + s_i
    has the adjoint (1 - q) x_i d_i - q s_i, which is -q A_i at 1/q.  The
    Schubert basis is self-dual, <S_u, S_v> = 1 if v = w0 u and 0 otherwise,
    so one degree's matrix is the other's transpose, reindexed by w -> w0 w
    and twisted (module docstring).  R_i has no such adjoint (the transpose
    form fails on 4890 entries at n = 6), so rho2 is read at every degree.

    For the two deformed actions every column, derived ones included, is
    checked by ``_check_column_shape`` before the matrix is cached, and a
    failure caches neither degree: an ascent column (w[i-1] < w[i]) is the
    unit column; a descent column holds -q at w, and each of its other
    entries sits at a class z with an ascent at i (z[i-1] < z[i]).
    """
    if action not in ACTIONS:
        raise ValueError(f"unknown action {action!r}")
    n = table.n
    if not 1 <= i < n:
        raise ValueError(f"generator index {i} out of range for n={n}")
    cached = _GEN_CACHE.get((n, action, i, k))
    if cached is not None:
        return cached
    top = table.max_degree
    if action == "rho2" or 2 * k <= top:
        built = {k: word_matrix(action, (i,), k, table)}
    else:
        built = {}
        source = _GEN_CACHE.get((n, action, i, top - k))
        if source is None:
            source = built[top - k] = word_matrix(action, (i,), top - k, table)
        built[k] = _dual_matrix(source, i, table)
    if action != "symq1":
        for out in built.values():
            for w, col in out.columns.items():
                _check_column_shape(i, w, col)
    for d, out in built.items():
        _GEN_CACHE[(n, action, i, d)] = out
    return built[k]


def _dual_matrix(source: RepMatrix, i: int, table: SchubertTable) -> RepMatrix:
    """The i-th generator's matrix at degree top - source.k from its matrix
    ``source`` at degree source.k, for rho1 or symq1 (``generator_matrix``):
    column w0 z holds, at w0 w, the twisted entry of column w at z of the
    source, w0 w being w with each value v replaced by n + 1 - v.

    The twist is -c for symq1 and -q c(1/q) for rho1, whose entries have
    q-degree at most 1 by the closed form (``descent_column_formula``); an
    entry of another degree raises ``InvariantViolation``.
    """
    n = table.n
    w0 = {w: tuple(n + 1 - v for v in w) for w in source.basis}
    basis = table.basis(table.max_degree - source.k)
    columns: dict[Perm, dict[Perm, QPoly]] = {w: {} for w in basis}
    twisted: dict[QPoly, QPoly] = {}
    for w, col in source.columns.items():
        for z, c in col.items():
            t = twisted.get(c)
            if t is None:
                if source.action == "symq1":
                    t = -c
                elif c.degree > 1:
                    raise InvariantViolation(
                        f"rho1 entry at i={i}, w={w}, z={z} has q-degree {c.degree} > 1: no dual")
                else:
                    a0, a1 = c.c + (0,) * (2 - len(c.c))
                    t = QPoly((-a1, -a0))
                twisted[c] = t
            columns[w0[z]][w0[w]] = t
    return RepMatrix(source.action, table.max_degree - source.k, basis, columns)


def _check_column_shape(i: int, w: Perm, col: dict[Perm, QPoly]):
    """The column shape shared by the rho1 and rho2 generators, the only
    place it is checked; raises ``InvariantViolation``, so it also runs under
    ``python -O``."""
    if w[i - 1] < w[i]:
        if col != {w: QP_ONE}:
            raise InvariantViolation(f"ascent column at i={i}, w={w} is not a unit column")
    elif col.get(w) != MINUS_Q:
        raise InvariantViolation(f"descent diagonal at i={i}, w={w} is not -q")
    else:
        for z in col:
            if z[i - 1] > z[i] and z != w:
                raise InvariantViolation(
                    f"descent column at i={i}, w={w} has an entry at {z}, a descent at {i}")


def apply_action_word(action: str, word, f: MPoly, q=Q) -> MPoly:
    """Apply the action's generators along an index word, right to left,
    on the polynomial ring, at q (``Q`` or an int; see ``operators``)."""
    op = _ACTION_OPS[action]
    for i in reversed(tuple(word)):
        f = op(f, i, q)
    return f


def _letter_mass(action: str, k: int) -> int:
    """A mass m with L1(g f) <= m * L1(f) for every generator g of the action
    and every homogeneous f of degree k, where L1 sums the absolute values of
    every q-coefficient of every term.

    R_i sends a term c*x^e to q*c, to c, or to (1-q)*c and c: m = 3.  In
    A_i = d_i x_i - q x_i d_i, multiplying by x_i or by q keeps L1, and the
    divided difference sends a term of exponent pair (a, b) to |a - b| terms
    of weight +1 or -1, with |a - b| <= k + 1 on x_i f and <= k on f:
    m = 2k + 1.  s_i only moves terms: m = 1."""
    return 2 * k + 1 if action == "rho1" else 3 if action == "rho2" else 1


def _read_column(action: str, word: tuple[int, ...], w: Perm, k: int,
                 table: SchubertTable) -> dict[Perm, QPoly]:
    """Nonzero Schubert coordinates of the image of S_w, w of length k,
    under the action's word applied right to left upstairs: the column of w
    in the word's matrix.

    Runs on ints.  S_w has positive integer coefficients, so the word is
    applied at q = 2^B (``apply_action_word``).  The image is homogeneous of
    degree k, as S_w is; ``schubert.packed_class_sum`` gives its packed
    coordinates, and ``schubert.unpack`` decodes each nonzero one once.
    B = bit_length(bound) + 1 with

        bound = L1(S_w) * m^len(word) * (n - 1)^k,

    m the mass of one letter (``_letter_mass``).  The image has L1 norm at
    most L1(S_w) * m^len(word), a coordinate is a sum of coefficients times
    class multiples, and a degree-k class multiple is at most (n - 1)^k
    (``schubert.monomial_class``), so the bound caps every q-coefficient of
    every coordinate.  Every letter raises the q-degree by at most one, so a
    coordinate has at most 1 + len(word) digits; a wider one, or a digit past
    the bound, raises ``InvariantViolation``.
    """
    n = table.n
    f = table.polys[w]
    bound = sum(f.terms.values()) * _letter_mass(action, k) ** len(word) * (n - 1) ** k
    shift = bound.bit_length() + 1
    image = apply_action_word(action, word, f, 1 << shift)
    digits = 1 + len(word)
    return {z: unpack(v, shift, digits, bound, "coordinate", z)
            for z, v in packed_class_sum(image.terms).items() if v}


def coordinate_at(f: MPoly, z: Perm) -> QPoly:
    """Schubert coordinate of f at z: the sum of c * monomial_class(e)[z]
    over the terms c*x^e of f.

    No degree filter is needed: each Monk step raises the length by one, so
    the class of a degree-d monomial holds only permutations of length d,
    and a term of another degree than length(z) never meets z.  Only z is
    looked up in each memoized monomial class; no other coordinate is built.
    ``schubert.expand_homogeneous`` is its oracle.  The sum is in f's
    coefficient ring: a QPoly on Z[q] coefficients, an int on packed ints
    (``graded_character``), and the int 0, equal to ``QP_ZERO``, when no
    term contributes.
    """
    if f.n != len(z):
        raise ValueError(f"ambient mismatch: polynomial n={f.n}, permutation n={len(z)}")
    acc = 0
    for e, c in f.terms.items():
        m = monomial_class(e).get(z)
        if m:
            acc = acc + c * m
    return acc


def word_matrix(action: str, word, k: int, table: SchubertTable) -> RepMatrix:
    """Matrix of the composite operator of an index word on the degree-k
    basis: apply the whole word upstairs, then read each column once with
    ``_read_column``."""
    word = tuple(word)
    basis = table.basis(k)
    columns = {w: _read_column(action, word, w, k, table) for w in basis}
    return RepMatrix(action, k, basis, columns)


def basis_element_matrix(action: str, w: Perm, k: int, table: SchubertTable) -> RepMatrix:
    """Matrix of the Hecke basis element indexed by w on the degree-k
    component; reduced-word independent because the upstairs operators
    satisfy the braid relations."""
    return word_matrix(action, canonical_reduced_word(w), k, table)


@dataclass(frozen=True)
class CharacterValue:
    """One graded character value, at degree k and the partition mu."""

    k: int
    mu: Partition
    value: QPoly


def graded_character(action: str, mu, k: int, n: int) -> CharacterValue:
    """Trace of the subproduct element of mu on the degree-k component.

    Computed diagonally, one basis class w at a time.  rho1 preserves the
    cutting ideal, so its word acts as the product of the cached generator
    matrices: their columns are applied along the word to the unit
    vector at w.  All n - 1 generators of the degree are built, not only
    those on mu's word, so the first cell asked at degree k pays for the
    whole degree whatever its mu: a table's cells cost the same in any
    order.  rho2 applies the whole word upstairs, to the Schubert polynomial
    of w by linearity (below).  Either way only the coordinate at w is read.

    Both run on ints packed at q = 2^B, and the diagonal is summed as one
    int and decoded once (``schubert.unpack``); B = bit_length(bound) + 1.

    rho1's product packs the columns (``RepMatrix.packed_columns``).  The
    bound comes from the matrices: a word has at most n - 1 letters and each
    multiplies the L1 norm of a vector by at most N, the largest column norm
    of the degree's generators (``RepMatrix.norm``), so |basis_k| * N^(n-1)
    caps every q-coefficient of the trace, which has at most
    1 + len(word) * (largest q-degree of an entry) digits.

    rho2 groups the degree's basis by staircase monomial in one pass,
    {x^e: [(w, S_w[e]), ...]}, pushes each x^e once through the word at
    q = 2^B (``apply_action_word``), and adds S_w[e] times the image's packed
    coordinate at w (``coordinate_at``) for every w in its group.  At an int
    q the word and ``coordinate_at`` are Z-linear, so the packed sum is the
    same int as the sum over w of the coordinate at w of the image of S_w:
    every monomial is pushed once per cell instead of once for each S_w
    that holds it.  The bound, taken on the images of the S_w, is unchanged:

        bound = sum over w of L1(S_w) * m^len(word) * (n - 1)^k,

    m the mass of one letter (``_letter_mass``).  The image of S_w has L1
    norm at most L1(S_w) * m^len(word); its coordinate at w is a sum of its
    coefficients times class multiples, each at most (n - 1)^k in a degree-k
    class (``schubert.monomial_class``); so the w-th term of the trace has
    every q-coefficient within the w-th summand, and the trace within the
    bound.  S_w has q-degree 0 and every letter raises the q-degree by at
    most one, so the trace has at most 1 + len(word) digits.  A wider one,
    or a digit past the bound, raises ``InvariantViolation``.
    """
    if action not in ("rho1", "rho2"):
        raise ValueError(f"unknown action {action!r}; graded characters are of rho1 and rho2")
    table = build_schubert_table(n)
    mu = check_partition(mu, n)
    word = partition_word(mu)
    if action == "rho1":
        generators = [generator_matrix(action, i, k, table) for i in range(1, n)]
        basis = table.basis(k)
        bound = len(basis) * max((g.norm for g in generators), default=1) ** (n - 1)
        shift = bound.bit_length() + 1
        digits = 1 + len(word) * max((g.q_degree for g in generators), default=0)
        steps = [(i, generators[i - 1].packed_columns(shift)) for i in reversed(word)]
        total = 0
        for w in basis:
            vec = {w: 1}
            for i, cols in steps:
                vec = _apply_columns(i, cols, vec)
            total += vec.get(w, 0)
        value = unpack(total, shift, digits, bound, "rho1 trace", f"mu={mu}, degree {k}")
    else:
        by_monomial: dict[tuple[int, ...], list[tuple[Perm, int]]] = {}
        l1 = 0
        for w in table.basis(k):
            for e, c in table.polys[w].terms.items():
                by_monomial.setdefault(e, []).append((w, c))
                l1 += c
        bound = l1 * _letter_mass(action, k) ** len(word) * (n - 1) ** k
        shift = bound.bit_length() + 1
        total = 0
        for e, uses in by_monomial.items():
            image = apply_action_word(action, word, _raw(n, {e: 1}), 1 << shift)
            for w, c in uses:
                total += c * coordinate_at(image, w)
        value = unpack(total, shift, 1 + len(word), bound, f"{action} trace",
                       f"mu={mu}, degree {k}")
    return CharacterValue(k, mu, value)


def weight_character(mu, k: int, n: int) -> CharacterValue:
    """Combinatorial side: sum of coset weights over length-k permutations."""
    mu = check_partition(mu, n)
    value = QP_ZERO
    for w in perms_of_length(n, k):
        value = value + coset_weight(w, mu)
    return CharacterValue(k, mu, value)


def descent_column_formula(i: int, w: Perm) -> dict[Perm, QPoly]:
    """Closed-form column of the q-commutator action at a descent, built from
    length-preserving 3-cycles.

    Right-multiplying w by the cycle (a -> b -> c -> a) on positions; only
    images of the same length as w enter.  Raises on an ascent, where the
    column is the unit column.
    """
    n = len(w)
    if not 1 <= i < n:
        raise ValueError(f"index {i} out of range for n={n}")
    if w[i - 1] < w[i]:
        raise ValueError(f"{w} has an ascent at {i}; the column is the unit column")
    lw = length(w)
    col: dict[Perm, QPoly] = {w: MINUS_Q}

    # The 3-cycles below are distinct and none is the identity, so their
    # images w*c are distinct and differ from w: each entry is set once.
    def add(z: Perm, c: QPoly):
        if length(z) == lw:
            col[z] = c

    for k in range(1, i):
        add(_right_cycle(w, k, i + 1, i), QPoly((0, 1)))
        add(_right_cycle(w, k, i, i + 1), QPoly((-1,)))
    for k in range(i + 2, n + 1):
        add(_right_cycle(w, k, i, i + 1), QP_ONE)
        add(_right_cycle(w, k, i + 1, i), MINUS_Q)
    return col


def _right_cycle(w: Perm, a: int, b: int, c: int) -> Perm:
    """w composed with the 3-cycle a -> b -> c -> a (acting on positions)."""
    out = list(w)
    out[a - 1], out[b - 1], out[c - 1] = w[b - 1], w[c - 1], w[a - 1]
    return tuple(out)


def _ledger_rows(i: int, w: Perm, column: dict[Perm, QPoly]) -> list[tuple[int, Perm, Perm, int, int]]:
    """The ledger rows (i, w, z, b, c) of the rho2 descent column of w at i,
    one per off-diagonal entry in z order, the entry being (1-q)*b + c.

    Each entry must be linear in q and its q = 1 value c must lie in
    {-1, 0, 1}, or ``ValueError`` names the structural violation.  b is only
    reported; values outside {-1, 0, 1} occur (``BCScan.b_outliers``)."""
    rows = []
    for z, e in sorted(column.items()):
        if z == w:
            continue
        if e.degree > 1:
            raise ValueError(f"structural violation at ({i}, {w}, {z}): entry {e} has q-degree > 1")
        e0 = e.c[0] if len(e.c) > 0 else 0
        e1 = e.c[1] if len(e.c) > 1 else 0
        cz = e0 + e1  # value at q = 1
        if cz not in (-1, 0, 1):
            raise ValueError(f"structural violation at ({i}, {w}, {z}): constant part {cz}")
        rows.append((i, w, z, -e1, cz))
    return rows


def orbit_type_counts(n: int, max_degree: int) -> dict[Partition, list[int]]:
    """``N(lam, d)`` for every lam |- n and d <= max_degree: the number of
    exponent multisets of degree d (partitions of d into at most n parts,
    padded with zeros to n entries) whose multiplicity type is lam."""
    counts = {lam: [0] * (max_degree + 1) for lam in partitions_of(n)}
    for d in range(max_degree + 1):
        for parts in partitions_of(d):
            if len(parts) <= n:
                padded = parts + (0,) * (n - len(parts))
                lam = tuple(sorted(Counter(padded).values(), reverse=True))
                counts[lam][d] += 1
    return counts


def orbit_of_type(lam: Partition) -> list[tuple[int, ...]]:
    """The exponent vectors that rearrange the representative multiset of
    type lam: the values 0, 1, 2, ... with multiplicities lam."""
    rep = tuple(value for value, part in enumerate(lam) for _ in range(part))
    return sorted(set(permutations(rep)))


def spread_class_traces(
    class_traces: dict[tuple[Partition, int], QPoly], n: int, max_degree: int
) -> dict[tuple[Perm, int], QPoly]:
    """Traces of every Hecke basis element T_v from the traces at the T_mu,
    degree by degree: ``tr(T_v) = sum_mu f_{v,mu} * tr(T_mu)`` with the class
    polynomials of ``perm.class_polynomial``.

    Many T_v share a class polynomial (11 of the 24 at n = 4 are distinct,
    28 of the 120 at n = 5), so each distinct one is summed once and its row
    of traces shared.  Rows are keyed by the polynomial's items, not by the
    dict's identity: ``class_polynomial`` may replace a memo entry with an
    equal new dict, and the id of a freed dict can be reused by another."""
    rows: dict[frozenset, list[QPoly]] = {}
    out: dict[tuple[Perm, int], QPoly] = {}
    for v in all_perms(n):
        f = class_polynomial(v)
        key = frozenset(f.items())
        row = rows.get(key)
        if row is None:
            row = rows[key] = []
            for d in range(max_degree + 1):
                acc = QP_ZERO
                for mu, c in f.items():
                    t = class_traces[(mu, d)]
                    if t:
                        acc = acc + c * t
                row.append(acc)
        for d, t in enumerate(row):
            out[(v, d)] = t
    return out


def upstairs_class_traces(n: int, action: str, max_degree: int) -> dict[tuple[Partition, int], QPoly]:
    """Trace of T_mu, the element of ``partition_word(mu)``, on each full
    polynomial degree component d <= max_degree, in the monomial basis.

    The generators of rho2 and symq1 only compare and swap two exponents, so
    the orbit of an exponent multiset spans a module that depends only on the
    multiplicity type lam |- n of the multiset: the q-permutation module M^lam
    (Dipper--James).  The degree-d trace is therefore
    ``sum_lam N(lam, d) * tr(T_mu | M^lam)`` (``orbit_type_counts``), with
    ``tr(T_mu | M^lam)`` computed on one orbit per type (``orbit_of_type``).
    rho1 multiplies by variables and has no such reduction; it pushes every
    monomial of each degree through the word.  Either way each monomial,
    with its exponent vector, is built once and pushed through every word.
    """
    if action == "rho1":
        by_degree: list[list[tuple[tuple[int, ...], MPoly]]] = [[] for _ in range(max_degree + 1)]
        for f in monomials_up_to(n, max_degree):
            e = next(iter(f.terms))
            by_degree[sum(e)].append((e, f))
        blocks = [
            (seeds, [int(d == degree) for d in range(max_degree + 1)])
            for degree, seeds in enumerate(by_degree)
        ]
    else:
        blocks = [
            ([(e, MPoly.monomial(n, e)) for e in orbit_of_type(lam)], weights)
            for lam, weights in orbit_type_counts(n, max_degree).items()
            if any(weights)
        ]
    words = [(mu, partition_word(mu)) for mu in partitions_of(n)]
    traces: dict[tuple[Partition, int], QPoly] = {
        (mu, d): QP_ZERO for mu, _ in words for d in range(max_degree + 1)
    }
    for seeds, weights in blocks:
        for mu, word in words:
            t = QP_ZERO
            for e, f in seeds:
                c = apply_action_word(action, word, f).terms.get(e)
                if c:
                    t = t + c
            if t:
                for d, m in enumerate(weights):
                    if m:
                        traces[(mu, d)] += t * m
    return traces


def upstairs_graded_traces(n: int, action: str, max_degree: int) -> dict[tuple[Perm, int], QPoly]:
    """Trace of every Hecke basis element on each full polynomial degree
    component d <= max_degree, for rho1 or rho2: ``upstairs_class_traces``
    spread to every T_v by class polynomials.  Those need the quadratic
    relation T_i^2 = (1-q) T_i + q, so symq1, whose swaps square to 1, is
    rejected."""
    if action == "symq1":
        raise ValueError("class polynomials do not spread symq1 traces")
    return spread_class_traces(upstairs_class_traces(n, action, max_degree), n, max_degree)


def coinvariant_traces_from_graded(
    graded: dict[tuple, QPoly], n: int, max_degree: int
) -> dict[tuple, QPoly]:
    """Coinvariant-component traces from full-component traces: the symmetric
    Hilbert series prod_{i<=n} 1/(1 - t^i) divided out of each trace series
    by multiplying with its inverse, the finite product prod_{i<=n} (1 - t^i)
    truncated at ``max_degree`` (``symmetric_series_inverse``).  That product
    has integer coefficients, so the division is exact over Z[q], and
    degree k needs only the inverse's nonzero coefficients up to k.  The
    traces may be keyed by basis element or by class, ``(x, degree)``."""
    # The constant term is 1: each trace starts from its own input.
    terms = [(j, c) for j, c in enumerate(symmetric_series_inverse(n, max_degree)) if j and c]
    out: dict[tuple, QPoly] = {}
    for x in dict.fromkeys(x for x, _ in graded):
        for k in range(max_degree + 1):
            acc = graded[(x, k)]
            for j, c in terms:
                if j > k:
                    break
                t = graded[(x, k - j)]
                if t:
                    acc = acc - t if c == -1 else acc + t * c
            out[(x, k)] = acc
    return out


def symmetric_series_inverse(n: int, up_to: int) -> list[int]:
    """Coefficients of t^0 .. t^up_to in prod_{i<=n} (1 - t^i), the inverse
    of the symmetric Hilbert series prod_{i<=n} 1/(1 - t^i).

    >>> symmetric_series_inverse(4, 6)
    [1, -1, -1, 0, 0, 2, 0]
    """
    out = [1] + [0] * up_to
    for part in range(1, n + 1):
        for d in range(up_to, part - 1, -1):
            out[d] -= out[d - part]
    return out


def quotient_class_traces(n: int) -> dict[tuple[Partition, int], QPoly]:
    """Trace of T_mu, the element of ``partition_word(mu)``, for the
    q-commutator action on each degree-k Schubert basis: the graded
    characters ``graded_character("rho1", mu, k, n)``."""
    return {
        (mu, k): graded_character("rho1", mu, k, n).value
        for k in range(n * (n - 1) // 2 + 1)
        for mu in partitions_of(n)
    }


def quotient_basis_traces(n: int) -> dict[tuple[Perm, int], QPoly]:
    """Traces of every Hecke basis element of the q-commutator action on the
    degree-k Schubert bases: ``quotient_class_traces`` spread to every T_v by
    class polynomials."""
    return spread_class_traces(quotient_class_traces(n), n, n * (n - 1) // 2)


def _apply_columns(i: int, columns: dict[Perm, dict[Perm, int]],
                   vec: dict[Perm, int]) -> dict[Perm, int]:
    """Apply the i-th rho1 generator, given by its packed columns
    (``RepMatrix.packed_columns``), to a sparse vector packed at the same
    shift.  Entries may be zero; a zero adds nothing downstream.

    Relies on the column shape that ``_check_column_shape`` enforced when the
    matrix was built: an ascent of w at i (w[i-1] < w[i]) has the unit column,
    which is not looked up; a descent column holds -q at w and its other
    entries only at classes with an ascent at i.
    """
    out: dict[Perm, int] = {}
    get = out.get
    for w, c in vec.items():
        if w[i - 1] < w[i]:
            out[w] = get(w, 0) + c
        else:
            for z, m in columns[w].items():
                out[z] = get(z, 0) + c * m
    return out


def descent_pairs(n: int) -> list[tuple[int, Perm]]:
    """All (i, w) with a descent of w at i, ordered by (i, w)."""
    return [(i, w) for i in range(1, n) for w in all_perms(n) if w[i - 1] > w[i]]


@dataclass
class BCScan:
    """Full (b, c) ledger over all descent columns of S_n (``_ledger_rows``)."""

    n: int
    entries: list[tuple[int, Perm, Perm, int, int]]  # (i, w, z, b, c)
    structural_violations: list[str]

    def b_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for _, _, _, b, _ in self.entries:
            hist[b] = hist.get(b, 0) + 1
        return dict(sorted(hist.items()))

    def b_outliers(self) -> list[tuple[int, Perm, Perm, int, int]]:
        """Entries with b outside {-1, 0, 1}: reported, never asserted."""
        return [row for row in self.entries if row[3] not in (-1, 0, 1)]


def _bc_degree(args) -> dict[tuple[int, Perm], list[tuple[int, Perm, Perm, int, int]] | str]:
    """The ledger rows of every descent pair (i, w) with w of length k, or
    the structural violation that ``_ledger_rows`` raises there, keyed by
    the pair: each rho2 generator of degree k is read once, and its descent
    columns split."""
    n, k = args
    table = build_schubert_table(n)
    out = {}
    for i in range(1, n):
        matrix = generator_matrix("rho2", i, k, table)
        for w, column in matrix.columns.items():
            if w[i - 1] > w[i]:
                try:
                    out[(i, w)] = _ledger_rows(i, w, column)
                except ValueError as exc:
                    out[(i, w)] = str(exc)
    return out


def bc_scan(n: int, jobs: int = 1) -> BCScan:
    """Split every off-diagonal descent-column entry of the randomized action
    and collect the (b, c) ledger together with the observed b-range, in the
    (i, w) order of ``descent_pairs``.  Each degree is one job for
    ``parallel_map``, so a worker builds the rho2 generator matrices of only
    the degrees it is given."""
    by_pair = {}
    for part in parallel_map(_bc_degree, [(n, k) for k in range(n * (n - 1) // 2 + 1)], jobs):
        by_pair.update(part)
    entries = []
    violations = []
    for pair in descent_pairs(n):
        rows = by_pair[pair]
        if isinstance(rows, str):
            violations.append(rows)
        else:
            entries.extend(rows)
    return BCScan(n, entries, violations)


# --- process pool -------------------------------------------------------------


def parallel_map(fn, items, jobs: int = 1) -> list:
    """``[fn(x) for x in items]``, on a process pool of as many workers as
    asked for, but no more than CPUs or items; serial when that is one.
    ``fn``, the items and the results must pickle."""
    items = list(items)
    workers = min(jobs, os.cpu_count() or 1, len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
