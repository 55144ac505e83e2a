"""Schubert polynomials, expansion in the Schubert basis, and Monk's formula.

The table for S_n starts from the staircase monomial x_1^{n-1} x_2^{n-2} ...
at the longest element and walks down one divided difference per permutation.
Every weight of a divided difference is +1 or -1, so both chains of this
module run on Python int coefficients: the table's chain on the integer
Schubert coefficients, and the expansion sweep on Z[q] coefficients
packed into ints by q -> 2^B (Kronecker substitution; Harvey, *J. Symbolic
Comput.* 44, 2009), decoded once at the end.  ``packed_class_sum`` sums
packed coefficients times the integer monomial classes, and ``rep`` reads
every matrix column that it does not derive by duality through it, the
operators applied to the integer Schubert polynomial at q = 2^B.  One pair
of functions does all packing, ``pack`` and ``unpack``; ``rep`` also uses
them for its column reads and its graded-character cells.  Every decoded coordinate is a ``QPoly``, as is
every coefficient of the table's Z[q] view.

Every monomial of the table lies under the staircase, whose n! exponent
vectors are the Lehmer codes of S_n.  The table's chain runs on their
indices, each divided-difference image of an index memoized for one length
layer and checked once, on the staircase and in the layer's degree, when it
is built; by induction from the checked seed, that checks every term.  The
table keeps each S_w as ints on one shared set of staircase exponent tuples.
The expansion sweep stays on exponent tuples and ``divided_difference``: its
inputs share few monomials, so an image memo would not pay there.

Residue-class coordinates in the Schubert basis are read two independent ways:

* ``expand_homogeneous`` uses the duality of divided-difference chains with
  the Schubert basis: the coordinate at z is the constant obtained by
  applying the chain of z.  Since d_z = d_i d_{s_i z} for every left descent
  i of z (Macdonald, *Notes on Schubert Polynomials*, ch. II), a zero at any
  s_i z makes z zero, and every nonzero source gives the same value; the
  sweep skips such z and differentiates the source with the fewest terms.
* ``packed_class_sum`` sums memoized monomial classes (``monomial_class``),
  each built one variable at a time by Monk's rule
  (``x_action_on_schubert``) in integer arithmetic.  The representation
  layer reads every matrix column through this sum, except the columns of
  rho1 and symq1 generators above the middle degree, which it derives by
  duality.

The divided-difference sweep is the oracle the Monk classes are tested
against; it must not be rebuilt on ``monomial_class``, or a wrong Monk term
would pass its own check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .operators import InvariantViolation, _difference_rule, divided_difference
from .perm import (
    Perm,
    all_perms,
    has_left_descent,
    identity,
    is_cover,
    lehmer_codes,
    mult_left_s,
    mult_right_s,
    perm_str,
    perms_by_length,
    perms_of_length,
)
from .polyring import MPoly, QPoly, QP_ZERO, _raw


@dataclass(frozen=True)
class SchubertTable:
    """All Schubert polynomials of S_n; immutable and shared.

    ``polys[w]`` is S_w with its positive int coefficients, keyed on the
    table's one shared set of staircase exponent tuples; the production
    readers take it as is.  ``table[w]`` is the Z[q] view of the same
    polynomial.
    """

    n: int
    polys: dict[Perm, MPoly]

    def __getitem__(self, w: Perm) -> MPoly:
        """S_w over Z[q]: one constant ``QPoly`` per distinct coefficient,
        built on every read and not kept, so the table stays on ints."""
        terms = self.polys[w].terms
        shared = {c: QPoly((c,)) for c in set(terms.values())}
        return _raw(self.n, {e: shared[c] for e, c in terms.items()})

    def basis(self, k: int) -> tuple[Perm, ...]:
        """Length-k permutations in lexicographic order: the degree-k basis."""
        return perms_of_length(self.n, k)

    @property
    def max_degree(self) -> int:
        return self.n * (self.n - 1) // 2


def staircase_monomial(n: int) -> MPoly:
    return MPoly.monomial(n, tuple(n - 1 - j for j in range(n)))


@lru_cache(maxsize=None)
def build_schubert_table(n: int) -> SchubertTable:
    """Compute all n! Schubert polynomials by divided differences.

    The i-th divided difference sends an exponent pair (a, b) at i, i + 1 to
    pairs with both entries below max(a, b), so every monomial of the chain
    lies under the staircase: e_j <= n - j.  Those n! exponent vectors, the
    Lehmer codes of S_n (``lehmer_codes``), are made once, and the chain
    runs on their indices: each polynomial is a dict {index: int}, seeded
    from the staircase monomial through ``QPoly.as_int``.  The image of
    index j under the i-th divided difference, a tuple of (index, weight)
    pairs from ``_difference_rule`` (the rule of ``divided_difference``), is
    memoized per length layer and checked once, when it is built: on the
    staircase, and of the layer's degree.  By induction from the checked
    seed every term of S_w then lies on the staircase in degree length(w),
    so no term is checked again.  Each S_w must be nonzero (a zero
    polynomial counts as of the wrong degree) with positive integer
    coefficients (classical positivity), and S_id = 1.  Once the layer below
    it is done, a layer's int dicts are moved into the table as ``MPoly``s
    keyed on the shared exponent tuples, so at most two layers of int dicts
    are alive, and the image memo holds one degree at a time.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    by_len = perms_by_length(n)
    top = n * (n - 1) // 2
    stair = list(lehmer_codes(n))
    index = {e: j for j, e in enumerate(stair)}
    polys: dict[Perm, MPoly] = {}

    def locate(e: tuple, k: int, w: Perm) -> int:
        """The index of exponent e, checked to lie on the staircase in degree k."""
        j = index.get(e)
        if j is None:
            raise InvariantViolation(f"exponent {e} off the staircase at {w}")
        if sum(e) != k:
            raise InvariantViolation(f"wrong degree at {w}")
        return j

    def checked(w: Perm, terms: dict[int, int]) -> dict[int, int]:
        """terms without its zeros, checked to be nonzero and positive."""
        if min(terms.values(), default=0) <= 0:
            terms = {j: c for j, c in terms.items() if c}
            if not terms:
                raise InvariantViolation(f"wrong degree at {w}")
            if min(terms.values()) < 0:
                raise InvariantViolation(f"non-positive coefficient at {w}")
        return terms

    def to_table(layer: dict[Perm, dict[int, int]]):
        """Move a finished layer into the table, keyed on the shared tuples."""
        for w, terms in layer.items():
            polys[w] = _raw(n, {stair[j]: c for j, c in terms.items()})
        layer.clear()

    w0 = by_len[top][0]
    seed = staircase_monomial(n)
    layer = {w0: checked(w0, {locate(e, top, w0): c.as_int() for e, c in seed.terms.items()})}
    for k in range(top - 1, -1, -1):
        images: list[dict[int, tuple]] = [{} for _ in range(n)]
        below = {}
        for w in by_len[k]:
            i = next(i for i in range(1, n) if w[i - 1] < w[i])  # first ascent
            ii = i - 1
            memo = images[i]
            out: dict[int, int] = {}
            get = out.get
            for j, c in layer[mult_right_s(w, i)].items():
                image = memo.get(j)
                if image is None:
                    e = stair[j]
                    image = memo[j] = tuple(
                        (locate(e[:ii] + pair + e[ii + 2:], k, w), weight)
                        for pair, weight in _difference_rule(e[ii], e[ii + 1]))
                for t, weight in image:
                    out[t] = get(t, 0) + weight * c
            below[w] = checked(w, out)
        to_table(layer)
        layer = below
    to_table(layer)
    if polys[identity(n)] != MPoly.const(n, 1):
        raise InvariantViolation("the identity's Schubert polynomial is not 1")
    return SchubertTable(n, polys)


@dataclass(frozen=True)
class CoinvariantVector:
    """Residue class of a degree-k polynomial in the Schubert basis; only the
    nonzero coordinates are stored."""

    k: int
    coords: dict[Perm, QPoly]

    def __getitem__(self, z: Perm) -> QPoly:
        return self.coords.get(z, QP_ZERO)

    def is_zero(self) -> bool:
        return not self.coords

    def support(self) -> tuple[Perm, ...]:
        return tuple(sorted(self.coords))


@lru_cache(maxsize=None)
def _sweep_plan(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Index j lists, for the p-th permutation z of ``perms_by_length(n)[j]``,
    every left descent i of z with the position of s_i z in layer j - 1,
    flat as (i, p_i, i', p_i', ...): the value at z is the i-th divided
    difference of the value at s_i z, for each of these i alike."""
    by_len = perms_by_length(n)
    plan: list[tuple] = [()]
    for j in range(1, len(by_len)):
        where = {w: p for p, w in enumerate(by_len[j - 1])}
        layer = []
        for z in by_len[j]:
            steps = []
            for i in range(1, n):
                if has_left_descent(z, i):
                    steps += (i, where[mult_left_s(z, i)])
            layer.append(tuple(steps))
        plan.append(tuple(layer))
    return tuple(plan)


def _coordinate_bound(f: MPoly, k: int) -> int:
    """k! times the L1 norm of f (every q-coefficient of every term): a bound
    on every q-coefficient met in the sweep of degree-k f, because a
    divided difference sends a degree-d term to at most d terms of weight
    +1 or -1."""
    return factorial(k) * sum(abs(d) for c in f.terms.values() for d in c.c)


def pack(c: QPoly, shift: int) -> int:
    """c at q = 2^shift (Kronecker substitution), the int ``unpack`` reads
    back.  Packing is a ring map: sums and products of packed values are the
    packed sums and products."""
    v = 0
    for d in reversed(c.c):
        v = (v << shift) + d
    return v


def unpack(v: int, shift: int, digits: int, bound: int, what: str, at) -> QPoly:
    """The QPoly packed as v = sum_d c_d 2^(shift*d), read as balanced digits.

    The caller knows that only ``digits`` digits may be nonzero, each at most
    ``bound`` < 2^(shift-1) in absolute value; anything else means the packing
    was too narrow, and raises ``InvariantViolation`` naming the packed
    ``what`` and where it was read (``at``).
    """
    half = 1 << (shift - 1)
    mask = (1 << shift) - 1
    out = []
    for _ in range(digits):
        d = v & mask
        if d >= half:
            d -= mask + 1
        if abs(d) > bound:
            break  # v still holds d, so the check below raises
        out.append(d)
        v = (v - d) >> shift
    if v:
        raise InvariantViolation(f"packed {what} at {at} does not decode within the bound")
    return QPoly(out)


def expand_homogeneous(f: MPoly, k: int, table: SchubertTable) -> CoinvariantVector:
    """Coordinates of f in the degree-k Schubert basis of the quotient.

    Runs one breadth-first sweep over permutations by length, reusing each
    partial divided-difference chain: the value at z of length j is the i-th
    divided difference of the value at s_i z, and because d_z = d_i d_{s_i z}
    for every left descent i, any such i gives it (``_sweep_plan`` lists them
    all).  So z is skipped as zero when the value at any s_i z is zero, and
    otherwise the source with the fewest terms is differentiated.  Each
    layer's values are a list aligned with that layer of ``perms_by_length``,
    None for zero.  Degree-k input collapses to constants exactly at the
    length-k layer.

    The sweep runs on ints: each coefficient c is packed as the integer
    c(2^B) with B = bit_length(k! * L1(f)) + 1 (``_coordinate_bound``), wide
    enough that no q-coefficient of any value in the sweep can reach 2^(B-1).
    Packing is additive and every weight is +1 or -1, so the sweep is exact
    on the packed ints, and zero tests on them are zero tests on Z[q].  Only
    the surviving constants are decoded, as balanced base-2^B digits; a digit
    past the bound or the input's q-degree raises ``InvariantViolation``.

    This sweep is the independent oracle for ``monomial_class`` and
    ``packed_class_sum``: it must not be rebuilt on them.
    """
    n = table.n
    if f.n != n:
        raise ValueError(f"ambient mismatch: polynomial n={f.n}, table n={n}")
    deg = f.homogeneous_degree()
    if deg is None:
        raise ValueError("expansion requires a homogeneous polynomial")
    if not f:
        return CoinvariantVector(k, {})
    if deg != k:
        raise ValueError(f"polynomial is homogeneous of degree {deg}, not {k}")
    by_len = perms_by_length(n)
    if k >= len(by_len):
        return CoinvariantVector(k, {})
    bound = _coordinate_bound(f, k)
    shift = bound.bit_length() + 1
    digits = max(len(c.c) for c in f.terms.values())
    packed = {e: pack(c, shift) for e, c in f.terms.items()}
    layer: list[MPoly | None] = [_raw(n, packed)]
    plan = _sweep_plan(n)
    for j in range(1, k + 1):
        nxt: list[MPoly | None] = []
        for steps in plan[j]:
            best = None
            for t in range(1, len(steps), 2):
                src = layer[steps[t]]
                if src is None:
                    best = None
                    break
                if best is None or len(src.terms) < len(best.terms):
                    best, i = src, steps[t - 1]
            g = divided_difference(best, i) if best is not None else None
            nxt.append(g if g else None)
        layer = nxt
    constant = (0,) * n
    coords = {}
    for z, g in zip(by_len[k], layer):
        v = g and g.terms.get(constant)
        if v:
            coords[z] = unpack(v, shift, digits, bound, "coordinate", z)
    return CoinvariantVector(k, coords)


# e -> {z: m}: the class of the monomial x^e in the coinvariant algebra,
# x^e = sum of m * S_z modulo the ideal, nonzero m only; filled on demand.
_MONOMIAL_CLASSES: dict[tuple[int, ...], dict[Perm, int]] = {}


def monomial_class(e: tuple[int, ...]) -> dict[Perm, int]:
    """Integer Schubert coordinates of x^e in the quotient, by Monk's rule.

    x^0 is the class of the identity.  Otherwise, with v the first variable
    of positive exponent, x^e is x_v times x^(e - unit_v), and multiplying a
    class by x_v is ``x_action_on_schubert`` term by term.  Memoized per e in
    ``_MONOMIAL_CLASSES``; the returned dict is shared, do not mutate it.

    Each x_v has at most n - 1 Monk terms, all of sign +1 or -1, so a class
    of degree k has L1 norm, and every multiple, at most (n - 1)^k.
    """
    out = _MONOMIAL_CLASSES.get(e)
    if out is not None:
        return out
    v = next((v for v, a in enumerate(e) if a), None)
    if v is None:
        out = {identity(len(e)): 1}
    else:
        acc: dict[Perm, int] = {}
        for w, m in monomial_class(e[:v] + (e[v] - 1,) + e[v + 1:]).items():
            plus, minus = x_action_on_schubert(v + 1, w)
            for z in plus:
                acc[z] = acc.get(z, 0) + m
            for z in minus:
                acc[z] = acc.get(z, 0) - m
        out = {z: m for z, m in acc.items() if m}
    _MONOMIAL_CLASSES[e] = out
    return out


def packed_class_sum(terms: dict[tuple[int, ...], int]) -> dict[Perm, int]:
    """The sum of v * monomial_class(e) over the items (e, v) of a term dict
    with int coefficients, such as Z[q] coefficients packed at q = 2^B
    (``pack``): the packed Schubert coordinates of the polynomial, each in
    the degree of its monomials.  Zero sums may remain."""
    acc: dict[Perm, int] = {}
    get = acc.get
    for e, v in terms.items():
        for z, m in monomial_class(e).items():
            acc[z] = get(z, 0) + v * m
    return acc


def monk_products(i: int, w: Perm) -> tuple[Perm, ...]:
    """Transposition terms of the product of the i-th elementary Schubert
    class with the class of w, inside S_n.

    All w t_{jk} with j <= i < k <= n that cover w in the Bruhat order
    (``is_cover``: length(w t_{jk}) = length(w) + 1), sorted.
    """
    n = len(w)
    if not 1 <= i < n:
        raise ValueError(f"index {i} out of range for n={n}")
    return tuple(sorted(_apply_transposition(w, j, k)
                        for j in range(1, i + 1) for k in range(i + 1, n + 1)
                        if is_cover(w, j, k)))


@lru_cache(maxsize=None)
def x_action_on_schubert(i: int, w: Perm) -> tuple[tuple[Perm, ...], tuple[Perm, ...]]:
    """Signed supports of multiplication by x_i on the class of w (Monk's
    rule in the quotient), memoized per (i, w).

    Returns (plus, minus): transposition images t_{ik} with k > i count
    positively, t_{ji} with j < i negatively; only images that cover w
    (``is_cover``, an O(n) read with no length count) enter.
    """
    n = len(w)
    if not 1 <= i <= n:
        raise ValueError(f"variable index {i} out of range for n={n}")
    plus = tuple(sorted(_apply_transposition(w, i, k)
                        for k in range(i + 1, n + 1) if is_cover(w, i, k)))
    minus = tuple(sorted(_apply_transposition(w, j, i)
                         for j in range(1, i) if is_cover(w, j, i)))
    return plus, minus


def _apply_transposition(w: Perm, j: int, k: int) -> Perm:
    out = list(w)
    out[j - 1], out[k - 1] = out[k - 1], out[j - 1]
    return tuple(out)


def schubert_table_rows(n: int):
    """Yield (one-line notation, rendered S_w) for every w in ``all_perms``
    order, one row at a time, for the CLI."""
    polys = build_schubert_table(n).polys
    for w in all_perms(n):
        yield perm_str(w), str(polys[w])
