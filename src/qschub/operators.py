"""Linear operators on the polynomial ring: s_i, divided differences,
multiplication operators, the q-commutator families A_i and B_i, and the
randomized pair R_i / R*_i.

The divided difference and R_i / R*_i share one term-by-term kernel,
``_pairwise``; each is a memoized rule on the exponent pair (e_i, e_{i+1}) of
a monomial.  The divided difference's rule is the closed form

    (x^a y^b - x^b y^a) / (x - y) = sum_{0 <= t < a-b} x^(a-1-t) y^(b+t)

(Macdonald, *Notes on Schubert Polynomials*, 1991, ch. II), so nothing is
divided and no remainder can arise.  A_i and B_i are composites of the
divided difference and multiplication by x_i; s_i is ``swap_variables``.

A_i, R_i and s_i take q as a value, the indeterminate ``Q`` by default.
Evaluating at an integer q is a ring map Z[q] -> Z, so on a polynomial with
int coefficients and an int q each of them returns the Z[q] result evaluated
at q, with int coefficients throughout: ``rep`` reads its matrix columns
that way at q = 2^B (Kronecker substitution, ``schubert.pack``).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement

from .polyring import (
    MPoly,
    ONE_MINUS_Q,
    Q,
    QPoly,
    _raw,
    is_i_symmetric,
    swap_variables,
)


class InvariantViolation(AssertionError):
    """A structural identity of the construction failed: a bug, not bad input.

    Raised explicitly so the check also runs under ``python -O``; it is not a
    ValueError, so callers that report bad input never absorb it.
    """


def _pairwise(f: MPoly, i: int, rule) -> MPoly:
    """Shared kernel of the divided difference and the sorting operators.

    Each term c*x^e is sent to sum_k w_k*c*x^(e_k), where rule(e_i, e_{i+1})
    gives the pairs ((a_k, b_k), w_k) and e_k is e with (e_i, e_{i+1})
    replaced by (a_k, b_k).  A weight is a nonzero int or a QPoly.  When
    every weight is an int, c may also be a Python int, and the result keeps
    int coefficients: the Schubert expansion sweep runs its
    divided-difference chain that way, and ``rep`` runs R_i at an integer q.
    A unit weight stores c itself, so the common weights 1 of the divided
    difference and the sorting rules cost no multiplication.
    """
    if not 1 <= i < f.n:
        raise ValueError(f"operator index {i} out of range for n={f.n}")
    ii = i - 1
    out: dict[tuple, QPoly] = {}
    for e, c in f.terms.items():
        for pair, w in rule(e[ii], e[ii + 1]):
            key = e[:ii] + pair + e[ii + 2:]
            term = c if w.__class__ is not QPoly and w == 1 else c * w
            acc = out.get(key)
            if acc is None:
                # The first contribution is stored as is, not added to a zero:
                # under a unit weight it is f's own (immutable) coefficient,
                # so a chain allocates no new coefficient objects for it.
                out[key] = term
                continue
            acc = acc + term
            if acc:
                out[key] = acc
            else:
                del out[key]
    return _raw(f.n, out)


@lru_cache(maxsize=None)
def _difference_rule(a: int, b: int) -> tuple:
    """(x^a y^b - x^b y^a) / (x - y) = sum_{t < a-b} x^(a-1-t) y^(b+t), and the
    negated sum with a and b exchanged when a < b; zero when a == b."""
    if a >= b:
        return tuple(((a - 1 - t, b + t), 1) for t in range(a - b))
    return tuple(((b - 1 - t, a + t), -1) for t in range(b - a))


def _sorting_rule(descent_swap, ascent_stay, ascent_swap):
    """Rule of a sorting operator: a descending exponent pair is swapped with
    one weight, an ascending one stays and swaps with two more, and a balanced
    one is fixed.  A pair of weight zero is left out."""

    @lru_cache(maxsize=None)
    def rule(a: int, b: int) -> tuple:
        if a == b:
            return (((a, b), 1),)
        if a > b:
            pairs = (((b, a), descent_swap),)
        else:
            pairs = (((a, b), ascent_stay), ((b, a), ascent_swap))
        return tuple(p for p in pairs if p[1])

    return rule


@lru_cache(maxsize=None)
def _r_rule(q):
    """The rule of R_i at q (``Q`` or an int), memoized per q."""
    return _sorting_rule(q, 1 - q, 1)


_R_RULE = _r_rule(Q)
_RSTAR_RULE = _sorting_rule(1, ONE_MINUS_Q, Q)


def divided_difference(f: MPoly, i: int) -> MPoly:
    """(f - s_i f) / (x_i - x_{i+1}), term by term by the closed form of
    ``_difference_rule``; there is no division and so no remainder."""
    return _pairwise(f, i, _difference_rule)


def mul_x(f: MPoly, i: int) -> MPoly:
    """Multiply by x_i."""
    if not 1 <= i <= f.n:
        raise ValueError(f"variable index {i} out of range for n={f.n}")
    ii = i - 1
    return _raw(f.n, {e[:ii] + (e[ii] + 1,) + e[ii + 1:]: c for e, c in f.terms.items()})


def op_s(f: MPoly, i: int, q=Q) -> MPoly:
    """Exchange x_i and x_{i+1}; q, taken for a common signature with op_a
    and op_r, is not used."""
    return swap_variables(f, i)


def op_a(f: MPoly, i: int, q=Q) -> MPoly:
    """q-commutator of the divided difference with multiplication by x_i,
    at q (``Q`` or an int)."""
    return divided_difference(mul_x(f, i), i) - mul_x(divided_difference(f, i), i).scale(q)


def op_b(f: MPoly, i: int) -> MPoly:
    """Negated q-commutator of the divided difference with x_{i+1}."""
    return mul_x(divided_difference(f, i), i + 1).scale(Q) - divided_difference(mul_x(f, i + 1), i)


def op_r(f: MPoly, i: int, q=Q) -> MPoly:
    """Descending exponent pairs are swapped with weight q; ascending ones mix
    (1-q)*stay + swap; balanced monomials are fixed.  q is ``Q`` or an int."""
    return _pairwise(f, i, _R_RULE if q is Q else _r_rule(q))


def op_rstar(f: MPoly, i: int) -> MPoly:
    """Transpose family of op_r on the monomial basis: descending pairs swap
    with weight 1, ascending ones mix (1-q)*stay + q*swap."""
    return _pairwise(f, i, _RSTAR_RULE)


def monomials_up_to(n: int, degree_bound: int) -> list[MPoly]:
    """All monomials in n variables of total degree <= degree_bound."""
    out = []
    for d in range(degree_bound + 1):
        for combo in combinations_with_replacement(range(n), d):
            e = [0] * n
            for v in combo:
                e[v] += 1
            out.append(MPoly.monomial(n, e))
    return out


def a_minus_r_factor(i: int, f: MPoly) -> tuple[MPoly, MPoly]:
    """(A_i - R_i)(f) together with its exact quotient by (1-q).

    The difference is always i-symmetric with every coefficient divisible by
    1-q; both facts are checked because a violation means an operator bug.
    """
    diff = op_a(f, i) - op_r(f, i)
    if not is_i_symmetric(i, diff):
        raise InvariantViolation("A-R difference must be i-symmetric")
    witness = MPoly(f.n, {e: c.divide_one_minus_q() for e, c in diff.terms.items()})
    return diff, witness
