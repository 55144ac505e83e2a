"""Linear operators on the polynomial ring: s_i, divided differences,
multiplication operators, the q-commutator families A_i and B_i, and the
randomized pair R_i / R*_i, plus exhaustive relation-checking harnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement

from .perm import Perm, alt_reduced_word, canonical_reduced_word
from .polyring import (
    MPoly,
    ONE_MINUS_Q,
    Q,
    QP_ZERO,
    is_i_symmetric,
    swap_variables,
)


class InvariantViolation(AssertionError):
    """A structural identity of the construction failed: a bug, not bad input.

    Raised explicitly so the check also runs under ``python -O``; it is not a
    ValueError, so callers that report bad input never absorb it.
    """


def divided_difference(f: MPoly, i: int) -> MPoly:
    """(f - s_i f) / (x_i - x_{i+1}), by synthetic division along powers of x_i.

    The numerator vanishes at x_i = x_{i+1}, so the division is exact; a
    nonempty residue at x_i-degree 0 means corrupted input and raises
    InvariantViolation.
    """
    n = f.n
    if not 1 <= i < n:
        raise ValueError(f"divided difference index {i} out of range for n={n}")
    g = f - swap_variables(f, i)
    if not g:
        return MPoly.zero(n)
    ii = i - 1
    levels: dict[int, dict[tuple, object]] = {}
    for e, c in g.terms.items():
        levels.setdefault(e[ii], {})[e] = c
    quotient = {}
    for d in range(max(levels), 0, -1):
        level = levels.get(d)
        if not level:
            continue
        carry = levels.setdefault(d - 1, {})
        for e, c in level.items():
            qe = e[:ii] + (d - 1,) + e[ii + 1:]
            quotient[qe] = c
            ce = qe[:ii + 1] + (qe[ii + 1] + 1,) + qe[ii + 2:]
            acc = carry.get(ce, QP_ZERO) + c
            if acc:
                carry[ce] = acc
            else:
                carry.pop(ce, None)
    if levels.get(0):
        raise InvariantViolation("divided difference left a nonzero remainder")
    return MPoly(n, quotient)


def mul_x(f: MPoly, i: int) -> MPoly:
    """Multiply by x_i."""
    if not 1 <= i <= f.n:
        raise ValueError(f"variable index {i} out of range for n={f.n}")
    ii = i - 1
    return MPoly(f.n, {e[:ii] + (e[ii] + 1,) + e[ii + 1:]: c for e, c in f.terms.items()})


def op_s(f: MPoly, i: int) -> MPoly:
    return swap_variables(f, i)


def op_a(f: MPoly, i: int) -> MPoly:
    """q-commutator of the divided difference with multiplication by x_i."""
    return divided_difference(mul_x(f, i), i) - mul_x(divided_difference(f, i), i).scale(Q)


def op_b(f: MPoly, i: int) -> MPoly:
    """Negated q-commutator of the divided difference with x_{i+1}."""
    return mul_x(divided_difference(f, i), i + 1).scale(Q) - divided_difference(mul_x(f, i + 1), i)


def _sorted_pairwise(f: MPoly, i: int, gt_coeffs, lt_coeffs) -> MPoly:
    """Shared monomial-wise kernel of the randomized operators.

    Each monomial contributes per the exponents (a, b) of (x_i, x_{i+1}):
    for a > b the pair (stay, swap) weights come from gt_coeffs, for a < b
    from lt_coeffs, and equal exponents leave the monomial fixed.
    """
    ii = i - 1
    out: dict[tuple, object] = {}

    def add(e, c):
        acc = out.get(e, QP_ZERO) + c
        if acc:
            out[e] = acc
        else:
            out.pop(e, None)

    for e, c in f.terms.items():
        a, b = e[ii], e[ii + 1]
        if a == b:
            add(e, c)
            continue
        swapped = e[:ii] + (b, a) + e[ii + 2:]
        stay, swap = gt_coeffs if a > b else lt_coeffs
        if stay:
            add(e, c * stay)
        if swap:
            add(swapped, c * swap)
    return MPoly(f.n, out)


def op_r(f: MPoly, i: int) -> MPoly:
    """Descending exponent pairs are swapped with weight q; ascending ones mix
    (1-q)*stay + swap; balanced monomials are fixed."""
    if not 1 <= i < f.n:
        raise ValueError(f"operator index {i} out of range for n={f.n}")
    return _sorted_pairwise(f, i, (QP_ZERO, Q), (ONE_MINUS_Q, 1))


def op_rstar(f: MPoly, i: int) -> MPoly:
    """Transpose family of op_r on the monomial basis: descending pairs swap
    with weight 1, ascending ones mix (1-q)*stay + q*swap."""
    if not 1 <= i < f.n:
        raise ValueError(f"operator index {i} out of range for n={f.n}")
    return _sorted_pairwise(f, i, (QP_ZERO, 1), (ONE_MINUS_Q, Q))


FAMILY_OPS = {"S": op_s, "A": op_a, "B": op_b, "R": op_r, "Rstar": op_rstar}


def apply_partial_w(w: Perm, f: MPoly) -> MPoly:
    """Divided difference along a reduced word of w (word choice immaterial)."""
    for i in reversed(canonical_reduced_word(w)):
        f = divided_difference(f, i)
    return f


def apply_partial_w_alt(w: Perm, f: MPoly) -> MPoly:
    """Same operator along the alternative reduced word; test hook."""
    for i in reversed(alt_reduced_word(w)):
        f = divided_difference(f, i)
    return f


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


@dataclass
class RelationReport:
    """Outcome of an exhaustive operator-identity check; failures are content,
    not exceptions."""

    title: str
    n: int
    degree_bound: int
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, ok: bool, label: str):
        self.checked += 1
        if not ok:
            self.failures.append(label)

    def summary(self) -> str:
        verdict = "PASS" if self.passed else f"FAIL ({len(self.failures)} counterexamples)"
        return f"{self.title}: {self.checked} identities checked, {verdict}"


def check_relations(family: str, n: int, degree_bound: int) -> RelationReport:
    """Check the defining algebra relations of one operator family on every
    monomial of total degree <= degree_bound.

    Braid and far-commutation are checked for all families; the quadratic
    relation O^2 = (1-q) O + q for the deformed families, involutivity for S.
    """
    if family not in FAMILY_OPS:
        raise ValueError(f"unknown family {family!r}; expected one of {sorted(FAMILY_OPS)}")
    if n < 2:
        raise ValueError("need n >= 2")
    op = FAMILY_OPS[family]
    report = RelationReport(f"{family} relations", n, degree_bound)
    for f in monomials_up_to(n, degree_bound):
        mono = str(f)
        for i in range(1, n - 1):
            lhs = op(op(op(f, i), i + 1), i)
            rhs = op(op(op(f, i + 1), i), i + 1)
            report.record(lhs == rhs, f"braid i={i} on {mono}")
        for i in range(1, n):
            for j in range(i + 2, n):
                report.record(
                    op(op(f, j), i) == op(op(f, i), j), f"commute ({i},{j}) on {mono}"
                )
        for i in range(1, n):
            twice = op(op(f, i), i)
            if family == "S":
                report.record(twice == f, f"involution i={i} on {mono}")
            else:
                expected = op(f, i).scale(ONE_MINUS_Q) + f.scale(Q)
                report.record(twice == expected, f"quadratic i={i} on {mono}")
    return report


def commutation_suite(n: int, degree_bound: int) -> RelationReport:
    """Nil-Coxeter relations for the divided differences and their mixed
    commutation with the multiplication operators, all as exact identities
    on monomials of total degree <= degree_bound."""
    if n < 2:
        raise ValueError("need n >= 2")
    report = RelationReport("divided difference commutation", n, degree_bound)
    dd = divided_difference
    for f in monomials_up_to(n, degree_bound):
        mono = str(f)
        for i in range(1, n):
            report.record(not dd(dd(f, i), i), f"square-zero i={i} on {mono}")
            report.record(
                dd(mul_x(f, i), i) == f + mul_x(dd(f, i), i + 1),
                f"d_x_left i={i} on {mono}",
            )
            report.record(
                mul_x(dd(f, i), i) == f + dd(mul_x(f, i + 1), i),
                f"x_d_right i={i} on {mono}",
            )
        for i in range(1, n - 1):
            report.record(
                dd(dd(dd(f, i), i + 1), i) == dd(dd(dd(f, i + 1), i), i + 1),
                f"braid i={i} on {mono}",
            )
        for i in range(1, n):
            for j in range(i + 2, n):
                report.record(
                    dd(dd(f, j), i) == dd(dd(f, i), j), f"commute ({i},{j}) on {mono}"
                )
            for j in range(1, n + 1):
                if abs(i - j) > 1:
                    report.record(
                        dd(mul_x(f, j), i) == mul_x(dd(f, i), j),
                        f"far_x ({i},{j}) on {mono}",
                    )
    return report


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
