"""Verification suites: exhaustive checks of the exact identities the
library is built on.  Each suite yields ``(ok, label)`` pairs that
``SuiteResult.tally`` counts into one summary line per section.  Failures
are collected as report content, except the structural invariants that the
library checks as it builds (``InvariantViolation``), which raise; every
suite is deterministic given n.  A section whose reach is fixed names it in
its title, so a report says what it certifies.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate

from .operators import (
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
from .perm import (
    Partition,
    all_perms,
    coset_weight,
    identity,
    knuth_classes,
    length,
    mult_right_s,
    partition_str,
    partitions_of,
    perm_str,
    standard_tableaux_count,
)
from .polyring import MPoly, ONE_MINUS_Q, Q, QPoly, QP_ONE, QP_ZERO, is_i_symmetric
from .records import Frozen
from .rep import (
    coinvariant_traces_from_graded,
    descent_column_formula,
    descent_pairs,
    generator_matrix,
    graded_character,
    parallel_map,
    upstairs_class_traces,
    weight_character,
)
from .schubert import build_schubert_table, expand_homogeneous, monk_products, x_action_on_schubert

# The highest variable power in the a-minus-r suite's difference identity.
A_MINUS_R_MAX_POWER = 6

# The monomial degree up to which the Z[q]-linear operator identities are
# checked: the Hecke relations, the divided-difference commutation and the
# A - R factorization at 4; the fixed spaces of A_i and R_i at 6.  At n=7 the
# kernels suite takes 0.6 to 0.9 s at degree 6, the relations suite about 1 s
# at degree 4 but 5 to 9 s at degree 6 (2-core VM).
OPERATOR_CHECK_DEGREE = 4
KERNEL_CHECK_DEGREE = 6

# The operator families whose Hecke relations the relations suite checks, in
# the order it reports them.
RELATION_FAMILIES = {"S": op_s, "A": op_a, "B": op_b, "R": op_r, "Rstar": op_rstar}

# Largest n at which the schubert-recursion suite also expands every Monk
# product and every x_i multiple of a class by the divided-difference sweep.
MONK_CROSS_CHECK_MAX_N = 4

# Largest n at which the characters suite also derives rho1's coinvariant
# traces from its traces on every monomial.
DIRECT_CROSS_CHECK_MAX_N = 4


class SuiteResult(Frozen):
    """One suite's report: its fields are set once, and ``tally`` grows the
    two lists in place."""

    FIELDS = ("name", "lines", "failures")

    def __init__(self, name: str, lines: list[str] | None = None, failures: list[str] | None = None):
        self._set(name, [] if lines is None else lines, [] if failures is None else failures)

    @property
    def passed(self) -> bool:
        return not self.failures

    def tally(self, title: str, checks, prefix: str = "") -> int:
        """Record every failed label of ``checks``, ``(ok, label)`` pairs,
        after ``prefix``, and add the line ``title: N identities checked``
        with the verdict; returns N."""
        checked = failed = 0
        for ok, label in checks:
            checked += 1
            if not ok:
                failed += 1
                self.failures.append(prefix + label)
        verdict = f"FAIL ({failed} counterexamples)" if failed else "PASS"
        self.lines.append(f"{title}: {checked} identities checked, {verdict}")
        return checked

    def render(self) -> str:
        out = [f"[{'PASS' if self.passed else 'FAIL'}] {self.name}"]
        out.extend(f"  {line}" for line in self.lines)
        out.extend(f"  counterexample: {f}" for f in self.failures[:20])
        if len(self.failures) > 20:
            out.append(f"  ... {len(self.failures) - 20} more")
        return "\n".join(out)


def relation_checks(op, n: int, degree_bound: int, involution: bool = False):
    """The defining algebra relations of one operator family, as
    ``(ok, label)`` pairs, on every monomial of total degree <= degree_bound.

    Braid and far-commutation for every family; then O^2 = 1 for an
    involution, else the quadratic relation O^2 = (1-q) O + q.  Each first
    image O_i f is computed once per monomial and shared by all three kinds
    of check.
    """
    for f in monomials_up_to(n, degree_bound):
        mono = str(f)
        first = [None] + [op(f, i) for i in range(1, n)]
        for i in range(1, n - 1):
            lhs = op(op(first[i], i + 1), i)
            rhs = op(op(first[i + 1], i), i + 1)
            yield lhs == rhs, f"braid i={i} on {mono}"
        for i in range(1, n):
            for j in range(i + 2, n):
                yield op(first[j], i) == op(first[i], j), f"commute ({i},{j}) on {mono}"
        for i in range(1, n):
            twice = op(first[i], i)
            if involution:
                yield twice == f, f"involution i={i} on {mono}"
            else:
                expected = first[i].scale(ONE_MINUS_Q) + f.scale(Q)
                yield twice == expected, f"quadratic i={i} on {mono}"


def commutation_checks(n: int, degree_bound: int):
    """Nil-Coxeter relations for the divided differences and their mixed
    commutation with the multiplication operators, as ``(ok, label)`` pairs
    of exact identities on monomials of total degree <= degree_bound."""
    dd = divided_difference
    for f in monomials_up_to(n, degree_bound):
        mono = str(f)
        for i in range(1, n):
            yield not dd(dd(f, i), i), f"square-zero i={i} on {mono}"
            yield dd(mul_x(f, i), i) == f + mul_x(dd(f, i), i + 1), f"d_x_left i={i} on {mono}"
            yield mul_x(dd(f, i), i) == f + dd(mul_x(f, i + 1), i), f"x_d_right i={i} on {mono}"
        for i in range(1, n - 1):
            yield (dd(dd(dd(f, i), i + 1), i) == dd(dd(dd(f, i + 1), i), i + 1),
                   f"braid i={i} on {mono}")
        for i in range(1, n):
            for j in range(i + 2, n):
                yield dd(dd(f, j), i) == dd(dd(f, i), j), f"commute ({i},{j}) on {mono}"
            for j in range(1, n + 1):
                if abs(i - j) > 1:
                    yield dd(mul_x(f, j), i) == mul_x(dd(f, i), j), f"far_x ({i},{j}) on {mono}"


def suite_relations(n: int) -> SuiteResult:
    res = SuiteResult("relations")
    d = OPERATOR_CHECK_DEGREE
    for family, op in RELATION_FAMILIES.items():
        res.tally(f"{family} relations, degree <= {d}",
                  relation_checks(op, n, d, family == "S"), f"{family}: ")
    return res


def suite_commutation(n: int) -> SuiteResult:
    res = SuiteResult("commutation")
    d = OPERATOR_CHECK_DEGREE
    res.tally(f"divided difference commutation, degree <= {d}", commutation_checks(n, d))
    return res


def suite_schubert_recursion(n: int) -> SuiteResult:
    res = SuiteResult("schubert-recursion")
    table = build_schubert_table(n)
    polys = table.polys
    zero = MPoly.zero(n)
    res.tally("divided-difference recursion", (
        (divided_difference(polys[w], i) == (polys[mult_right_s(w, i)] if w[i - 1] > w[i] else zero),
         f"recursion at w={perm_str(w)}, i={i}")
        for w in all_perms(n) for i in range(1, n)))
    partial_sums = accumulate(MPoly.variable(n, i) for i in range(1, n))
    res.tally("linear classes x1+...+xi", (
        (polys[mult_right_s(identity(n), i)] == partial_sum, f"linear class at i={i}")
        for i, partial_sum in enumerate(partial_sums, 1)))
    res.tally("graded dimensions match the inversion generating function", (
        (len(table.basis(k)) == expect, f"basis size at degree {k}: {len(table.basis(k))} vs {expect}")
        for k, expect in enumerate(_mahonian(n))))

    def monk_checks():
        for i in range(1, n + 1):
            si_class = table[mult_right_s(identity(n), i)] if i < n else None
            for w in all_perms(n):
                k = length(w) + 1
                if si_class is not None:
                    vec = expand_homogeneous(si_class * table[w], k, table)
                    support = monk_products(i, w)
                    yield (vec.support() == support and all(vec[z] == QP_ONE for z in support),
                           f"monk at i={i}, w={perm_str(w)}")
                plus, minus = x_action_on_schubert(i, w)
                signed = Counter(plus)
                signed.subtract(minus)
                xvec = expand_homogeneous(mul_x(table[w], i), k, table)
                yield (xvec.coords == {z: QPoly((v,)) for z, v in signed.items() if v},
                       f"x-action at i={i}, w={perm_str(w)}")

    res.tally(f"monk / x-action against polynomial expansion (runs for n <= {MONK_CROSS_CHECK_MAX_N})",
              monk_checks() if n <= MONK_CROSS_CHECK_MAX_N else ())
    return res


def suite_descent_columns(n: int) -> SuiteResult:
    """rho1's descent columns against ``descent_column_formula``, one by
    one: those of degree k with 2k <= top are Monk-read, those with
    2k > top dual-derived from them (``rep.generator_matrix``), so the
    formula checks both routes.  Then every rho1 and rho2 generator is
    built, and with it each column's shape is checked by
    ``generator_matrix``, which raises on a bad one, so every column it
    returns counts as one passed check."""
    res = SuiteResult("descent-columns")
    table = build_schubert_table(n)
    res.tally("closed-form descent columns", (
        (generator_matrix("rho1", i, length(w), table).columns[w] == descent_column_formula(i, w),
         f"closed form at i={i}, w={perm_str(w)}")
        for i, w in descent_pairs(n)))
    res.tally("column support and diagonal structure", (
        (True, "")
        for action in ("rho1", "rho2") for i in range(1, n) for k in range(table.max_degree + 1)
        for _ in generator_matrix(action, i, k, table).basis))
    return res


def suite_a_minus_r(n: int) -> SuiteResult:
    res = SuiteResult("a-minus-r")

    def power_checks():
        for i in range(1, n):
            # m = 0 input is a constant, fixed by both operators: difference 0.
            yield op_a(MPoly.const(n, 1), i) == op_r(MPoly.const(n, 1), i), f"constant case i={i}"
            for j in range(1, n + 1):
                for m in range(1, A_MINUS_R_MAX_POWER + 1):
                    f = MPoly.variable(n, j) ** m
                    rhs = divided_difference(MPoly.variable(n, j) ** (m + 1), i).scale(ONE_MINUS_Q)
                    yield op_a(f, i) - op_r(f, i) == rhs, f"power identity i={i}, j={j}, m={m}"

    def factor_checks():
        # Both checks are Z-linear in f (the witness of a Z-combination is the
        # same combination of witnesses), so every monomial of degree <=
        # OPERATOR_CHECK_DEGREE covers every int polynomial of those degrees.
        for f in monomials_up_to(n, OPERATOR_CHECK_DEGREE):
            for i in range(1, n):
                diff, witness = a_minus_r_factor(i, f)
                yield witness.scale(ONE_MINUS_Q) == diff, f"factorization i={i} on {f}"
                # Every input has int coefficients, so its witness has no q.
                yield all(c.degree <= 0 for c in witness.terms.values()), f"q-free witness i={i} on {f}"

    res.tally(f"difference on variable powers and constants, power <= {A_MINUS_R_MAX_POWER}",
              power_checks())
    res.tally(f"symmetric (1-q)-divisible difference with q-free witness, "
              f"degree <= {OPERATOR_CHECK_DEGREE}", factor_checks())
    return res


def kernel_checks(n: int, degree_bound: int):
    """The fixed-space identities of A_i and R_i, as ``(ok, label)`` pairs,
    on every monomial x^e of total degree <= degree_bound: for each i and
    T in (A, R), the image T_i x^e stays in its block, the monomials that
    agree with e off positions i and i+1 and have its degree; (a)
    T_i x^e + q x^e is i-symmetric; and (b), when e_i <= e_{i+1}, T_i fixes
    the orbit sum x^e + x^(s_i e), or x^e itself when e_i = e_{i+1}.
    Each image is computed once, over Z[q]."""
    exps = [next(iter(f.terms)) for f in monomials_up_to(n, degree_bound)]
    for i in range(1, n):
        def block(t):
            return t[:i - 1] + t[i + 1:] + (sum(t),)

        for name, op in (("A", op_a), ("R", op_r)):
            images = {e: op(MPoly.monomial(n, e), i) for e in exps}
            for e, image in images.items():
                leaks = ", ".join(str(t) for t in image.terms if block(t) != block(e))
                yield not leaks, f"{name} image of x^{e} at i={i} leaves its block: {leaks}"
                yield (is_i_symmetric(i, image + MPoly.monomial(n, e, Q)),
                       f"{name} image of x^{e} at i={i} plus q x^{e} is not i-symmetric")
                if e[i - 1] <= e[i]:
                    orbit = {e, e[:i - 1] + (e[i], e[i - 1]) + e[i + 1:]}
                    moved = sum((images[t] for t in orbit), MPoly.zero(n))
                    yield (moved == MPoly(n, dict.fromkeys(orbit, QP_ONE)),
                           f"{name} at i={i} does not fix the orbit sum of x^{e}")


def suite_kernels(n: int) -> SuiteResult:
    """The fixed space of A_i and of R_i on the polynomials of degree <=
    ``KERNEL_CHECK_DEGREE`` is exactly the i-symmetric polynomials S, over
    Z[q] and at every rational q other than -1, by the checks of
    ``kernel_checks``:

    (b) T fixes every orbit sum, and these span S, so S lies in Fix(T);
    (a) (T + q) x^e lies in S for every e, so Im(T + q) lies in S;
    so T v = v gives (1 + q) v = (T + q) v in S, and v lies in S.
    """
    res = SuiteResult("kernels")
    res.tally(f"A and R fixed spaces = i-symmetric polynomials, over Z[q], "
              f"degree <= {KERNEL_CHECK_DEGREE}", kernel_checks(n, KERNEL_CHECK_DEGREE))
    return res


@lru_cache(maxsize=None)
def symmetric_group_character(lam: Partition, mu: Partition) -> int:
    """Irreducible symmetric-group character value at cycle type mu, by
    recursive border-strip removal on first-column hook lengths.

    Independent integer oracle for the q = 1 specializations.
    """
    n = sum(lam)
    if sum(mu) != n:
        raise ValueError(f"sizes differ: {lam} vs {mu}")
    if n == 0:
        return 1
    m = mu[0]
    rest = mu[1:]
    count = len(lam)
    beta = [lam[idx] + (count - 1 - idx) for idx in range(count)]
    beta_set = set(beta)
    total = 0
    for bval in beta:
        new = bval - m
        if new < 0 or new in beta_set:
            continue
        height = sum(1 for x in beta if new < x < bval)
        new_beta = sorted((set(beta) - {bval}) | {new}, reverse=True)
        new_lam = tuple(v - (count - 1 - idx) for idx, v in enumerate(new_beta))
        new_lam = tuple(v for v in new_lam if v > 0)
        total += (-1) ** height * symmetric_group_character(new_lam, rest)
    return total


def suite_knuth(n: int) -> SuiteResult:
    """Coset-weight sums over each Knuth class at every mu: equal within a
    shape, and the border-strip character at q = 1."""
    res = SuiteResult("knuth")
    mus = partitions_of(n)

    def checks():
        for shape, classes in knuth_classes(n):
            shape_name = partition_str(shape)
            yield len(classes) == standard_tableaux_count(shape), f"class count at shape {shape_name}"
            for mu in mus:
                values = [sum((coset_weight(w, mu) for w in cls), QP_ZERO) for cls in classes]
                yield (all(v == values[0] for v in values),
                       f"class independence at shape {shape_name}, mu={partition_str(mu)}")
                at_one, oracle = values[0].evaluate(1), symmetric_group_character(shape, mu)
                yield (at_one == oracle, f"q=1 character at shape {shape_name}, "
                                         f"mu={partition_str(mu)}: {at_one} vs {oracle}")

    res.tally(f"knuth-class character sums over {len(mus)} types", checks())
    return res


CHARACTER_COLUMNS = ("rho1", "rho2", "weights")


def _character_degrees(args) -> list[list[tuple[QPoly, ...]]]:
    """One job of ``character_table``: the rows of the given degrees, each a
    cell per mu, one value per requested column."""
    n, columns, degrees = args
    return [
        [
            tuple(
                (weight_character(mu, k, n) if column == "weights"
                 else graded_character(column, mu, k, n)).value
                for column in columns
            )
            for mu in partitions_of(n)
        ]
        for k in degrees
    ]


def character_table(
    n: int, columns=CHARACTER_COLUMNS, jobs: int = 1
) -> dict[tuple[int, Partition], tuple[QPoly, ...]]:
    """The requested character columns (any of ``CHARACTER_COLUMNS``: the
    two actions' graded characters and the weight sum) at every degree k and
    type mu, keyed ``(k, mu)`` in that order, one value per column.

    Each dual pair of degrees {k, top - k} is one job for ``parallel_map``
    (``_character_degrees``), so a worker builds rho1's generator matrices
    only at the pair's lower degree k: its rho1 cells at degree top - k are
    the twists of those at k that it has just computed and memoized
    (``rep.graded_character``; the ``rep`` module docstring proves the
    duality), and rho2's cells read no matrix.  The pairs are handed out
    from the middle degree down, largest first, and the rows are put back in
    degree order."""
    top = n * (n - 1) // 2
    pairs = [(k,) if 2 * k == top else (k, top - k) for k in range(top // 2, -1, -1)]
    rows = {}
    for pair, part in zip(pairs, parallel_map(_character_degrees, [(n, columns, p) for p in pairs], jobs)):
        rows.update(zip(pair, part))
    return {(k, mu): cell for k in range(top + 1) for mu, cell in zip(partitions_of(n), rows[k])}


def suite_characters(n: int) -> SuiteResult:
    """Both traces against the combinatorial weight sum, every degree and
    type; then the trace-equivalence certificate on the same rho1 column.

    rho1's cells above the middle degree are twists of its lower cells
    (``rep.graded_character``, proved in the ``rep`` module docstring),
    while rho2's and the weight sum's are computed at every cell; so the
    first line sets a computed twin beside every derived rho1 cell, and a
    wrong twist would fail it.

    The certificate compares, at every (mu, k), rho1's quotient trace at T_mu
    (its graded character, the table's rho1 column) with rho2's coinvariant
    trace derived from its upstairs traces (``rep.upstairs_class_traces``,
    one orbit per multiplicity type), which never enters the Schubert basis.

    Nothing more needs comparing.  The traces at the T_mu fix those at every
    T_v through one linear map, the class polynomials, applied to both sides
    alike.  ``rep.coinvariant_traces_from_graded`` divides the symmetric
    Hilbert series prod_{i<=n} 1/(1 - t^i) out by multiplying with
    prod_{i<=n} (1 - t^i), its inverse, which has integer coefficients; so
    the division and the convolution with the series are inverse bijections
    over Z[q]: rho1's full-component traces, its quotient traces convolved
    with the series by ideal invariance, equal rho2's exactly when every
    pair agrees.

    For n <= ``DIRECT_CROSS_CHECK_MAX_N`` rho1's quotient traces are also
    compared with the coinvariant traces derived from its upstairs traces on
    every monomial; above it that direct route is too slow, and its line
    counts no checks.
    """
    res = SuiteResult("characters")
    table = character_table(n)
    res.tally("trace = trace = weight sum", (
        (len(set(values)) == 1, f"k={k}, mu={partition_str(mu)}: {' / '.join(map(str, values))}")
        for (k, mu), values in table.items()))

    top = n * (n - 1) // 2

    def pairs(action):
        """(k, mu, rho1's quotient trace, the coinvariant trace derived from
        ``action``'s upstairs traces) at every cell of the table."""
        derived = coinvariant_traces_from_graded(upstairs_class_traces(n, action, top), n, top)
        return ((k, mu, t, derived[(mu, k)]) for (k, mu), (t, _, _) in table.items())

    res.tally(f"rho1 quotient vs upstairs-derived traces at the classes T_mu "
              f"(runs for n <= {DIRECT_CROSS_CHECK_MAX_N})", (
        (t == d, f"quotient vs upstairs-derived rho1 trace at T_mu, mu={mu}, degree {k}: {t} vs {d}")
        for k, mu, t, d in (pairs("rho1") if n <= DIRECT_CROSS_CHECK_MAX_N else ())))
    res.tally("rho1 vs rho2 coinvariant traces at the classes T_mu", (
        (t == d, f"coinvariant trace mismatch at mu={partition_str(mu)}, k={k}: {t} vs {d}")
        for k, mu, t, d in pairs("rho2")))
    return res


SUITES = {
    "relations": suite_relations,
    "commutation": suite_commutation,
    "schubert-recursion": suite_schubert_recursion,
    "descent-columns": suite_descent_columns,
    "a-minus-r": suite_a_minus_r,
    "kernels": suite_kernels,
    "characters": suite_characters,
    "knuth": suite_knuth,
}


def run_suites(names, n: int) -> list[SuiteResult]:
    """Run the named suites, each once, in the order first named; ``all``
    among the names runs every suite in ``SUITES`` order."""
    names = SUITES if "all" in names else dict.fromkeys(names)
    return [SUITES[name](n) for name in names]


def _mahonian(n: int) -> list[int]:
    """Coefficients of prod_{i<n} (1 + t + ... + t^i): permutation counts by
    inversion number, computed without touching the permutations."""
    coeffs = [1]
    for i in range(1, n):
        nxt = [0] * (len(coeffs) + i)
        for d, v in enumerate(coeffs):
            for s in range(i + 1):
                nxt[d + s] += v
        coeffs = nxt
    return coeffs

