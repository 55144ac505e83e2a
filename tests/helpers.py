"""Shared test oracles: exact Fraction linear algebra, dense fixed-space
dimensions of a generator on one degree, ideal membership,
polynomials specialized at a rational q, the divided difference by synthetic
division and its chains d_w, permutation and matrix products, the
variable-permutation action, and the trace recursions over every T_v by
left descents -- on polynomials and on the generator matrices or exponent
orbits -- that the library's traces at the T_mu, spread by class
polynomials, are compared against; the graded characters and the diagonal
scaling at descents by the polynomial route; the coset decomposition and
valley weights whose product is the oracle of ``perm.coset_weight``; the
symmetric Hilbert dimensions, whose convolution undoes the coinvariant
deconvolution, and the class-polynomial spread summed afresh for every T_v;
and a stand-in process pool that records its size."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb

from qschub.operators import divided_difference, monomials_up_to, op_a, op_r, op_s
from qschub.perm import (
    Partition,
    Perm,
    all_perms,
    canonical_reduced_word,
    check_partition,
    class_polynomial,
    has_left_descent,
    identity,
    mult_left_s,
    partition_word,
    partitions_of,
    perms_by_length,
)
from qschub.polyring import MPoly, QP_ONE, QP_ZERO, QPoly, minus_q_power, swap_variables
from qschub.rep import (
    RepMatrix,
    apply_action_word,
    coordinate_at,
    descent_pairs,
    generator_matrix,
    orbit_of_type,
    orbit_type_counts,
)
from qschub.schubert import build_schubert_table


def solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]):
    """Solve A x = b over the rationals; returns None if inconsistent.

    Gaussian elimination on the augmented matrix; free columns get 0.
    """
    m = len(rows)
    cols = len(rows[0]) if rows else 0
    aug = [[Fraction(v) for v in row] + [Fraction(rhs[r])] for r, row in enumerate(rows)]
    pivots = []
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, m) if aug[r][col]), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        inv = aug[rank][col]
        aug[rank] = [v / inv for v in aug[rank]]
        for r in range(m):
            if r != rank and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[rank])]
        pivots.append(col)
        rank += 1
    for r in range(rank, m):
        if aug[r][cols]:
            return None
    x = [Fraction(0)] * cols
    for r, col in enumerate(pivots):
        x[col] = aug[r][cols]
    return x


def _rank(mat: list[list[Fraction]]) -> int:
    """The rank of a matrix over the rationals, by Gaussian elimination."""
    rows = [row[:] for row in mat]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col]
        rows[rank] = [v / inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def dense_fixed_space_dim(op, i: int, exps, r) -> int:
    """The fixed-space dimension of ``op(., i)`` on the span of the monomials
    x^e, e in ``exps``, at q = r: the corank of the whole (op - 1) matrix
    over the rationals, one dense matrix with no block structure."""
    index = {e: pos for pos, e in enumerate(exps)}
    size = len(exps)
    mat = [[-Fraction(row == col) for col in range(size)] for row in range(size)]
    for col, e in enumerate(exps):
        for t, c in op(MPoly.monomial(len(e), e), i).terms.items():
            mat[index[t]][col] += c.evaluate(Fraction(r))
    return size - _rank(mat)


def specialize_q(f: MPoly, r) -> dict[tuple[int, ...], Fraction]:
    """Every coefficient of f evaluated at q = r, exactly; zero values
    omitted."""
    out = {e: Fraction(c.evaluate(Fraction(r))) for e, c in f.terms.items()}
    return {e: v for e, v in out.items() if v}


def divided_difference_oracle(f: MPoly, i: int) -> MPoly:
    """(f - s_i f) / (x_i - x_{i+1}) by synthetic division along powers of
    x_i, independent of the library's per-exponent-pair closed form.  The
    division is exact; a residue at x_i-degree 0 raises AssertionError."""
    n, ii = f.n, i - 1
    levels: dict[int, dict[tuple, QPoly]] = {}
    for e, c in (f - swap_variables(f, i)).terms.items():
        levels.setdefault(e[ii], {})[e] = c
    quotient = {}
    for d in range(max(levels, default=0), 0, -1):
        carry = levels.setdefault(d - 1, {})
        for e, c in levels.get(d, {}).items():
            qe = e[:ii] + (d - 1,) + e[ii + 1:]
            quotient[qe] = c
            ce = qe[:ii + 1] + (qe[ii + 1] + 1,) + qe[ii + 2:]
            acc = carry.get(ce, QP_ZERO) + c
            if acc:
                carry[ce] = acc
            else:
                carry.pop(ce, None)
    if levels.get(0):
        raise AssertionError("divided difference left a nonzero remainder")
    return MPoly(n, quotient)


def apply_partial_w(w: Perm, f: MPoly) -> MPoly:
    """The divided difference d_w applied to f, along the canonical reduced
    word of w: the chain that the duality oracles read Schubert coordinates
    from, at the constant term."""
    for i in reversed(canonical_reduced_word(w)):
        f = divided_difference(f, i)
    return f


def act_variable_permutation(w: Perm, f: MPoly) -> MPoly:
    """Substitute x_i -> x_{w(i)} for a permutation w in one-line notation."""
    out = {}
    for e, c in f.terms.items():
        ne = [0] * f.n
        for pos, val in enumerate(w):
            ne[val - 1] = e[pos]
        out[tuple(ne)] = c
    return MPoly(f.n, out)


def compose(u: Perm, v: Perm) -> Perm:
    """(u o v)(i) = u(v(i))."""
    return tuple(u[v[i] - 1] for i in range(len(u)))


def from_word(n: int, word) -> Perm:
    """The product s_{a_1} o ... o s_{a_k} for the index word (a_1, ..., a_k)."""
    w = identity(n)
    for a in reversed(word):
        w = mult_left_s(w, a)
    return w


def valley_weight(w: Perm) -> QPoly:
    """(-q)^m when w is strictly decreasing then strictly increasing with a
    descending prefix of length m; the zero polynomial otherwise."""
    n = len(w)
    p = w.index(1)  # the valley, if the shape holds, is at the minimum
    for t in range(p):
        if w[t] <= w[t + 1]:
            return QP_ZERO
    for t in range(p, n - 1):
        if w[t] >= w[t + 1]:
            return QP_ZERO
    return minus_q_power(p)


def block_ranges(mu: Partition) -> list[range]:
    """Position blocks of mu: 0-based ranges covering 0..n-1."""
    out = []
    o = 0
    for part in mu:
        out.append(range(o, o + part))
        o += part
    return out


@dataclass(frozen=True)
class CosetDecomposition:
    """w = r o (w_1 x ... x w_t) with r increasing inside every mu-block."""

    mu: Partition
    r: Perm
    blocks: tuple[Perm, ...]


def coset_decompose(w: Perm, mu) -> CosetDecomposition:
    """Factor w over the Young subgroup of mu-blocks of positions.

    Each block entry is the standardization of w on that block; r sorts the
    block values increasingly and is the minimal-length coset representative.
    """
    mu = check_partition(mu, len(w))
    blocks = []
    r: list[int] = []
    for rng in block_ranges(mu):
        vals = [w[p] for p in rng]
        order = sorted(vals)
        blocks.append(tuple(order.index(v) + 1 for v in vals))
        r.extend(order)
    return CosetDecomposition(mu, tuple(r), tuple(blocks))


def recompose(dec: CosetDecomposition) -> Perm:
    """r o (w_1 x ... x w_t) for a coset decomposition."""
    sigma: list[int] = []
    for block in dec.blocks:
        offset = len(sigma)
        sigma.extend(offset + v for v in block)
    return compose(dec.r, tuple(sigma))


def identity_matrix(k: int, basis: tuple[Perm, ...]) -> RepMatrix:
    return RepMatrix("identity", k, basis, {w: {w: QP_ONE} for w in basis})


def matrix_product(a: RepMatrix, b: RepMatrix) -> RepMatrix:
    """a @ b over Z[q], column by column: the column of w is a applied to
    b's column of w."""
    columns = {}
    for w, col in b.columns.items():
        image: dict[Perm, QPoly] = {}
        for x, c in col.items():
            for z, m in a.columns[x].items():
                image[z] = image.get(z, QP_ZERO) + c * m
        columns[w] = {z: c for z, c in image.items() if c}
    return RepMatrix("product", a.k, a.basis, columns)


def matrix_trace(m: RepMatrix) -> QPoly:
    """The sum of the diagonal entries of m, read from its columns."""
    return sum((col[w] for w, col in m.columns.items() if w in col), QP_ZERO)


def monomial_exponents(n: int, degree: int) -> list[tuple[int, ...]]:
    out = []
    for combo in combinations_with_replacement(range(n), degree):
        e = [0] * n
        for v in combo:
            e[v] += 1
        out.append(tuple(e))
    return sorted(out, reverse=True)


def elementary_symmetric(n: int, t: int) -> MPoly:
    out = MPoly.zero(n)
    from itertools import combinations

    for subset in combinations(range(1, n + 1), t):
        term = MPoly.const(n, 1)
        for i in subset:
            term = term * MPoly.variable(n, i)
        out = out + term
    return out


def ideal_spanning_columns(n: int, degree: int) -> list[dict[tuple[int, ...], Fraction]]:
    """Spanning set of the degree-`degree` slice of the ideal generated by the
    positive-degree symmetric polynomials, as rational coefficient dicts."""
    cols = []
    for t in range(1, n + 1):
        if t > degree:
            break
        e_t = elementary_symmetric(n, t)
        for mono in monomial_exponents(n, degree - t):
            shifted = e_t * MPoly.monomial(n, mono)
            cols.append({e: Fraction(c.as_int()) for e, c in shifted.terms.items()})
    return cols


def in_ideal_rational(poly: dict[tuple[int, ...], Fraction], n: int, degree: int) -> bool:
    """Exact membership of a homogeneous rational polynomial in the symmetric
    ideal slice, via a linear solve against the spanning set."""
    if not poly:
        return True
    cols = ideal_spanning_columns(n, degree)
    monos = monomial_exponents(n, degree)
    index = {e: i for i, e in enumerate(monos)}
    rows = [[col.get(e, Fraction(0)) for col in cols] for e in monos]
    rhs = [Fraction(0)] * len(monos)
    for e, v in poly.items():
        rhs[index[e]] = v
    return solve_exact(rows, rhs) is not None


@lru_cache(maxsize=None)
def left_descent_steps(n: int) -> tuple[tuple[Perm, int, Perm], ...]:
    """``(v, i, s_i v)`` for every non-identity v in length order, with i the
    first left descent of v: ``T_v = T_i T_{s_i v}``, and ``s_i v`` is shorter
    than v, so it is the identity or listed earlier."""
    steps = []
    for bucket in perms_by_length(n)[1:]:
        for v in bucket:
            i = next(i for i in range(1, n) if has_left_descent(v, i))
            steps.append((v, i, mult_left_s(v, i)))
    return tuple(steps)


def graded_character_oracle(action: str, mu, k: int, n: int) -> QPoly:
    """Trace of the element of ``partition_word(mu)`` on the degree-k
    Schubert basis by the polynomial route: the whole word applied upstairs
    to each basis Schubert polynomial, the image's coordinate at its class
    read by ``coordinate_at``."""
    table = build_schubert_table(n)
    word = partition_word(mu)
    value = QP_ZERO
    for w in table.basis(k):
        value = value + coordinate_at(apply_action_word(action, word, table[w]), w)
    return value


def diagonal_scaling_samples(n: int, samples: int = 3, seed: int = 7):
    """The diagonal scaling at descents by the polynomial route: per descent
    pair (i, w), ``samples`` seeded random full-length rho1 words applied
    upstairs to the Schubert polynomial of w, the image's coordinate at w
    read by ``coordinate_at`` before and after one more ``op_a(., i)``.
    Returns ``(i, w, word, before, after)`` tuples; the property is
    ``after == -q * before``, which also needs rho1 to preserve the ideal."""
    rng = random.Random(seed)
    table = build_schubert_table(n)
    out = []
    for i, w in descent_pairs(n):
        for _ in range(samples):
            pi = list(identity(n))
            rng.shuffle(pi)
            word = canonical_reduced_word(tuple(pi))
            image = apply_action_word("rho1", word, table[w])
            out.append((i, w, word, coordinate_at(image, w), coordinate_at(op_a(image, i), w)))
    return out


def quotient_basis_traces_oracle(n: int) -> dict[tuple[Perm, int], QPoly]:
    """rho1 traces on the degree-k Schubert bases by the polynomial route:
    per basis class, its Schubert polynomial pushed through ``op_a`` by the
    left-descent recursion, each image's coordinate at the class read by
    ``coordinate_at``."""
    table = build_schubert_table(n)
    traces: dict[tuple[Perm, int], QPoly] = {
        (v, k): QP_ZERO for v in all_perms(n) for k in range(table.max_degree + 1)
    }
    for k in range(table.max_degree + 1):
        for w in table.basis(k):
            traces[(identity(n), k)] += QP_ONE
            images: dict[Perm, MPoly] = {identity(n): table[w]}
            for v, i, u in left_descent_steps(n):
                images[v] = op_a(images[u], i)
                traces[(v, k)] += coordinate_at(images[v], w)
    return traces


def quotient_traces_by_descent_steps(n: int) -> dict[tuple[Perm, int], QPoly]:
    """rho1 traces on the degree-k Schubert bases of every T_v as products of
    the generator matrices along the left-descent recursion, without class
    polynomials: per basis class, the recursion runs on sparse vectors from
    the unit vector at the class."""
    table = build_schubert_table(n)
    traces: dict[tuple[Perm, int], QPoly] = {}
    for k in range(table.max_degree + 1):
        columns = {}
        for i in range(1, n):
            matrix = generator_matrix("rho1", i, k, table)
            columns[i] = matrix.columns
        for v in all_perms(n):
            traces[(v, k)] = QP_ZERO
        for w in table.basis(k):
            traces[(identity(n), k)] += QP_ONE
            images = {identity(n): {w: QP_ONE}}
            for v, i, u in left_descent_steps(n):
                image: dict[Perm, QPoly] = {}
                for x, c in images[u].items():
                    for z, m in columns[i][x].items():
                        image[z] = image.get(z, QP_ZERO) + c * m
                images[v] = {z: c for z, c in image.items() if c}
                traces[(v, k)] += images[v].get(w, QP_ZERO)
    return traces


def upstairs_graded_traces_oracle(n: int, action: str, max_degree: int) -> dict[tuple[Perm, int], QPoly]:
    """Full-component traces by the per-monomial route: every monomial of
    degree <= max_degree pushed through the action's operator by the
    left-descent recursion, its own coefficient summed."""
    return _descent_step_traces(
        n, action, [(next(iter(f.terms)), {f.homogeneous_degree(): 1}) for f in monomials_up_to(n, max_degree)],
        max_degree,
    )


def upstairs_traces_by_descent_steps(n: int, action: str, max_degree: int) -> dict[tuple[Perm, int], QPoly]:
    """Full-component traces of every T_v for rho2 or symq1 without class
    polynomials: one exponent orbit per multiplicity type lam, weighted by
    ``orbit_type_counts``, each monomial run through the left-descent
    recursion."""
    weighted = [
        (e, {d: m for d, m in enumerate(weights) if m})
        for lam, weights in orbit_type_counts(n, max_degree).items()
        for e in orbit_of_type(lam)
    ]
    return _descent_step_traces(n, action, weighted, max_degree)


def _descent_step_traces(n, action, weighted, max_degree):
    """sum over (e, {d: m}) of m times the coefficient of x^e in T_v x^e,
    added to the degree-d trace of every T_v."""
    op = {"rho1": op_a, "rho2": op_r, "symq1": op_s}[action]
    traces: dict[tuple[Perm, int], QPoly] = {
        (v, d): QP_ZERO for v in all_perms(n) for d in range(max_degree + 1)
    }
    for e, weights in weighted:
        images: dict[Perm, MPoly] = {identity(n): MPoly.monomial(n, e)}
        coefficients = {identity(n): QP_ONE}
        for v, i, u in left_descent_steps(n):
            images[v] = op(images[u], i)
            coefficients[v] = images[v].terms.get(e, QP_ZERO)
        for v, c in coefficients.items():
            for d, m in weights.items():
                traces[(v, d)] += c * m
    return traces


def module_trace_oracle(lam: Partition, mu: Partition) -> QPoly:
    """tr(T_mu | M^lam) for the sorting action on the orbit module of type
    lam, by a closed form that applies no operator: the sum, over the
    nonnegative integer matrices A with row sums lam and column sums mu, of
    prod_j (1 - q)^(nnz(column j of A) - 1).

    The matrices index the double cosets S_lam \\ S_n / S_mu; column j is
    the type of the module that block j of T_mu, a Coxeter element of
    S_{mu_j}, acts on, with trace (1 - q)^(parts - 1).  It is checked
    against the per-orbit push of ``rep.upstairs_class_traces``, not
    derived from it."""
    total = QP_ZERO

    def fill(j: int, rows: tuple[int, ...], weight: QPoly):
        nonlocal total
        if j == len(mu):
            total = total + weight
            return
        for column in _bounded_compositions(mu[j], rows):
            m = sum(1 for a in column if a) - 1
            power = QPoly(tuple((-1) ** t * comb(m, t) for t in range(m + 1)))
            fill(j + 1, tuple(r - a for r, a in zip(rows, column)), weight * power)

    fill(0, tuple(lam), QP_ONE)
    return total


def _bounded_compositions(total: int, caps: tuple[int, ...]):
    """The tuples c with 0 <= c_i <= caps_i and sum total."""
    if not caps:
        if total == 0:
            yield ()
        return
    for first in range(min(total, caps[0]) + 1):
        for rest in _bounded_compositions(total - first, caps[1:]):
            yield (first,) + rest


def upstairs_class_traces_oracle(n: int, max_degree: int) -> dict[tuple[Partition, int], QPoly]:
    """rho2's full-component traces at every T_mu, from ``module_trace_oracle``
    weighted by ``orbit_type_counts``: no operator is applied."""
    counts = orbit_type_counts(n, max_degree)
    traces = {}
    for mu in partitions_of(n):
        modules = {lam: module_trace_oracle(lam, mu) for lam in counts}
        for d in range(max_degree + 1):
            acc = QP_ZERO
            for lam, per_degree in counts.items():
                if per_degree[d]:
                    acc = acc + modules[lam] * per_degree[d]
            traces[(mu, d)] = acc
    return traces


def symmetric_hilbert_dims(n: int, up_to: int) -> list[int]:
    """Dimensions of the symmetric-function subspaces by degree: partitions
    into parts of size at most n.  Convolving the output of
    ``rep.coinvariant_traces_from_graded`` with them gives back its input."""
    dims = [1] + [0] * up_to
    for part in range(1, n + 1):
        for d in range(part, up_to + 1):
            dims[d] += dims[d - part]
    return dims


def spread_class_traces_oracle(
    class_traces: dict[tuple[Partition, int], QPoly], n: int, max_degree: int
) -> dict[tuple[Perm, int], QPoly]:
    """``rep.spread_class_traces`` summed afresh for every T_v and degree:
    ``tr(T_v) = sum_mu f_{v,mu} * tr(T_mu)``, no row shared."""
    out: dict[tuple[Perm, int], QPoly] = {}
    for v in all_perms(n):
        f = class_polynomial(v)
        for d in range(max_degree + 1):
            acc = QP_ZERO
            for mu, c in f.items():
                t = class_traces[(mu, d)]
                if t:
                    acc = acc + c * t
            out[(v, d)] = acc
    return out


def record_pool_sizes(monkeypatch, cpus) -> list[int]:
    """Replace ``ProcessPoolExecutor`` by a serial stand-in and report
    ``cpus`` CPUs; returns the list that each pool's ``max_workers`` is
    appended to."""
    import concurrent.futures

    sizes: list[int] = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    return sizes
