"""Shared test oracles: exact Fraction linear algebra, ideal membership,
polynomials specialized at a rational q, and the polynomial-route trace
recursions that the library's trace kernels are compared against; and a
stand-in process pool that records its size."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

from qschub.operators import monomials_up_to, op_a, op_r, op_s
from qschub.perm import Perm, all_perms, has_left_descent, identity, mult_left_s, perms_by_length
from qschub.polyring import MPoly, QP_ONE, QP_ZERO, QPoly
from qschub.rep import coordinate_at
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


def specialize_q(f: MPoly, r) -> dict[tuple[int, ...], Fraction]:
    """Every coefficient of f evaluated at q = r, exactly; zero values
    omitted."""
    out = {e: Fraction(c.evaluate(Fraction(r))) for e, c in f.terms.items()}
    return {e: v for e, v in out.items() if v}


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


def quotient_basis_traces_oracle(n: int) -> dict[tuple[Perm, int], QPoly]:
    """rho1 traces on the degree-k Schubert bases by the polynomial route:
    per basis class, its Schubert polynomial pushed through ``op_a`` by the
    left-descent recursion, each image's coordinate at the class read by
    ``coordinate_at``."""
    table = build_schubert_table(n)
    by_len = perms_by_length(n)
    traces: dict[tuple[Perm, int], QPoly] = {
        (v, k): QP_ZERO for v in all_perms(n) for k in range(table.max_degree + 1)
    }
    for k in range(table.max_degree + 1):
        for w in table.basis(k):
            traces[(identity(n), k)] += QP_ONE
            images: dict[Perm, MPoly] = {identity(n): table[w]}
            for j in range(1, table.max_degree + 1):
                for v in by_len[j]:
                    i = next(i for i in range(1, n) if has_left_descent(v, i))
                    images[v] = op_a(images[mult_left_s(v, i)], i)
                    traces[(v, k)] += coordinate_at(images[v], w)
    return traces


def upstairs_graded_traces_oracle(n: int, action: str, max_degree: int) -> dict[tuple[Perm, int], QPoly]:
    """Full-component traces by the per-monomial route: every monomial of
    degree <= max_degree pushed through the action's operator by the
    left-descent recursion, its own coefficient summed."""
    op = {"rho1": op_a, "rho2": op_r, "symq1": op_s}[action]
    by_len = perms_by_length(n)
    traces: dict[tuple[Perm, int], QPoly] = {
        (v, d): QP_ZERO for v in all_perms(n) for d in range(max_degree + 1)
    }
    for f in monomials_up_to(n, max_degree):
        d = f.total_degree()
        e = next(iter(f.terms))
        traces[(identity(n), d)] += QP_ONE
        images: dict[Perm, MPoly] = {identity(n): f}
        for j in range(1, n * (n - 1) // 2 + 1):
            for v in by_len[j]:
                i = next(i for i in range(1, n) if has_left_descent(v, i))
                images[v] = op(images[mult_left_s(v, i)], i)
                traces[(v, d)] += images[v].terms.get(e, QP_ZERO)
    return traces


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
