"""Workloads of the qschub benchmark: seeded inputs, the timed operations and
the checks that decide whether each operation's output is correct.

Every workload is a class with four methods:

* ``operations(seed, table)`` builds the inputs from the seed alone (the same
  seed gives the same inputs).  It runs before the timed body.
* ``run(op, table)`` performs one timed operation through the library's
  public functions, looked up on the module at call time so that the traced
  run's wrappers see every call.
* ``check(ops, results, table)`` returns one bool per operation.  It runs
  after the timed body and after the tracer is removed, so checks neither
  count towards latency nor pollute the per-layer counts.  Each check is
  independent of the path it checks wherever that is cheap; otherwise it
  compares against a digest in ``golden.json`` recorded from the library.

Workload sizes are constructor arguments so that the tests can run each
workload at n = 3 or 4.  The benchmark takes n from ``run.py``'s workload
table and every other size from the constructors' defaults.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

from qschub import perm, polyring, rep, schubert

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


@dataclass(frozen=True)
class Op:
    """One timed operation: what to call, with what, and what it must give."""

    kind: str
    args: tuple
    expected: object = None


# --- canonical forms and digests ---------------------------------------------


def qpoly_key(c) -> tuple[int, ...]:
    return tuple(c.c)


def _digest(payload) -> str:
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def matrix_digest(m) -> str:
    return _digest([list(m.basis), rows_of(m)])


def ledger_digest(scan) -> str:
    return _digest([[list(map(list, (w, z))) + [i, b, c] for i, w, z, b, c in scan.entries],
                    list(scan.structural_violations)])


def table_digest(table) -> str:
    return _digest(
        [
            [list(w), sorted((list(e), qpoly_key(c)) for e, c in table[w].terms.items())]
            for w in sorted(table.polys)
        ]
    )


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def golden_key(*parts) -> str:
    return "/".join(str(p) for p in parts)


def perm_key(w) -> str:
    return "".join(map(str, w))


# --- char: the full graded character table -----------------------------------


class CharTable:
    """Every (k, mu) cell of the graded character table in seed-shuffled
    order; one operation is one cell computed three ways."""

    def __init__(self, n: int):
        self.n = n

    def operations(self, seed: int, table) -> list[Op]:
        top = self.n * (self.n - 1) // 2
        cells = [(k, mu) for k in range(top + 1) for mu in perm.partitions_of(self.n)]
        random.Random(seed).shuffle(cells)
        return [Op("cell", cell) for cell in cells]

    def run(self, op: Op, table):
        k, mu = op.args
        n = self.n
        return (
            rep.graded_character("rho1", mu, k, n).value,
            rep.graded_character("rho2", mu, k, n).value,
            rep.weight_character(mu, k, n).value,
        )

    def check(self, ops, results, table) -> list[bool]:
        return [r is not None and r[0] == r[1] == r[2] for r in results]


# --- equiv: the trace-equivalence certificate --------------------------------


def symmetric_dims(n: int, up_to: int) -> list[int]:
    """Dimensions of the degree-d symmetric polynomials in n variables, d <=
    up_to: the number of partitions of d into parts of size at most n."""
    dims = [1] + [0] * up_to
    for part in range(1, n + 1):
        for d in range(part, up_to + 1):
            dims[d] += dims[d - part]
    return dims


class Equivalence:
    """One operation: the trace-equivalence certificate of the two actions,
    from its three parts -- the rho1 traces on the quotient's Schubert bases,
    the rho2 traces on the full polynomial components, and the coinvariant
    traces derived from the latter.

    ``trace_equivalence_report`` runs the same three parts, but for n <= 4 it
    adds a rho1 cross-check on the full components that takes three quarters
    of its time at n = 4 and never runs at n >= 5.  Calling the parts keeps
    the cost mix of the n = 5 certificate (about 60% rho1 quotient traces and
    40% rho2 upstairs traces at both sizes) at a size that repeats many times
    in a run.  The check is the certificate itself, composed here: the two
    coinvariant traces agree, and rho2's component traces equal rho1's
    quotient traces convolved with the symmetric-function dimensions.
    """

    def __init__(self, n: int):
        self.n = n

    def operations(self, seed: int, table) -> list[Op]:
        rows = len(perm.all_perms(self.n)) * (self.n * (self.n - 1) // 2 + 1)
        return [Op("certificate", (self.n,), rows)]

    def run(self, op: Op, table):
        n = op.args[0]
        top = n * (n - 1) // 2
        quotient1 = rep.quotient_basis_traces(n)
        graded2 = rep.upstairs_graded_traces(n, "rho2", top)
        return quotient1, graded2, rep.coinvariant_traces_from_graded(graded2, n, top)

    def check(self, ops, results, table) -> list[bool]:
        return [r is not None and self._certified(op, *r) for op, r in zip(ops, results)]

    def _certified(self, op, quotient1, graded2, quotient2) -> bool:
        n = self.n
        top = n * (n - 1) // 2
        dims = symmetric_dims(n, top)
        keys = [(v, d) for v in perm.all_perms(n) for d in range(top + 1)]
        if len(keys) != op.expected or set(quotient1) != set(keys):
            return False
        for v, d in keys:
            if quotient2[(v, d)] != quotient1[(v, d)]:
                return False
            convolved = polyring.QPoly()
            for j in range(d + 1):
                convolved = convolved + quotient1[(v, d - j)] * dims[j]
            if graded2[(v, d)] != convolved:
                return False
        return True


# --- expand: Schubert expansion of polynomials with known coordinates --------


def elementary_symmetric(n: int, j: int):
    return polyring.MPoly(
        n,
        {tuple(1 if v in chosen else 0 for v in range(n)): 1
         for chosen in itertools.combinations(range(n), j)},
    )


def random_qpoly(shape: random.Random, values: random.Random):
    """A nonzero element of Z[q]: shape draws its length (q-degree at most 2),
    values draws its coefficients (small, the top one nonzero)."""
    coeffs = [values.randint(-3, 3) for _ in range(shape.randint(0, 2))]
    coeffs.append(values.choice((-3, -2, -1, 1, 2, 3)))
    return polyring.QPoly(coeffs)


# Each expand polynomial has this many Schubert terms, ideal terms e_j g_j and
# monomials per g_j.
SCHUBERT_TERMS, IDEAL_TERMS, IDEAL_MONOMIALS = 4, 3, 2


def known_coordinate_polynomial(shape: random.Random, values: random.Random, table, k: int):
    """A degree-k polynomial sum_z c_z S_z + sum_j e_j g_j with its Schubert
    coordinates {z: c_z}.

    The e_j (1 <= j <= min(k, n)) are elementary symmetric, so every e_j g_j
    lies in the ideal the quotient divides out and contributes nothing to the
    coordinates; the g_j are homogeneous of degree k - j.  ``shape`` draws the
    supports (the z, the j and the monomials of g_j), ``values`` draws every
    coefficient.
    """
    n = table.n
    basis = perm.perms_of_length(n, k)
    coords = {z: random_qpoly(shape, values)
              for z in shape.sample(basis, min(SCHUBERT_TERMS, len(basis)))}
    f = polyring.MPoly.zero(n)
    for z, c in coords.items():
        f = f + table[z].scale(c)
    for _ in range(IDEAL_TERMS):
        j = shape.randint(1, min(k, n))
        g = polyring.MPoly.zero(n)
        for _ in range(IDEAL_MONOMIALS):
            e = [0] * n
            for v in shape.choices(range(n), k=k - j):
                e[v] += 1
            g = g + polyring.MPoly.monomial(n, e, random_qpoly(shape, values))
        f = f + elementary_symmetric(n, j) * g
    return f, coords


class Expansion:
    """Homogeneous polynomials of degrees 1..max_degree, per_degree of each,
    with known coordinates; one operation is one expand_homogeneous.

    Expansion cost depends on the supports far more than on the coefficients,
    so the supports come from a fixed stream and the seed draws the
    coefficients: every seed gives other inputs and the same amount of work.
    """

    def __init__(self, n: int, max_degree: int = 9, per_degree: int = 4):
        self.n = n
        self.max_degree = min(max_degree, n * (n - 1) // 2)
        self.per_degree = per_degree

    def operations(self, seed: int, table) -> list[Op]:
        shape, values = random.Random(0), random.Random(seed)
        ops = []
        for k in range(1, self.max_degree + 1):
            for _ in range(self.per_degree):
                f, coords = known_coordinate_polynomial(shape, values, table, k)
                ops.append(Op("expand", (f, k), {z: qpoly_key(c) for z, c in coords.items()}))
        return ops

    def run(self, op: Op, table):
        f, k = op.args
        return schubert.expand_homogeneous(f, k, table)

    def check(self, ops, results, table) -> list[bool]:
        golden = load_golden().get(golden_key("table", self.n))
        if table_digest(table) != golden:
            return [False] * len(ops)
        return [
            r is not None and {z: qpoly_key(c) for z, c in r.coords.items()} == op.expected
            for op, r in zip(ops, results)
        ]


# --- matrices: the generator-matrix cache and the word route -----------------


def monk_swap_column(i: int, w):
    """Column of the plain swap s_i at the descent (i, w), from Monk's rule:
    s_i S_w = S_w - (x_i - x_{i+1}) S_u with u = w s_i."""
    u = perm.mult_right_s(w, i)
    col = {w: 1}
    for a, sign in ((i, -1), (i + 1, 1)):
        plus, minus = schubert.x_action_on_schubert(a, u)
        for z in plus:
            col[z] = col.get(z, 0) + sign
        for z in minus:
            col[z] = col.get(z, 0) - sign
    return {z: (c,) for z, c in col.items() if c}


def matrix_columns(m) -> dict:
    """{w: {z: coefficient tuple}} over the nonzero entries."""
    out = {w: {} for w in m.basis}
    for z, row in zip(m.basis, m.entries):
        for w, c in zip(m.basis, row):
            if c:
                out[w][z] = qpoly_key(c)
    return out


def matrix_product(a, b) -> list[list[tuple[int, ...]]]:
    """a @ b over Z[q] on coefficient tuples, independent of RepMatrix."""

    def mul(x, y):
        out = [0] * (len(x) + len(y) - 1)
        for s, u in enumerate(x):
            for t, v in enumerate(y):
                out[s + t] += u * v
        return out

    size = len(a)
    rows = []
    for r in range(size):
        row = []
        for c in range(size):
            acc = []
            for v in range(size):
                if a[r][v] and b[v][c]:
                    prod = mul(a[r][v], b[v][c])
                    acc += [0] * (len(prod) - len(acc))
                    for d, x in enumerate(prod):
                        acc[d] += x
            while acc and acc[-1] == 0:
                acc.pop()
            row.append(tuple(acc))
        rows.append(row)
    return rows


def rows_of(m) -> list[list[tuple[int, ...]]]:
    return [[qpoly_key(c) for c in row] for row in m.entries]


def identity_rows(size: int) -> list[list[tuple[int, ...]]]:
    return [[(1,) if r == c else () for c in range(size)] for r in range(size)]


class Matrices:
    """Cold generator matrices for every (action, i, k), then the (b, c)
    ledger from the cached rho2 matrices, then a seeded sample of Hecke
    basis-element matrices of both actions by the upstairs word route.

    The word route's cost grows with the length of w, so the sample has a
    fixed profile, one w per (action, degree, length) for a third and two
    thirds of the longest length; the seed draws each w among the
    permutations of its length, and the order of the sample.
    """

    def __init__(self, n: int):
        self.n = n

    def operations(self, seed: int, table) -> list[Op]:
        n = self.n
        top = n * (n - 1) // 2
        ops = [Op("generator", (action, i, k))
               for action in rep.ACTIONS for i in range(1, n) for k in range(top + 1)]
        ops.append(Op("ledger", (n,)))
        shape = random.Random(0)
        sample = [
            Op("element", (action, shape.choice(perm.perms_of_length(n, top // 3)), k))
            for action in ("rho1", "rho2")
            for k in range(top + 1)
        ]
        random.Random(seed).shuffle(sample)
        return ops + sample

    def run(self, op: Op, table):
        if op.kind == "generator":
            action, i, k = op.args
            return rep.generator_matrix(action, i, k, table)
        if op.kind == "ledger":
            return rep.bc_scan(*op.args, jobs=1)
        action, w, k = op.args
        return rep.basis_element_matrix(action, w, k, table)

    def check(self, ops, results, table) -> list[bool]:
        golden = load_golden()
        gens = {op.args: r for op, r in zip(ops, results) if op.kind == "generator" and r is not None}
        out = []
        for op, r in zip(ops, results):
            if r is None:
                out.append(False)
            elif op.kind == "generator":
                out.append(self._check_generator(op.args, r, golden))
            elif op.kind == "ledger":
                out.append(ledger_digest(r) == golden.get(golden_key("ledger", self.n)))
            else:
                out.append(self._check_element(op.args, r, gens, golden))
        return out

    def _check_generator(self, key, m, golden) -> bool:
        action, i, k = key
        if action == "rho2":
            return matrix_digest(m) == golden.get(golden_key("rho2-generator", self.n, i, k))
        cols = matrix_columns(m)
        for w in m.basis:
            if w[i - 1] < w[i]:  # an ascent: the unit column
                expected = {w: (1,)}
            elif action == "rho1":
                expected = {z: qpoly_key(c) for z, c in rep.descent_column_formula(i, w).items()}
            else:
                expected = monk_swap_column(i, w)
            if cols[w] != expected:
                return False
        return True

    def _check_element(self, key, m, gens, golden) -> bool:
        action, w, k = key
        if action == "rho2":
            return matrix_digest(m) == golden.get(
                golden_key("rho2-element", self.n, perm_key(w), k))
        # rho1 words are products of generator matrices: multiply them along
        # the canonical reduced word (leftmost factor applied last).
        basis = perm.perms_of_length(self.n, k)
        acc = identity_rows(len(basis))
        for i in perm.canonical_reduced_word(w):
            g = gens.get(("rho1", i, k))
            if g is None:
                return False
            acc = matrix_product(acc, rows_of(g))
        return tuple(m.basis) == tuple(basis) and acc == rows_of(m)


KINDS = {"char": CharTable, "equiv": Equivalence, "expand": Expansion, "matrices": Matrices}
