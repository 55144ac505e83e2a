"""Exact arithmetic for Z[q] and for sparse multivariate polynomials over Z[q].

A ``QPoly`` is a univariate polynomial in q with integer coefficients, stored
densely: index d of the coefficient tuple holds the coefficient of q^d.
Canonical form strips trailing zeros; the zero polynomial is the empty tuple.

An ``MPoly`` is a polynomial in x_1 .. x_n with QPoly coefficients, stored as
a sparse map from exponent tuples to nonzero QPoly values:

    (1-q)*x1^2*x2 + q^2*x3   ->   {(2, 1, 0): 1-q, (0, 0, 1): q^2}

The Schubert and representation layers also run chains of MPolys whose
coefficients are Python ints: integer Schubert polynomials, and Z[q]
coefficients evaluated at an integer q (see ``schubert.pack``).  Addition,
negation, subtraction, ``scale`` by an int, ``swap_variables`` and ``_raw``
keep int coefficients ints, as do ``operators.mul_x`` and the operators'
term kernel.  An int coefficient equals, hashes and prints as the constant
QPoly of the same value.

All values are immutable after construction and every operation is pure, so
they can be shared freely between workers.  Equality is structural; terms are
printed in decreasing lexicographic order of exponent vectors, which makes
``str`` deterministic.
"""

from __future__ import annotations

from functools import lru_cache


class QPoly:
    """Element of Z[q], coefficients stored densely by q-degree."""

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        c = tuple(coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        self.c = c

    @classmethod
    def q_power(cls, d: int, coeff: int = 1) -> "QPoly":
        return cls((0,) * d + (coeff,))

    @property
    def degree(self) -> int:
        """Degree in q; -1 for the zero polynomial."""
        return len(self.c) - 1

    def __bool__(self) -> bool:
        return bool(self.c)

    def __eq__(self, other) -> bool:
        other = _as_qpoly(other)
        return other is not NotImplemented and self.c == other.c

    def __hash__(self) -> int:
        # A constant equals its int, so it hashes as that int (zero as 0).
        c = self.c
        return hash(c) if len(c) > 1 else hash(c[0]) if c else 0

    def __add__(self, other) -> "QPoly":
        other = _as_qpoly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return QPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return QPoly(tuple(-v for v in self.c))

    def __sub__(self, other) -> "QPoly":
        other = _as_qpoly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "QPoly":
        return _as_qpoly(other) + (-self)

    def __mul__(self, other) -> "QPoly":
        if other.__class__ is int:
            # Scaling by a nonzero integer keeps the top coefficient nonzero,
            # so the result is canonical without a convolution.
            if not other or not self.c:
                return QP_ZERO
            return QPoly([v * other for v in self.c])
        other = _as_qpoly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.c, other.c
        if not a or not b:
            return QP_ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            if u:
                for j, v in enumerate(b):
                    out[i + j] += u * v
        return QPoly(out)

    __rmul__ = __mul__

    def evaluate(self, r):
        """Value at q = r, computed exactly (r may be int or Fraction)."""
        out = 0
        for v in reversed(self.c):
            out = out * r + v
        return out

    def is_int(self) -> bool:
        return len(self.c) <= 1

    def as_int(self) -> int:
        if not self.is_int():
            raise ValueError(f"not a constant: {self}")
        return self.c[0] if self.c else 0

    def divide_one_minus_q(self) -> "QPoly":
        """Exact quotient by (1 - q); raises if not divisible."""
        if self.evaluate(1) != 0:
            raise ValueError(f"{self} is not divisible by 1-q")
        out = []
        acc = 0
        for v in self.c[:-1] if self.c else ():
            acc = v + acc
            out.append(acc)
        return QPoly(out)

    def __str__(self) -> str:
        if not self.c:
            return "0"
        pieces = []
        for d, v in enumerate(self.c):
            if v == 0:
                continue
            mag = _q_piece(abs(v), d)
            if not pieces:
                pieces.append(("-" if v < 0 else "") + mag)
            else:
                pieces.append(("-" if v < 0 else "+") + mag)
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"QPoly({self})"


def _q_piece(mag: int, d: int) -> str:
    if d == 0:
        return str(mag)
    qpart = "q" if d == 1 else f"q^{d}"
    return qpart if mag == 1 else f"{mag}*{qpart}"


def _as_qpoly(x):
    if isinstance(x, QPoly):
        return x
    if isinstance(x, int):
        return QPoly((x,))
    return NotImplemented


QP_ZERO = QPoly()
QP_ONE = QPoly((1,))
Q = QPoly((0, 1))
ONE_MINUS_Q = QPoly((1, -1))


def minus_q_power(m: int) -> QPoly:
    """(-q)^m as a QPoly."""
    return QPoly.q_power(m, -1 if m % 2 else 1)


Exponents = tuple  # exponent vector, one nonnegative int per variable


class MPoly:
    """Sparse multivariate polynomial in x_1 .. x_n over Z[q]."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        if n < 0:
            raise ValueError("ambient size must be nonnegative")
        self.n = n
        clean: dict[Exponents, QPoly] = {}
        if terms:
            for e, c in terms.items():
                c = _as_qpoly(c)
                if c:
                    if len(e) != n:
                        raise ValueError(f"exponent vector {e} has wrong length for n={n}")
                    clean[e] = c
        self.terms = clean

    @classmethod
    def zero(cls, n: int) -> "MPoly":
        return cls(n)

    @classmethod
    def const(cls, n: int, c) -> "MPoly":
        return cls(n, {(0,) * n: _as_qpoly(c)})

    @classmethod
    def variable(cls, n: int, i: int) -> "MPoly":
        """The polynomial x_i (1-based index)."""
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range for n={n}")
        e = [0] * n
        e[i - 1] = 1
        return cls(n, {tuple(e): QP_ONE})

    @classmethod
    def monomial(cls, n: int, exponents, coeff=QP_ONE) -> "MPoly":
        return cls(n, {tuple(exponents): _as_qpoly(coeff)})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = MPoly.const(self.n, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    def _check_ambient(self, other: "MPoly"):
        if self.n != other.n:
            raise ValueError(f"ambient mismatch: n={self.n} vs n={other.n}")

    def __add__(self, other) -> "MPoly":
        if isinstance(other, int):
            other = MPoly.const(self.n, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check_ambient(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            acc = out.get(e)
            if acc is None:
                out[e] = c
                continue
            acc = acc + c
            if acc:
                out[e] = acc
            else:
                del out[e]
        return _raw(self.n, out)

    def __neg__(self) -> "MPoly":
        return _raw(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MPoly":
        return self + (-other if isinstance(other, MPoly) else -MPoly.const(self.n, other))

    def __mul__(self, other) -> "MPoly":
        if isinstance(other, (int, QPoly)):
            return self.scale(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check_ambient(other)
        out: dict[Exponents, QPoly] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                acc = out.get(e, QP_ZERO) + c1 * c2
                if acc:
                    out[e] = acc
                else:
                    out.pop(e, None)
        return _raw(self.n, out)

    def __rmul__(self, other) -> "MPoly":
        if isinstance(other, (int, QPoly)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k: int) -> "MPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = MPoly.const(self.n, 1)
        for _ in range(k):
            out = out * self
        return out

    def scale(self, c) -> "MPoly":
        if c.__class__ is not int:
            c = _as_qpoly(c)
        if not c:
            return MPoly.zero(self.n)
        return _raw(self.n, {e: v * c for e, v in self.terms.items()})

    def homogeneous_degree(self) -> int | None:
        """Common total degree of all terms, or None if inhomogeneous.

        The zero polynomial reports -1 (homogeneous of every degree).
        """
        degs = {sum(e) for e in self.terms}
        if not degs:
            return -1
        if len(degs) > 1:
            return None
        return degs.pop()

    def __str__(self) -> str:
        """Terms in decreasing lexicographic order of exponent vectors."""
        terms = self.terms
        if not terms:
            return "0"
        out = []
        for e in sorted(terms, reverse=True):
            sign, head = _coefficient_str(terms[e])
            mono = _monomial_str(e)
            if not mono:
                body = head or "1"
            else:
                body = f"{head}*{mono}" if head else mono
            if out:
                out.append(f" {sign} {body}")
            else:
                out.append(body if sign == "+" else "-" + body)
        return "".join(out)

    def __repr__(self) -> str:
        return f"MPoly[{self.n}]({self})"


@lru_cache(maxsize=None)
def _monomial_str(e: Exponents) -> str:
    """The monomial x^e as ``MPoly.__str__`` prints it, "" for x^0; memoized
    per exponent vector, since a table's polynomials share their monomials."""
    return "*".join((f"x{i + 1}" if p == 1 else f"x{i + 1}^{p}") for i, p in enumerate(e) if p)


@lru_cache(maxsize=None)
def _coefficient_str(coeff) -> tuple[str, str]:
    """(sign, text) of a QPoly or int coefficient as ``MPoly.__str__`` prints
    it before the monomial: a sum of several q-powers in parentheses with
    sign "+", else the magnitude (left out if 1) and the q-power, "" for the
    unit.  Memoized per coefficient, since a table's polynomials share a few
    coefficients; an int and the constant QPoly equal to it share an entry."""
    c = _as_qpoly(coeff).c
    if sum(1 for v in c if v) > 1:
        return "+", f"({QPoly(c)})"
    d = len(c) - 1
    v = c[d]
    parts = [str(abs(v))] if abs(v) != 1 else []
    if d:
        parts.append("q" if d == 1 else f"q^{d}")
    return "-" if v < 0 else "+", "*".join(parts)


def _raw(n: int, terms: dict) -> MPoly:
    """Build an MPoly from an already-canonical term dict (no copying checks)."""
    p = MPoly.__new__(MPoly)
    p.n = n
    p.terms = terms
    return p


def swap_variables(f: MPoly, i: int) -> MPoly:
    """Apply the adjacent transposition exchanging x_i and x_{i+1}."""
    if not 1 <= i < f.n:
        raise ValueError(f"transposition index {i} out of range for n={f.n}")
    ii = i - 1
    out = {}
    for e, c in f.terms.items():
        out[e[:ii] + (e[ii + 1], e[ii]) + e[ii + 2:]] = c
    return _raw(f.n, out)


def is_i_symmetric(i: int, f: MPoly) -> bool:
    """True iff f is invariant under exchanging x_i and x_{i+1}."""
    if not 1 <= i < f.n:
        raise ValueError(f"index {i} out of range for n={f.n}")
    ii = i - 1
    for e, c in f.terms.items():
        if e[ii] != e[ii + 1]:
            mirror = e[:ii] + (e[ii + 1], e[ii]) + e[ii + 2:]
            if f.terms.get(mirror) != c:
                return False
    return True

