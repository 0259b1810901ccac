"""Exact 2x2 integer matrix algebra and geometric classification of torus bundles.

Everything here is pure and exact: entries are Python ints (arbitrary
precision), perfect-square tests use ``math.isqrt``, and no floating point
enters any decision.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from enum import Enum

from .errors import NotUnimodular, ParseError, SolgenusError


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


@dataclass(frozen=True)
class IntMat2:
    """Row-major 2x2 integer matrix [[a, b], [c, d]]."""

    a: int
    b: int
    c: int
    d: int

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def trace(self) -> int:
        return self.a + self.d

    def __mul__(self, other: "IntMat2") -> "IntMat2":
        return IntMat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __mod__(self, m: int) -> "IntMat2":
        return IntMat2(self.a % m, self.b % m, self.c % m, self.d % m)

    def __pow__(self, k: int, m: int | None = None) -> "IntMat2":
        """self^k; pow(self, k, m) reduces every entry into [0, m), as pow does for ints."""
        if k < 0:
            return pow(self.inverse(), -k, m)
        out = IntMat2.identity()
        base = self
        while k:
            if k & 1:
                out = out * base if m is None else out * base % m
            base = base * base if m is None else base * base % m
            k >>= 1
        return out if m is None else out % m

    def inverse(self) -> "IntMat2":
        """Exact inverse; only defined on GL2(Z), where the adjugate is integral."""
        n = self.det()
        if n == 1:
            return IntMat2(self.d, -self.b, -self.c, self.a)
        if n == -1:
            return IntMat2(-self.d, self.b, self.c, -self.a)
        raise NotUnimodular(f"determinant {n}, cannot invert over Z")

    @classmethod
    def identity(cls) -> "IntMat2":
        return cls(1, 0, 0, 1)


@dataclass(frozen=True)
class CharPoly:
    """Monic quadratic x^2 - t*x + n attached to a matrix (t = trace, n = det)."""

    t: int
    n: int

    @property
    def disc(self) -> int:
        return self.t * self.t - 4 * self.n

    def __str__(self) -> str:
        return f"x^2 - ({self.t})x + ({self.n})"


class SpectrumClass(Enum):
    REAL_QUADRATIC = "RealQuadratic"
    SPLIT_RATIONAL = "SplitRational"
    REPEATED_ONE = "RepeatedOne"
    REPEATED_MINUS_ONE = "RepeatedMinusOne"
    COMPLEX_QUADRATIC = "ComplexQuadratic"


class GeometryLabel(Enum):
    SOL = "Sol"
    NIL = "Nil"
    EUCLIDEAN = "Euclidean"


def char_poly(m: IntMat2) -> CharPoly:
    """Trace/determinant pair of a GL2(Z) matrix; rejects |det| != 1."""
    n = m.det()
    if n not in (1, -1):
        raise NotUnimodular(f"determinant {n}, expected +-1")
    return CharPoly(m.trace(), n)


def spectrum_class(p: CharPoly) -> SpectrumClass:
    """Which of the five eigenvalue configurations a unimodular matrix has.

    For n = +-1 the discriminant is a perfect square only when it is 0 or 4,
    so the five cases below are exhaustive and mutually exclusive.
    """
    if p.n not in (1, -1):
        raise ValueError("spectrum classification requires det = +-1")
    d = p.disc
    if d == 0:
        return SpectrumClass.REPEATED_ONE if p.t == 2 else SpectrumClass.REPEATED_MINUS_ONE
    if d == 4:
        return SpectrumClass.SPLIT_RATIONAL
    if d < 0:
        return SpectrumClass.COMPLEX_QUADRATIC
    if is_square(d):
        raise SolgenusError(f"unexpected square discriminant {d} with det {p.n}")
    return SpectrumClass.REAL_QUADRATIC


def is_hyperbolic(m: IntMat2) -> bool:
    """True when no eigenvalue has absolute value 1.

    Exact criterion for det = +-1: |t| > 2, or det = -1 with t != 0.
    """
    p = char_poly(m)
    return abs(p.t) > 2 or (p.n == -1 and p.t != 0)


def matrix_order(m: IntMat2) -> int | None:
    """Least k >= 1 with m^k = I, or None for infinite order.

    Torsion in GL2(Z) has order in {1, 2, 3, 4, 6}, so scanning k <= 12 is
    conclusive.
    """
    char_poly(m)  # unimodularity guard
    ident = IntMat2.identity()
    acc = m
    for k in range(1, 13):
        if acc == ident:
            return k
        acc = acc * m
    return None


def geometry(m: IntMat2) -> GeometryLabel:
    """Geometry of the mapping torus of m: Sol, Nil, or Euclidean.

    Hyperbolic monodromy gives Sol; infinite-order non-hyperbolic gives Nil.
    Finite-order monodromy is labeled Euclidean (flat), a total-function
    convention for the remaining torsion cases.
    """
    if is_hyperbolic(m):
        return GeometryLabel.SOL
    if matrix_order(m) is None:
        return GeometryLabel.NIL
    return GeometryLabel.EUCLIDEAN


_INT_RE = re.compile(r"[+-]?\d+$")


def _parse_int_token(tok: str, pos: int) -> int:
    if not _INT_RE.match(tok):
        raise ParseError(f"expected integer, got {tok!r}", pos)
    return int(tok)


def parse_matrix(text: str) -> IntMat2:
    """Parse ``"a b; c d"`` (commas optional) or JSON ``[[a,b],[c,d]]``."""
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty matrix text", 0)
    offset = text.index(stripped[0])
    if stripped[0] == "[":
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON matrix: {e.msg}", offset + e.pos) from None
        except RecursionError:
            raise ParseError("JSON matrix is nested too deeply", offset) from None
        if (
            not isinstance(data, list)
            or len(data) != 2
            or any(not isinstance(r, list) or len(r) != 2 for r in data)
            or any(not isinstance(x, int) or isinstance(x, bool) for r in data for x in r)
        ):
            raise ParseError("JSON matrix must be [[int,int],[int,int]]", offset)
        return IntMat2(*data[0], *data[1])

    tokens = [(m.start(), m.group()) for m in re.finditer(r";|[^\s,;]+", text)]
    rows: list[list[int]] = [[]]
    for pos, tok in tokens:
        if tok == ";":
            rows.append([])
        else:
            rows[-1].append(_parse_int_token(tok, pos))
    if len(rows) != 2 or len(rows[0]) != 2 or len(rows[1]) != 2:
        where = tokens[-1][0] if tokens else 0
        raise ParseError(
            f"expected 2 rows of 2 integers separated by ';', got shape {[len(r) for r in rows]}",
            where,
        )
    return IntMat2(rows[0][0], rows[0][1], rows[1][0], rows[1][1])


def format_matrix(m: IntMat2) -> str:
    """Inverse of :func:`parse_matrix`: ``parse_matrix(format_matrix(m)) == m``."""
    return f"{m.a} {m.b}; {m.c} {m.d}"
