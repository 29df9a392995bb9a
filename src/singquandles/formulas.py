"""Operation tables defined by bivariate polynomial formulas over Z_n.

A formula is a sum of terms c, c*x^i, c*y^j, c*x^i*y^j with everything
reduced mod n.  Exponents are capped at 4; that bound covers every
structure this package ships and keeps the grammar honest.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .core import FiniteSingquandle, check_order, table_singquandle
from .errors import ModulusMismatchError, NotInvertibleError, ParseError

MAX_EXPONENT = 4

_FACTOR_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<var>[xy])(?:\s*\^\s*(?P<exp>\d+))?)\s*")


@dataclass(frozen=True)
class BivariatePolyFormula:
    """Canonicalized formula: terms are (coeff, i, j), coeff in 1..n-1,
    sorted by (i, j), at most one term per exponent pair."""

    modulus: int
    terms: tuple[tuple[int, int, int], ...]

    @staticmethod
    def make(modulus: int, raw_terms) -> "BivariatePolyFormula":
        if modulus < 1:
            raise ValueError("modulus must be positive")
        acc: dict[tuple[int, int], int] = {}
        for coeff, i, j in raw_terms:
            if not (0 <= i <= MAX_EXPONENT and 0 <= j <= MAX_EXPONENT):
                raise ParseError(f"exponent out of range 0..{MAX_EXPONENT} in term ({coeff}, {i}, {j})")
            acc[(i, j)] = (acc.get((i, j), 0) + coeff) % modulus
        terms = tuple((c, i, j) for (i, j), c in sorted(acc.items()) if c)
        return BivariatePolyFormula(modulus, terms)

    def evaluate(self, x: int, y: int) -> int:
        n = self.modulus
        total = 0
        for c, i, j in self.terms:
            total += c * pow(x % n, i, n) * pow(y % n, j, n)
        return total % n

    def table(self) -> np.ndarray:
        """Full n x n value table, rows indexed by x."""
        n = self.modulus
        xs = np.arange(n, dtype=np.int64)[:, None]
        ys = np.arange(n, dtype=np.int64)[None, :]
        out = np.zeros((n, n), dtype=np.int64)
        for c, i, j in self.terms:
            out = (out + c * ((xs ** i) % n) * ((ys ** j) % n)) % n
        return out

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        # print in graded order with x outranking y: 1, x, y, x^2, x*y, y^2, ...
        for c, i, j in sorted(self.terms, key=lambda t: (t[1] + t[2], -t[1])):
            factors = []
            if c != 1 or (i == 0 and j == 0):
                factors.append(str(c))
            if i:
                factors.append("x" if i == 1 else f"x^{i}")
            if j:
                factors.append("y" if j == 1 else f"y^{j}")
            parts.append("*".join(factors))
        return " + ".join(parts)


def parse_formula(text: str, modulus: int) -> BivariatePolyFormula:
    """Parse a formula like ``7*x + 6*y + 4*x*y`` or ``4*x^2+5*x+4*y``:
    terms joined by ``+`` or ``-``, the first optionally signed, each a
    ``*``-product of factors that ``_FACTOR_RE`` matches whole.  A term's
    coefficient is reduced mod n after each factor, so parsing stays linear
    in the number of factors."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    s = text.strip()
    if not s:
        raise ParseError("empty formula")
    pieces = re.split(r"([+-])", s if s[0] in "+-" else "+" + s)
    raw = []
    for sign, term in zip(pieces[1::2], pieces[2::2]):
        coeff, xi, yj = -1 if sign == "-" else 1, 0, 0
        for factor in term.split("*"):
            m = _FACTOR_RE.fullmatch(factor)
            if m is None:
                raise ParseError(f"bad factor {factor.strip()[:40]!r} in term {term.strip()[:40]!r}")
            try:
                value = int(m["int"] or m["exp"] or 1)
            except ValueError:  # more digits than int() converts
                raise ParseError(f"number too long in factor {factor.strip()[:40]!r}") from None
            if m["int"]:
                coeff = coeff * value % modulus
            elif m["var"] == "x":
                xi += value
            else:
                yj += value
        if max(xi, yj) > MAX_EXPONENT:  # caught here, before make() would print a huge term
            raise ParseError(f"exponent above {MAX_EXPONENT} in term {term.strip()[:40]!r}")
        raw.append((coeff, xi, yj))
    return BivariatePolyFormula.make(modulus, raw)


def formula_singquandle(star: BivariatePolyFormula,
                        r1: BivariatePolyFormula,
                        r2: BivariatePolyFormula) -> FiniteSingquandle:
    """Build and validate the structure whose tables the formulas define.
    The order is checked before the tables are evaluated."""
    if not (star.modulus == r1.modulus == r2.modulus):
        raise ModulusMismatchError(
            f"moduli differ: star {star.modulus}, R1 {r1.modulus}, R2 {r2.modulus}")
    n = star.modulus
    check_order(n)
    return table_singquandle(n, star.table(), r1.table(), r2.table())


def affine_singquandle(n: int, t: int, s: int) -> FiniteSingquandle:
    """The affine family over Z_n:

        a*b      = t*a + (1-t)*b         (needs gcd(t, n) == 1)
        R1(a,b)  = s*a + (1-s)*b
        R2(a,b)  = t*(1-s)*a + (1-t+s*t)*b
    """
    if math.gcd(t % n if n else t, n) != 1:
        raise NotInvertibleError(f"t={t} is not invertible mod {n}")
    star = BivariatePolyFormula.make(n, [(t, 1, 0), (1 - t, 0, 1)])
    r1 = BivariatePolyFormula.make(n, [(s, 1, 0), (1 - s, 0, 1)])
    r2 = BivariatePolyFormula.make(n, [(t * (1 - s), 1, 0), (1 - t + s * t, 0, 1)])
    return formula_singquandle(star, r1, r2)
