"""Polynomial invariants of finite oriented singquandles.

Every element x contributes the monomial

    s1^r1 * t1^c1 * s2^r2 * t2^c2 * s3^r3 * t3^c3

built from its profile (the six fixed-point counts).  Summing over the
whole carrier gives the singquandle polynomial ``sqp``; summing over a
subsingquandle, with profiles still computed in the ambient structure,
gives ``ssqp``.  Aggregating ``ssqp`` of coloring images as a multiset
gives the phi invariant of a singular link against a fixed target.

Canonical form (an artifact convention, fixed so output is stable):
monomials sort ascending by graded-lex order on the exponent 6-tuple in
variable order s1, t1, s2, t2, s3, t3; phi entries sort by descending
multiplicity, then ascending polynomial key.  Coefficients are exact
Python integers.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

import numpy as np

from . import kernels
from .core import FiniteSingquandle
from .errors import NotASubsingquandleError

VARIABLES = ("s1", "t1", "s2", "t2", "s3", "t3")

Monomial = tuple[int, int, int, int, int, int]


def _grlex(mono: Monomial) -> tuple:
    return (sum(mono), mono)


class SqPolynomial:
    """Immutable sparse polynomial in the six profile variables."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[Monomial, int]]):
        acc: dict[Monomial, int] = {}
        for mono, coeff in terms:
            mono = tuple(int(e) for e in mono)
            if len(mono) != 6 or any(e < 0 for e in mono):
                raise ValueError(f"monomial must be 6 nonnegative exponents, got {mono}")
            acc[mono] = acc.get(mono, 0) + int(coeff)
        self._terms = tuple(sorted(((m, c) for m, c in acc.items() if c),
                                   key=lambda mc: _grlex(mc[0])))

    def terms(self) -> tuple[tuple[Monomial, int], ...]:
        """(monomial, coefficient) pairs in canonical order."""
        return self._terms

    @property
    def sort_key(self) -> tuple:
        return tuple((_grlex(m), c) for m, c in self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SqPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        return f"SqPolynomial({self.render()!r})"

    def render(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mono, coeff in self._terms:
            factors = []
            if coeff != 1 or not any(mono):
                factors.append(str(coeff))
            for var, e in zip(VARIABLES, mono):
                if e == 1:
                    factors.append(var)
                elif e:
                    factors.append(f"{var}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)


def sqp(q: FiniteSingquandle) -> SqPolynomial:
    """Singquandle polynomial: sum of profile monomials over the carrier."""
    return _phi_of_closures(q.profiles(), np.arange(q.order)[None], [1]).entries()[0][0]


def ssqp(q: FiniteSingquandle, subset: Iterable[int]) -> SqPolynomial:
    """Subsingquandle polynomial: profile monomials of the subset's elements,
    profiles taken in the ambient structure q."""
    members = sorted({int(x) for x in subset})
    if not q.is_subsingquandle(members):
        raise NotASubsingquandleError(
            f"{members} is not a subsingquandle (empty or not closed)")
    return _phi_of_closures(q.profiles(), np.array([members]), [1]).entries()[0][0]


def quandle_restriction(p: SqPolynomial) -> dict[tuple[int, int], int]:
    """Forget the singular variables: set s2 = t2 = s3 = t3 = 1.

    What remains is the classical quandle polynomial in (s1, t1), returned
    as an exponent-pair -> coefficient map.
    """
    out: dict[tuple[int, int], int] = {}
    for mono, coeff in p.terms():
        key = (mono[0], mono[1])
        out[key] = out.get(key, 0) + coeff
    return {k: v for k, v in out.items() if v}


class PhiInvariant:
    """Multiset of subsingquandle polynomials, one per coloring image."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable[tuple[SqPolynomial, int]]):
        """(polynomial, multiplicity) pairs; equal polynomials merge."""
        counts: dict[SqPolynomial, int] = {}
        for p, m in entries:
            if not isinstance(p, SqPolynomial):
                raise TypeError(f"expected SqPolynomial, got {type(p).__name__}")
            counts[p] = counts.get(p, 0) + int(m)
        for p, m in counts.items():
            if m < 0:
                raise ValueError("multiplicities must be nonnegative")
        self._entries = tuple(sorted(((p, m) for p, m in counts.items() if m),
                                     key=lambda pm: (-pm[1], pm[0].sort_key)))

    def entries(self) -> tuple[tuple[SqPolynomial, int], ...]:
        """(polynomial, multiplicity) pairs, canonical order."""
        return self._entries

    def counting(self) -> int:
        """Total number of colorings: the sum of multiplicities."""
        return sum(m for _, m in self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhiInvariant):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self):
        return hash(self._entries)

    def __repr__(self) -> str:
        return f"PhiInvariant({self.render()!r})"

    def render(self) -> str:
        if not self._entries:
            return "0"
        return " + ".join(f"{m}*u^{{{p.render()}}}" for p, m in self._entries)


def _phi_of_closures(profiles: np.ndarray, members: np.ndarray, counts) -> PhiInvariant:
    """phi from subsingquandles, each with its number of colorings.
    profiles is ``q.profiles()`` of the ambient structure, taken once by the
    caller, and members holds one subsingquandle per row, ascending and
    padded with the order n, as :func:`kernels.closures` returns them;
    :func:`sqp` and :func:`ssqp` are its case of one image.

    A polynomial is fixed by the multiset of its members' profile rows.  So
    each element gets a kind, the index of its profile row among the
    distinct ones, each row of members becomes its sorted row of kinds
    (padding last), the counts are summed per such key and each distinct key
    gets one polynomial: over the trivial star of order 64, 2080 images
    share 2.
    """
    kinds, kind, _ = kernels.distinct_rows(profiles)
    keys = np.append(kind, len(kinds))[members]
    keys.sort(axis=1)
    keys, which, _ = kernels.distinct_rows(keys)
    totals = np.zeros(len(keys), dtype=np.int64)
    np.add.at(totals, which, counts)
    kinds = kinds.tolist()
    return PhiInvariant([(SqPolynomial(Counter(tuple(kinds[k]) for k in key if k < len(kinds))
                                       .items()), m)
                         for key, m in zip(keys.tolist(), totals.tolist())])

