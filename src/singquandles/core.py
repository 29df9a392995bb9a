"""Finite oriented singquandles as integer operation tables.

A structure of order n lives on elements 0..n-1 and carries three n x n
tables: ``star`` (a quandle operation), ``r1`` and ``r2`` (the two
singular-crossing operations).  ``bar``, the right inverse of ``star``,
is always derived, never supplied, and every :class:`FiniteSingquandle`
passes the validation below when it is built.

Validation is exact.  The quandle axioms:

    (i)   a*a == a
    (ii)  for all b, z there is exactly one a with a*b == z
    (iii) (a*b)*c == (a*c)*(b*c)

and the five compatibility identities tying r1, r2 to star (writing ``/``
for bar):

    1. R1(a/b, c)*b == R1(a, c*b)
    2. R2(a/b, c)    == R2(a, c*b)/b
    3. (b/R1(a,c))*a == (b*R2(a,c))/c
    4. R2(a,b)       == R1(b, a*b)
    5. R1(a,b)*R2(a,b) == R2(b, a*b)

Validation counts preimages once, which decides (ii) and gives bar, takes
a generating set S of (X, *) and proves each n^3 identity on its own:
(iii) when each x -> x*s with s in S preserves star, 1 when each also
preserves R1, 2 when each also preserves R2 or when 1 is proved and 4
holds at every pair, and 3 when 1 and 2 are proved and 3 holds at one
element of each Inn-orbit, or at once when no such map moves, since every
x -> x*y is then the identity (see :mod:`singquandles.kernels`).  One
computation finds S and the Inn-orbits together: S grows greedily by the
least element of an orbit that holds no member yet, merging orbits along
each new map, and the orbits that hold a member are the *-closure of S.
The quandle kernel does it and proves once that these maps preserve star,
and the singular kernel takes maps and orbits; a structure keeps S as
``gens``, the maps as ``rhos`` for phi and the orbits as ``orbits`` for
the isomorphism search.  Only an identity whose proof fails gets the full
scan, which finds its witnesses, and only the scans of 1 and 2 build
transposes of star and bar; 4 and 5 are checked on all pairs.  The
trivial star a*b == a costs n^2.  Many Inn-orbits with some moving map
still cost n^3: a disjoint union of many small quandles with a*b == a
across components.

A report shows the first ``MAX_VIOLATIONS`` rows in the order above:
(i)-(iii), then 1-5, each in witness order.  Each kernel yields its rows
as a lazy stream in that order and stops drawing it once the rows are in,
and the singular kernel gets what the quandle rows left, so once that one
budget is spent no later axiom is scanned, or proved.

Elements may carry display labels (defaults are the decimal residues).
All tables are int16, converted once when accepted (8 n^2 bytes for the
four; an order above ``MAX_TABLE_ORDER`` = 2**15 is malformed) and immutable
after construction; every operation here is a pure function of its inputs,
safe to call from multiple threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from . import kernels
from .errors import (
    MalformedTableError,
    NotABijectionError,
    NotAQuandleError,
    NotASingquandleError,
    UnknownLabelError,
)

MAX_VIOLATIONS = 100
TABLE_DTYPE = np.int16
MAX_TABLE_ORDER = np.iinfo(TABLE_DTYPE).max + 1  # elements 0..n-1 fit

_QUANDLE_AXIOMS = {0: "idempotence", 1: "right-invertibility", 2: "self-distributivity"}
_SING_AXIOMS = {k: f"singular-{k}" for k in range(1, 6)}


class Violation(NamedTuple):
    axiom: str
    witness: tuple[int, ...]


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    order: int
    violations: tuple[Violation, ...]

    def describe(self) -> str:
        if self.ok:
            return f"valid singquandle of order {self.order}"
        lines = [f"invalid: {len(self.violations)} violation(s) shown (cap {MAX_VIOLATIONS})"]
        for v in self.violations:
            lines.append(f"  {v.axiom} fails at {v.witness}")
        return "\n".join(lines)


def _as_table(obj, n: int, name: str) -> np.ndarray:
    """A new C-contiguous int16 copy of the table, made after the input is
    checked as given, so an entry such as 2**16 + 1 cannot wrap into range.
    int16 quarters the bytes that the slab scans gather against int64,
    which halved the n=256 scan on a 2-vCPU Xeon VM."""
    try:
        src = np.asarray(obj)
        if src.dtype.kind not in "iu":
            raise ValueError(f"dtype {src.dtype} is not an integer type")
    except (TypeError, ValueError) as exc:
        raise MalformedTableError(f"{name} table is not integer-valued: {exc}") from None
    if src.shape != (n, n):
        raise MalformedTableError(f"{name} table has shape {src.shape}, expected ({n}, {n})")
    if src.size and (src.min() < 0 or src.max() >= n):
        raise MalformedTableError(f"{name} table has entries outside 0..{n - 1}")
    return src.astype(TABLE_DTYPE, order="C")


def _rows(arr: np.ndarray) -> tuple[Violation, ...]:
    return tuple((code, tuple(v for v in w if v != -1)) for code, *w in arr.tolist())


def check_order(n: int) -> None:
    """MalformedTableError for an order whose elements TABLE_DTYPE cannot
    hold, raised before any table of that order is allocated."""
    if n > MAX_TABLE_ORDER:
        raise MalformedTableError(f"order {n} is above {MAX_TABLE_ORDER}, the most int16 holds")


def _validate(star, r1, r2, n: int):
    """Convert and check the tables; returns the report and, by field name,
    the arrays a structure keeps: the converted tables and what the check
    derived (bar, gens, rhos, orbits), None where a check failed first."""
    check_order(n)
    star = _as_table(star, n, "star")
    r1 = _as_table(r1, n, "R1")
    r2 = _as_table(r2, n, "R2")

    rows, bar, gens, rhos, orbits = kernels.quandle_violations(star, MAX_VIOLATIONS)
    violations = [Violation(_QUANDLE_AXIOMS[code], witness) for code, witness in _rows(rows)]
    if bar is not None:
        left = MAX_VIOLATIONS - len(violations)
        for code, witness in _rows(kernels.sing_violations(star, bar, r1, r2, left, rhos, orbits)):
            violations.append(Violation(_SING_AXIOMS[code], witness))

    report = ValidationReport(ok=not violations, order=n, violations=tuple(violations))
    return report, dict(star=star, r1=r1, r2=r2, bar=bar, gens=gens, rhos=rhos, orbits=orbits)


def validate_tables(star, r1, r2) -> ValidationReport:
    """Exact check of all axioms; reports the first MAX_VIOLATIONS violations.
    The order is ``len(star)``."""
    try:
        n = len(star)
    except TypeError:
        raise MalformedTableError(f"star table has no rows: {type(star).__name__}") from None
    return _validate(star, r1, r2, n)[0]


@dataclass(frozen=True, eq=False, kw_only=True)
class FiniteSingquandle:
    """A finite oriented singquandle, validated whenever it is built.

    Construction runs the full check of all axioms and raises
    :class:`NotAQuandleError` or :class:`NotASingquandleError`, with the
    report, on failure; ``dataclasses.replace`` builds, so checks, anew.
    Validation's results are kept, not part of equality or the hash:
    ``bar``; ``gens``, the generating set S of (X, *) it went through,
    ascending; ``rhos``, one row per map x -> x*s with s in S that moves an
    element, each an automorphism of the whole structure, so that they
    generate Inn(X); and ``orbits``, the least element of each element's
    Inn-orbit.  All arrays are frozen read-only."""

    order: int
    star: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    labels: Sequence[str] = ()
    bar: np.ndarray = field(init=False)
    gens: np.ndarray = field(init=False)
    rhos: np.ndarray = field(init=False)
    orbits: np.ndarray = field(init=False)

    def __post_init__(self):
        check_order(self.order)  # before n default labels are made
        labels = tuple(self.labels) or tuple(str(i) for i in range(self.order))
        if len(labels) != self.order or len(set(labels)) != self.order:
            raise MalformedTableError("labels must be distinct, one per element")
        for lab in self.labels:  # not empty, no separator, and no row reads as a line head
            if not lab or re.search(r"[\s,#]|^labels:|^(?:star|R1|R2):+$", lab):
                raise MalformedTableError(f"label {lab!r} is empty, contains whitespace, "
                                          f"',' or '#', or reads as a table file's line head")
        report, arrays = _validate(self.star, self.r1, self.r2, self.order)
        if not report.ok:  # the report lists quandle rows first
            if report.violations[0].axiom in _QUANDLE_AXIOMS.values():
                raise NotAQuandleError(report)
            raise NotASingquandleError(report)
        for name, value in arrays.items():
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "labels", labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteSingquandle):
            return NotImplemented
        return (self.order == other.order
                and self.labels == other.labels
                and np.array_equal(self.star, other.star)
                and np.array_equal(self.r1, other.r1)
                and np.array_equal(self.r2, other.r2))

    def __hash__(self):
        return hash((self.order, self.labels, self.star.tobytes(),
                     self.r1.tobytes(), self.r2.tobytes()))

    def __repr__(self) -> str:
        return f"FiniteSingquandle(order={self.order})"

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabelError(
                f"unknown element label {label!r}; labels are {', '.join(self.labels)}") from None

    def _check_element(self, x: int) -> int:
        x = int(x)
        if not 0 <= x < self.order:
            raise IndexError(f"element {x} outside 0..{self.order - 1}")
        return x

    def profiles(self) -> np.ndarray:
        """All six fixed-point counts for every element, shape (n, 6): the
        row and the column count of star, then of R1, then of R2.

        Column pairs come from one comparison per table: entry (x, y) of
        ``table == arange[:, None]`` says table[x, y] == x, so row sums
        count y with op(x, y) == x and column sums count y with
        op(y, x) == y.
        """
        idx = np.arange(self.order, dtype=np.int64)
        cols = []
        for table in (self.star, self.r1, self.r2):
            hits = table == idx[:, None]
            cols.append(hits.sum(axis=1))
            cols.append(hits.sum(axis=0))
        return np.stack(cols, axis=1)

    def closure(self, seed: Iterable[int]) -> frozenset[int]:
        """Smallest subset containing seed and closed under star, R1, R2."""
        members = sorted({self._check_element(x) for x in seed})
        row = kernels.closures((self.star, self.r1, self.r2), np.array([members], dtype=np.int64),
                               self.order)[0]
        return frozenset(row[row < self.order].tolist())

    def is_subsingquandle(self, subset: Iterable[int]) -> bool:
        """True iff nonempty and closed under the three operations.

        Closure under star of a finite subset forces closure under bar,
        so bar needs no separate check.
        """
        members = {self._check_element(x) for x in subset}
        if not members:
            return False
        return self.closure(members) == members

    def relabel(self, perm: Sequence[int]) -> "FiniteSingquandle":
        """Transport the structure along a permutation p: new[p(x), p(y)] = p(old[x, y])."""
        p = np.asarray(perm, dtype=np.int64)
        if p.shape != (self.order,) or not np.array_equal(np.sort(p), np.arange(self.order)):
            raise NotABijectionError(f"{list(perm)!r} is not a permutation of 0..{self.order - 1}")
        inv = np.argsort(p)
        new_labels = tuple(self.labels[inv[i]] for i in range(self.order))

        def conj(table):
            return p[table[np.ix_(inv, inv)]]

        return table_singquandle(self.order, conj(self.star), conj(self.r1), conj(self.r2),
                                 labels=new_labels)


def table_singquandle(order: int, star, r1, r2,
                      labels: Optional[Sequence[str]] = None) -> FiniteSingquandle:
    """Build and fully validate a structure from explicit tables."""
    return FiniteSingquandle(order=order, star=star, r1=r1, r2=r2,
                             labels=() if labels is None else labels)


@dataclass(frozen=True)
class IsomorphismResult:
    mapping: Optional[tuple[int, ...]]
    reason: Optional[str]  # set when mapping is None: sqp-mismatch | exhausted

    def __bool__(self) -> bool:
        return self.mapping is not None


def find_isomorphism(q1: FiniteSingquandle, q2: FiniteSingquandle) -> IsomorphismResult:
    """Search for an isomorphism q1 -> q2 by the images of q1's generators.

    Unequal profile multisets (equivalently, unequal singquandle polynomials)
    rule one out before any search.  A homomorphism is fixed by its values on
    the generating set S of q1 (generator enumeration; Miller, STOC 1978), so
    the search is depth-first over lazy streams, one per level, and no depth
    reaches the recursion limit: the first unmapped s in S goes to each free
    element of q2 with its profile, and :func:`_force` closes or refutes the
    choice.  The first level takes one target per Inn-orbit of q2, the
    least element of each of ``q2.orbits``, since each of ``q2.rhos`` is an
    automorphism of q2 and rho o f is an isomorphism whenever f is.  A
    complete mapping must pass one comparison of all three tables."""
    n = q1.order
    cls = kernels.distinct_rows(np.concatenate([q1.profiles(), q2.profiles()]))[1]
    cls1, cls2 = cls[:n], cls[n:]  # each element's profile, numbered
    if q2.order != n or not np.array_equal(np.sort(cls1), np.sort(cls2)):
        return IsomorphismResult(None, "sqp-mismatch")

    gens = q1.gens
    tables1, tables2 = (q1.star, q1.r1, q1.r2), (q2.star, q2.r1, q2.r2)
    force = partial(_force, tables1, tables2, cls1, cls2)
    roots = q2.orbits == np.arange(n)
    empty = np.full(n, -1, dtype=TABLE_DTYPE)
    stack = [iter([(empty, empty)])]
    while stack:
        state = next(stack[-1], None)
        if state is None:
            stack.pop()
            continue
        f, inv = state
        unmapped = f[gens] < 0
        if unmapped.any():  # S generates q1, so once it is mapped f is total
            s = gens[np.argmax(unmapped)]
            free = roots if len(stack) == 1 else inv < 0  # nothing is mapped at the first level
            targets = np.flatnonzero(free & (cls2 == cls1[s]))
            stack.append(filter(None, map(partial(force, f, inv, s), targets)))
        elif all(np.array_equal(t2[f[:, None], f], f[t1]) for t1, t2 in zip(tables1, tables2)):
            return IsomorphismResult(tuple(f.tolist()), None)
    return IsomorphismResult(None, "exhausted")


def _force(tables1, tables2, cls1, cls2, f, inv, s, t):
    """The partial isomorphism f with inverse inv, whose domain is closed
    under the three tables, extended by s -> t and closed again, semi-naively:
    each round takes the products of the elements mapped last with all mapped
    elements, in slices of at most kernels.CLOSURE_BLOCK products.  None when
    an element gets two values, a value two elements, or a profile changes."""
    f, inv = f.copy(), inv.copy()
    mapped = f >= 0
    f[s], inv[t] = t, s
    while (new := np.flatnonzero((f >= 0) & ~mapped)).size:
        mapped = f >= 0
        dom, fd = np.flatnonzero(mapped), f[mapped]
        step = max(1, kernels.CLOSURE_BLOCK // (6 * len(dom)))
        for lo in range(0, len(new), step):
            a = new[lo:lo + step]
            x = np.concatenate([op[u[:, None], v].ravel()
                                for op in tables1 for u, v in ((a, dom), (dom, a))])
            y = np.concatenate([op[u[:, None], v].ravel()
                                for op in tables2 for u, v in ((f[a], fd), (fd, f[a]))])
            fx = f[x]
            free = fx < 0
            if not ((fx == y) | (free & (inv[y] < 0))).all():
                return None
            x, y = x[free], y[free]
            f[x], inv[y] = y, x
            if not ((f[x] == y).all() and (inv[y] == x).all() and (cls1[x] == cls2[y]).all()):
                return None
    return f, inv
