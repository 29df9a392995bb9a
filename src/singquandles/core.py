"""Finite oriented singquandles as integer operation tables.

A structure of order n lives on elements 0..n-1 and carries three n x n
tables: ``star`` (a quandle operation), ``r1`` and ``r2`` (the two
singular-crossing operations).  ``bar``, the right inverse of ``star``,
is always derived, never supplied.

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

Validation does not visit all n^3 triples when it can avoid it.  It takes
a generating set S of (X, *), checks 4 and 5 on all pairs, proves (iii),
1 and 2 by checking that each x -> x*s with s in S preserves star and R1,
and proves 3 at one element of each Inn-orbit (see
:mod:`singquandles.kernels`).  When that proof fails it falls back to the
full scan, which also supplies every violation witness.  A structure with
many Inn-orbits, such as the trivial star a*b == a, still costs n^3.

Elements may carry display labels (defaults are the decimal residues).
All tables are immutable after construction; every operation here is a
pure function of its inputs, safe to call from multiple threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from . import kernels
from .errors import (
    EmptySeedError,
    MalformedTableError,
    NotABijectionError,
    NotAQuandleError,
    NotASingquandleError,
    NotRightInvertibleError,
    UnknownLabelError,
)

MAX_VIOLATIONS = 100

_QUANDLE_AXIOMS = {0: "idempotence", 1: "right-invertibility", 2: "self-distributivity"}
_SING_AXIOMS = {k: f"singular-{k}" for k in range(1, 6)}


class Violation(NamedTuple):
    axiom: str
    witness: tuple[int, ...]


class Profile(NamedTuple):
    """Row/column fixed-point counts of one element under the three operations."""

    r1: int
    c1: int
    r2: int
    c2: int
    r3: int
    c3: int


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
    try:
        src = np.asarray(obj)
        if src.dtype.kind not in "iu":
            raise ValueError(f"dtype {src.dtype} is not an integer type")
        t = src.astype(np.int64)
    except (TypeError, ValueError) as exc:
        raise MalformedTableError(f"{name} table is not integer-valued: {exc}") from None
    if t.shape != (n, n):
        raise MalformedTableError(f"{name} table has shape {t.shape}, expected ({n}, {n})")
    if t.size and (t.min() < 0 or t.max() >= n):
        raise MalformedTableError(f"{name} table has entries outside 0..{n - 1}")
    return t


def derive_bar(star: np.ndarray) -> np.ndarray:
    """Right inverse of star: bar[z, b] is the unique a with a*b == z."""
    star = np.asarray(star, dtype=np.int64)
    n = star.shape[0]
    cols = np.arange(n)
    # counts[z, b]: how many a have a*b == z; entries of n or more fall past
    # the n*n kept, leaving a zero count in their column
    counts = np.bincount((star * n + cols).ravel(), minlength=n * n)[:n * n].reshape(n, n)
    bad = (counts != 1).any(axis=0)
    if bad.any():
        raise NotRightInvertibleError(int(bad.argmax()))
    bar = np.empty_like(star)
    bar[star, cols] = cols[:, None]
    return bar


def _rows(arr: np.ndarray) -> tuple[Violation, ...]:
    out = []
    for code, a, b, c in arr:
        witness = tuple(int(v) for v in (a, b, c) if v != -1)
        out.append((int(code), witness))
    return tuple(out)


def _validate(star, r1, r2, n: int):
    """Convert and check the tables; returns the report, the converted star,
    r1 and r2, bar (None when star is not right-invertible) and the
    generating set of (X, *) that the check went through."""
    star = _as_table(star, n, "star")
    r1 = _as_table(r1, n, "R1")
    r2 = _as_table(r2, n, "R2")

    violations: list[Violation] = []
    gens = kernels.generating_set(star)
    q_bad = kernels.quandle_violations(star, MAX_VIOLATIONS, gens)
    for code, witness in _rows(q_bad):
        violations.append(Violation(_QUANDLE_AXIOMS[code], witness))
    bar = None
    if not any(v.axiom == "right-invertibility" for v in violations):
        bar = derive_bar(star)
        s_bad = kernels.sing_violations(star, bar, r1, r2, MAX_VIOLATIONS,
                                        None if violations else gens)
        for code, witness in _rows(s_bad):
            violations.append(Violation(_SING_AXIOMS[code], witness))

    violations = violations[:MAX_VIOLATIONS]
    report = ValidationReport(ok=not violations, order=n, violations=tuple(violations))
    return report, star, r1, r2, bar, gens


def validate_tables(star, r1, r2, order: Optional[int] = None) -> ValidationReport:
    """Exact check of all axioms; collects violations up to MAX_VIOLATIONS."""
    n = order if order is not None else len(star)
    return _validate(star, r1, r2, n)[0]


@dataclass(frozen=True, eq=False)
class FiniteSingquandle:
    """A validated finite oriented singquandle.  Construct via the factory
    functions; the tables arrive already checked and are frozen read-only.

    ``gens`` is the generating set of (X, *) that validation went through
    (see :meth:`generators`); it is not part of equality or the hash."""

    order: int
    star: np.ndarray
    bar: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    labels: tuple[str, ...] = field(default=())
    gens: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self):
        if not self.labels:
            object.__setattr__(self, "labels", tuple(str(i) for i in range(self.order)))
        if len(self.labels) != self.order or len(set(self.labels)) != self.order:
            raise MalformedTableError("labels must be distinct, one per element")
        for t in (self.star, self.bar, self.r1, self.r2, self.gens):
            t.setflags(write=False)

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

    def generators(self) -> np.ndarray:
        """A generating set S of (X, *), ascending, as validation found it.

        Every x -> x*s with s in S is then an automorphism of the whole
        structure, and these maps generate Inn(X).  Empty for a structure
        constructed directly rather than through :func:`table_singquandle`,
        whose tables nothing has checked.
        """
        return self.gens

    def profiles(self) -> np.ndarray:
        """All six fixed-point counts for every element, shape (n, 6).

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

    def profile(self, x: int) -> Profile:
        x = self._check_element(x)
        return Profile(*(int(v) for v in self.profiles()[x]))

    def closure(self, seed: Iterable[int]) -> frozenset[int]:
        """Smallest subset containing seed and closed under star, R1, R2."""
        members = {self._check_element(x) for x in seed}
        if not members:
            raise EmptySeedError("closure needs a nonempty seed")
        while True:
            idx = np.fromiter(members, dtype=np.int64)
            grid = idx[:, None], idx[None, :]
            new = set(self.star[grid].ravel().tolist())
            new.update(self.r1[grid].ravel().tolist())
            new.update(self.r2[grid].ravel().tolist())
            if new <= members:
                return frozenset(members)
            members |= new

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
    report, star, r1, r2, bar, gens = _validate(star, r1, r2, order)
    if not report.ok:
        quandle_axioms = set(_QUANDLE_AXIOMS.values())
        if any(v.axiom in quandle_axioms for v in report.violations):
            raise NotAQuandleError(report)
        raise NotASingquandleError(report)
    return FiniteSingquandle(
        order=order,
        star=star,
        bar=bar,
        r1=r1,
        r2=r2,
        labels=tuple(labels) if labels is not None else (),
        gens=gens,
    )


@dataclass(frozen=True)
class IsomorphismResult:
    mapping: Optional[tuple[int, ...]]
    reason: Optional[str]  # set when mapping is None: sqp-mismatch | exhausted

    def __bool__(self) -> bool:
        return self.mapping is not None


def find_isomorphism(q1: FiniteSingquandle, q2: FiniteSingquandle) -> IsomorphismResult:
    """Search for an isomorphism q1 -> q2.

    Fast reject first: an isomorphism preserves every element's profile, so
    unequal profile multisets (equivalently, unequal singquandle polynomials)
    rule one out before any search.  The backtracking then only maps elements
    onto targets with the same profile.
    """
    p1, p2 = q1.profiles(), q2.profiles()
    mult1 = sorted(map(tuple, p1.tolist()))
    mult2 = sorted(map(tuple, p2.tolist()))
    if q1.order != q2.order or mult1 != mult2:
        return IsomorphismResult(None, "sqp-mismatch")

    # equal profile multisets give every element at least one candidate
    by_profile: dict[tuple, list[int]] = {}
    for j, prof in enumerate(map(tuple, p2.tolist())):
        by_profile.setdefault(prof, []).append(j)
    candidates = [by_profile[prof] for prof in map(tuple, p1.tolist())]

    # assign rare-profile elements first; ties by index keep the search stable
    order = sorted(range(q1.order), key=lambda i: (len(candidates[i]), i))
    n = q1.order
    f = [-1] * n
    used = [False] * n
    tables = ((q1.star, q2.star), (q1.r1, q2.r1), (q1.r2, q2.r2))

    def consistent(i: int) -> bool:
        fi = f[i]
        for j in range(n):
            fj = f[j]
            if fj < 0:
                continue
            for t1, t2 in tables:
                img = f[t1[i, j]]
                if img >= 0 and t2[fi, fj] != img:
                    return False
                img = f[t1[j, i]]
                if img >= 0 and t2[fj, fi] != img:
                    return False
        return True

    def homomorphism() -> bool:
        # consistent() misses a pair whose product is mapped after both
        # factors, so a complete mapping is accepted only after one
        # comparison of all three tables
        fa = np.array(f, dtype=np.int64)
        return all(np.array_equal(t2[fa[:, None], fa[None, :]], fa[t1]) for t1, t2 in tables)

    # depth-first over `order` with an explicit stack, so no order hits the
    # recursion limit: tried[k] counts the candidates of order[k] taken so far
    tried = [0] * n
    k = 0
    while k >= 0:
        if k == n:
            if homomorphism():
                return IsomorphismResult(tuple(f), None)
            k -= 1
            continue
        i = order[k]
        if f[i] >= 0:  # back from depth k + 1: release the current target
            used[f[i]] = False
            f[i] = -1
        while tried[k] < len(candidates[i]):
            target = candidates[i][tried[k]]
            tried[k] += 1
            if used[target]:
                continue
            f[i] = target
            used[target] = True
            if consistent(i):
                break
            used[target] = False
            f[i] = -1
        if f[i] >= 0:
            k += 1
        else:
            tried[k] = 0
            k -= 1
    return IsomorphismResult(None, "exhausted")
