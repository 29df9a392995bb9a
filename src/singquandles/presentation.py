"""Singular link presentations and their colorings.

A presentation is a generator list plus relations, each relation a pair of
terms that every coloring must equate.  Colorings (homomorphisms into a
finite target) are found by a search that :func:`_plan` orders as a list
of step tuples and :func:`kernels.enumerate_colorings` runs as they are.
The plan binds each generator in one of three ways, tried in this order.
A derive: a relation ``g = term`` whose term is already bound assigns g
directly, and ``y*z = x`` and ``y/z = x`` are solved for y through the
right inverse.  A join: a relation ``op(A, g) = B`` or ``op(g, A) = B``
with A and B bound, such as ``x = y/z`` with x and y bound or
``R1(x, y) = z`` with x and z bound, binds g to the values a table lookup
finds.  A free step: only the generators neither rule reaches are
enumerated over all elements.  The remaining relations are checked as
soon as all of their generators are bound.  Results come back in
lexicographic order of the assignment tuple, independent of the plan.

File format::

    # comment
    name: 6_11l
    generators: x, y, z, w, k
    R2(x,y)/z = x
    z/w = y

The name line is optional; each remaining line is one ``lhs = rhs``
relation in the term grammar of :mod:`singquandles.terms`.

phi (:func:`phi_ssqp`) works on arrays of seed sets, a coloring's seed set
being its set of generator values, which fixes its image.  The colorings
are grouped by seed set (:func:`seed_sets`), and the seed sets into orbits
(:func:`kernels.orbit_labels`) under the target's ``rhos``, the moving
maps x -> x*s with s in its generating set that validation proved to be
automorphisms, so they carry colorings to colorings and images to images
of the same ssqp.  One call of :func:`kernels.closures` then closes one
seed set per orbit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import kernels
from .core import FiniteSingquandle
from .errors import ParseError, UnboundGeneratorError
from .polynomial import PhiInvariant, _phi_of_closures
from .terms import (_IDENT, _RESERVED, Apply, Gen, Term, eval_rows, generators_of, parse_term,
                    render_term)


@dataclass(frozen=True)
class SingPresentation:
    generators: tuple[str, ...]
    relations: tuple[tuple[Term, Term], ...]
    name: Optional[str] = field(default=None)

    def __post_init__(self):
        for g in self.generators:  # each must parse back as that generator
            if not re.fullmatch(_IDENT, g) or g in _RESERVED:
                raise ParseError(f"{g!r} cannot name a generator: names are identifiers "
                                 f"other than {' and '.join(_RESERVED)}")
        if len(set(self.generators)) != len(self.generators):
            raise ParseError(f"duplicate generator in {self.generators}")
        declared = set(self.generators)
        for lhs, rhs in self.relations:
            for t in (lhs, rhs):
                missing = [g for g in generators_of(t) if g not in declared]
                if missing:
                    raise UnboundGeneratorError(
                        f"relation {render_term(lhs)} = {render_term(rhs)} uses "
                        f"undeclared generator {missing[0]!r}")


def parse_presentation(text: str) -> SingPresentation:
    name = None
    generators: Optional[tuple[str, ...]] = None
    relations = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("name:"):
            name = line[len("name:"):].strip()
            continue
        if line.startswith("generators:"):
            if generators is not None:
                raise ParseError(f"line {lineno}: second generators line")
            # may be empty, as for the diagram with no components
            generators = tuple(line[len("generators:"):].replace(",", " ").split())
            continue
        if generators is None:
            raise ParseError(f"line {lineno}: relations before the generators line")
        if line.count("=") != 1:
            raise ParseError(f"line {lineno}: a relation needs exactly one '='")
        lhs_text, rhs_text = line.split("=")
        try:
            lhs, rhs = parse_term(lhs_text), parse_term(rhs_text)
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        for side in (lhs, rhs):
            for g in generators_of(side):
                if g not in generators:
                    raise ParseError(
                        f"line {lineno}: relation uses undeclared generator {g!r}")
        relations.append((lhs, rhs))
    if generators is None:
        raise ParseError("missing generators line")
    return SingPresentation(generators, tuple(relations), name=name)


def render_presentation(pres: SingPresentation) -> str:
    lines = []
    if pres.name:
        lines.append(f"name: {pres.name}")
    generators = ", ".join(pres.generators)
    lines.append(f"generators: {generators}" if generators else "generators:")
    for lhs, rhs in pres.relations:
        lines.append(f"{render_term(lhs)} = {render_term(rhs)}")
    return "\n".join(lines) + "\n"


def _bound(term: Term, bound: set[str]) -> bool:
    return set(generators_of(term)) <= bound


def _peel(side: Term, other: Term, bound: set[str]) -> Optional[tuple[Term, Term]]:
    """``side = other`` with bound right operands of side moved across
    through the right inverse (``y*z = x`` gives ``y = x/z``, ``y/z = x``
    gives ``y = x*z``), or None unless other is bound.  R1 and R2 are never
    inverted."""
    if not _bound(other, bound):
        return None
    while isinstance(side, Apply) and side.op in ("*", "/") and _bound(side.right, bound):
        other = Apply("/" if side.op == "*" else "*", other, side.right)
        side = side.left
    return side, other


def _derive(side: Term, other: Term, bound: set[str]) -> Optional[tuple]:
    """``("derive", g, term)`` when side peels down to the generator g.
    Called only on relations that are not fully bound, so g is unbound."""
    peeled = _peel(side, other, bound)
    if peeled and isinstance(peeled[0], Gen):
        return ("derive", peeled[0].name, peeled[1])
    return None


def _join(side: Term, other: Term, bound: set[str]) -> Optional[tuple]:
    """``("join", g, op, pos, A, B)`` when side peels down to ``op(A, g)``
    (pos 1) or ``op(g, A)`` (pos 0) with g an unbound generator and A
    bound, B being the peeled other side.  A left operand of ``*`` or ``/``
    never joins: when its right operand is bound, side peels further."""
    peeled = _peel(side, other, bound)
    if not peeled or not isinstance(peeled[0], Apply):
        return None
    side, other = peeled
    operands = (side.left, side.right)
    for pos in (0, 1):
        g, known = operands[pos], operands[1 - pos]
        if isinstance(g, Gen) and g.name not in bound and _bound(known, bound):
            return ("join", g.name, side.op, pos, known, other)
    return None


def _first_step(pres: SingPresentation, pending: list[int], bound: set[str], solve):
    """The step that solve makes of the first pending relation, in file
    order, that it can use, either way round; that relation leaves pending."""
    for r in pending:
        lhs, rhs = pres.relations[r]
        step = solve(lhs, rhs, bound) or solve(rhs, lhs, bound)
        if step:
            pending.remove(r)
            return step
    return None


def _plan(pres: SingPresentation) -> list[tuple]:
    """Order the search: ``("free", g)``, ``("derive", g, term)``,
    ``("join", g, op, pos, A, B)`` and ``("check", lhs, rhs)`` steps that
    together bind every generator.

    Fully bound relations become checks at once.  Otherwise the first
    relation (in file order) that can be solved for an unbound generator
    derives it; failing that, the first relation of the form
    ``op(A, g) = B`` or ``op(g, A) = B`` with A and B bound joins g;
    failing that, the unbound generator occurring in the most pending
    relations is enumerated freely, ties going to the lowest index.  A join
    keeps exactly the rows that a free step of g followed by the check of
    that relation would keep.
    """
    gens = [set(generators_of(lhs)) | set(generators_of(rhs)) for lhs, rhs in pres.relations]
    pending = list(range(len(pres.relations)))
    bound: set[str] = set()
    steps: list[tuple] = []
    while True:
        for r in [r for r in pending if gens[r] <= bound]:
            steps.append(("check", *pres.relations[r]))
            pending.remove(r)
        if len(bound) == len(pres.generators):
            return steps
        step = (_first_step(pres, pending, bound, _derive)
                or _first_step(pres, pending, bound, _join)
                or ("free", max((g for g in pres.generators if g not in bound),
                                key=lambda g: sum(g in gens[r] for r in pending))))
        steps.append(step)
        bound.add(step[1])


def _coloring_rows(pres: SingPresentation, q: FiniteSingquandle) -> np.ndarray:
    """All colorings as an (m, g) array of generator values, one row per
    coloring in lexicographic order.  Every row is re-checked against every
    original relation, not the plan's peeled terms, so the plan's
    derivations, joins and pruning can never admit a spurious solution."""
    tables = {"*": q.star, "/": q.bar, "R1": q.r1, "R2": q.r2}
    rows = kernels.enumerate_colorings(tables, pres.generators, _plan(pres))
    cols = dict(zip(pres.generators, rows.T))
    bad = np.zeros(len(rows), dtype=bool)
    for lhs, rhs in pres.relations:
        bad |= eval_rows(lhs, tables, cols) != eval_rows(rhs, tables, cols)
    if bad.any():
        hom = dict(zip(pres.generators, rows[np.argmax(bad)].tolist()))
        raise RuntimeError(
            f"coloring search returned a spurious coloring {hom} for "
            f"{pres.name or 'presentation'}")
    return rows


def enumerate_homs(pres: SingPresentation, q: FiniteSingquandle) -> list[dict[str, int]]:
    """All colorings of the presentation by q, in lexicographic order of the
    generator value tuple, each a dict generator -> value.  Every returned
    coloring has been re-checked against every relation."""
    return [dict(zip(pres.generators, row)) for row in _coloring_rows(pres, q).tolist()]


def seed_sets(rows: np.ndarray, n: int):
    """The distinct seed sets of coloring rows over an order-n target, with
    the seed set of each row and the number of rows that have each.  The
    seed set of a coloring, its set of generator values, alone determines
    its image.  Seed sets are ascending rows padded with n, as
    :func:`kernels.closures` takes them, in lexicographic order."""
    return kernels.distinct_rows(kernels.canonical_sets(rows, n))


def phi_ssqp(pres: SingPresentation, q: FiniteSingquandle) -> PhiInvariant:
    """The multiset of ssqp values over all coloring images.

    Each of ``q.rhos`` is an automorphism g, so g o h is a coloring
    whenever h is, its image is g applied to the image of h, and the
    ambient profiles, hence ssqp, do not change.  The colorings are
    therefore grouped by seed set, the seed sets into orbits under these
    maps, and one batch of closures, one per orbit, goes through
    :func:`kernels.closures`.  The ambient profiles are taken once per call
    and one polynomial is built per distinct multiset of profile rows.
    """
    seeds, _, counts = seed_sets(_coloring_rows(pres, q), q.order)
    label = kernels.orbit_labels(seeds, q.rhos, q.order)
    reps = np.flatnonzero(label == np.arange(len(label)))
    totals = np.zeros(len(label), dtype=np.int64)
    np.add.at(totals, label, counts)
    images = kernels.closures((q.star, q.r1, q.r2), seeds[reps], q.order)
    return _phi_of_closures(q.profiles(), images, totals[reps])


def counting_invariant(pres: SingPresentation, q: FiniteSingquandle) -> int:
    return len(_coloring_rows(pres, q))
