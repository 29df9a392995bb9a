r"""Singular planar diagram codes.

A diagram is a list of crossings, each with four semi-arc labels:

    P[a,b,c,d]  positive classical crossing
    N[a,b,c,d]  negative classical crossing
    S[a,b,c,d]  singular crossing

Port convention, fixed for this package: ``a`` and ``b`` are the incoming
semi-arcs, ``c`` and ``d`` the outgoing ones.  At a classical crossing
``a`` is the under-strand and ``b`` the over-strand; the over-strand
leaves as ``c``, the under-strand as ``d``.  At a singular crossing the
incoming pair is read in order ``(a, b)``; the strand bringing ``b``
leaves as ``c``, the strand bringing ``a`` leaves as ``d``::

        c   d             c   d
         \ /               \ /
          X   classical     #   singular
         / \               / \
        a   b             a   b

Coloring relations emitted per crossing (two each):

    P:  c = b,         d = a*b
    N:  c = b,         d = a/b
    S:  c = R1(a,b),   d = R2(a,b)

Every semi-arc label must occur exactly once as an input and exactly once
as an output across the whole code; that is what makes the diagram closed.
Planarity is not checked.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .errors import DanglingArcError, DuplicatePortError, ParseError
from .presentation import SingPresentation
from .terms import Apply, Gen

KINDS = ("P", "N", "S")


class Crossing(NamedTuple):
    kind: str  # P, N or S
    ports: tuple[str, str, str, str]  # (in, in, out, out)


@dataclass(frozen=True)
class SingularPD:
    crossings: tuple[Crossing, ...]
    name: Optional[str] = field(default=None)

    def labels(self) -> tuple[str, ...]:
        """Semi-arc labels in first-occurrence order."""
        seen: dict[str, None] = {}
        for cr in self.crossings:
            for p in cr.ports:
                seen.setdefault(p)
        return tuple(seen)


_ENTRY_RE = re.compile(
    r"([A-Za-z_]\w*)\s*\[\s*([A-Za-z_]\w*)\s*,\s*([A-Za-z_]\w*)\s*,\s*([A-Za-z_]\w*)\s*,\s*([A-Za-z_]\w*)\s*\]"
    r"|(?P<bad>\S)")


def parse_pd(text: str) -> SingularPD:
    """Parse a PD code; empty input is the empty diagram."""
    name = None
    body = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("name:"):
            name = line[len("name:"):].strip()
            continue
        body.append(line)
    blob = " ".join(body)

    crossings = []
    for m in _ENTRY_RE.finditer(blob):
        kind, *ports, bad = m.groups()
        if bad:
            raise ParseError(f"bad PD entry near {blob[m.start():m.start() + 24]!r}")
        if kind not in KINDS:
            raise ParseError(f"unknown crossing kind {kind!r}; use P, N or S")
        crossings.append(Crossing(kind, tuple(ports)))

    pd = SingularPD(tuple(crossings), name=name)
    _check_ports(pd)
    return pd


def _check_ports(pd: SingularPD) -> None:
    ins: dict[str, int] = {}
    outs: dict[str, int] = {}
    for cr in pd.crossings:
        for p in cr.ports[:2]:
            if p in ins:
                raise DuplicatePortError(f"label {p!r} used twice as an input port")
            ins[p] = 1
        for p in cr.ports[2:]:
            if p in outs:
                raise DuplicatePortError(f"label {p!r} used twice as an output port")
            outs[p] = 1
    for p in ins:
        if p not in outs:
            raise DanglingArcError(f"label {p!r} enters a crossing but never leaves one")
    for p in outs:
        if p not in ins:
            raise DanglingArcError(f"label {p!r} leaves a crossing but never enters one")


def render_pd(pd: SingularPD) -> str:
    lines = []
    if pd.name:
        lines.append(f"name: {pd.name}")
    for cr in pd.crossings:
        lines.append(f"{cr.kind}[{','.join(cr.ports)}]")
    return "\n".join(lines) + "\n"


def pd_to_presentation(pd: SingularPD) -> SingPresentation:
    """Compile to a presentation: one generator per semi-arc label, two
    relations per crossing, output ports defined in terms of input ports."""
    relations = []
    for cr in pd.crossings:
        a, b, c, d = (Gen(p) for p in cr.ports)
        if cr.kind == "P":
            relations.append((c, b))
            relations.append((d, Apply("*", a, b)))
        elif cr.kind == "N":
            relations.append((c, b))
            relations.append((d, Apply("/", a, b)))
        else:
            relations.append((c, Apply("R1", a, b)))
            relations.append((d, Apply("R2", a, b)))
    return SingPresentation(pd.labels(), tuple(relations), name=pd.name)
