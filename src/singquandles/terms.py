"""Terms in the generators of a singular link presentation.

Grammar (ASCII): identifiers are generators, infix ``*`` is the quandle
operation, infix ``/`` is its right inverse, both left associative with
equal precedence, so ``a*b/c`` means ``(a*b)/c``.  ``R1(s,t)`` and
``R2(s,t)`` are the two singular-crossing operations.  Parentheses group.

Every function here but equality and hashing walks a term recursively,
one Python frame per level, so the parser rejects a term whose operator
tree, or whose nesting of parentheses and argument lists, is deeper than
:data:`MAX_DEPTH`.  The coloring planner can move the operands of one side
of a relation onto the other, which adds the two sides' depths; twice the
limit still fits under Python's default recursion limit of 1000.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Union

from .errors import TermSyntaxError, UnknownOperatorError

OPS = ("*", "/", "R1", "R2")
MAX_DEPTH = 300
_RESERVED = ("R1", "R2")


@dataclass(frozen=True)
class Gen:
    name: str


@dataclass(frozen=True, eq=False)
class Apply:
    """An operator applied to two terms.  Equality and hashing walk the
    tree with an explicit stack, so they need no recursion at any depth."""

    op: str  # one of OPS
    left: "Term"
    right: "Term"

    def __eq__(self, other):
        if other.__class__ is not Apply:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__:
                return False
            if a.__class__ is Gen:
                if a != b:
                    return False
                continue
            if a.op != b.op:
                return False
            stack.append((a.right, b.right))
            stack.append((a.left, b.left))
        return True

    def __hash__(self):
        return hash(tuple(_preorder(self)))


def _preorder(term):
    """Each Apply's operator and each Gen, parents before children: equal
    terms, and only they, give equal sequences."""
    stack = [term]
    while stack:
        t = stack.pop()
        if t.__class__ is Apply:
            yield t.op
            stack.append(t.right)
            stack.append(t.left)
        else:
            yield t


Term = Union[Gen, Apply]

_IDENT = r"[A-Za-z_]\w*"  # a generator, or R1 and R2 before their arguments
_TOKEN_RE = re.compile(rf"\s*(?:(?P<ident>{_IDENT})|(?P<sym>[*/(),])|(?P<bad>\S))")


def _tokens(text: str) -> Iterator[tuple[str, str, int]]:
    # every character but trailing whitespace falls in some token
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "bad":
            raise TermSyntaxError(f"unexpected character {m['bad']!r}", m.start(),
                                  ("identifier", "operator"))
        yield m.lastgroup, m[m.lastgroup], m.start(m.lastgroup)


class _Parser:
    """Recursive descent; ``expr`` and ``atom`` return a term with the depth
    of its operator tree, and ``nest`` counts the open parentheses and
    argument lists."""

    def __init__(self, text: str):
        self.text = text
        self.toks = list(_tokens(text))
        self.i = 0
        self.nest = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else ("eof", "", len(self.text))

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, sym: str):
        kind, val, pos = self.take()
        if kind != "sym" or val != sym:
            raise TermSyntaxError(f"found {val!r}" if kind != "eof" else "unexpected end of input",
                                  pos, (repr(sym),))

    def open(self, pos: int):
        if self.nest == MAX_DEPTH:
            raise TermSyntaxError(f"parentheses nested deeper than {MAX_DEPTH}", pos)
        self.nest += 1

    def apply(self, op: str, left: tuple[Term, int], right: tuple[Term, int],
              pos: int) -> tuple[Term, int]:
        depth = 1 + max(left[1], right[1])
        if depth > MAX_DEPTH:
            raise TermSyntaxError(f"term nested deeper than {MAX_DEPTH} operators", pos)
        return Apply(op, left[0], right[0]), depth

    def expr(self) -> tuple[Term, int]:
        node = self.atom()
        while True:
            kind, val, pos = self.peek()
            if kind == "sym" and val in ("*", "/"):
                self.take()
                node = self.apply(val, node, self.atom(), pos)
            else:
                return node

    def atom(self) -> tuple[Term, int]:
        kind, val, pos = self.take()
        if kind == "sym" and val == "(":
            self.open(pos)
            node = self.expr()
            self.expect(")")
            self.nest -= 1
            return node
        if kind == "ident":
            nkind, nval, _ = self.peek()
            if nkind == "sym" and nval == "(":
                if val not in _RESERVED:
                    raise UnknownOperatorError(
                        f"unknown operator {val!r} at position {pos}; only R1 and R2 take arguments")
                self.open(self.take()[2])
                left = self.expr()
                self.expect(",")
                right = self.expr()
                self.expect(")")
                self.nest -= 1
                return self.apply(val, left, right, pos)
            if val in _RESERVED:
                raise TermSyntaxError(f"{val} is an operator, not a generator", pos, ("'('",))
            return Gen(val), 0
        raise TermSyntaxError(f"found {val!r}" if kind != "eof" else "unexpected end of input",
                              pos, ("identifier", "'('"))


def parse_term(text: str) -> Term:
    """Parse a term; raises TermSyntaxError or UnknownOperatorError, the
    former also for a term nested deeper than MAX_DEPTH."""
    p = _Parser(text)
    node, _ = p.expr()
    kind, val, pos = p.peek()
    if kind != "eof":
        raise TermSyntaxError(f"trailing input {val!r}", pos, ("end of term",))
    return node


def render_term(term: Term) -> str:
    """Render with minimal parentheses; parse(render(t)) == t."""
    if isinstance(term, Gen):
        return term.name
    if term.op in ("R1", "R2"):
        return f"{term.op}({render_term(term.left)},{render_term(term.right)})"
    left = render_term(term.left)
    right = render_term(term.right)
    # equal precedence, left associative: only a composite right child needs parens
    if isinstance(term.right, Apply) and term.right.op in ("*", "/"):
        right = f"({right})"
    return f"{left}{term.op}{right}"


def eval_rows(term: Term, tables, cols):
    """Evaluate term on many assignments at once: tables maps each operator
    of OPS to its n x n integer array, cols maps each generator to an array
    of values, one per assignment, or each generator to one value.  A bare
    generator returns its own column, not a copy."""
    if isinstance(term, Gen):
        return cols[term.name]
    return tables[term.op][eval_rows(term.left, tables, cols), eval_rows(term.right, tables, cols)]


def generators_of(term: Term) -> tuple[str, ...]:
    """Generator names in first-occurrence order."""
    seen: dict[str, None] = {}

    def walk(t: Term):
        if isinstance(t, Gen):
            seen.setdefault(t.name)
        else:
            walk(t.left)
            walk(t.right)

    walk(term)
    return tuple(seen)
