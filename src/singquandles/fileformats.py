"""Reading and writing singquandle files.

Two variants share the ``.sq`` extension, distinguished by header:

Table variant::

    singquandle n=4
    labels: 1 2 3 0        # optional; default labels are 0..n-1
    star:
    1 3 1 3
    ...
    R1:
    ...
    R2:
    ...

Rows and columns of each block follow label order; entries are labels.
When the labels are exactly the decimal residues 0..n-1 in any order, the
loader normalizes element i to residue i, so the same structure written
in a different row order loads identically.  Other label sets are kept
as opaque names in file order.

Formula variant::

    singquandle-formula n=8
    star = 7*x + 6*y + 4*x*y
    R1 = 2*x + 7*y + 4*x*y
    R2 = 4*x^2 + 5*x + 4*y
"""

from __future__ import annotations

import os
import re

import numpy as np

from .core import FiniteSingquandle, table_singquandle
from .errors import ParseError
from .formulas import formula_singquandle, parse_formula

_HEADER_RE = re.compile(r"^(singquandle|singquandle-formula)\s+n\s*=\s*(\d+)\s*$")

# Largest order a file header may declare.  An n x n int64 table takes
# 8 n^2 bytes (128 MB at 4096) and validation holds about ten at once; a
# larger header fails as a ParseError before any table is allocated.
MAX_ORDER = 4096


def parse_singquandle(text: str) -> FiniteSingquandle:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ParseError("empty singquandle file")
    m = _HEADER_RE.match(lines[0])
    if m is None:
        raise ParseError(f"bad header {lines[0]!r}; expected 'singquandle n=<order>' "
                         "or 'singquandle-formula n=<order>'")
    digits = m.group(2).lstrip("0") or "0"
    # compared by length first: int() rejects a header of thousands of digits
    if len(digits) > len(str(MAX_ORDER)) or int(digits) > MAX_ORDER:
        raise ParseError(f"order n={m.group(2)} is larger than the maximum {MAX_ORDER}")
    n = int(digits)
    if n < 1:
        raise ParseError("order must be at least 1")
    if m.group(1) == "singquandle":
        return _parse_table_variant(lines[1:], n)
    return _parse_formula_variant(lines[1:], n)


def _parse_formula_variant(lines: list[str], n: int) -> FiniteSingquandle:
    formulas = {}
    for line in lines:
        if "=" not in line:
            raise ParseError(f"expected 'star = ...', 'R1 = ...' or 'R2 = ...', got {line!r}")
        key, expr = line.split("=", 1)
        key = key.strip()
        if key not in ("star", "R1", "R2"):
            raise ParseError(f"unknown formula key {key!r}")
        if key in formulas:
            raise ParseError(f"duplicate formula for {key}")
        formulas[key] = parse_formula(expr, n)
    missing = [k for k in ("star", "R1", "R2") if k not in formulas]
    if missing:
        raise ParseError(f"missing formula(s): {', '.join(missing)}")
    return formula_singquandle(formulas["star"], formulas["R1"], formulas["R2"])


def _parse_table_variant(lines: list[str], n: int) -> FiniteSingquandle:
    labels: list[str] | None = None
    blocks: dict[str, list[list[str]]] = {}
    current: list[list[str]] | None = None
    for line in lines:
        if line.startswith("labels:"):
            labels = line[len("labels:"):].split()
            if len(labels) != n or len(set(labels)) != n:
                raise ParseError(f"labels line must list {n} distinct labels")
            continue
        key = line.rstrip(":")
        if line.endswith(":") and key in ("star", "R1", "R2"):
            if key in blocks:
                raise ParseError(f"duplicate block {key}")
            current = blocks.setdefault(key, [])
            continue
        if current is None:
            raise ParseError(f"unexpected line {line!r} before any table block")
        current.append(line.split())
    missing = [k for k in ("star", "R1", "R2") if k not in blocks]
    if missing:
        raise ParseError(f"missing block(s): {', '.join(missing)}")

    if labels is None:
        labels = [str(i) for i in range(n)]
    index = {lab: i for i, lab in enumerate(labels)}

    tables = {}
    for key, rows in blocks.items():
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ParseError(f"block {key} must be {n} rows of {n} entries")
        try:
            tables[key] = np.array([list(map(index.__getitem__, row)) for row in rows],
                                   dtype=np.int64)
        except KeyError:
            entry = next(e for row in rows for e in row if e not in index)
            raise ParseError(f"entry {entry!r} in block {key} is not a declared label") from None

    # numeric labels that form a permutation of 0..n-1 normalize to residue order
    if set(labels) == {str(i) for i in range(n)}:
        perm = np.array([int(lab) for lab in labels], dtype=np.int64)  # element i is residue perm[i]
        inv = np.argsort(perm)

        def to_residues(t):
            return perm[t[np.ix_(inv, inv)]]

        return table_singquandle(n, to_residues(tables["star"]), to_residues(tables["R1"]),
                                 to_residues(tables["R2"]))
    return table_singquandle(n, tables["star"], tables["R1"], tables["R2"], labels=labels)


def render_singquandle(q: FiniteSingquandle) -> str:
    """Table-variant text; round-trips through parse_singquandle."""
    lines = [f"singquandle n={q.order}"]
    default = tuple(str(i) for i in range(q.order))
    if q.labels != default:
        lines.append("labels: " + " ".join(q.labels))
    for key, table in (("star", q.star), ("R1", q.r1), ("R2", q.r2)):
        lines.append(f"{key}:")
        for row in table:
            lines.append(" ".join(q.labels[v] for v in row))
    return "\n".join(lines) + "\n"


def read_text(path: str | os.PathLike) -> str:
    """The text of a UTF-8 file; ParseError naming the path if it is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{os.fspath(path)}: not UTF-8 text "
                         f"(byte {exc.object[exc.start]:#04x} at offset {exc.start})") from None


def load_singquandle(path: str | os.PathLike) -> FiniteSingquandle:
    return parse_singquandle(read_text(path))
