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

Rows and columns of each block follow label order; entries are labels,
matched exactly, so ``05`` is not the label ``5``.  When the labels are
exactly the decimal residues 0..n-1 in any order, or the line is absent,
the loader normalizes element i to residue i, so the same structure
written in a different row order loads identically.  Other label sets are
kept as opaque names in file order.

A block of such a residue-labelled file is decoded by numpy at once when
its rows are n canonical decimals below n each, separated by ASCII spaces
and tabs.  Every other block, and every block of a file with opaque
labels, is read entry by entry, which is also the path that reports what
is wrong with a malformed block.

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
    blocks: dict[str, list[str]] = {}
    current: list[str] | None = None
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
        current.append(line)
    missing = [k for k in ("star", "R1", "R2") if k not in blocks]
    if missing:
        raise ParseError(f"missing block(s): {', '.join(missing)}")

    default = [str(i) for i in range(n)]
    index = {lab: i for i, lab in enumerate(labels or default)}
    if labels is not None and set(labels) != set(default):
        tables = {key: _token_block(key, rows, n, index) for key, rows in blocks.items()}
        return table_singquandle(n, tables["star"], tables["R1"], tables["R2"], labels=labels)

    # numeric labels that form a permutation of 0..n-1 normalize to residue
    # order: a decoded entry is its residue, and the file lists element i's
    # row and column at inv[i], the position of label str(i)
    perm = None if labels in (None, default) else np.array([int(lab) for lab in labels])
    tables = {}
    for key, rows in blocks.items():
        t = _bulk_block(rows, n)
        if t is None:
            t = _token_block(key, rows, n, index)
            if perm is not None:
                t = perm[t]
        tables[key] = t
    if perm is not None:
        inv = np.argsort(perm)
        tables = {key: t[np.ix_(inv, inv)] for key, t in tables.items()}
    return table_singquandle(n, tables["star"], tables["R1"], tables["R2"])


def _token_block(key: str, rows: list[str], n: int, index: dict[str, int]) -> np.ndarray:
    """One block read entry by entry: each entry's position in label order."""
    rows = [row.split() for row in rows]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ParseError(f"block {key} must be {n} rows of {n} entries")
    try:
        return np.array([list(map(index.__getitem__, row)) for row in rows], dtype=np.int64)
    except KeyError:
        entry = next(e for row in rows for e in row if e not in index)
        raise ParseError(f"entry {entry!r} in block {key} is not a declared label") from None


def _bulk_block(rows: list[str], n: int) -> np.ndarray | None:
    """One block of residue entries decoded by numpy at once, or None when
    the block is anything but n rows of n canonical decimals below n
    separated by spaces and tabs; _token_block then reads it, or names
    what is wrong with it."""
    if len(rows) != n:
        return None
    text = "\n".join(rows)
    if not text.isascii():
        return None
    buf = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    digit = (buf >= ord("0")) & (buf <= ord("9"))
    # space and tab separate entries, and newline joins the rows here
    if not (digit | (buf == ord(" ")) | (buf == ord("\t")) | (buf == ord("\n"))).all():
        return None
    starts = digit.copy()
    starts[1:] &= ~digit[:-1]
    row_offsets = np.cumsum([0] + [len(row) + 1 for row in rows[:-1]])
    if np.any(np.add.reduceat(starts, row_offsets, dtype=np.intp) != n):
        return None
    values = np.fromstring(text, dtype=np.int64, sep=" ")
    if values.min() < 0 or values.max() >= n:
        return None
    # an overlong token parses to the int64 maximum and failed above, so
    # each token has at least as many digits as its value's decimal form,
    # and equal totals mean that no token has a leading zero
    decimal_digits = values.size + sum(np.count_nonzero(values >= 10 ** k)
                                       for k in range(1, len(str(n - 1))))
    if np.count_nonzero(digit) != decimal_digits:
        return None
    return values.reshape(n, n)


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
