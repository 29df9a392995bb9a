"""Record the CLI differential digest: ``tests/data/cli_digest.json``.

Each call of a fixed matrix runs the CLI in process and is reduced to the
SHA-256 of its exit code, stdout and stderr.  The matrix covers ``phi`` in
both formats and ``color --list`` for every corpus link over every corpus
structure and every affine(n, t, s) with n <= 5 (gcd(t, n) = 1, 0 <= s < n),
``sqp --format machine`` for each of those structures, ``iso`` for each
pair of distinct structures of one order, ``validate`` of the tables in
:func:`validate_files`, and ``iso`` and ``validate`` over the relabelled
structures of :func:`relabelled_files`, whose generating sets S have 3 or 4
members, so that the mappings ``iso`` prints depend on S.  The structures
are written to files with relative names in the working directory, so
every argv is the same on every machine.

``tests/test_cli.py::test_cli_output_matches_recorded_digest`` compares a
fresh run against the file.  Rerun this script only when a change of CLI
output is intended:

    PYTHONPATH=src python tests/record_cli_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import sys
import tempfile
from pathlib import Path

import numpy as np

from singquandles import corpus
from singquandles.cli import main
from singquandles.core import table_singquandle
from singquandles.fileformats import load_singquandle, render_singquandle
from singquandles.formulas import affine_singquandle

from oracles import union_singquandle

DIGEST_PATH = Path(__file__).parent / "data" / "cli_digest.json"


def write_structures(directory: Path) -> dict[str, int]:
    """The structure arguments of the matrix, corpus ids first, each with
    its order; the affine files are written to directory and named relative
    to it."""
    args = {f"corpus:{cid}": corpus.load(cid).order
            for cid in corpus.ids() if corpus.entry(cid).kind == "singquandle"}
    for n in range(1, 6):
        for t in range(n):
            if math.gcd(t, n) != 1:
                continue
            for s in range(n):
                name = f"affine-{n}-{t}-{s}.sq"
                (directory / name).write_text(render_singquandle(affine_singquandle(n, t, s)))
                args[name] = n
    return args


def raw_text(star, r1, r2) -> str:
    """Table-variant text of three tables with labels 0..n-1, written
    without building a structure, so the tables need not be valid."""
    lines = [f"singquandle n={len(star)}"]
    for key, table in (("star", star), ("R1", r1), ("R2", r2)):
        lines.append(f"{key}:")
        lines += [" ".join(map(str, row)) for row in np.asarray(table).tolist()]
    return "\n".join(lines) + "\n"


def validate_files(directory: Path, structures: list[str]) -> list[str]:
    """The files that ``validate`` reads beside the matrix structures,
    written to directory: for each structure of order n >= 2, three copies
    each with one seeded changed cell, in star, R1 or R2; the trivial star
    x*y = x of order 16 with a seeded R1 and R2(a, b) = R1(b, a), which is
    valid, and with a seeded R2, which is not; the star of order 9 whose
    columns 3 and 8 swap 0 and 1, with R1(x, y) = y and R2(x, y) = x*y,
    which is valid; and a copy of each of the last two with one changed
    cell per table."""
    rng = random.Random(29)
    tables = {}
    for arg in structures:
        q = corpus.load(arg[len("corpus:"):]) if arg.startswith("corpus:") else load_singquandle(arg)
        if q.order >= 2:
            tables[arg.removeprefix("corpus:").removesuffix(".sq")] = (q.star, q.r1, q.r2)
    n, idx = 16, np.arange(16)
    r1 = np.array([[rng.randrange(n) for _ in idx] for _ in idx])
    trivial = np.repeat(idx[:, None], n, axis=1)
    swap = np.repeat(np.arange(9)[:, None], 9, axis=1)
    swap[0, [3, 8]], swap[1, [3, 8]] = 1, 0
    valid = {"trivial-16": (trivial, r1, r1.T),
             "swap-9": (swap, np.repeat(np.arange(9)[None, :], 9, axis=0), swap)}
    names = []
    for stem, three in valid.items():
        names.append(f"{stem}.sq")
        (directory / names[-1]).write_text(raw_text(*three))
    r2 = np.array([[rng.randrange(n) for _ in idx] for _ in idx])
    names.append("trivial-16-r2.sq")
    (directory / names[-1]).write_text(raw_text(trivial, r1, r2))
    tables.update(valid)
    for stem, three in tables.items():
        for which, key in enumerate(("star", "R1", "R2")):
            changed = [np.array(t, dtype=np.int64) for t in three]
            n = len(changed[0])
            a, b = rng.randrange(n), rng.randrange(n)
            changed[which][a, b] = (changed[which][a, b] + 1 + rng.randrange(n - 1)) % n
            names.append(f"{stem}-{key}-changed.sq")
            (directory / names[-1]).write_text(raw_text(*changed))
    return names


def relabelled_files(directory: Path) -> list[tuple[str, str, str]]:
    """For affine(16,3,2), affine(27,2,3), the dihedral affine(12,11,2) and
    a union of two R_3 quandles, the structure and two seeded relabellings
    of it, written to directory: (original, first copy, second copy) names.
    The copies keep the default labels, so ``iso`` prints the permuted
    elements, and the seeds give each a generating set of 3 or 4 members."""
    bases = {"affine-16-3-2": (affine_singquandle(16, 3, 2), 1),
             "affine-27-2-3": (affine_singquandle(27, 2, 3), 0),
             "dihedral-12": (affine_singquandle(12, 11, 2), 2),
             "union-3-3": (union_singquandle([3, 3]), 3)}
    triples = []
    for stem, (q, seed) in bases.items():
        names = (f"{stem}.sq", f"{stem}-relabelled.sq", f"{stem}-relabelled-2.sq")
        copies = [q]
        for s in (seed, seed + 10):
            moved = q.relabel(np.random.default_rng(s).permutation(q.order))
            copies.append(table_singquandle(q.order, moved.star, moved.r1, moved.r2))
        for name, copy in zip(names, copies):
            (directory / name).write_text(render_singquandle(copy))
        triples.append(names)
    return triples


def matrix(directory: Path) -> list[list[str]]:
    """Every argv of the matrix, in a fixed order."""
    orders = write_structures(directory)
    structures = list(orders)
    links = [f"corpus:{cid}" for cid in corpus.ids() if corpus.entry(cid).kind != "singquandle"]
    calls = []
    for q in structures:
        calls.append(["sqp", q, "--format", "machine"])
        for link in links:
            calls += [["phi", link, q], ["phi", link, q, "--format", "machine"],
                      ["color", link, q, "--list"]]
    for i, first in enumerate(structures):
        for second in structures[i + 1:]:
            if orders[first] == orders[second]:
                calls.append(["iso", first, second])
    for q in structures + validate_files(directory, structures):
        calls.append(["validate", q])
    for original, first, second in relabelled_files(directory):
        calls += [["iso", first, original], ["iso", original, first], ["iso", first, second],
                  ["validate", first], ["validate", second]]
    return calls


def digest(argv: list[str]) -> str:
    """SHA-256 of the exit code, stdout and stderr of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    blob = f"{code}\0{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_matrix() -> dict[str, str]:
    """The digest of every call, keyed by its argv joined by spaces, run in
    a temporary working directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            return {" ".join(argv): digest(argv) for argv in matrix(Path(tmp))}
        finally:
            os.chdir(cwd)


def main_record() -> int:
    calls = run_matrix()
    DIGEST_PATH.parent.mkdir(exist_ok=True)
    DIGEST_PATH.write_text(json.dumps(calls, indent=0) + "\n")
    print(f"{len(calls)} calls written to {DIGEST_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main_record())
