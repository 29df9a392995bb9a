"""Record the CLI differential digest: ``tests/data/cli_digest.json``.

Each call of a fixed matrix runs the CLI in process and is reduced to the
SHA-256 of its exit code, stdout and stderr.  The matrix covers ``phi`` in
both formats and ``color --list`` for every corpus link over every corpus
structure and every affine(n, t, s) with n <= 5 (gcd(t, n) = 1, 0 <= s < n),
``sqp --format machine`` for each of those structures, and ``iso`` for each
pair of distinct structures of one order.  The affine structures are written
to files with relative names in the working directory, so every argv is the
same on every machine.

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
import sys
import tempfile
from pathlib import Path

from singquandles import corpus
from singquandles.cli import main
from singquandles.fileformats import render_singquandle
from singquandles.formulas import affine_singquandle

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
