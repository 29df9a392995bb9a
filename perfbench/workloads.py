"""Seeded inputs and golden outputs for the three benchmark workloads.

Every target structure is written as a table on 0..n-1 with default labels,
after renaming its elements by a permutation drawn from the seed.  Default
labels matter: the loader normalises a labelled permutation of the residues
back to residue order, which would undo the renaming.  Coloring counts, phi
and validity are isomorphism invariants, so the golden outputs below hold
for every seed.  They were recorded from the code this benchmark was
written against.

The tables are built here with numpy alone, never through the package, so
generating the inputs loads none of the code under test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Case:
    """One CLI invocation and what it must produce."""

    name: str
    argv: tuple[str, ...]
    stdout: str
    exit_code: int = 0
    stderr_needs: str = ""  # substring the captured stderr must contain


def _poly_table(n: int, terms) -> np.ndarray:
    """Table of sum(c * x^i * y^j) mod n for terms (c, i, j); rows are x."""
    xs = np.arange(n, dtype=np.int64)[:, None]
    ys = np.arange(n, dtype=np.int64)[None, :]
    out = np.zeros((n, n), dtype=np.int64)
    for c, i, j in terms:
        out = (out + (c % n) * (xs ** i % n) * (ys ** j % n)) % n
    return out


def affine_tables(n: int, t: int, s: int):
    """star, R1, R2 of the affine family over Z_n:
    a*b = t*a + (1-t)*b, R1(a,b) = s*a + (1-s)*b, R2(a,b) = t*(1-s)*a + (1-t+s*t)*b."""
    return (_poly_table(n, [(t, 1, 0), (1 - t, 0, 1)]),
            _poly_table(n, [(s, 1, 0), (1 - s, 0, 1)]),
            _poly_table(n, [(t * (1 - s), 1, 0), (1 - t + s * t, 0, 1)]))


def x_z8_a_tables():
    """The corpus structure X-Z8-a, from the formulas in its corpus file."""
    return (_poly_table(8, [(7, 1, 0), (6, 0, 1), (4, 1, 1)]),
            _poly_table(8, [(2, 1, 0), (7, 0, 1), (4, 1, 1)]),
            _poly_table(8, [(4, 2, 0), (5, 1, 0), (4, 0, 1)]))


class Inputs:
    """Writes renamed target tables into ``workdir``, drawing every
    permutation and perturbation from one generator seeded by ``seed``."""

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self._written = 0

    def write(self, tables, perturb_r1: bool = False) -> str:
        star, r1, r2 = tables
        n = len(star)
        p = self.rng.permutation(n)
        inv = np.argsort(p)

        def rename(t):  # new[p[x], p[y]] = p[old[x, y]]
            return p[t[np.ix_(inv, inv)]]

        star, r1, r2 = rename(star), rename(r1), rename(r2)
        if perturb_r1:
            a, b = self.rng.integers(n, size=2)
            r1[a, b] = (r1[a, b] + 1 + self.rng.integers(n - 1)) % n
        lines = [f"singquandle n={n}"]
        for key, table in (("star", star), ("R1", r1), ("R2", r2)):
            lines.append(f"{key}:")
            lines.extend(" ".join(map(str, row)) for row in table.tolist())
        self._written += 1
        path = self.workdir / f"target{self._written}.sq"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)


def expected_json(root: Path) -> dict:
    """The package's recorded corpus invariants, read as a plain file."""
    path = root / "src" / "singquandles" / "corpus" / "v1" / "expected.json"
    return json.loads(path.read_text(encoding="utf-8"))


def corpus_probe(inp: Inputs, expected: dict) -> Case:
    """phi of 1_1l over a renamed X-Z8-a, checked against expected.json.

    Every workload ends with this case.  It takes a few milliseconds, well
    under 1% of any pass, and it calls every traced layer, so each per-layer
    time is measured on every workload instead of reading exactly 0.
    """
    return Case("phi 1_1l X-Z8-a (human)", ("phi", "corpus:1_1l", inp.write(x_z8_a_tables())),
                expected["1_1l"]["phi"]["X-Z8-a"] + "\n")


# validate-tables: the fileformats parse and the core/kernels axiom scans,
# with the largest n^3 temporaries (n=256).  The perturbed table makes the
# scans collect and report violations instead of passing.  Enumeration and
# phi are bypassed.
def validate_tables(inp: Inputs, expected: dict) -> list[Case]:
    cases = [Case(f"validate affine({n},3,2)", ("validate", inp.write(affine_tables(n, 3, 2))),
                  f"valid singquandle of order {n}\n")
             for n in (64, 128, 256)]
    cases.append(Case("validate affine(128,3,2) with one R1 entry changed",
                      ("validate", inp.write(affine_tables(128, 3, 2), perturb_r1=True)),
                      "", exit_code=4, stderr_needs="singular-"))
    return cases + [corpus_probe(inp, expected)]


# color-sparse: few colorings (n to 4n) and wide PD presentations put almost
# all the time into kernels.enumerate_colorings and its frontier memory, so
# a faster coloring solver shows here.  Closure and ssqp are bypassed.
COLOR_GOLDEN = {
    ("1_1l", 64): "256", ("1_1l-pd", 64): "256", ("6_11l", 64): "128", ("6_11l-pd", 64): "128",
    ("K1", 64): "64", ("K1-pd", 64): "64", ("K2", 64): "64", ("K2-pd", 64): "64",
    ("6_11l-pd", 128): "256", ("K1-pd", 128): "128",
}


def color_sparse(inp: Inputs, expected: dict) -> list[Case]:
    a64 = inp.write(affine_tables(64, 3, 2))
    a128 = inp.write(affine_tables(128, 3, 2))
    xz8 = inp.write(x_z8_a_tables())
    cases = [Case(f"color {link} affine({n},3,2)",
                  ("color", "--format", "machine", f"corpus:{link}", a64 if n == 64 else a128),
                  count + "\n")
             for (link, n), count in COLOR_GOLDEN.items()]
    cases += [Case(f"color {link} X-Z8-a", ("color", "--format", "machine", f"corpus:{link}", xz8),
                   f"{expected[link]['counting']['X-Z8-a']}\n")
              for link in ("6_11l", "1_1l")]
    return cases + [corpus_probe(inp, expected)]


# phi-images: closure, profiles and ssqp take over 90% of the time and
# enumeration under 2%.  The dihedral target repeats images (2304 colorings,
# 124 distinct images), the trivial one mostly does not (4096 colorings, 2080
# distinct images), so image memoization is exercised on one and bypassed on
# the other while the profile-recompute cost is paid on both.
PHI_DIHEDRAL = (
    "768 2 2 1 1 48 48 48\n384 2 2 1 1 48 48 16\n384 2 2 1 1 48 48 24\n"
    "192 2 2 1 1 48 48 8\n192 2 2 1 1 48 48 12\n96 2 2 1 1 48 48 3\n"
    "96 2 2 1 1 48 48 4\n96 2 2 1 1 48 48 6\n48 2 2 1 1 48 48 1\n48 2 2 1 1 48 48 2\n"
)
PHI_TRIVIAL = "4032 64 64 1 1 64 64 2\n64 64 64 1 1 64 64 1\n"


def phi_images(inp: Inputs, expected: dict) -> list[Case]:
    targets = [("dihedral affine(48,47,2)", inp.write(affine_tables(48, 47, 2)), PHI_DIHEDRAL),
               ("trivial affine(64,1,0)", inp.write(affine_tables(64, 1, 0)), PHI_TRIVIAL)]
    cases = [Case(f"phi {link} {label}", ("phi", "--format", "machine", f"corpus:{link}", path), golden)
             for label, path, golden in targets
             for link in ("1_1l", "1_1l-pd", "1_1l-2gen")]
    return cases + [corpus_probe(inp, expected)]


WORKLOADS = {
    "validate-tables": validate_tables,
    "color-sparse": color_sparse,
    "phi-images": phi_images,
}
