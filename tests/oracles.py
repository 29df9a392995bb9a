"""Slow reference implementations used to cross-check the package.

Everything here is written with plain loops and dicts on purpose.  None of
it shares code with the numpy kernels, so agreement between the two
is meaningful evidence rather than a tautology.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from singquandles.core import FiniteSingquandle, table_singquandle
from singquandles.errors import ParseError
from singquandles.terms import Apply, Gen


def quandle_ok(star) -> bool:
    n = len(star)
    for a in range(n):
        if star[a][a] != a:
            return False
    for b in range(n):
        if sorted(star[a][b] for a in range(n)) != list(range(n)):
            return False
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if star[star[a][b]][c] != star[star[a][c]][star[b][c]]:
                    return False
    return True


def sing_ok(star, bar, r1, r2) -> bool:
    """The five compatibility identities, transcribed one-to-one."""
    n = len(star)
    for a in range(n):
        for b in range(n):
            if r2[a][b] != r1[b][star[a][b]]:
                return False
            if star[r1[a][b]][r2[a][b]] != r2[b][star[a][b]]:
                return False
            for c in range(n):
                if star[r1[bar[a][b]][c]][b] != r1[a][star[c][b]]:
                    return False
                if r2[bar[a][b]][c] != bar[r2[a][star[c][b]]][b]:
                    return False
                if star[bar[b][r1[a][c]]][a] != bar[star[b][r2[a][c]]][c]:
                    return False
    return True


def profile_of(q: FiniteSingquandle, x: int) -> tuple[int, ...]:
    """Row count: how many y leave x fixed.  Column count: how many y are
    left fixed by x."""
    out = []
    for table in (q.star, q.r1, q.r2):
        row = sum(1 for y in range(q.order) if table[x][y] == x)
        col = sum(1 for y in range(q.order) if table[y][x] == y)
        out.extend((row, col))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class UncheckedTables:
    """Tables that no axiom is checked on, for code that needs none: the
    closure kernel reads only these fields, while a FiniteSingquandle is
    validated when it is built."""

    order: int
    star: np.ndarray
    r1: np.ndarray
    r2: np.ndarray


def brute_isomorphism(q1: FiniteSingquandle, q2: FiniteSingquandle):
    """The first permutation p of 0..n-1, in itertools order, with
    op2(p(a), p(b)) == p(op1(a, b)) for all a, b in each of the three
    tables, or None.  n! candidates: for orders up to about 6."""
    if q1.order != q2.order:
        return None
    pairs = [(t1.tolist(), t2.tolist()) for t1, t2 in
             ((q1.star, q2.star), (q1.r1, q2.r1), (q1.r2, q2.r2))]
    cells = [(a, b) for a in range(q1.order) for b in range(q1.order)]
    for p in itertools.permutations(range(q1.order)):
        if all(t2[p[a]][p[b]] == p[t1[a][b]] for t1, t2 in pairs for a, b in cells):
            return p
    return None


def naive_closure(q: FiniteSingquandle, seed) -> frozenset[int]:
    members = set(seed)
    while True:
        new = set()
        for a in members:
            for b in members:
                new.update((q.star[a][b], q.r1[a][b], q.r2[a][b]))
        if new <= members:
            return frozenset(members)
        members |= new


def naive_sqp_terms(q: FiniteSingquandle) -> dict[tuple[int, ...], int]:
    terms: dict[tuple[int, ...], int] = {}
    for x in range(q.order):
        mono = profile_of(q, x)
        terms[mono] = terms.get(mono, 0) + 1
    return terms


def naive_qp_terms(star) -> dict[tuple[int, int], int]:
    """Two-variable polynomial of the star table alone: one (row, column)
    fixed-count monomial per element."""
    n = len(star)
    terms: dict[tuple[int, int], int] = {}
    for x in range(n):
        row = sum(1 for y in range(n) if star[x][y] == x)
        col = sum(1 for y in range(n) if star[y][x] == y)
        terms[(row, col)] = terms.get((row, col), 0) + 1
    return terms


def eval_tree(term, q: FiniteSingquandle, env) -> int:
    if isinstance(term, Gen):
        return env[term.name]
    assert isinstance(term, Apply)
    a = eval_tree(term.left, q, env)
    b = eval_tree(term.right, q, env)
    table = {"*": q.star, "/": q.bar, "R1": q.r1, "R2": q.r2}[term.op]
    return int(table[a][b])


def brute_homs(pres, q: FiniteSingquandle) -> list[dict[str, int]]:
    """Try every assignment of elements to generators."""
    gens = pres.generators
    out = []
    for values in itertools.product(range(q.order), repeat=len(gens)):
        env = dict(zip(gens, values))
        if all(eval_tree(lhs, q, env) == eval_tree(rhs, q, env)
               for lhs, rhs in pres.relations):
            out.append(env)
    return out


def affine_coloring_count(pres, n: int, t: int, s: int) -> int:
    """The number of colorings of pres by affine(n, t, s), from its linear
    relations alone.  Each term becomes a vector of integer coefficients over
    the generators and one auxiliary u per ``/``: ``a/b`` is the u with
    t*u + (1-t)*b = a, unique since t is a unit mod n.  The relations and
    these equations form an integer matrix A, and the colorings are the x
    with A x = 0 mod n.  Unimodular row and column operations bring A to a
    diagonal d_1..d_r without changing that count, which is then
    prod gcd(d_i, n) * n^(vars - r); the divisibility of the Smith form is
    not needed for it (Inoue, Knot quandles and infinite cyclic covering
    spaces, 2001)."""
    index = {g: i for i, g in enumerate(pres.generators)}
    aux = itertools.count(len(index))  # the auxiliaries' columns
    eqs = []

    def vector(term) -> dict[int, int]:
        if isinstance(term, Gen):
            return {index[term.name]: 1}
        a, b = vector(term.left), vector(term.right)
        if term.op == "/":
            u = {next(aux): 1}
            eqs.append(_combine((t, u), (1 - t, b), (-1, a)))
            return u
        x, y = {"*": (t, 1 - t), "R1": (s, 1 - s), "R2": (t * (1 - s), 1 - t + s * t)}[term.op]
        return _combine((x, a), (y, b))

    for lhs, rhs in pres.relations:
        eqs.append(_combine((1, vector(lhs)), (-1, vector(rhs))))
    width = next(aux)
    rows = [[e.get(j, 0) % n for j in range(width)] for e in eqs]
    count = n ** width
    for d in _diagonal(rows, n):
        count = count // n * math.gcd(d, n)
    return count


def _combine(*scaled) -> dict[int, int]:
    out: dict[int, int] = {}
    for c, vec in scaled:
        for j, v in vec.items():
            out[j] = out.get(j, 0) + c * v
    return out


def _diagonal(rows: list[list[int]], n: int) -> list[int]:
    """The nonzero diagonal entries, mod n, that integer row and column
    operations bring rows to.  Each pivot is the least nonzero entry left; a
    remainder in its row or column becomes the next, smaller pivot."""
    rows = [r[:] for r in rows]
    out = []
    while True:
        cells = [(v, i, j) for i, r in enumerate(rows) for j, v in enumerate(r) if v]
        if not cells:
            return out
        p, i, j = min(cells)
        rows[0], rows[i] = rows[i], rows[0]
        for r in rows:
            r[0], r[j] = r[j], r[0]
        while True:
            for r in rows[1:]:
                q = r[0] // p
                for k in range(len(r)):
                    r[k] = (r[k] - q * rows[0][k]) % n
            top = rows[0]
            for k in range(1, len(top)):
                q = top[k] // p
                for r in rows:
                    r[k] = (r[k] - q * r[0]) % n
            # remainders left in the pivot's column (rows i > 0) and row (columns -k)
            rest = ([(r[0], i) for i, r in enumerate(rows) if i and r[0]]
                    + [(v, -k) for k, v in enumerate(top) if k and v])
            if not rest:
                break
            p, at = min(rest)
            if at > 0:
                rows[0], rows[at] = rows[at], rows[0]
            else:
                for r in rows:
                    r[0], r[-at] = r[-at], r[0]
        out.append(p)
        rows = [r[1:] for r in rows[1:]]


def shift_singquandle(n: int, s: int = 1) -> FiniteSingquandle:
    """Trivial star with R1(x,y) = y+s and R2(x,y) = x+s mod n.

    Satisfies all five identities for every s; for s != 0 the R1 diagonal
    has no fixed points, which makes x = R1(x,x) unsatisfiable.
    """
    star = [[x for _ in range(n)] for x in range(n)]
    r1 = [[(y + s) % n for y in range(n)] for _ in range(n)]
    r2 = [[(x + s) % n for _ in range(n)] for x in range(n)]
    return table_singquandle(n, star, r1, r2)


def union_singquandle(sizes, perm=None) -> FiniteSingquandle:
    """A disjoint union of dihedral quandles R_m (x*y = 2y - x mod m), one
    component per odd size m >= 3 in sizes, with x*y = x across components,
    R1(x, y) = y and R2(x, y) = x*y, which satisfy the five identities over
    any quandle.  Every column is a different map and every component is one
    Inn-orbit, so a union of many R_3 has about n distinct columns and n/3
    orbits.  perm, a permutation of 0..n-1, renames element x as perm[x]."""
    comp = []  # (offset, size) of each element's component
    for m in sizes:
        comp.extend([(len(comp), m)] * m)
    n = len(comp)
    perm = list(range(n)) if perm is None else [int(p) for p in perm]
    star = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            (o, m), z = comp[x], x
            if comp[y] == comp[x]:
                z = o + (2 * (y - o) - (x - o)) % m
            star[perm[x]][perm[y]] = perm[z]
    r1 = [[y for y in range(n)] for _ in range(n)]
    return table_singquandle(n, star, r1, star)


def element_orbits(star) -> list[int]:
    """The least element of each element's orbit under the maps y -> y*x,
    by breadth-first search from every element.  For a right-invertible
    star these maps are permutations, so what one element reaches is its
    orbit."""
    n = len(star)
    least = []
    for x in range(n):
        orbit, frontier = {x}, [x]
        while frontier:
            found = []
            for y in frontier:
                for s in range(n):
                    z = int(star[y][s])
                    if z not in orbit:
                        orbit.add(z)
                        found.append(z)
            frontier = found
        least.append(min(orbit))
    return least


def violation_rows(star, bar, r1, r2):
    """Every violation row (code, a, b, c), -1 padded, from plain loops.

    Returns the quandle rows and the singular rows, each in (code, a, b, c)
    order; a report shows the first rows of their concatenation.  The
    singular list is empty when bar is None (star is not right-invertible).
    """
    star, r1, r2 = ([[int(v) for v in row] for row in t] for t in (star, r1, r2))
    n = len(star)
    els = range(n)
    quandle: dict[int, list] = {0: [], 1: [], 2: []}
    for a in els:
        if star[a][a] != a:
            quandle[0].append((0, a, -1, -1))
    for y in els:
        for z in els:
            if sum(1 for x in els if star[x][y] == z) != 1:
                quandle[1].append((1, y, z, -1))
    for a in els:
        for b in els:
            for c in els:
                if star[star[a][b]][c] != star[star[a][c]][star[b][c]]:
                    quandle[2].append((2, a, b, c))

    singular: dict[int, list] = {k: [] for k in range(1, 6)}
    if bar is not None:
        bar = [[int(v) for v in row] for row in bar]
        for a in els:
            for b in els:
                for c in els:
                    if star[r1[bar[a][b]][c]][b] != r1[a][star[c][b]]:
                        singular[1].append((1, a, b, c))
                    if r2[bar[a][b]][c] != bar[r2[a][star[c][b]]][b]:
                        singular[2].append((2, a, b, c))
                    if star[bar[b][r1[a][c]]][a] != bar[star[b][r2[a][c]]][c]:
                        singular[3].append((3, a, b, c))
        for a in els:
            for b in els:
                if r2[a][b] != r1[b][star[a][b]]:
                    singular[4].append((4, a, b, -1))
                if star[r1[a][b]][r2[a][b]] != r2[b][star[a][b]]:
                    singular[5].append((5, a, b, -1))

    def joined(groups):
        return [row for rows in groups.values() for row in rows]

    return joined(quandle), joined(singular)


def star_closure(star, seed) -> set[int]:
    """Smallest set containing seed and closed under star alone."""
    members = set(seed)
    while True:
        new = {star[a][b] for a in members for b in members}
        if new <= members:
            return members
        members |= new


def greedy_generators(star) -> list[int]:
    """The generating set validation keeps, ascending, from plain loops:
    every element whose column is the identity map, then each element, in
    ascending order, outside the star_closure of those taken so far."""
    n = len(star)
    gens = [g for g in range(n) if all(star[x][g] == x for x in range(n))]
    inside = star_closure(star, gens)
    for g in range(n):
        if g not in inside:
            gens.append(g)
            inside = star_closure(star, inside | {g})
    return sorted(gens)


def inner_automorphisms(star) -> set[tuple[int, ...]]:
    """Every element of Inn(X), as image tuples: breadth-first over
    compositions of all the right translations y -> y*x, from the identity."""
    n = len(star)
    rights = {tuple(star[y][x] for y in range(n)) for x in range(n)}
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        found = []
        for g in frontier:
            for r in rights:
                h = tuple(r[g[y]] for y in range(n))
                if h not in group:
                    group.add(h)
                    found.append(h)
        frontier = found
    return group


def seed_orbits(star, seeds) -> list[set[frozenset[int]]]:
    """The given seed sets split into their orbits under all of Inn(X)."""
    inn = inner_automorphisms(star)
    left = {frozenset(s) for s in seeds}
    orbits = []
    while left:
        seed = left.pop()
        orbit = {frozenset(g[x] for x in seed) for g in inn}
        left -= orbit
        orbits.append(orbit)
    return orbits


class NotRightInvertibleError(Exception):
    """A star column that is not a permutation, so no inverse operation exists."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"star column {column} is not a permutation")


def bar_by_columns(star) -> list[list[int]]:
    """bar[z][b] is the a with star[a][b] == z, one column at a time;
    NotRightInvertibleError names the first column that is not a
    permutation of 0..n-1."""
    n = len(star)
    bar = [[-1] * n for _ in range(n)]
    for b in range(n):
        col = [int(star[a][b]) for a in range(n)]
        if sorted(col) != list(range(n)):
            raise NotRightInvertibleError(b)
        for a, z in enumerate(col):
            bar[z][b] = a
    return bar


def read_table_file(text: str) -> FiniteSingquandle:
    """A table-variant file read entry by entry: each row split into
    strings, each entry looked up in the labels, and tables whose labels
    are the residues 0..n-1 relabelled into residue order by their
    permutation.  Takes a well-formed ``singquandle n=<order>`` header and
    raises the loader's ParseError texts for everything after it."""
    lines = [line for line in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if line]
    assert lines[0].startswith("singquandle n=")
    n = int(lines[0][len("singquandle n="):])
    labels = None
    blocks: dict[str, list[list[str]]] = {}
    current = None
    for line in lines[1:]:
        if line.startswith("labels:"):
            if "," in line:
                raise ParseError("a label must not contain ','")
            if labels is not None or blocks:
                raise ParseError("a labels line must come once, before the first table block")
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
        for row in rows:
            for entry in row:
                if entry not in index:
                    raise ParseError(f"entry {entry!r} in block {key} is not a declared label")
        tables[key] = [[index[entry] for entry in row] for row in rows]
    if set(labels) != {str(i) for i in range(n)}:
        return table_singquandle(n, tables["star"], tables["R1"], tables["R2"], labels=labels)
    perm = [int(lab) for lab in labels]  # element i of the file is residue perm[i]
    residue = {}
    for key, t in tables.items():
        out = [[-1] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                out[perm[i]][perm[j]] = perm[t[i][j]]
        residue[key] = out
    return table_singquandle(n, residue["star"], residue["R1"], residue["R2"])


def braid_closure(word: str, strands: int) -> str:
    """The PD code of the closure of a singular braid on ``strands`` strands.

    word is space-separated letters on the positions i, i+1 (counted from 1
    on the left): ``s<i>`` for sigma_i, ``S<i>`` for its inverse and
    ``t<i>`` for the singular crossing tau_i.  With l, r the current labels
    at those positions and l', r' fresh ones, sigma_i (the right strand
    over) is P[l, r, l', r'], its inverse (the left strand over)
    N[r, l, r', l'] and tau_i S[l, r, l', r']; the closure then renames each
    position's last label to its first.  A strand that no letter touches
    would be a component with no crossing, which a PD code cannot carry, so
    such a word is refused."""
    first = [f"a{p}" for p in range(strands)]
    labels = list(first)
    crossings = []
    for k, letter in enumerate(word.split()):
        i = int(letter[1:]) - 1
        l, r, nl, nr = labels[i], labels[i + 1], f"l{k}", f"r{k}"
        crossings.append({"s": ("P", l, r, nl, nr), "S": ("N", r, l, nr, nl),
                          "t": ("S", l, r, nl, nr)}[letter[0]])
        labels[i], labels[i + 1] = nl, nr
    untouched = [p + 1 for p in range(strands) if labels[p] == first[p]]
    if untouched:
        raise ValueError(f"{word!r} touches no crossing on strand(s) {untouched}")
    rename = dict(zip(labels, first))
    return " ".join(f"{kind}[{','.join(rename.get(p, p) for p in ports)}]"
                    for kind, *ports in crossings)
