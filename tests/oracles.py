"""Slow reference implementations used to cross-check the package.

Everything here is written with plain loops and dicts on purpose.  None of
it shares code with the numpy kernels, so agreement between the two
is meaningful evidence rather than a tautology.
"""

from __future__ import annotations

import itertools

from singquandles.core import FiniteSingquandle, table_singquandle
from singquandles.errors import NotRightInvertibleError, ParseError
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


def shift_singquandle(n: int, s: int = 1) -> FiniteSingquandle:
    """Trivial star with R1(x,y) = y+s and R2(x,y) = x+s mod n.

    Satisfies all five identities for every s; for s != 0 the R1 diagonal
    has no fixed points, which makes x = R1(x,x) unsatisfiable.
    """
    star = [[x for _ in range(n)] for x in range(n)]
    r1 = [[(y + s) % n for y in range(n)] for _ in range(n)]
    r2 = [[(x + s) % n for _ in range(n)] for x in range(n)]
    return table_singquandle(n, star, r1, r2)


def violation_rows(star, bar, r1, r2, cap):
    """Violation rows (code, a, b, c), -1 padded, from plain loops.

    Returns the quandle rows and the singular rows, each in (code, a, b, c)
    order with at most cap rows per code.  The singular list is empty when
    bar is None (star is not right-invertible).
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

    def capped(groups):
        return [row for rows in groups.values() for row in rows[:cap]]

    return capped(quandle), capped(singular)


def star_closure(star, seed) -> set[int]:
    """Smallest set containing seed and closed under star alone."""
    members = set(seed)
    while True:
        new = {star[a][b] for a in members for b in members}
        if new <= members:
            return members
        members |= new


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
