"""Integer-table kernels for the two hot loops: axiom validation and
coloring enumeration.  numpy is the only implementation.

Validation is an exact proof that runs in O(|S| n^2 + k n^2) for a
generating set S of (X, *) and k Inn-orbits, with the slab scan of all n^3
triples as the fallback that finds the witnesses.  Write rho_s for the map
x -> x*s.  Self-distributivity at (a, b, s) says that rho_s is a
*-homomorphism, and the first two compatibility identities at b say that
rho_b preserves R1 and R2.  When rho_c is a bijective homomorphism,
rho_{b*c} = rho_c rho_b rho_c^-1 (Joyce, JPAA 1982), so the elements whose
rho is an automorphism of (X, *, R1, R2) are closed under *, and checking
the rho_s for s in S proves axiom (iii) and identities 1 and 2 for every
element.  Identities 4 and 5 are n^2 checks that run first.  Identity 4
makes R2(a, b) = R1(b, a*b), so a rho_s that preserves star and R1 also
preserves R2, and one n x n comparison per s and table covers both.
Identity 3 is then invariant under the diagonal action of Inn(X), which
the rho_s generate, so one n x n slab per Inn-orbit proves it.
:func:`generating_set` finds S greedily.  The worst case stays n^3: a star
with many Inn-orbits, such as the trivial star x*y = x, where |S| = n and
every orbit is one element.

When a step of the proof fails, the kernels run the full scan, so the
reported rows never depend on the proof.  The scans of the n^3 identities
run in slabs over ``a``: one n x n block per identity per step, built from
row gathers and flat ``take`` on the n x n tables, so memory stays O(n^2).
Each identity reads its slabs in (a, b, c) order and stops once it has
``cap`` rows.

Violation rows are ``[code, a, b, c]`` with unused slots set to -1; the
``cap`` argument bounds the rows reported per axiom or identity, so a
report stays small even for wildly invalid tables.
Quandle codes: 0 idempotence (witness a), 1 right-invertibility (witness
column y and value z with preimage count != 1), 2 self-distributivity
(witness a, b, c).  Singular codes 1..5 follow the five compatibility
identities, witnesses (a, b, c) or (a, b) for the pair identities 4 and 5.

Coloring programs are postorder instruction arrays over int64 tables:
opcode 0 pushes generator ``arg``, opcodes 1..4 pop two values and apply
star, bar, R1, R2.  A search plan is a table of steps ``[kind, target,
start, end, start2, end2, op, side]`` run in order: STEP_FREE tries every
value of generator ``target``, STEP_DERIVE sets it to the value of program
``code[start:end]``, STEP_CHECK rejects an assignment on which the programs
``code[start:end]`` and ``code[start2:end2]`` differ.  STEP_JOIN binds
``target`` to every v with ``T[A, v] = B`` (side 1) or ``T[v, A] = B``
(side 0), where T is the table of opcode ``op``, A is program
``code[start:end]`` and B is program ``code[start2:end2]``; ``op`` and
``side`` are 0 on the other kinds.  A join looks its values up in an
inverted index of T, built once per (op, side) in O(n^2): the v of each
(A, B) pair form one bucket, so the frontier grows by the bucket sizes, not
n-fold (an index nested-loop join; Selinger et al., SIGMOD 1979).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "generating_set",
    "moving_rhos",
    "quandle_violations",
    "sing_violations",
    "enumerate_colorings",
]

OP_GEN, OP_STAR, OP_BAR, OP_R1, OP_R2 = 0, 1, 2, 3, 4
STEP_FREE, STEP_DERIVE, STEP_CHECK, STEP_JOIN = 0, 1, 2, 3

_NO_ROWS = np.empty((0, 4), dtype=np.int64)


def _pack(code: int, *cols) -> np.ndarray:
    """Violation rows [code, w0, w1, w2] from witness columns, -1 padded."""
    out = np.full((len(cols[0]), 4), -1, dtype=np.int64)
    out[:, 0] = code
    for k, col in enumerate(cols):
        out[:, k + 1] = col
    return out


def _narrow(*tables) -> list[np.ndarray]:
    """The tables as contiguous int16 when every entry fits (order at most
    2**15), else int64.  The slab scans gather from the whole tables at each
    step; int16 quarters the bytes read, which halved the scan time at
    n=256 on a 2-vCPU Xeon VM.  Flat indices built from these entries are
    int64."""
    dtype = np.int16 if tables[0].shape[0] <= 1 << 15 else np.int64
    return [np.ascontiguousarray(t, dtype=dtype) for t in tables]


def _slab_rows(code: int, n: int, cap: int, block) -> np.ndarray:
    """At most cap rows [code, a, b, c] at which the two n x n blocks of
    ``block(a)`` differ in cell (b, c).  a runs upward and each block is read
    row-major, which is the order of an (a, b, c) triple loop; the scan stops
    at the first a that brings the count to cap."""
    found = []
    count = 0
    for a in range(n):
        if count >= cap:
            break
        lhs, rhs = block(a)
        bad = np.flatnonzero(lhs != rhs)
        if bad.size:
            b, c = np.divmod(bad, n)
            found.append(_pack(code, np.full_like(b, a), b, c))
            count += bad.size
    return np.concatenate(found)[:cap] if found else _NO_ROWS


def _fresh(values: np.ndarray, seen: np.ndarray) -> np.ndarray:
    """The distinct entries of values not yet in the mask seen, ascending,
    now added to it.  A mask over the n elements does what ``np.unique``
    would, without its sort."""
    hit = np.zeros(len(seen), dtype=bool)
    hit[values] = True
    hit &= ~seen
    seen |= hit
    return np.flatnonzero(hit)


def generating_set(star) -> np.ndarray:
    """A generating set S of (X, *), ascending.  Greedy: the lowest element
    outside the *-closure of S so far joins S, then the closure grows
    semi-naively, multiplying only the new elements with the members, so
    each product is taken at most twice and the cost is O(n^2)."""
    star = np.asarray(star)
    n = star.shape[0]
    inside = np.zeros(n, dtype=bool)
    members = np.empty(0, dtype=np.int64)
    gens = []
    for g in range(n):
        if inside[g]:
            continue
        gens.append(g)
        inside[g] = True
        new = np.array([g])
        while new.size:
            members = np.concatenate([members, new])
            new = _fresh(np.concatenate([star[np.ix_(new, members)].ravel(),
                                         star[np.ix_(members, new)].ravel()]), inside)
    return np.array(gens, dtype=np.int64)


def moving_rhos(star: np.ndarray, gens) -> np.ndarray:
    """Rows rho_s = star[:, s] for the s in gens whose rho_s is not the
    identity; an identity map preserves every table."""
    rhos = np.ascontiguousarray(star[:, gens].T)
    return rhos[np.any(rhos != np.arange(star.shape[0]), axis=1)]


def _preserved(rhos: np.ndarray, table: np.ndarray) -> bool:
    """Whether every row rho of rhos preserves table:
    table[rho(x), rho(y)] == rho(table[x, y]) for all x, y."""
    return all(np.array_equal(table[np.ix_(rho, rho)], rho.take(table)) for rho in rhos)


def _orbit_reps(rhos: np.ndarray, n: int):
    """The least element of each orbit of the group that the permutations
    in rhos generate.  The inverse of a permutation of a finite set is one
    of its powers, so the images alone reach every orbit."""
    if not len(rhos):
        return range(n)
    seen = np.zeros(n, dtype=bool)
    reps = []
    for x in range(n):
        if seen[x]:
            continue
        reps.append(x)
        seen[x] = True
        frontier = np.array([x])
        while frontier.size:
            frontier = _fresh(rhos[:, frontier].ravel(), seen)
    return reps


def quandle_violations(star: np.ndarray, cap: int, gens=None) -> np.ndarray:
    """Rows of the quandle axioms, at most cap per axiom.

    ``gens``, a generating set of (X, *) such as :func:`generating_set`
    returns, lets a right-invertible star prove self-distributivity with
    one n x n comparison per moving rho_s; without it, or when that proof
    fails, the slab scan runs."""
    star = _narrow(star)[0]
    n = star.shape[0]
    idx = np.arange(n, dtype=np.int64)

    idem = _pack(0, np.flatnonzero(star[idx, idx] != idx)[:cap])

    # flat[x, y] = y*n + x*y indexes cell (y, x*y) of an n x n table
    flat = star + idx * n

    # counts[y, z] = number of x with x*y = z; every count must be exactly 1
    counts = np.bincount(flat.ravel(), minlength=n * n)
    inv = _pack(1, *np.divmod(np.flatnonzero(counts != 1)[:cap], n))
    del counts

    def distributive(a):  # (a*b)*c == (a*c)*(b*c)
        m = star[star[a]]  # m[b, c] = (a*b)*c
        return m, m.ravel().take(flat)

    if gens is not None and not inv.size and _preserved(moving_rhos(star, gens), star):
        dist = _NO_ROWS
    else:
        dist = _slab_rows(2, n, cap, distributive)
    return np.concatenate([idem, inv, dist])


def sing_violations(star, bar, r1, r2, cap: int, gens=None) -> np.ndarray:
    """Rows of the five compatibility identities, at most cap per identity;
    bar must be the right inverse of star.

    ``gens`` may be given only for a star that satisfies the quandle axioms
    (quandle_violations found no row), with the generating set it was
    checked through.  Identities 4 and 5 are then checked, then that each
    moving rho_s preserves R1 (and so R2), then identity 3 at one element
    per Inn-orbit; without gens, or when a step fails, the slab scan runs."""
    star, bar, r1, r2 = _narrow(star, bar, r1, r2)
    n = star.shape[0]
    idx = np.arange(n, dtype=np.int64)

    # 4: R2(a,b) == R1(b, a*b) and 5: R1(a,b)*R2(a,b) == R2(b, a*b), from
    # n x n int64 flat indices held one at a time
    flat = star + idx * n  # flat[a, b] = b*n + a*b indexes cell (b, a*b)
    four = _pack(4, *np.divmod(np.flatnonzero(r2 != r1.ravel().take(flat))[:cap], n))
    rhs = r2.ravel().take(flat)
    del flat
    pair = r1.astype(np.int64)
    pair *= n
    pair += r2             # pair[a, b] indexes cell (R1(a,b), R2(a,b))
    five = _pack(5, *np.divmod(np.flatnonzero(star.ravel().take(pair) != rhs)[:cap], n))
    del pair, rhs

    star_t = np.ascontiguousarray(star.T)  # star_t[b, c] = c*b
    bar_t = np.ascontiguousarray(bar.T)    # bar_t[b, c] = c/b
    row_b = idx[:, None] * n               # flat offset of row b

    def one(a):  # R1(a/b, c)*b == R1(a, c*b)
        return star_t.ravel().take(r1[bar[a]] + row_b), r1[a].take(star_t)

    def two(a):  # R2(a/b, c) == R2(a, c*b)/b
        return r2[bar[a]], bar_t.ravel().take(r2[a].take(star_t) + row_b)

    def three(a):  # (b/R1(a,c))*a == (b*R2(a,c))/c
        return (star_t[a].take(bar.take(r1[a], axis=1)),
                bar_t.ravel().take(star.take(r2[a], axis=1) + row_b.T))

    if gens is not None and not four.size and not five.size:
        rhos = moving_rhos(star, gens)
        if _preserved(rhos, r1) and all(np.array_equal(*three(a)) for a in _orbit_reps(rhos, n)):
            return np.concatenate([four, five])

    parts = [_slab_rows(code, n, cap, block) for code, block in ((1, one), (2, two), (3, three))]
    return np.concatenate(parts + [four, five])


def _eval_prog(code, start, end, tables, cols):
    """Evaluate one program over every frontier row at once."""
    stack = []
    for op, arg in code[start:end].tolist():
        if op == OP_GEN:
            stack.append(cols[arg])
        else:
            b = stack.pop()
            a = stack.pop()
            stack.append(tables[op - 1][a, b])
    return stack[0]


def _share(cols: dict, fn) -> dict:
    """Apply fn once per distinct array in cols.  A derive like ``c = b``
    stores one array under two keys; the result stays shared, not copied."""
    done: dict[int, np.ndarray] = {}
    out = {}
    for k, c in cols.items():
        if id(c) not in done:
            done[id(c)] = fn(c)
        out[k] = done[id(c)]
    return out


def _inverted_index(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR buckets of the v in each row a of table, keyed by a*n + table[a, v]:
    the v with table[a, v] = b are ``values[offsets[k]:offsets[k + 1]]`` for
    k = a*n + b, ascending.  A stable sort of each row by its entries is the
    stable sort of the keys, whose rows never interleave."""
    n = table.shape[0]
    values = np.argsort(table, axis=1, kind="stable").ravel()
    offsets = np.zeros(n * n + 1, dtype=np.int64)
    np.cumsum(np.bincount((table + np.arange(n)[:, None] * n).ravel(), minlength=n * n),
              out=offsets[1:])
    return values, offsets


def _enumerate(n, g, star, bar, r1, r2, code, steps):
    # breadth-first over the plan: the frontier keeps one column per bound
    # generator, grows n-fold only at a free step, by the bucket sizes at a
    # join step, and is pruned at each check
    tables = (star, bar, r1, r2)
    vals = np.arange(n, dtype=np.int64)
    index: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    cols: dict[int, np.ndarray] = {}
    m = 1
    for kind, target, s0, e0, s1, e1, op, side in steps.tolist():
        if kind == STEP_FREE:
            cols = _share(cols, lambda c: np.repeat(c, n))
            cols[target] = np.tile(vals, m)
            m *= n
        elif kind == STEP_DERIVE:
            cols[target] = _eval_prog(code, s0, e0, tables, cols)
        elif kind == STEP_JOIN:
            if (op, side) not in index:
                table = tables[op - 1]
                index[op, side] = _inverted_index(table if side else table.T)
            values, offsets = index[op, side]
            key = _eval_prog(code, s0, e0, tables, cols) * n
            key += _eval_prog(code, s1, e1, tables, cols)
            first = offsets[key]
            sizes = offsets[key + 1] - first
            ends = np.cumsum(sizes)
            m = int(ends[-1])
            # row i's bucket fills output rows ends[i]-sizes[i] .. ends[i]-1
            cols = _share(cols, lambda c: np.repeat(c, sizes))
            cols[target] = values[np.repeat(first - ends + sizes, sizes) + np.arange(m)]
            if m == 0:
                break
        else:
            keep = (_eval_prog(code, s0, e0, tables, cols)
                    == _eval_prog(code, s1, e1, tables, cols))
            cols = _share(cols, lambda c: c[keep])
            m = int(np.count_nonzero(keep))
            if m == 0:
                break
    out = np.empty((m, g), dtype=np.int64)
    for k, c in cols.items():
        out[:, k] = c
    return out


def enumerate_colorings(n, g, star, bar, r1, r2, code, steps) -> np.ndarray:
    """All satisfying assignments, rows in lexicographic order, shape (m, g).

    The search returns rows in the order of its plan; one sort by the
    columns in generator order makes the result independent of the plan.
    """
    rows = _enumerate(n, g, star, bar, r1, r2, code, steps)
    return rows[np.lexsort(rows.T[::-1])]


def available_backends() -> tuple[str, ...]:
    """The kernel implementations: numpy alone.  This and
    :func:`active_backend` remain for the benchmark's run header."""
    return ("numpy",)


def active_backend() -> str:
    return "numpy"
