"""Integer-table kernels for the hot loops: axiom validation, coloring
enumeration and closure.  numpy is the only implementation.

Validation proves each identity on its own in O(|S| n^2 + k n^2), for a
generating set S of (X, *) and k Inn-orbits, and scans all n^3 triples
only for an identity whose proof failed; the scan finds the witnesses.
Write rho_s for the map x -> x*s.  Self-distributivity at (a, b, s) says
that rho_s preserves star, and identity 1 (identity 2) at b says that
rho_b preserves R1 (R2).  Given a right inverse, each rho is a bijection,
and when rho_c preserves star, rho_{b*c} = rho_c rho_b rho_c^-1 (Joyce,
JPAA 1982).  So the elements whose rho preserves star, and with it R1 or
R2, are closed under *; they contain S, so they are all of X, and
checking the moving rho_s for s in S proves axiom (iii), and identity 1
or 2, for every element.  Idempotence is not used.  Identity 2 also
follows from identities 1 and 4: when each rho preserves star and R1 and
R2(a,b) = R1(b, a*b) at every pair, each rho preserves R2 too, so a valid
structure checks R2 against no rho_s.  Once star, R1 and R2 are all
preserved, identity 3 is invariant under the diagonal action of Inn(X),
which the rho_s generate, so one n x n slab per Inn-orbit proves it.
When no rho_s moves, the same closure makes every rho_x the identity:
this is the trivial star x*y = x, where identities 1-3 hold outright, so
it reads no slab of them.  Identities 4 and 5 are n^2 checks.  The worst
case stays n^3: a star with many Inn-orbits and some moving rho_s, such
as a disjoint union of many small non-trivial quandles with x*y = x
across components, with about n/3 orbits for components of order 3.

S and the Inn-orbits come from one computation,
:func:`generators_and_orbits`: S starts with every element whose column
is the identity map, then takes the least element of an orbit that holds
no member yet and merges the orbits along its rho_s, until every orbit
holds one.  By Joyce's formula the orbits that hold a member of S are the
*-closure of S, so this is the greedy generating set, found in O(n) per
member and merge round rather than by taking products.

Each step runs once: :func:`quandle_violations` counts preimages, which
gives the right-invertibility rows or bar, finds S, the moving rho_s and
their Inn-orbits, and proves that the rho_s preserve star;
:mod:`singquandles.core` hands maps and labels to :func:`sing_violations`,
then keeps all three on the structure for phi and the isomorphism search.

A proof decides only whether an identity's scan runs, so the reported rows
never depend on it.  The scans of the n^3 identities run in slabs over
``a``: one n x n block per identity per step, built from row gathers and
flat ``take`` on the n x n tables, so memory stays O(n^2).  The scans of
identities 1 and 2 gather rows of the transposes of star and bar, built
only when one of those scans runs; identity 3 reads star and bar as they
are, so a valid build makes no n x n transpose.  The kernels convert no
table.  A structure's tables are int16 (see :mod:`singquandles.core`), and
every flat index ``x * n + y`` built from their entries is int64, since an
int16 product wraps from n = 182 on.

Violation rows are ``[code, a, b, c]`` with unused slots set to -1.  The
``cap`` argument bounds the rows reported in all, in report order: the
quandle codes 0, 1, 2, then the singular codes 1..5, each code's rows in
(a, b, c) order.  Each kernel's checks are one generator of row arrays in
that order, which runs a proof or reads a slab only when drawn, and
:func:`_first` draws it until cap rows are in; so nothing behind the cap
runs, and a report stays small even for wildly invalid tables.
:mod:`singquandles.core` hands the singular kernel what the quandle rows
left.
Quandle codes: 0 idempotence (witness a), 1 right-invertibility (witness
column y and value z with preimage count != 1), 2 self-distributivity
(witness a, b, c).  Singular codes 1..5 follow the five compatibility
identities, witnesses (a, b, c) or (a, b) for the pair identities 4 and 5.

Coloring enumeration runs a search plan, a list of tuples over the terms
of :mod:`singquandles.terms`, in order: ``("free", g)`` tries every value
of generator g, ``("derive", g, t)`` sets g to the value of term t,
``("check", s, t)`` rejects an assignment on which s and t differ, and
``("join", g, op, pos, A, B)`` binds g to every v with ``T[A, v] = B``
(pos 1) or ``T[v, A] = B`` (pos 0), where T is the table of operator op.
The frontier holds one column per bound generator, and every term is
evaluated on all of its rows at once by :func:`terms.eval_rows`.  A join
looks its values up in an inverted index of T, built once per (op, pos) in
O(n^2): the v of each (A, B) pair form one bucket, so the frontier grows by
the bucket sizes, not n-fold (an index nested-loop join; Selinger et al.,
SIGMOD 1979).

Closure takes many seed sets at once (:func:`closures`), as rows of member
ids padded with the sentinel n.  Each round applies the three operations to
every pair of members of every row still growing, in the spirit of
bottom-up evaluation (Bancilhon and Ramakrishnan, SIGMOD 1986), and rows
that stop growing leave, as do rows that hold all n elements.

Rows of non-negative integers are deduplicated, matched and sorted through
one int64 key per row (:func:`_row_keys`): each column is a digit of a base
above every entry, so equal rows share a key and keys ascend in the rows'
lexicographic order.  Before a digit would take a key past 2^62, the
partial keys are replaced by their dense ranks.  :func:`distinct_rows`
sorts the keys once, :func:`orbit_labels` sorts each image row, a set since
its map is a permutation, and finds it among the seed sets by a binary
search of its key, and :func:`enumerate_colorings` orders its result by the
key of the generator columns.
"""

from __future__ import annotations

import numpy as np

from .errors import FrontierTooLargeError
from .terms import eval_rows

__all__ = [
    "generators_and_orbits",
    "quandle_violations",
    "sing_violations",
    "enumerate_colorings",
    "distinct_rows",
    "canonical_sets",
    "orbit_labels",
    "closures",
]

# rows x max(3 K^2, n) for the rows of K members that :func:`closures` takes
# in one step: at most 8 MB of int64 products and a 1 MB block
CLOSURE_BLOCK = 1 << 20

# int64 cells that one step of the coloring search may hold: 1 GiB, the
# order of validation's peak at fileformats.MAX_ORDER
MAX_FRONTIER_CELLS = 1 << 27

_NO_ROWS = np.empty((0, 4), dtype=np.int64)


def _pack(code: int, *cols) -> np.ndarray:
    """Violation rows [code, w0, w1, w2] from witness columns, -1 padded."""
    out = np.full((len(cols[0]), 4), -1, dtype=np.int64)
    out[:, 0] = code
    for k, col in enumerate(cols):
        out[:, k + 1] = col
    return out


def _first(parts, cap: int) -> np.ndarray:
    """The first cap rows of a stream of row arrays, as one array.  A part
    is drawn only while rows are missing, so nothing after the part that
    fills cap runs."""
    found = [_NO_ROWS]
    count = 0
    parts = iter(parts)
    while count < cap:
        part = next(parts, None)
        if part is None:
            break
        found.append(part[:cap - count])
        count += len(found[-1])
    return np.concatenate(found)


def _slab_rows(code: int, values, cap: int, block):
    """Rows [code, a, b, c], one array per a in the ascending values at
    which the two n x n blocks of ``block(a)`` differ in some cell (b, c),
    cut to its first cap rows.  A block is read, row-major, only as the
    stream is drawn, so with values = range(n) the rows come in the order of
    an (a, b, c) triple loop and no slab after the last one drawn is read."""
    for a in values:
        lhs, rhs = block(a)
        bad = np.flatnonzero(lhs != rhs)[:cap]
        if bad.size:
            b, c = np.divmod(bad, lhs.shape[1])
            yield _pack(code, np.full_like(b, a), b, c)


def _merge(label: np.ndarray, here: np.ndarray, there: np.ndarray) -> np.ndarray:
    """The labels of a graph's nodes once the edges (here[i], there[i]) join
    their components, given labels that point each node to the least node
    of its component so far; label may be updated in place, so use the
    result.  Hooking and pointer jumping (Shiloach and Vishkin, J.
    Algorithms 1982): each round, the larger root of each edge whose ends
    have different roots points to the least root it meets, and then every
    label becomes its label's label until nothing changes.  An edge whose
    ends share a root stays so, so each round reads only the edges still
    apart."""
    while True:
        a, b = label[here], label[there]
        apart = a != b
        if not apart.any():
            return label
        here, there = here[apart], there[apart]
        np.minimum.at(label, np.maximum(a, b)[apart], np.minimum(a, b)[apart])
        while True:
            up = label[label]
            if (up == label).all():
                break
            label = up


def generators_and_orbits(star: np.ndarray):
    """A generating set S of (X, *), ascending; the rows rho_s = star[:, s]
    of the s in S whose map moves, in the same order; and each element's
    Inn-orbit label under them, the least element of its orbit.  star must
    be right-invertible, so that each rho_s is a permutation.

    S starts with every g whose column is the identity map, each its own
    orbit.  Then, while some orbit holds no member of S, its least element
    joins S, and :func:`_merge` joins the orbits along the new rho_s.  A
    permutation's inverse is one of its powers, so the orbits that hold a
    member of S lie in the *-closure of S, and S generates X.  In a rack
    rho_{x*y} = rho_y rho_x rho_y^-1 (Joyce, JPAA 1982), so that closure is
    exactly the union of those orbits: S is the greedy set that takes the
    least element outside the closure so far.  Each member that joins costs
    O(n) per round of the merge."""
    n = star.shape[0]
    idx = np.arange(n)
    covered = np.all(star == idx[:, None], axis=0)  # the members of orbits that hold one of S
    fixed = np.flatnonzero(covered)
    label = idx.copy()
    moving = []
    g = 0  # every element below g is covered
    while (free := np.flatnonzero(~covered[g:])).size:
        g += int(free[0])
        moving.append(g)
        label = _merge(label, idx, star[:, g])
        held = np.zeros(n, dtype=bool)  # held[r]: the orbit of root r holds one of S
        held[label[covered]] = True
        held[label[g]] = True
        covered = held[label]
    moving = np.array(moving, dtype=fixed.dtype)
    gens = np.sort(np.concatenate([fixed, moving]))
    return gens, np.ascontiguousarray(star[:, moving].T), label


def _preserved(rhos: np.ndarray, table: np.ndarray) -> bool:
    """Whether every row rho of rhos preserves table:
    table[rho(x), rho(y)] == rho(table[x, y]) for all x, y.  A row gather
    then a column ``take`` is about twice as fast as one ``np.ix_`` gather."""
    return all(np.array_equal(table[rho].take(rho, axis=1), rho.take(table)) for rho in rhos)


def quandle_violations(star: np.ndarray, cap: int):
    """The first cap rows of the quandle axioms in report order, with bar,
    the right inverse of star (None when it has none), and the
    :func:`generators_and_orbits` of star, S, the moving rho_s and the
    elements' Inn-orbit labels, when the rho_s are proved to preserve star
    (None each when not, and when the rows before the proof fill cap, since
    the singular kernel then gets nothing to scan).

    One preimage count decides (ii): its code-1 rows, or bar when every
    count is 1.  The rows are the first cap of one stream: the idempotence
    rows, the code-1 rows, then, given bar, S and the orbits and one n x n
    comparison per moving rho_s that proves self-distributivity, and the
    slab scan when that proof fails or there is no bar."""
    n = star.shape[0]
    idx = np.arange(n, dtype=np.int64)
    # flat[x, y] = y*n + x*y indexes cell (y, x*y) of an n x n table, so
    # counts[y, z] = number of x with x*y = z; each must be 1
    flat = star + idx * n
    bad = np.flatnonzero(np.bincount(flat.ravel(), minlength=n * n) != 1)
    bar = None
    inner = (None, None, None)
    if not bad.size:
        bar = np.empty_like(star)
        bar[star, idx] = idx[:, None]

    def distributive(a):  # (a*b)*c == (a*c)*(b*c)
        m = star[star[a]]  # m[b, c] = (a*b)*c
        return m, m.ravel().take(flat)

    def stream():
        nonlocal inner
        yield _pack(0, np.flatnonzero(star[idx, idx] != idx))
        yield _pack(1, *np.divmod(bad[:cap], n))
        if bar is not None:
            found = generators_and_orbits(star)
            if _preserved(found[1], star):
                inner = found
                return
        yield from _slab_rows(2, range(n), cap, distributive)

    rows = _first(stream(), cap)
    return (rows, bar, *inner)


def sing_violations(star, bar, r1, r2, cap: int, autos, orbits) -> np.ndarray:
    """The first cap rows of the five compatibility identities in report
    order, for bar the right inverse of star, ``autos`` the moving rho_s
    that :func:`quandle_violations` proved to preserve star and ``orbits``
    the elements' Inn-orbit labels under them, or both None.

    Identity 1 gets its slab scan unless autos is not None and each of its
    maps preserves R1.  Identity 2 gets its scan unless 1 is proved so and
    identity 4 holds at every pair, or each map preserves R2: for rho an
    automorphism of star and R1, R2(rho a, rho b) = R1(rho b, rho(a*b)) =
    rho R1(b, a*b) = rho R2(a, b) by identity 4.  Identity 3 gets its scan
    unless 1 and 2 are proved and it holds at one element per Inn-orbit.  4
    and 5 are checked on all pairs.  These steps form the stream of
    :func:`_sing_rows`, drawn until cap rows are in, so no step after the
    cap runs, proof or scan."""
    return _first(_sing_rows(star, bar, r1, r2, cap, autos, orbits), cap)


def _transposed(table: np.ndarray) -> np.ndarray:
    """A C-contiguous copy of table.T, for the slab scans of identities 1
    and 2, which gather its rows."""
    return np.ascontiguousarray(table.T)


def _sing_rows(star, bar, r1, r2, cap: int, autos, orbits):
    """The rows of identities 1-5 in report order, as a stream of arrays of
    at most cap rows each; each proof and scan runs when it is drawn.  When
    autos holds no map, 1, 2 and 3 are proved with no slab read: S
    generates X under *, so every rho_x is the identity, x*y = x = x/y, and
    both sides of 1, 2 and 3 read R1(a,c), R2(a,c) and b.  The transposes
    star_t[b, c] = c*b and bar_t[b, c] = c/b are built only when a scan of
    identity 1 or 2 runs; identity 3 reads columns of star and bar."""
    n = star.shape[0]
    idx = np.arange(n, dtype=np.int64)
    row_b = idx[:, None] * n  # flat offset of row b
    star_t = bar_t = None

    def one(a):  # R1(a/b, c)*b == R1(a, c*b)
        return star_t.ravel().take(r1[bar[a]] + row_b), r1[a].take(star_t)

    def two(a):  # R2(a/b, c) == R2(a, c*b)/b
        return r2[bar[a]], bar_t.ravel().take(r2[a].take(star_t) + row_b)

    def three(a):  # (b/R1(a,c))*a == (b*R2(a,c))/c
        rhs = np.multiply(star.take(r2[a], axis=1), n, dtype=np.int64)
        rhs += idx  # rhs[b, c] indexes cell (b*R2(a,c), c) of bar
        return star[:, a].take(bar.take(r1[a], axis=1)), bar.ravel().take(rhs)

    def flat():  # flat[a, b] = b*n + a*b indexes cell (b, a*b)
        return star + row_b.T

    def kept(table):  # every moving rho_s preserves table
        return autos is not None and _preserved(autos, table)

    proved_one = kept(r1)
    if not proved_one:
        star_t = _transposed(star)
        yield from _slab_rows(1, range(n), cap, one)
    four = r2 != r1.ravel().take(flat()) if proved_one else None  # where 4 fails
    proved_two = (proved_one and not four.any()) or kept(r2)
    if not proved_two:
        star_t = _transposed(star) if star_t is None else star_t
        bar_t = _transposed(bar)
        yield from _slab_rows(2, range(n), cap, two)
    star_t = bar_t = None
    proved = proved_one and proved_two
    if proved and len(autos):
        proved = next(_slab_rows(3, np.flatnonzero(orbits == idx), 1, three), None) is None
    if not proved:
        yield from _slab_rows(3, range(n), cap, three)

    # 4: R2(a,b) == R1(b, a*b) and 5: R1(a,b)*R2(a,b) == R2(b, a*b), from
    # int64 flat indices held one at a time
    if four is None:
        four = r2 != r1.ravel().take(flat())
    yield _pack(4, *np.divmod(np.flatnonzero(four)[:cap], n))
    rhs = r2.ravel().take(flat())
    pair = np.multiply(r1, n, dtype=np.int64)
    pair += r2             # pair[a, b] indexes cell (R1(a,b), R2(a,b))
    yield _pack(5, *np.divmod(np.flatnonzero(star.ravel().take(pair) != rhs)[:cap], n))


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


def _admit(rows: int, cols: dict) -> None:
    """FrontierTooLargeError, before any allocation, unless a step that
    leaves ``rows`` rows fits: the columns bound after it, plus the one it
    evaluates, hold rows * (len(cols) + 2) cells, at most MAX_FRONTIER_CELLS."""
    if rows * (len(cols) + 2) > MAX_FRONTIER_CELLS:
        raise FrontierTooLargeError(
            f"the coloring search would hold {rows} rows of {len(cols) + 1} generators, "
            f"more than its bound of {MAX_FRONTIER_CELLS} cells (kernels.MAX_FRONTIER_CELLS)")


def enumerate_colorings(tables: dict, generators, plan) -> np.ndarray:
    """All assignments of values to generators that satisfy the plan, one
    row per assignment in lexicographic order, shape (m, len(generators)).
    tables maps each operator to its n x n table.

    The search runs breadth-first over the plan: the frontier grows n-fold
    only at a free step, by the bucket sizes at a join, and is pruned at
    each check.  It returns rows in the order of its plan; one sort by the
    columns in generator order makes the result independent of the plan.
    A free, derive or join step whose frontier would pass
    MAX_FRONTIER_CELLS raises FrontierTooLargeError before it allocates.
    """
    n = tables["*"].shape[0]
    vals = np.arange(n, dtype=np.int64)
    index: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]] = {}
    cols: dict[str, np.ndarray] = {}
    m = 1
    for kind, *args in plan:
        if kind == "free":
            _admit(m * n, cols)
            cols = _share(cols, lambda c: np.repeat(c, n))
            cols[args[0]] = np.tile(vals, m)
            m *= n
        elif kind == "derive":
            g, term = args
            _admit(m, cols)
            cols[g] = eval_rows(term, tables, cols)
        elif kind == "join":
            g, op, pos, known, other = args
            if (op, pos) not in index:
                index[op, pos] = _inverted_index(tables[op] if pos else tables[op].T)
            values, offsets = index[op, pos]
            key = np.multiply(eval_rows(known, tables, cols), n, dtype=np.int64)
            key += eval_rows(other, tables, cols)
            first = offsets[key]
            sizes = offsets[key + 1] - first
            ends = np.cumsum(sizes)
            m = int(ends[-1])
            _admit(m, cols)
            # row i's bucket fills output rows ends[i]-sizes[i] .. ends[i]-1
            cols = _share(cols, lambda c: np.repeat(c, sizes))
            cols[g] = values[np.repeat(first - ends + sizes, sizes) + np.arange(m)]
            if m == 0:
                break
        else:
            lhs, rhs = args
            keep = eval_rows(lhs, tables, cols) == eval_rows(rhs, tables, cols)
            cols = _share(cols, lambda c: c[keep])
            m = int(np.count_nonzero(keep))
            if m == 0:
                break
    # one sort order from the key of the columns, each copied once and then
    # dropped: the end holds the frontier and the result, not a third, sorted copy
    rows = np.empty((m, len(generators)), dtype=np.int64)
    if m:  # every generator is bound unless the search emptied
        order = np.argsort(_row_keys([cols[g] for g in generators], n, m), kind="stable")
        for k, g in enumerate(generators):
            rows[:, k] = cols.pop(g)[order]
    return rows


def _row_keys(cols, base: int, m: int) -> np.ndarray:
    """One int64 key for each of m rows given by their columns, entries in
    0..base-1: each column is a digit of base, the first the most
    significant, so equal rows share a key and keys ascend in the rows'
    lexicographic order.  When the next digit would take a key past 2^62,
    the partial keys are first replaced by their dense ranks, below m, which
    keeps both properties."""
    key = np.zeros(m, dtype=np.int64)
    bound = 1  # every key is below bound
    for col in cols:
        if bound * base > 1 << 62:
            distinct, key = np.unique(key, return_inverse=True)
            bound = len(distinct)
        key *= base
        key += col
        bound *= base
    return key


def distinct_rows(a: np.ndarray):
    """The distinct rows of the 2-d array a of non-negative integers in
    lexicographic order, the index of each row of a among them, and how many
    rows of a each one has.  One stable argsort of the rows' keys
    (:func:`_row_keys`, in base ``a.max() + 1``) and a mask of the keys that
    differ from their predecessor do the work of ``np.unique(axis=0)``,
    which sorts a structured view of the rows, about 20 times slower on
    phi's 2304 x 3 seed rows over the dihedral target of order 48, and
    imports ``numpy.ma`` when asked for the rows alone."""
    m = len(a)
    key = _row_keys(a.T, int(a.max()) + 1 if a.size else 1, m)
    order = np.argsort(key, kind="stable")
    ranked = key[order]
    new = np.ones(m, dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    inverse = np.empty(m, dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return a[order[new]], inverse, np.bincount(inverse)


def canonical_sets(rows: np.ndarray, n: int) -> np.ndarray:
    """Each row as its set: sorted, with repeats replaced by n, sorted again.
    Coloring rows need it; an image of a set under a permutation, one sort."""
    rows = np.sort(rows, axis=1)
    tail = rows[:, 1:]
    tail[tail == rows[:, :-1]] = n
    rows.sort(axis=1)
    return rows


def orbit_labels(seeds: np.ndarray, rhos: np.ndarray, n: int) -> np.ndarray:
    """For each seed set, the index of the least seed set of its orbit
    under the maps whose rows are rhos.  seeds holds distinct sets as
    :func:`canonical_sets` makes them, ascending rows padded with n, in
    lexicographic order; the elements themselves are the one-column rows
    ``arange(n)[:, None]``, whose labels are then their orbits' least
    elements.

    phi passes the seed sets of the colorings: the seed set of a coloring h
    moves to the seed set of rho o h, which is again a coloring when rho is
    an automorphism, so one sort makes each image row canonical.  An image
    not among seeds, a repeat from a map that is not injective included,
    means that premise failed, and raises.  Seeds and images get their keys
    (:func:`_row_keys`, base n + 1) in one call, so that a fold ranks them
    together; the seeds' keys then ascend, and one ``searchsorted`` finds
    each image among them.  The orbits are the components of the graph
    joining each seed set to its images, found by :func:`_merge`.  The
    inverse of a permutation of a finite set is one of its powers, so the
    images alone reach every orbit.
    """
    d = len(seeds)
    label = np.arange(d)
    if not len(rhos) or not d:
        return label
    maps = np.full((len(rhos), n + 1), n, dtype=np.int64)
    maps[:, :n] = rhos
    images = maps[:, seeds].reshape(len(rhos) * d, seeds.shape[1])
    images.sort(axis=1)
    key = _row_keys(np.concatenate([seeds, images]).T, n + 1, d + len(images))
    there = np.minimum(np.searchsorted(key[:d], key[d:]), d - 1)
    missing = key[:d][there] != key[d:]
    if missing.any():
        bad = int(np.argmax(missing))
        here, image = seeds[bad % d], images[bad]
        raise RuntimeError(
            f"seed set {here[here < n].tolist()} maps to {image[image < n].tolist()}, which "
            f"no coloring has: a map x -> x*s with s in the generating set is not an "
            f"automorphism")
    return _merge(label, np.tile(label, len(rhos)), there)


def _members(tables, rows: np.ndarray, n: int) -> np.ndarray:
    """An (r, n) boolean block marking, in row i, the members of rows[i]
    and every product of two of them in each table."""
    r = len(rows)
    # a padding slot repeats the row's first member, whose products are
    # products of members
    rows = np.where(rows < n, rows, rows[:, :1])
    pair = rows[:, :, None] * n + rows[:, None, :]
    base = np.arange(r, dtype=np.int64)[:, None] * n
    block = np.zeros(r * n, dtype=bool)
    block[rows + base] = True
    base = base[:, :, None]
    for table in tables:
        block[table.ravel().take(pair) + base] = True
    return block.reshape(r, n)


def closures(tables, seeds: np.ndarray, n: int) -> np.ndarray:
    """The closures of the seed sets under the operations whose n x n tables
    are given.  seeds is an (m, K) int array, one seed set per row, of
    distinct ascending members padded on the right with n; the closures come
    back in the same form and order, as wide as the largest of them.  An
    empty seed set is its own closure.

    Each round marks every member and every product of two members of each
    growing row in an (rows, n) boolean block.  A row whose count did not
    grow is closed and leaves, and so does a row whose count reached n, as
    ``arange(n)``, without a round that would only re-prove it closed; the
    others are read back from the block as ascending padded rows, as wide as
    the largest, and the seed rows are first cut to the width of the largest
    seed set, as a padding column adds products but no member.  Rows go
    CLOSURE_BLOCK // max(3 K^2, n) at a time, at least one, so a step holds
    at most max(CLOSURE_BLOCK, 3 K^2) products or cells whatever m is.
    """
    seeds = np.asarray(seeds, dtype=np.int64)
    if not len(seeds):
        return np.empty((0, 0), dtype=np.int64)
    sizes = np.count_nonzero(seeds < n, axis=1)
    seeds = seeds[:, :sizes.max()]  # the columns past every seed set hold only padding
    # (ids, rows, sizes) of the rows that left; an empty seed set is closed
    # and leaves before any gather, as _members would read its padding
    empty = sizes == 0
    closed = [(np.flatnonzero(empty), seeds[empty], sizes[empty])]
    ids, rows, sizes = np.flatnonzero(~empty), seeds[~empty], sizes[~empty]
    while len(ids):
        k = rows.shape[1]
        step = max(1, CLOSURE_BLOCK // max(3 * k * k, n))
        grown = []
        for lo in range(0, len(ids), step):
            part = slice(lo, lo + step)
            block = _members(tables, rows[part], n)
            count = np.count_nonzero(block, axis=1)
            full = count == n  # closed whether or not it grew
            grew = (count > sizes[part]) & ~full
            stay = ~(grew | full)
            closed.append((ids[part][stay], rows[part][stay], count[stay]))
            closed.append((ids[part][full], np.broadcast_to(np.arange(n), (int(full.sum()), n)),
                           count[full]))
            if grew.any():
                grown.append((ids[part][grew], _read_rows(block[grew], count[grew], n),
                              count[grew]))
        if not grown:
            break
        ids, rows, sizes = _stack(grown, n)
    ids, rows, _ = _stack(closed, n)
    out = np.empty_like(rows)
    out[ids] = rows
    return out


def _read_rows(block: np.ndarray, count: np.ndarray, n: int) -> np.ndarray:
    """The marked columns of each row of block, ascending and padded with n;
    count holds each row's number of marks."""
    r, c = np.nonzero(block)  # row-major, so each row's columns ascend
    rows = np.full((len(count), int(count.max())), n, dtype=np.int64)
    rows[r, np.arange(len(c)) - np.repeat(np.cumsum(count) - count, count)] = c
    return rows


def _stack(pieces, n: int):
    """One (ids, rows, sizes) triple from several, the rows padded with n
    to the largest size; columns past a row's size hold n."""
    sizes = np.concatenate([p[2] for p in pieces])
    rows = np.full((len(sizes), int(sizes.max())), n, dtype=np.int64)
    start = 0
    for _, part, size in pieces:
        w = min(rows.shape[1], part.shape[1])
        rows[start:start + len(size), :w] = part[:, :w]
        start += len(size)
    return np.concatenate([p[0] for p in pieces]), rows, sizes


def available_backends() -> tuple[str, ...]:
    """The kernel implementations: numpy alone.  This and
    :func:`active_backend` remain for the benchmark's run header."""
    return ("numpy",)


def active_backend() -> str:
    return "numpy"
