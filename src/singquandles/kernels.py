"""Backend-switched kernels for the two hot loops.

Everything here is exhaustive integer-table work: axiom validation scans all
n^3 triples, coloring enumeration runs a compiled search plan that ranges
over the free generators only and derives or checks everything else.
Both come in two interchangeable implementations:

* ``numba``: @njit(cache=True) nested loops, the default when numba imports
* ``numpy``: vectorized equivalents with no compilation cost

Select with the environment variable ``SINGQUANDLES_BACKEND=numba|numpy``
(read once, lazily) or programmatically with :func:`set_backend`.  The two
backends produce bit-identical outputs: violations in the same deterministic
order, colorings in the same lexicographic order.

Violation rows are ``[code, a, b, c]`` with unused slots set to -1; the
``cap`` argument bounds the rows reported per axiom or identity, so a
report stays small even for wildly invalid tables.
Quandle codes: 0 idempotence (witness a), 1 right-invertibility (witness
column y and value z with preimage count != 1), 2 self-distributivity
(witness a, b, c).  Singular codes 1..5 follow the five compatibility
identities, witnesses (a, b, c) or (a, b) for the pair identities 4 and 5.

The numpy scans of the n^3 identities run in slabs over ``a``: one n x n
block per identity per step, built from row gathers and flat ``take`` on
the n x n tables, so memory stays O(n^2).  Each identity reads its slabs
in (a, b, c) order and stops once it has ``cap`` rows.

Coloring programs are postorder instruction arrays over int64 tables:
opcode 0 pushes generator ``arg``, opcodes 1..4 pop two values and apply
star, bar, R1, R2.  A search plan is a table of steps ``[kind, target,
start, end, start2, end2]`` run in order: STEP_FREE tries every value of
generator ``target``, STEP_DERIVE sets it to the value of program
``code[start:end]``, STEP_CHECK rejects an assignment on which the programs
``code[start:end]`` and ``code[start2:end2]`` differ.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "active_backend",
    "available_backends",
    "set_backend",
    "quandle_violations",
    "sing_violations",
    "enumerate_colorings",
]

OP_GEN, OP_STAR, OP_BAR, OP_R1, OP_R2 = 0, 1, 2, 3, 4
STEP_FREE, STEP_DERIVE, STEP_CHECK = 0, 1, 2


# ---------------------------------------------------------------------------
# numpy backend


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
    return np.concatenate(found)[:cap] if found else np.empty((0, 4), dtype=np.int64)


def _quandle_violations_np(star: np.ndarray, cap: int) -> np.ndarray:
    star = _narrow(star)[0]
    n = star.shape[0]
    idx = np.arange(n, dtype=np.int64)

    idem = _pack(0, np.flatnonzero(star[idx, idx] != idx)[:cap])

    # flat[x, y] = y*n + x*y indexes cell (y, x*y) of an n x n table
    flat = star + idx * n

    # counts[y, z] = number of x with x*y = z; every count must be exactly 1
    counts = np.bincount(flat.ravel(), minlength=n * n)
    inv = _pack(1, *np.divmod(np.flatnonzero(counts != 1)[:cap], n))

    def distributive(a):  # (a*b)*c == (a*c)*(b*c)
        m = star[star[a]]  # m[b, c] = (a*b)*c
        return m, m.ravel().take(flat)

    return np.concatenate([idem, inv, _slab_rows(2, n, cap, distributive)])


def _sing_violations_np(star, bar, r1, r2, cap: int) -> np.ndarray:
    star, bar, r1, r2 = _narrow(star, bar, r1, r2)
    n = star.shape[0]
    idx = np.arange(n, dtype=np.int64)
    star_t = np.ascontiguousarray(star.T)  # star_t[b, c] = c*b
    bar_t = np.ascontiguousarray(bar.T)    # bar_t[b, c] = c/b
    row_b = idx[:, None] * n               # flat offset of row b
    star_n = star.astype(np.int64) * n     # flat offset of row b*c

    def one(a):  # R1(a/b, c)*b == R1(a, c*b)
        return star_t.ravel().take(r1[bar[a]] + row_b), r1[a].take(star_t)

    def two(a):  # R2(a/b, c) == R2(a, c*b)/b
        return r2[bar[a]], bar_t.ravel().take(r2[a].take(star_t) + row_b)

    def three(a):  # (b/R1(a,c))*a == (b*R2(a,c))/c
        return (star_t[a].take(bar.take(r1[a], axis=1)),
                bar.ravel().take(star_n.take(r2[a], axis=1) + idx))

    parts = [_slab_rows(code, n, cap, block) for code, block in ((1, one), (2, two), (3, three))]

    # 4: R2(a,b) == R1(b, a*b)
    rhs = r1[idx[None, :], star]
    parts.append(_pack(4, *np.divmod(np.flatnonzero(r2 != rhs)[:cap], n)))

    # 5: R1(a,b)*R2(a,b) == R2(b, a*b)
    lhs = star[r1, r2]
    rhs = r2[idx[None, :], star]
    parts.append(_pack(5, *np.divmod(np.flatnonzero(lhs != rhs)[:cap], n)))

    return np.concatenate(parts)


def _eval_prog_np(code, start, end, tables, cols):
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


def _enumerate_np(n, g, star, bar, r1, r2, code, steps, max_stack):
    # breadth-first over the plan: the frontier keeps one column per bound
    # generator, grows n-fold only at a free step and is pruned at each check
    tables = (star, bar, r1, r2)
    vals = np.arange(n, dtype=np.int64)
    cols: dict[int, np.ndarray] = {}
    m = 1
    for kind, target, s0, e0, s1, e1 in steps.tolist():
        if kind == STEP_FREE:
            cols = _share(cols, lambda c: np.repeat(c, n))
            cols[target] = np.tile(vals, m)
            m *= n
        elif kind == STEP_DERIVE:
            cols[target] = _eval_prog_np(code, s0, e0, tables, cols)
        else:
            keep = (_eval_prog_np(code, s0, e0, tables, cols)
                    == _eval_prog_np(code, s1, e1, tables, cols))
            cols = _share(cols, lambda c: c[keep])
            m = int(np.count_nonzero(keep))
            if m == 0:
                break
    out = np.empty((m, g), dtype=np.int64)
    for k, c in cols.items():
        out[:, k] = c
    return out


_BACKENDS: dict[str, dict] = {
    "numpy": {
        "quandle": _quandle_violations_np,
        "sing": _sing_violations_np,
        "enum": _enumerate_np,
    }
}


# ---------------------------------------------------------------------------
# numba backend

try:
    from numba import njit

    @njit(cache=True)
    def _quandle_violations_nb(star, cap):  # pragma: no cover - exercised via dispatch
        n = star.shape[0]
        out = np.empty((3 * cap, 4), dtype=np.int64)
        k = 0
        seen = 0
        for a in range(n):
            if star[a, a] != a and seen < cap:
                out[k, 0] = 0
                out[k, 1] = a
                out[k, 2] = -1
                out[k, 3] = -1
                k += 1
                seen += 1
        seen = 0
        counts = np.zeros(star.shape[0], dtype=np.int64)
        for y in range(n):
            for z in range(n):
                counts[z] = 0
            for x in range(n):
                counts[star[x, y]] += 1
            for z in range(n):
                if counts[z] != 1 and seen < cap:
                    out[k, 0] = 1
                    out[k, 1] = y
                    out[k, 2] = z
                    out[k, 3] = -1
                    k += 1
                    seen += 1
        seen = 0
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if star[star[a, b], c] != star[star[a, c], star[b, c]] and seen < cap:
                        out[k, 0] = 2
                        out[k, 1] = a
                        out[k, 2] = b
                        out[k, 3] = c
                        k += 1
                        seen += 1
        return out[:k].copy()

    @njit(cache=True)
    def _sing_violations_nb(star, bar, r1, r2, cap):  # pragma: no cover
        n = star.shape[0]
        out = np.empty((5 * cap, 4), dtype=np.int64)
        k = 0
        for eq in range(1, 4):
            seen = 0
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        if eq == 1:
                            bad = star[r1[bar[a, b], c], b] != r1[a, star[c, b]]
                        elif eq == 2:
                            bad = r2[bar[a, b], c] != bar[r2[a, star[c, b]], b]
                        else:
                            bad = star[bar[b, r1[a, c]], a] != bar[star[b, r2[a, c]], c]
                        if bad and seen < cap:
                            out[k, 0] = eq
                            out[k, 1] = a
                            out[k, 2] = b
                            out[k, 3] = c
                            k += 1
                            seen += 1
        for eq in range(4, 6):
            seen = 0
            for a in range(n):
                for b in range(n):
                    if eq == 4:
                        bad = r2[a, b] != r1[b, star[a, b]]
                    else:
                        bad = star[r1[a, b], r2[a, b]] != r2[b, star[a, b]]
                    if bad and seen < cap:
                        out[k, 0] = eq
                        out[k, 1] = a
                        out[k, 2] = b
                        out[k, 3] = -1
                        k += 1
                        seen += 1
        return out[:k].copy()

    @njit(cache=True)
    def _eval_prog_nb(code, start, end, star, bar, r1, r2, vals, stack):  # pragma: no cover
        sp = 0
        for i in range(start, end):
            op = code[i, 0]
            if op == OP_GEN:
                stack[sp] = vals[code[i, 1]]
                sp += 1
            else:
                b = stack[sp - 1]
                a = stack[sp - 2]
                sp -= 1
                if op == OP_STAR:
                    stack[sp - 1] = star[a, b]
                elif op == OP_BAR:
                    stack[sp - 1] = bar[a, b]
                elif op == OP_R1:
                    stack[sp - 1] = r1[a, b]
                else:
                    stack[sp - 1] = r2[a, b]
        return stack[0]

    @njit(cache=True)
    def _enumerate_nb(n, g, star, bar, r1, r2, code, steps, max_stack):  # pragma: no cover
        # depth-first over the plan; a failed check or an exhausted free
        # generator backtracks to the previous free step
        vals = np.zeros(g, dtype=np.int64)
        stack = np.zeros(max_stack, dtype=np.int64)
        cap = 64
        out = np.empty((cap, g), dtype=np.int64)
        m = 0
        k = 0
        forward = True
        while True:
            if forward:
                if k == steps.shape[0]:
                    if m == cap:
                        cap *= 2
                        grown = np.empty((cap, g), dtype=np.int64)
                        grown[:m] = out[:m]
                        out = grown
                    out[m] = vals
                    m += 1
                    forward = False
                    k -= 1
                    continue
                kind = steps[k, 0]
                if kind == STEP_FREE:
                    vals[steps[k, 1]] = 0
                elif kind == STEP_DERIVE:
                    vals[steps[k, 1]] = _eval_prog_nb(code, steps[k, 2], steps[k, 3],
                                                      star, bar, r1, r2, vals, stack)
                else:
                    lv = _eval_prog_nb(code, steps[k, 2], steps[k, 3], star, bar, r1, r2, vals, stack)
                    rv = _eval_prog_nb(code, steps[k, 4], steps[k, 5], star, bar, r1, r2, vals, stack)
                    if lv != rv:
                        forward = False
                        continue
                k += 1
            else:
                while k >= 0 and steps[k, 0] != STEP_FREE:
                    k -= 1
                if k < 0:
                    break
                t = steps[k, 1]
                vals[t] += 1
                if vals[t] == n:
                    k -= 1
                else:
                    k += 1
                    forward = True
        return out[:m].copy()

    _BACKENDS["numba"] = {
        "quandle": _quandle_violations_nb,
        "sing": _sing_violations_nb,
        "enum": _enumerate_nb,
    }
except ImportError:  # numba genuinely absent: numpy path carries everything
    pass


# ---------------------------------------------------------------------------
# selection

_active: str | None = None


def available_backends() -> tuple[str, ...]:
    return tuple(sorted(_BACKENDS))


def active_backend() -> str:
    """Resolve the backend: explicit set_backend() > env var > numba if present."""
    global _active
    if _active is None:
        requested = os.environ.get("SINGQUANDLES_BACKEND", "").strip().lower()
        if requested:
            if requested not in _BACKENDS:
                raise ValueError(
                    f"SINGQUANDLES_BACKEND={requested!r}; available: {available_backends()}")
            _active = requested
        else:
            _active = "numba" if "numba" in _BACKENDS else "numpy"
    return _active


def set_backend(name: str) -> None:
    global _active
    if name not in _BACKENDS:
        raise ValueError(f"unknown backend {name!r}; available: {available_backends()}")
    _active = name


def quandle_violations(star: np.ndarray, cap: int) -> np.ndarray:
    return _BACKENDS[active_backend()]["quandle"](star, cap)


def sing_violations(star, bar, r1, r2, cap: int) -> np.ndarray:
    return _BACKENDS[active_backend()]["sing"](star, bar, r1, r2, cap)


def enumerate_colorings(n, g, star, bar, r1, r2, code, steps, max_stack) -> np.ndarray:
    """All satisfying assignments, rows in lexicographic order, shape (m, g).

    The backends return rows in the order of their search; one sort by the
    columns in generator order makes the result independent of the plan.
    """
    rows = _BACKENDS[active_backend()]["enum"](
        n, g, star, bar, r1, r2, code, steps, max_stack)
    return rows[np.lexsort(rows.T[::-1])]
