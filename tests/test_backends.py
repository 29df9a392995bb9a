import itertools
import random
import tracemalloc

import numpy as np
import pytest

from singquandles import corpus, kernels
from singquandles.core import validate_tables
from singquandles.diagram import SingularPD, pd_to_presentation
from singquandles.formulas import affine_singquandle
from singquandles.polynomial import sqp
from singquandles.presentation import _plan, counting_invariant

from oracles import (
    NotRightInvertibleError,
    affine_coloring_count,
    bar_by_columns,
    brute_homs,
    element_orbits,
    greedy_generators,
    quandle_ok,
    shift_singquandle,
    star_closure,
    union_singquandle,
    violation_rows,
)


def _random_tables(rng, n):
    """Affine and shift structures (shift is not affine), possibly with a few
    cells corrupted, and junk tables, half with a right-invertible star."""
    kind = rng.randrange(4)
    if kind < 2:
        if kind == 0:
            t = rng.choice([t for t in range(1, n) if np.gcd(t, n) == 1])
            q = affine_singquandle(n, t, rng.randrange(n))
        else:
            q = shift_singquandle(n, rng.randrange(n))
        star, r1, r2 = q.star.copy(), q.r1.copy(), q.r2.copy()
        for _ in range(rng.randrange(4)):  # possibly corrupt a few cells
            table = rng.choice([star, r1, r2])
            table[rng.randrange(n), rng.randrange(n)] = rng.randrange(n)
        return star, r1, r2
    if kind == 2:
        star = np.array([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
    else:
        star = np.array([rng.sample(range(n), n) for _ in range(n)]).T
    r1 = np.array([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
    r2 = np.array([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
    return star, r1, r2


def _unreached_cap(n: int) -> int:
    """More rows than any table of order n has: n + n^2 + n^3 quandle rows
    and 3 n^3 + 2 n^2 singular ones at most."""
    return 5 * n**3 + 3 * n * n


def _assert_rows_match_oracle(star, r1, r2, caps=(1, 3, 100)) -> bool:
    """The kernels' rows are the first cap rows of the oracle's, row for row
    in report order (quandle codes 0-2, then singular codes 1-5), the
    singular kernel taking what the quandle rows left of cap.  Checked for
    each of caps and for a cap that no table reaches, which compares every
    identity's full row list.  On every star, right-invertible or not, the
    quandle kernel's bar is the oracle's, and whenever it hands on S, the
    moving rho_s and the Inn-orbits, they are the plain-loop ones.  Returns
    whether star is right-invertible."""
    try:
        bar = bar_by_columns(star)
    except NotRightInvertibleError:
        bar = None
    quandle, singular = ([list(r) for r in rows] for rows in violation_rows(star, bar, r1, r2))
    for cap in (*caps, _unreached_cap(len(star))):
        rows, kbar, gens, autos, orbits = kernels.quandle_violations(star, cap)
        assert rows.tolist() == quandle[:cap]
        assert (None if kbar is None else kbar.tolist()) == bar
        if gens is not None:
            _assert_inner_matches_oracle(star, gens, autos, orbits)
        if bar is not None:
            left = cap - len(rows)
            sing = kernels.sing_violations(star, kbar, r1, r2, left, autos, orbits)
            assert sing.tolist() == singular[:left]
    return bar is not None


def _assert_inner_matches_oracle(star, gens, rhos, orbits) -> None:
    """S is the greedy one of plain loops, rhos are its moving columns in
    order, and orbits are the least elements of the Inn-orbits."""
    plain = np.asarray(star).tolist()
    idx = np.arange(len(plain))
    assert gens.tolist() == greedy_generators(plain)
    moving = [star[:, s].tolist() for s in gens if (star[:, s] != idx).any()]
    assert rhos.tolist() == moving and rhos.shape == (len(moving), len(plain))
    assert orbits.tolist() == element_orbits(plain)


def test_violation_rows_match_oracle():
    rng = random.Random(11)
    singular_tables = 0
    for _ in range(120):
        singular_tables += _assert_rows_match_oracle(*_random_tables(rng, rng.randrange(2, 9)))
    assert singular_tables >= 60


def _order_3_quandle_stars() -> list[np.ndarray]:
    """The 5 labelled quandle stars of order 3.  Idempotence and right
    invertibility make column b a permutation that fixes b: the identity or
    the swap of the other two elements."""
    stars = []
    for swaps in itertools.product((False, True), repeat=3):
        star = np.repeat(np.arange(3)[:, None], 3, axis=1)  # star[a, b] = a
        for b in np.flatnonzero(swaps):
            x, y = (v for v in range(3) if v != b)
            star[[x, y], b] = y, x
        if quandle_ok(star.tolist()):
            stars.append(star)
    return stars


def test_proof_matches_oracle_on_order_3_quandles():
    # a seeded sample of all R1 tables and of those that every rho_s
    # preserves, where the proof can pass; R2 is forced by identity 4
    stars = _order_3_quandle_stars()
    assert len(stars) == 5
    idx = np.arange(3)
    every_r1 = np.array(list(itertools.product(range(3), repeat=9))).reshape(-1, 3, 3)
    rng = np.random.default_rng(3)
    valid = 0
    for star in stars:
        preserved = np.ones(len(every_r1), dtype=bool)
        for rho in star.T:
            preserved &= (every_r1[:, rho][:, :, rho] == rho[every_r1]).all(axis=(1, 2))
        kept = np.flatnonzero(preserved)
        sample = np.concatenate([rng.choice(kept, min(len(kept), 120), replace=False),
                                 rng.choice(len(every_r1), 120, replace=False)])
        for r1 in every_r1[sample]:
            r2 = r1[idx[None, :], star]  # R2(a, b) = R1(b, a*b)
            _assert_rows_match_oracle(star, r1, r2, caps=(100,))
            valid += not violation_rows(star, bar_by_columns(star), r1, r2)[1]
    assert valid >= 100


def test_proof_catches_corruption_off_orbit_representatives():
    # identity 3 is checked only at one element per Inn-orbit, so a broken
    # cell in any other row must be caught by another step of the proof
    rng = random.Random(5)
    for n, t, s in ((8, 3, 2), (9, 2, 4), (12, 5, 1), (16, 5, 3)):
        q = affine_singquandle(n, t, s)
        reps = set(np.flatnonzero(q.orbits == np.arange(n)).tolist())
        assert len(reps) == np.gcd(t - 1, n)  # the Inn-orbits are the cosets of (1-t)Z_n
        others = [a for a in range(n) if a not in reps]
        for which in range(3):
            for _ in range(3):
                tables = [q.star.copy(), q.r1.copy(), q.r2.copy()]
                a, b = rng.choice(others), rng.randrange(n)
                tables[which][a, b] = (tables[which][a, b] + 1 + rng.randrange(n - 1)) % n
                _assert_rows_match_oracle(*tables, caps=(100,))


@pytest.fixture
def scanned(monkeypatch):
    """The codes of the slab reads that run, scans and identity 3's proof at
    one element per Inn-orbit alike, in order of first call, each with the
    number of slabs its last call read."""
    slabs = {}
    slab_rows = kernels._slab_rows

    def recording(code, values, cap, block):
        slabs[code] = 0

        def counted(a):
            slabs[code] += 1
            return block(a)
        return slab_rows(code, values, cap, counted)
    monkeypatch.setattr(kernels, "_slab_rows", recording)
    return slabs


@pytest.mark.parametrize("n, t, s", [(8, 3, 2), (9, 2, 4), (12, 5, 1)])
def test_each_identity_is_proved_on_its_own(scanned, n, t, s):
    # R1 = R2 = star breaks identities 4 and 5, but every rho_s preserves
    # all three tables, so only identity 3 needs its scan
    q = affine_singquandle(n, t, s)
    _assert_rows_match_oracle(q.star, q.star, q.star)
    scanned.clear()
    assert not validate_tables(q.star, q.star, q.star).ok
    assert list(scanned) == [3]
    # one changed R1 cell leaves identity 2 proved, and identity 3 not
    r1 = q.r1.copy()
    r1[1, 2] = (r1[1, 2] + 1) % n
    scanned.clear()
    assert "singular-1" in {v.axiom for v in validate_tables(q.star, r1, q.r2).violations}
    assert list(scanned) == [1, 3]


@pytest.mark.parametrize("n, cell, most_slabs", [(64, (5, 7), 64), (512, (300, 7), 128)])
def test_a_spent_budget_skips_the_later_scans(scanned, n, cell, most_slabs):
    # identity 1 alone has more rows than a report shows (128 at n = 64), so
    # identity 3, whose proof fails with identity 1's, is not scanned.  At
    # n = 512 the changed cell's row is past n/2, where identity 3's own rows
    # begin, so a scan of it would read at least n/2 slabs; identity 1's
    # reads at most n/4.
    q = affine_singquandle(n, 3, 2)
    r1 = q.r1.copy()
    r1[cell] = (r1[cell] + 1) % n
    scanned.clear()  # building q read one identity-3 slab per Inn-orbit
    assert len(validate_tables(q.star, r1, q.r2).violations) == 100
    assert list(scanned) == [1] and scanned[1] <= most_slabs


def test_a_budget_spent_by_idempotence_starts_no_proof_or_scan(monkeypatch):
    # x*y = x+1 mod 128 is right-invertible and fails idempotence at all 128
    # elements, which fill the report alone: no proof of star, no scan and
    # nothing of the singular kernel runs
    n = 128
    star = np.repeat((np.arange(n)[:, None] + 1) % n, n, axis=1)
    called = []
    for name in ("generators_and_orbits", "_preserved", "_slab_rows", "orbit_labels"):
        def recording(*args, name=name, fn=getattr(kernels, name)):
            called.append(name)
            return fn(*args)
        monkeypatch.setattr(kernels, name, recording)
    report = validate_tables(star, np.zeros_like(star), np.zeros_like(star))
    assert [v.axiom for v in report.violations] == ["idempotence"] * 100
    assert called == []


def test_first_draws_nothing_after_the_cap():
    def parts():
        yield np.zeros((2, 4), dtype=np.int64)
        yield np.ones((3, 4), dtype=np.int64)
        raise AssertionError("a part was drawn after the cap was reached")
    assert kernels._first(parts(), 4).tolist() == [[0] * 4] * 2 + [[1] * 4] * 2
    assert len(kernels._first(parts(), 5)) == 5
    assert kernels._first(parts(), 0).shape == (0, 4)
    assert len(kernels._first(iter([np.zeros((1, 4), dtype=np.int64)]), 3)) == 1


def test_proof_checks_every_orbit_and_right_invertibility():
    # R1 is preserved by every rho_s and identities 1, 2, 4 and 5 hold, but
    # identity 3 fails, though never at a = 0, the first of the orbit
    # representatives 0, 1 and 3
    star = np.array([[0, 0, 0, 0], [1, 1, 1, 2], [2, 2, 2, 1], [3, 3, 3, 3]])
    r1 = np.zeros((4, 4), dtype=np.int64)
    r1[3, 0] = 3
    r2 = r1[np.arange(4)[None, :], star]  # R2(a, b) = R1(b, a*b)
    _assert_rows_match_oracle(star, r1, r2)
    _, bar, _, autos, orbits = kernels.quandle_violations(star, 100)
    rows = kernels.sing_violations(star, bar, r1, r2, 100, autos, orbits)
    assert set(rows[:, 0]) == {3} and 0 not in rows[:, 1]
    # not right-invertible, yet the one moving column preserves star: the
    # quandle kernel hands on no maps, as they are not bijections
    star = np.array([[0, 0, 0], [1, 2, 1], [2, 0, 0]])
    assert kernels._preserved(star[:, [1]].T, star)
    assert kernels.quandle_violations(star, 100)[1:] == (None,) * 4
    _assert_rows_match_oracle(star, np.zeros_like(star), np.zeros_like(star))


def test_proof_matches_oracle_on_shift_structures():
    # trivial star: every rho_s is the identity and every orbit one element
    for n in range(1, 8):
        for s in range(n):
            q = shift_singquandle(n, s)
            _assert_rows_match_oracle(q.star, q.r1, q.r2)


def test_trivial_star_rows_match_oracle_and_read_no_slab(scanned):
    # every rho is the identity, so identities 1-3 hold whatever R1 and R2
    # are, and only 4 and 5 have rows; no slab of any identity is read
    rng = np.random.default_rng(23)
    for n in range(2, 9):
        star = np.repeat(np.arange(n)[:, None], n, axis=1)
        for _ in range(4):
            r1, r2 = rng.integers(n, size=(2, n, n))
            _assert_rows_match_oracle(star, r1, r2)
    assert scanned == {}


def test_no_rho_moves_exactly_for_the_trivial_star():
    # the quandle kernel hands on an empty list of maps, which proves
    # identities 1-3 outright, only for x*y = x: over all 216 stars of order
    # 3 whose columns are permutations, the corpus stars and the affine
    # stars of order up to 8, the trivial ones among them being t = 1
    stars = [np.array(cols).T for cols in
             itertools.product(itertools.permutations(range(3)), repeat=3)]
    assert len(stars) == 216
    stars += [corpus.load(cid).star for cid in ("X-Z4", "Y-Z4", "X-Z8-a", "X-Z8-b")]
    stars += [affine_singquandle(n, t, 0).star for n in range(1, 9)
              for t in range(1, max(n, 2)) if np.gcd(t, n) == 1]
    trivial = 0
    for star in stars:
        autos = kernels.quandle_violations(star, 100)[3]
        identity = bool(np.all(star == np.arange(len(star))[:, None]))
        assert (autos is not None and len(autos) == 0) == identity
        trivial += identity
    assert trivial == 1 + 8


def _swap_star(n: int, moving) -> np.ndarray:
    """The star whose column x swaps 0 and 1 for x in moving, a nonempty
    subset of 2..n-1, and is the identity map otherwise.  Its one moving map
    commutes with itself and fixes every x in moving, so this is a quandle,
    with D = 2 distinct columns and n - 1 Inn-orbits: {0, 1} and each other
    element alone."""
    star = np.repeat(np.arange(n)[:, None], n, axis=1)
    star[0, moving], star[1, moving] = 1, 0
    return star


def test_swap_star_rows_match_oracle(scanned):
    # R1 is drawn among the tables that the swap preserves, which is
    # identity 1, and R2 is forced by identity 4; the draws that pass
    # identities 2 and 5 too but fail 3 are kept, some of them at a = 1,
    # which is not the least element of its orbit {0, 1}
    rng = np.random.default_rng(17)
    kept = off_least = 0
    for n in (5, 6):
        idx = np.arange(n)
        swap = np.array([1, 0, *range(2, n)])
        key, moved = idx[:, None] * n + idx, swap[:, None] * n + swap
        for _ in range(40):
            moving = [x for x in range(2, n) if rng.random() < 0.5] or [n - 1]
            star = _swap_star(n, moving)
            r1 = rng.integers(n, size=(n, n))
            r1[key == moved] = rng.integers(2, n, size=(n - 2) ** 2)  # pairs the swap fixes
            r1 = np.where(key <= moved, r1, swap[r1[swap][:, swap]])  # R1(σx, σy) = σ R1(x, y)
            r2 = r1[idx[None, :], star]  # R2(a, b) = R1(b, a*b)
            rows = violation_rows(star, bar_by_columns(star), r1, r2)[1]
            if {row[0] for row in rows} != {3}:
                continue
            _assert_rows_match_oracle(star, r1, r2)
            kept += 1
            off_least += any(row[1] == 1 for row in rows)
    assert kept >= 10 and off_least >= 5
    # with R1(x, y) = y and R2(x, y) = x*y all five identities hold, and
    # identity 3 is proved by one slab per Inn-orbit
    star = _swap_star(9, [3, 8])
    scanned.clear()
    assert validate_tables(star, np.repeat(np.arange(9)[None, :], 9, axis=0), star).ok
    assert scanned == {3: 8}


def test_rows_match_oracle_with_columns_that_do_not_commute(scanned):
    # affine(5, 2) on 0..4 beside 32 elements with trivial columns, x*y = x
    # across: 6 distinct columns, five of order 4 that pairwise do not
    # commute, and 33 Inn-orbits.  R1(x, y) = y and R2(x, y) = x*y satisfy
    # the five identities over any quandle; the proof must say so with one
    # slab per orbit, and the rows must match after one changed cell of
    # star, R1 or R2
    n, idx, five = 37, np.arange(37), np.arange(5)
    star = np.repeat(idx[:, None], n, axis=1)
    star[:5, :5] = (2 * five[:, None] - five) % 5
    r1 = np.repeat(idx[None, :], n, axis=0)
    assert validate_tables(star, r1, star).ok and scanned == {3: 33}
    rng = random.Random(31)
    for which in range(3):
        for _ in range(2):
            tables = [star.copy(), r1.copy(), star.copy()]
            a, b = rng.randrange(5), rng.randrange(n)
            tables[which][a, b] = (tables[which][a, b] + 1 + rng.randrange(n - 1)) % n
            _assert_rows_match_oracle(*tables, caps=(100,))


def test_identity_3_proof_is_chosen_by_columns_and_orbits(scanned):
    # every column of the trivial star is the identity map: no slab is
    # read.  affine(256,3,2) has 2 orbits: one slab per orbit
    shift_singquandle(256, 1)
    assert scanned == {}
    affine_singquandle(256, 3, 2)
    assert scanned == {3: 2}
    # without identity 1 there is no proof of 3: over a swap star,
    # R1(a, c) = f(a) with f(1) = 0 breaks identity 1 but keeps 3, which
    # its scan then reads in full
    star = _swap_star(9, [4, 6])
    f = np.array([0, 0, *range(2, 9)])
    r1, r2 = np.repeat(f[:, None], 9, axis=1), np.repeat(np.arange(9)[None, :], 9, axis=0)
    scanned.clear()
    axioms = {v.axiom for v in validate_tables(star, r1, r2).violations}
    assert "singular-1" in axioms and "singular-3" not in axioms
    assert scanned[3] == 9


def test_trivial_star_validation_memory_at_order_1024():
    # no slab of identities 1-3 is read, and the peak, 23.0 MB, is the
    # quandle kernel's int64 preimage count; with one identity-3 slab per
    # element, validation of these tables peaked at 24.2 MB
    n = 1024
    idx = np.arange(n, dtype=np.int16)
    star = np.repeat(idx[:, None], n, axis=1)
    r1 = np.repeat(idx[None, :], n, axis=0)
    tracemalloc.start()
    try:
        report = validate_tables(star, r1, star)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak <= 24.2 * 2**20


# A disjoint union of many small dihedral quandles: many Inn-orbits and
# many moving rho_s at once, unlike the affine (few orbits) and trivial
# (no moving rho_s) targets.

def test_union_rows_match_oracle():
    rng = random.Random(13)
    n = 3 * 6 + 5
    q = union_singquandle([3] * 6 + [5], np.random.default_rng(1).permutation(n))
    autos = kernels.quandle_violations(q.star, 100)[3]
    assert len(autos) == len(q.gens) == 2 * 7  # two per component, all moving
    assert len(set(element_orbits(q.star.tolist()))) == 7
    assert validate_tables(q.star, q.r1, q.r2).ok
    for _ in range(4):  # random R1 and R2 over the union's star
        r1, r2 = (np.array([[rng.randrange(n) for _ in range(n)] for _ in range(n)]) for _ in range(2))
        _assert_rows_match_oracle(q.star, r1, r2)
    for which in range(3):  # one changed cell in star, R1 or R2
        for _ in range(3):
            tables = [q.star.copy(), q.r1.copy(), q.r2.copy()]
            a, b = rng.randrange(n), rng.randrange(n)
            tables[which][a, b] = (tables[which][a, b] + 1 + rng.randrange(n - 1)) % n
            _assert_rows_match_oracle(*tables)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_orbit_labels_of_union_elements_match_bfs(seed):
    sizes = [3] * 30 + [5] * 3 + [7]
    n = sum(sizes)
    q = union_singquandle(sizes, np.random.default_rng(seed).permutation(n))
    want = element_orbits(q.star.tolist())
    assert len(set(want)) == len(sizes)
    elements = np.arange(n)[:, None]
    assert kernels.orbit_labels(elements, q.rhos, n).tolist() == q.orbits.tolist() == want
    assert kernels.orbit_labels(elements, np.ascontiguousarray(q.star.T), n).tolist() == want


def test_orbit_labels_reject_a_seed_set_mapped_outside_the_seeds():
    # over the dihedral star of order 3, x -> x*1 sends the seed set {0} to
    # {2}: were {0} a coloring's seed set and {2} none, that map would not
    # be an automorphism
    star = np.array([[0, 2, 1], [2, 1, 0], [1, 0, 2]])
    rhos = star[:, [1]].T
    with pytest.raises(RuntimeError, match=r"seed set \[0\] maps to \[2\].*not an automorphism"):
        kernels.orbit_labels(np.array([[0]]), rhos, 3)
    assert kernels.orbit_labels(np.array([[0], [2]]), rhos, 3).tolist() == [0, 0]


def test_orbit_labels_reject_an_image_that_falls_between_seed_sets():
    # x -> x*0 fixes 0 and sends 2 to 1, whose key lies between the seed
    # sets' keys
    star = np.array([[0, 2, 1], [2, 1, 0], [1, 0, 2]])
    rhos = star[:, [0]].T
    with pytest.raises(RuntimeError, match=r"seed set \[2\] maps to \[1\]"):
        kernels.orbit_labels(np.array([[0], [2]]), rhos, 3)


def test_orbit_labels_reject_a_map_that_is_not_injective_on_a_seed_set():
    # x -> [0, 0, 2][x] sends {0, 1} to the multiset {0, 0}, no seed set;
    # made a set, it would be the seed set {0}
    seeds = np.array([[0, 1], [0, 3], [2, 3]])
    with pytest.raises(RuntimeError, match=r"seed set \[0, 1\] maps to \[0, 0\]"):
        kernels.orbit_labels(seeds, np.array([[0, 0, 2]]), 3)


def _distinct_rows_cases():
    rng = np.random.default_rng(22)
    pool = rng.integers(0, 4096, (5, 12))
    return {
        "no rows": np.empty((0, 3), dtype=np.int64),
        "no columns": np.empty((7, 0), dtype=np.int64),
        "one column": rng.integers(0, 50, (200, 1)),
        "many duplicates": rng.integers(0, 3, (500, 4)),
        # 4096^12 = 2^144, so the keys take the dense-rank fold
        "wide": np.concatenate([pool[rng.integers(0, 5, 300)], rng.integers(0, 4096, (100, 12))]),
        "padded sets": kernels.canonical_sets(rng.integers(0, 9, (400, 3)), 9),
    }


@pytest.mark.parametrize("case", list(_distinct_rows_cases()))
def test_distinct_rows_match_numpy_unique(case):
    a = _distinct_rows_cases()[case]
    rows, inverse, counts = kernels.distinct_rows(a)
    want_rows, want_inverse, want_counts = np.unique(a, axis=0, return_inverse=True,
                                                     return_counts=True)
    assert rows.shape == want_rows.shape and np.array_equal(rows, want_rows)
    assert np.array_equal(inverse, want_inverse.ravel())
    assert np.array_equal(counts, want_counts)


def test_row_keys_fold_wide_rows_by_rank():
    a = _distinct_rows_cases()["wide"]
    key = kernels._row_keys(a.T, 4096, len(a))
    assert 0 <= key.min() and key.max() < 1 << 62
    order = np.argsort(key, kind="stable")
    assert np.array_equal(order, np.lexsort(a.T[::-1]))


def test_orbit_labels_of_no_seed_sets_are_empty():
    star = np.array([[0, 2, 1], [2, 1, 0], [1, 0, 2]])
    rhos = star[:, [1]].T
    assert kernels.orbit_labels(np.empty((0, 1), dtype=np.int64), rhos, 3).tolist() == []


def _generators(star) -> list[int]:
    return kernels.generators_and_orbits(star)[0].tolist()


def test_generating_set_generates():
    q = affine_singquandle(256, 3, 2).relabel(np.random.default_rng(0).permutation(256))
    gens = _generators(q.star)
    assert len(gens) <= 3
    assert star_closure(q.star.tolist(), gens) == set(range(256))
    for cid in ("X-Z4", "Y-Z4", "X-Z8-a", "X-Z8-b"):
        star = corpus.load(cid).star
        assert star_closure(star.tolist(), _generators(star)) == set(range(len(star)))


def test_generating_set_of_trivial_star_is_everything(monkeypatch):
    # every column is the identity map, so S is X, each element its own
    # orbit, with no merge
    merged = []
    monkeypatch.setattr(kernels, "_merge", lambda *args: merged.append(args))
    q = affine_singquandle(64, 1, 0)  # a*b = a
    gens, rhos, orbits = kernels.generators_and_orbits(q.star)
    assert gens.tolist() == orbits.tolist() == list(range(64))
    assert rhos.shape == (0, 64)
    assert merged == []


def test_generating_set_holds_every_identity_column_and_generates():
    rng = np.random.default_rng(29)
    stars = [corpus.load(cid).star for cid in ("X-Z4", "Y-Z4", "X-Z8-a", "X-Z8-b")]
    for n in (5, 8, 13):
        perm = rng.permutation(n)
        stars += [_swap_star(n, [x for x in range(2, n) if rng.random() < 0.5] or [2]),
                  shift_singquandle(n).relabel(perm).star,
                  affine_singquandle(n, 1 + (n % 2), 3).relabel(perm).star]
    stars += [union_singquandle([3, 3, 5], rng.permutation(11)).star,
              union_singquandle([3, 5, 7, 3], rng.permutation(18)).star]
    for star in stars:
        n = len(star)
        gens = _generators(star)
        assert gens == sorted(set(gens))
        fixed = np.flatnonzero((star == np.arange(n)[:, None]).all(axis=0))
        assert set(fixed.tolist()) <= set(gens)
        assert star_closure(star.tolist(), gens) == set(range(n))


@pytest.mark.parametrize("n, t", [(48, 47), (64, 3), (128, 3), (256, 3)])
def test_generating_set_of_benchmark_affine_targets(n, t):
    # no column of these is the identity map, so S is the greedy one
    assert _generators(affine_singquandle(n, t, 2).star) == [0, 1]


def test_violation_cap_bounds_the_total_in_report_order():
    # tables that break every quandle axiom, and every compatibility
    # identity over a quandle star, with more rows in all than any cap here
    idx = np.arange(6)
    star = (idx[:, None] * idx + 1) % 6
    every = kernels.quandle_violations(star, _unreached_cap(6))[0]
    assert np.all(np.diff(every[:, 0]) >= 0) and set(every[:, 0]) == {0, 1, 2}
    q = affine_singquandle(6, 5, 2)
    r1, r2 = np.zeros((6, 6), dtype=np.int64), np.ones((6, 6), dtype=np.int64)
    _, bar, _, autos, orbits = kernels.quandle_violations(q.star, 100)
    every_sing = kernels.sing_violations(q.star, bar, r1, r2, _unreached_cap(6), autos, orbits)
    assert np.all(np.diff(every_sing[:, 0]) >= 0) and set(every_sing[:, 0]) == {1, 2, 3, 4, 5}
    for cap in (0, 1, 5, 100):
        assert kernels.quandle_violations(star, cap)[0].tolist() == every[:cap].tolist()
        rows = kernels.sing_violations(q.star, bar, r1, r2, cap, autos, orbits)
        assert rows.tolist() == every_sing[:cap].tolist()


def test_frontier_keeps_aliased_columns_shared():
    # a derive like c = b stores one array under two keys; repeating or
    # filtering the frontier must transform it once and keep it shared
    a, b = np.arange(3), np.arange(3, 6)
    calls = []
    out = kernels._share({0: a, 1: b, 2: a}, lambda c: calls.append(1) or c * 2)
    assert len(calls) == 2
    assert out[0] is out[2]
    assert out[1].tolist() == [6, 8, 10]


def test_full_pipeline_sqp_matches_corpus():
    q = corpus.load("X-Z8-a")
    assert sqp(q).render() == corpus.expected()["X-Z8-a"]["sqp"]


# Order 256 is the first tested order at which an int16 x * n wraps, so
# every flat index the kernels build from int16 table entries must be int64.

@pytest.fixture(scope="module")
def affine256():
    return affine_singquandle(256, 3, 2)


def _link(cid):
    obj = corpus.load(cid)
    return pd_to_presentation(obj) if isinstance(obj, SingularPD) else obj


@pytest.mark.parametrize("link, count", [("6_11l-pd", 512), ("K2", 256)])
def test_counting_at_order_256(affine256, link, count):
    assert counting_invariant(_link(link), affine256) == count


def test_linear_count_oracle_matches_brute_force():
    for link in ("1_1l", "1_1l-2gen", "6_11l", "K1", "K2"):
        pres = corpus.load(link)
        for n, t, s in ((3, 2, 1), (4, 3, 2), (4, 1, 2), (5, 2, 3)):
            want = len(brute_homs(pres, affine_singquandle(n, t, s)))
            assert affine_coloring_count(pres, n, t, s) == want, (link, n, t, s)


# orders brute_homs cannot reach: the counts of all nine corpus links, hand
# and PD, against the Smith-form count over the affine relation matrix
@pytest.mark.parametrize("n, t, s", [(64, 63, 2), (64, 3, 2), (128, 3, 5), (128, 127, 64),
                                     (256, 5, 7), (256, 3, 2)])
def test_counting_matches_linear_count_oracle(n, t, s):
    q = affine_singquandle(n, t, s)
    links = [cid for cid in corpus.ids() if corpus.entry(cid).kind != "singquandle"]
    assert len(links) == 9
    for link in links:
        pres = _link(link)
        assert counting_invariant(pres, q) == affine_coloring_count(pres, n, t, s), link


@pytest.mark.parametrize("link", ["6_11l-pd", "K2"])
def test_colorings_at_order_256_do_not_depend_on_table_dtype(affine256, link):
    pres, q = _link(link), affine256
    tables = {"*": q.star, "/": q.bar, "R1": q.r1, "R2": q.r2}
    wide = {op: t.astype(np.int64) for op, t in tables.items()}
    plan = _plan(pres)
    rows = kernels.enumerate_colorings(tables, pres.generators, plan)
    assert rows.tolist() == kernels.enumerate_colorings(wide, pres.generators, plan).tolist()


def test_coloring_search_ends_near_its_result():
    # no relations: 4^9 rows of 9 free generators, an 18 MB result; sorting
    # a copy of the rows while the frontier columns were held peaked at
    # about 3 times that
    q = corpus.load("X-Z4")
    tables = {"*": q.star, "/": q.bar, "R1": q.r1, "R2": q.r2}
    generators = tuple(f"g{i}" for i in range(9))
    plan = [("free", g) for g in generators]
    tracemalloc.start()
    try:
        rows = kernels.enumerate_colorings(tables, generators, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (4 ** 9, 9)
    assert np.array_equal(rows[[0, 1, -1]], [[0] * 9, [0] * 8 + [1], [3] * 9])
    assert peak <= 2.4 * rows.nbytes


def test_derive_bar_of_int16_star_at_order_256(affine256):
    assert affine256.star.dtype == np.int16
    bar = kernels.quandle_violations(affine256.star, 100)[1]
    assert bar.dtype == np.int16
    assert bar.tolist() == bar_by_columns(affine256.star.tolist())


def test_violation_rows_at_order_256_do_not_depend_on_table_dtype(affine256):
    q = affine256
    r1 = q.r1.copy()
    r1[255, 255] = (r1[255, 255] + 1) % 256
    cap = _unreached_cap(256)  # every row, so identity 4's last one is reached
    quandle, bar, _, autos, orbits = kernels.quandle_violations(q.star, cap)
    wide_quandle, wide_bar, _, wide_autos, _ = kernels.quandle_violations(q.star.astype(np.int64), cap)
    assert quandle.tolist() == wide_quandle.tolist() == []
    assert bar.tolist() == wide_bar.tolist() == q.bar.tolist()
    assert autos.tolist() == wide_autos.tolist()
    narrow = [q.star, bar, r1, q.r2]
    wide = [t.astype(np.int64) for t in narrow]
    rows = kernels.sing_violations(*narrow, cap, autos, orbits).tolist()
    assert rows == kernels.sing_violations(*wide, cap, wide_autos, orbits).tolist()
    assert [4, 255, 255, -1] in rows


def test_preimage_rows_at_order_256_do_not_depend_on_table_dtype(affine256):
    # column 255 now takes the value 254 twice and 255 never: no bar
    star = affine256.star.copy()
    star[255, 255] = 254
    rows, *derived = kernels.quandle_violations(star, 100)
    wide, *wide_derived = kernels.quandle_violations(star.astype(np.int64), 100)
    assert rows.tolist() == wide.tolist()
    assert derived == wide_derived == [None] * 4
    assert [1, 255, 254, -1] in rows.tolist() and [1, 255, 255, -1] in rows.tolist()
