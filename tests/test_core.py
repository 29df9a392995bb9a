import dataclasses
import inspect
import math
import random
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from singquandles import core, corpus, kernels
from singquandles.core import (
    FiniteSingquandle,
    find_isomorphism,
    table_singquandle,
    validate_tables,
)
from singquandles.errors import (
    MalformedTableError,
    NotABijectionError,
    NotAQuandleError,
    NotASingquandleError,
    UnknownLabelError,
)
from singquandles.formulas import affine_singquandle
from singquandles.presentation import phi_ssqp

from oracles import (
    NotRightInvertibleError,
    bar_by_columns,
    brute_isomorphism,
    element_orbits,
    naive_closure,
    profile_of,
    quandle_ok,
    shift_singquandle,
    sing_ok,
    star_closure,
    union_singquandle,
    violation_rows,
)

ALL_SQ = ("X-Z4", "Y-Z4", "X-Z8-a", "X-Z8-b")


@pytest.mark.parametrize("cid", ALL_SQ)
def test_corpus_structures_validate(cid):
    q = corpus.load(cid)
    report = validate_tables(q.star, q.r1, q.r2)
    assert report.ok
    assert report.violations == ()


def test_validation_agrees_with_oracle_on_affine():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(3, 9)
        t = rng.choice([t for t in range(1, n) if np.gcd(t, n) == 1])
        s = rng.randrange(n)
        q = affine_singquandle(n, t, s)
        star = q.star.tolist()
        assert quandle_ok(star)
        assert sing_ok(star, q.bar.tolist(), q.r1.tolist(), q.r2.tolist())
        assert validate_tables(q.star, q.r1, q.r2).ok


def test_validation_catches_random_corruption():
    rng = random.Random(11)
    for _ in range(30):
        q = affine_singquandle(8, rng.choice([1, 3, 5, 7]), rng.randrange(8))
        star, r1, r2 = q.star.copy(), q.r1.copy(), q.r2.copy()
        which = rng.choice(["star", "r1", "r2"])
        table = {"star": star, "r1": r1, "r2": r2}[which]
        i, j = rng.randrange(8), rng.randrange(8)
        table[i, j] = (table[i, j] + 1 + rng.randrange(7)) % 8
        report = validate_tables(star, r1, r2)
        bar_ok = True
        try:
            bar = bar_by_columns(star)
        except NotRightInvertibleError:
            bar_ok = False
        oracle_ok = (quandle_ok(star.tolist()) and bar_ok
                     and sing_ok(star.tolist(), bar, r1.tolist(), r2.tolist()))
        assert report.ok == oracle_ok
        # a single-cell edit can only break things, never fix them
        assert not report.ok


def test_singular_rows_of_a_right_invertible_non_quandle():
    # the moving rho_s do not preserve star here; a singular proof that did
    # not check star itself would pass and miss the singular rows
    star = np.array([[0, 2, 0], [1, 1, 2], [2, 0, 1]])
    r1 = np.array([[0, 0, 2], [1, 1, 1], [0, 2, 2]])
    r2 = r1[np.arange(3)[None, :], star]
    quandle, singular = violation_rows(star, bar_by_columns(star), r1, r2)
    assert quandle and singular
    shown = singular[:core.MAX_VIOLATIONS - len(quandle)]
    expected = [(f"singular-{code}", tuple(w for w in row if w != -1)) for code, *row in shown]
    got = [tuple(v) for v in validate_tables(star, r1, r2).violations if v.axiom.startswith("singular")]
    assert got == expected


def test_violation_witnesses_are_real():
    q = affine_singquandle(6, 5, 2)
    star = q.star.copy()
    star[2, 2] = 3
    report = validate_tables(star, q.r1, q.r2)
    assert not report.ok
    axioms = {v.axiom for v in report.violations}
    assert "idempotence" in axioms
    for v in report.violations:
        if v.axiom == "idempotence":
            assert v.witness == (2,)


def _kernel_bar(star):
    """The quandle kernel's bar (None when it finds no right inverse) and
    its right-invertibility rows."""
    rows, bar, _ = kernels.quandle_violations(star, core.MAX_VIOLATIONS, kernels.generating_set(star))
    return bar, rows[rows[:, 0] == 1]


def test_derive_bar_roundtrip():
    for cid in ALL_SQ:
        q = corpus.load(cid)
        bar, inv = _kernel_bar(q.star)
        assert not len(inv)
        assert bar.tolist() == bar_by_columns(q.star)
        n = q.order
        a = np.arange(n)[:, None]
        assert np.array_equal(bar[q.star, np.arange(n)[None, :]], np.broadcast_to(a, (n, n)))
        assert np.array_equal(q.star[bar, np.arange(n)[None, :]], np.broadcast_to(a, (n, n)))


def test_derive_bar_rejects_bad_column():
    star = np.zeros((3, 3), dtype=np.int64)  # column 0 is constant
    with pytest.raises(NotRightInvertibleError) as exc:
        bar_by_columns(star)
    assert exc.value.column == 0
    bar, inv = _kernel_bar(star)
    assert bar is None
    assert inv[0, 1] == 0


def test_derive_bar_matches_column_loop():
    # entries of n or more never reach the kernel: _as_table rejects them
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 33):
        for _ in range(5):
            # each column a random permutation: right-invertible, not a quandle
            star = rng.permuted(np.tile(np.arange(n)[:, None], (1, n)), axis=0)
            assert _kernel_bar(star)[0].tolist() == bar_by_columns(star)
            if n == 1:
                continue
            bad = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
            for b in bad:
                a, a2 = rng.choice(n, size=2, replace=False)
                star[a, b] = star[a2, b]
            with pytest.raises(NotRightInvertibleError) as want:
                bar_by_columns(star)
            bar, inv = _kernel_bar(star)
            assert bar is None
            assert inv[0, 1] == want.value.column == bad.min()


@pytest.mark.parametrize("bad", [
    np.zeros((2, 3), dtype=np.int64),
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.array([[0, 5], [1, 0]]),
    np.array([[0, -1], [1, 0]]),
    # wraps to 3 in int16, so the range is checked before narrowing
    np.array([[0, 0, 0, 0], [1, 1, 1, 1], [2, 2, 2, 2], [3, 3, 3, 2**16 + 3]], dtype=np.int32),
])
def test_malformed_tables_rejected(bad):
    ok = np.repeat(np.arange(len(bad))[:, None], len(bad), axis=1)  # a*b = a
    with pytest.raises(MalformedTableError):
        validate_tables(bad, ok, ok)


def test_tables_without_rows_are_malformed():
    with pytest.raises(MalformedTableError, match="star table"):
        validate_tables(5, 5, 5)


def test_order_above_int16_range_is_rejected_before_conversion():
    n = 2**15 + 1
    t = np.broadcast_to(np.int64(0), (n, n))  # no memory behind the n^2 entries
    tracemalloc.start()
    try:
        with pytest.raises(MalformedTableError, match="order 32769"):
            table_singquandle(n, t, t, t)
        with pytest.raises(MalformedTableError, match="order 32769"):
            validate_tables(t, t, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_table_singquandle_error_kinds():
    # broken quandle axiom -> NotAQuandleError
    with pytest.raises(NotAQuandleError):
        table_singquandle(2, [[1, 0], [0, 1]], [[0, 1], [0, 1]], [[0, 0], [1, 1]])
    # valid quandle, broken compatibility -> NotASingquandleError
    q = corpus.load("X-Z4")
    r1 = q.r1.copy()
    r1[0, 1] = (r1[0, 1] + 1) % 4
    with pytest.raises(NotASingquandleError) as exc:
        table_singquandle(4, q.star, r1, q.r2)
    assert not exc.value.report.ok


def test_every_construction_is_validated(xz8a):
    # one R1 cell of X-Z8-a changed breaks identity 1 first
    r1 = xz8a.r1.copy()
    r1[2, 5] = (r1[2, 5] + 1) % 8
    with pytest.raises(NotASingquandleError) as exc:
        FiniteSingquandle(order=8, star=xz8a.star, r1=r1, r2=xz8a.r2)
    assert exc.value.report.violations[0].axiom == "singular-1"
    with pytest.raises(NotASingquandleError):
        dataclasses.replace(xz8a, r1=r1)
    star = xz8a.star.copy()
    star[0, 0] = 1
    with pytest.raises(NotAQuandleError):
        dataclasses.replace(xz8a, star=star)


def test_bar_and_generators_are_derived_not_passed(xz8a):
    init = [f.name for f in dataclasses.fields(FiniteSingquandle) if f.init]
    assert init == ["order", "star", "r1", "r2", "labels"]
    tables = {"star": xz8a.star, "r1": xz8a.r1, "r2": xz8a.r2}
    for name in ("bar", "gens", "rhos", "orbits"):
        derived = {name: getattr(xz8a, name)}
        with pytest.raises(TypeError):
            FiniteSingquandle(order=8, **tables, **derived)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(xz8a, **derived)
    with pytest.raises(TypeError):  # the field order before bar was derived
        FiniteSingquandle(8, xz8a.star, xz8a.bar, xz8a.r1, xz8a.r2)


def test_profiles_match_oracle():
    for cid in ALL_SQ:
        q = corpus.load(cid)
        profs = q.profiles()
        for x in range(q.order):
            assert tuple(profs[x]) == profile_of(q, x)


def test_profile_known_values(xz4, yz4):
    assert tuple(xz4.profiles()[0]) == (2, 2, 1, 1, 4, 4)
    assert {tuple(p) for p in yz4.profiles()} == {(2, 4, 0, 0, 1, 1), (4, 2, 2, 2, 1, 1)}


def test_closure_matches_oracle():
    rng = random.Random(3)
    for cid in ALL_SQ:
        q = corpus.load(cid)
        for _ in range(10):
            seed = rng.sample(range(q.order), rng.randrange(1, q.order + 1))
            assert q.closure(seed) == naive_closure(q, seed)


def test_closure_empty_seed(xz4):
    assert xz4.closure([]) == frozenset()
    # an empty row among others closes to itself, and gathers nothing
    # through the padding 4
    seeds = np.array([[4, 4], [1, 4], [4, 4], [0, 2]])
    rows = kernels.closures((xz4.star, xz4.r1, xz4.r2), seeds, 4).tolist()
    assert [sorted(x for x in row if x < 4) for row in rows] == \
        [[], sorted(naive_closure(xz4, [1])), [], sorted(naive_closure(xz4, [0, 2]))]
    assert kernels.closures((xz4.star,), np.empty((2, 0), dtype=np.int64), 4).shape == (2, 0)


def test_subsingquandle_detection(xz4):
    assert xz4.is_subsingquandle([1, 3])
    assert xz4.is_subsingquandle(range(4))
    assert xz4.is_subsingquandle([1])  # R1(1,1)=5=1 mod 4, so singletons close
    assert not xz4.is_subsingquandle([])
    # in the shift structure R1(x,x)=x+1 escapes any singleton
    q = shift_singquandle(4, 1)
    assert not q.is_subsingquandle([0])
    assert q.is_subsingquandle(range(4))


def test_labels_and_lookup():
    q = table_singquandle(2, [[0, 0], [1, 1]], [[0, 1], [0, 1]], [[0, 0], [1, 1]],
                          labels=("a", "b"))
    assert q.index_of("b") == 1
    with pytest.raises(UnknownLabelError):
        q.index_of("c")
    with pytest.raises(MalformedTableError):
        table_singquandle(2, [[0, 0], [1, 1]], [[0, 1], [0, 1]], [[0, 0], [1, 1]],
                          labels=("a", "a"))


_UNWRITABLE = "is empty, contains whitespace"


@pytest.mark.parametrize("labels, message", [
    (("a",) * 4, "labels must be distinct"),
    (("a", "b"), "labels must be distinct"),
    # labels a table file cannot carry: render_singquandle would write a
    # file that parse_singquandle rejects or misreads
    (("a b", "c", "d", "e"), _UNWRITABLE),
    (("a\u3000b", "c", "d", "e"), _UNWRITABLE),
    (("a#b", "c", "d", "e"), _UNWRITABLE),
    (("", "c", "d", "e"), _UNWRITABLE),
    (("a,b", "c", "d", "e"), _UNWRITABLE),
    (("labels:a", "c", "d", "e"), _UNWRITABLE),
    (("R1::", "c", "d", "e"), _UNWRITABLE),
], ids=["repeated", "too-few", "space", "ideographic-space", "hash", "empty", "comma",
        "labels-prefix", "block-head"])
def test_bad_labels_are_rejected_before_the_tables_are_scanned(monkeypatch, xz4, labels, message):
    monkeypatch.setattr(core, "_validate", lambda *args: pytest.fail("tables were scanned"))
    with pytest.raises(MalformedTableError, match=message):
        FiniteSingquandle(order=4, star=xz4.star, r1=xz4.r1, r2=xz4.r2, labels=labels)
    # an order int16 cannot hold is still the first error
    t = np.broadcast_to(np.int64(0), (2**15 + 1, 2**15 + 1))
    with pytest.raises(MalformedTableError, match="order 32769"):
        FiniteSingquandle(order=2**15 + 1, star=t, r1=t, r2=t, labels=labels)


def test_relabel_conjugates_tables(xz4):
    perm = [2, 0, 3, 1]
    p = xz4.relabel(perm)
    for a in range(4):
        for b in range(4):
            assert p.star[perm[a], perm[b]] == perm[xz4.star[a, b]]
            assert p.r1[perm[a], perm[b]] == perm[xz4.r1[a, b]]
            assert p.r2[perm[a], perm[b]] == perm[xz4.r2[a, b]]
    assert p.labels[perm[0]] == xz4.labels[0]


def test_relabel_requires_bijection(xz4):
    with pytest.raises(NotABijectionError):
        xz4.relabel([0, 0, 1, 2])
    with pytest.raises(NotABijectionError):
        xz4.relabel([0, 1, 2])


def test_equality_and_hash(xz4):
    twin = table_singquandle(4, xz4.star, xz4.r1, xz4.r2)
    assert twin == xz4
    assert hash(twin) == hash(xz4)
    assert xz4.relabel([1, 0, 2, 3]) != xz4


def test_tables_are_frozen(xz4):
    with pytest.raises(ValueError):
        xz4.star[0, 0] = 1


def test_validated_tables_are_int16_and_read_only(xz4):
    wide = [t.astype(np.uint64) for t in (xz4.star, xz4.r1, xz4.r2)]
    for q in (xz4, affine_singquandle(8, 3, 2), table_singquandle(4, *wide)):
        for t in (q.star, q.bar, q.r1, q.r2):
            assert t.dtype == np.int16
            assert t.flags.c_contiguous and not t.flags.writeable


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_direct_construction_agrees_with_validated_whatever_the_dtype(xz8a, dtype):
    d = FiniteSingquandle(order=8, **{k: getattr(xz8a, k).astype(dtype)
                                      for k in ("star", "r1", "r2")})
    assert d == xz8a
    assert hash(d) == hash(xz8a)
    assert len({d, xz8a}) == 1
    assert d.star.dtype == np.int16
    for name in ("bar", "gens", "rhos", "orbits"):
        assert np.array_equal(getattr(d, name), getattr(xz8a, name))


def test_iso_identity_and_relabel(xz4):
    assert find_isomorphism(xz4, xz4).mapping == (0, 1, 2, 3)
    perm = (3, 1, 0, 2)
    result = find_isomorphism(xz4, xz4.relabel(perm))
    assert result
    # any witness must transport all three operations
    m = result.mapping
    other = xz4.relabel(perm)
    for a in range(4):
        for b in range(4):
            assert other.star[m[a], m[b]] == m[xz4.star[a, b]]
            assert other.r1[m[a], m[b]] == m[xz4.r1[a, b]]
            assert other.r2[m[a], m[b]] == m[xz4.r2[a, b]]


def test_iso_separates_by_sqp(xz4, yz4):
    result = find_isomorphism(xz4, yz4)
    assert not result
    assert result.reason == "sqp-mismatch"
    assert result.mapping is None


def test_iso_order_mismatch(xz4, xz8a):
    assert find_isomorphism(xz4, xz8a).reason == "sqp-mismatch"


def test_iso_exhausted_same_profiles():
    # +1 and +2 shifts over Z4 share every profile but have different cycle
    # structure, so the search must fail only after trying everything
    a = shift_singquandle(4, 1)
    b = shift_singquandle(4, 2)
    result = find_isomorphism(a, b)
    assert not result
    assert result.reason == "exhausted"


def test_iso_shift_conjugate():
    # +1 and +3 are conjugate 4-cycles, so these are isomorphic
    result = find_isomorphism(shift_singquandle(4, 1), shift_singquandle(4, 3))
    assert result


def test_iso_search_is_not_bounded_by_recursion_limit():
    # every table of affine(100, 1, 0) is a projection, so all 100 elements
    # share one profile and the search goes 100 assignments deep
    q = affine_singquandle(100, 1, 0)
    other = q.relabel(random.Random(5).sample(range(100), 100))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        result = find_isomorphism(q, other)
    finally:
        sys.setrecursionlimit(limit)
    m = np.array(result.mapping)
    for t1, t2 in ((q.star, other.star), (q.r1, other.r1), (q.r2, other.r2)):
        assert np.array_equal(t2[m[:, None], m[None, :]], m[t1])


def test_iso_rechecks_every_complete_mapping(monkeypatch, xz4):
    # an extension step that returns a total bijection which is not a
    # homomorphism: only the final comparison of the three tables can
    # refuse it, so every choice is refused and the search is exhausted
    bad = np.array([1, 0, 2, 3], dtype=core.TABLE_DTYPE)
    m = bad.astype(np.int64)
    assert not np.array_equal(xz4.star[m[:, None], m], m[xz4.star])
    calls = []
    monkeypatch.setattr(core, "_force", lambda *args: calls.append(args) or (bad, np.argsort(bad)))
    result = find_isomorphism(xz4, xz4)
    assert calls and result.mapping is None
    assert result.reason == "exhausted"


def _small_structures():
    """Every structure of order at most 6 named below, and one random
    relabelling of each."""
    out = [corpus.load("X-Z4"), corpus.load("Y-Z4"), union_singquandle((3,)),
           union_singquandle((5,)), union_singquandle((3, 3))]
    out += [shift_singquandle(n, s) for n in range(1, 7) for s in range(n)]
    out += [affine_singquandle(n, t, s) for n in range(1, 7) for t in range(n)
            if math.gcd(t, n) == 1 for s in range(n)]
    rng = random.Random(20)
    return out + [q.relabel(rng.sample(range(q.order), q.order)) for q in out]


def test_iso_matches_brute_force_on_small_structures():
    structures = _small_structures()
    for i, q1 in enumerate(structures):
        for q2 in structures[i:]:
            if q1.order != q2.order:
                continue
            result = find_isomorphism(q1, q2)
            assert bool(result) == (brute_isomorphism(q1, q2) is not None), (q1, q2)
            if result:
                m = np.array(result.mapping)
                assert sorted(result.mapping) == list(range(q1.order))
                for t1, t2 in ((q1.star, q2.star), (q1.r1, q2.r1), (q1.r2, q2.r2)):
                    assert np.array_equal(t2[m[:, None], m], m[t1])


@pytest.fixture
def bincount_sizes(monkeypatch):
    """The number of keys of every np.bincount call, in call order."""
    sizes = []
    orig = np.bincount
    monkeypatch.setattr(np, "bincount", lambda x, *args, **kwargs: sizes.append(np.size(x))
                        or orig(x, *args, **kwargs))
    return sizes


def test_build_converts_and_derives_once(bincount_sizes, xz8a):
    bincount_sizes.clear()
    q = table_singquandle(8, xz8a.star.tolist(), xz8a.r1.tolist(), xz8a.r2.tolist())
    assert bincount_sizes.count(8 * 8) == 1  # one preimage count
    assert q == xz8a
    assert np.array_equal(q.bar, xz8a.bar)


def test_non_right_invertible_star_is_counted_once(bincount_sizes):
    q = affine_singquandle(64, 3, 2)
    star = q.star.copy()
    star[1, 2] = star[0, 2]  # column 2 takes one value twice
    bincount_sizes.clear()
    report = validate_tables(star, q.r1, q.r2)
    assert report.violations[0] == ("right-invertibility", (2, int(star[0, 2])))
    assert bincount_sizes.count(64 * 64) == 1


def test_valid_build_proves_star_preserved_once(monkeypatch):
    q = affine_singquandle(64, 3, 2)
    tables, rhos = [], []
    orig_preserved, orig_moving = kernels._preserved, kernels.moving_rhos
    monkeypatch.setattr(kernels, "_preserved",
                        lambda r, table: tables.append(table) or orig_preserved(r, table))
    monkeypatch.setattr(kernels, "moving_rhos",
                        lambda star, gens: rhos.append(1) or orig_moving(star, gens))
    assert table_singquandle(64, q.star, q.r1, q.r2) == q
    assert sum(np.array_equal(t, q.star) for t in tables) == 1
    assert len(tables) == 3  # star, then R1 and R2
    assert len(rhos) == 1


def test_validation_memory_is_quadratic():
    # one n^3 int64 temporary at n=128 would be 16 MB on its own
    q = affine_singquandle(128, 3, 2)
    tracemalloc.start()
    try:
        assert validate_tables(q.star, q.r1, q.r2).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_validation_of_order_512_stays_under_16_mb():
    q = affine_singquandle(512, 3, 2)
    tracemalloc.start()
    try:
        assert validate_tables(q.star, q.r1, q.r2).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def test_invalid_tables_of_order_512_stay_under_10_mb():
    # almost every cell of the first slab breaks identity 1, and only the
    # capped rows are packed, not one row per broken cell
    q = affine_singquandle(512, 3, 2)
    zero = np.zeros((512, 512), dtype=np.int16)
    tracemalloc.start()
    try:
        report = validate_tables(q.star, zero, zero)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.violations) == core.MAX_VIOLATIONS
    assert peak < 10 << 20


def test_affine_order_1024_holds_8_n2_bytes_and_peaks_under_60_mb():
    tracemalloc.start()
    try:
        q = affine_singquandle(1024, 3, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(t.nbytes for t in (q.star, q.bar, q.r1, q.r2)) == 8 * 1024**2
    assert peak < 60 << 20


def test_build_takes_one_generating_set(monkeypatch, xz8a):
    calls = []
    orig = kernels.generating_set
    monkeypatch.setattr(kernels, "generating_set", lambda star: calls.append(orig(star)) or calls[-1])
    q = table_singquandle(8, xz8a.star, xz8a.r1, xz8a.r2)
    assert q == xz8a
    assert len(calls) == 1
    # the structure keeps the set validation took, not a second one
    assert q.gens is calls[0]
    q.profiles(), q.closure([0]), q.relabel(range(8))
    assert len(calls) == 2  # the relabelled copy is one more build


@pytest.mark.parametrize("name", ["X-Z8-a", "trivial(16)", "affine(48,47,2)"])
def test_each_derivation_runs_once(monkeypatch, name):
    # a build derives S, the moving rho_s and the Inn-orbits once each;
    # phi labels only its seed sets, and iso derives nothing
    q = BUILT[name]() if name in BUILT else corpus.load(name)
    link = corpus.load("1_1l")
    names = ("generating_set", "moving_rhos", "orbit_labels")
    calls = Counter()

    def counting(fn, orig):
        def wrapper(*args):
            calls[fn] += 1
            return orig(*args)
        return wrapper

    for fn in names:
        monkeypatch.setattr(kernels, fn, counting(fn, getattr(kernels, fn)))

    def counted(run):
        calls.clear()
        run()
        return tuple(calls[fn] for fn in names)

    other = q.relabel(np.roll(np.arange(q.order), 1))
    assert counted(lambda: table_singquandle(q.order, q.star, q.r1, q.r2)) == (1, 1, 1)
    assert counted(lambda: phi_ssqp(link, q)) == (0, 0, 1)
    assert counted(lambda: find_isomorphism(q, other)) == (0, 0, 0)


BUILT = {
    "affine(64,3,2)": lambda: affine_singquandle(64, 3, 2),
    "affine(48,47,2)": lambda: affine_singquandle(48, 47, 2),
    "trivial(16)": lambda: affine_singquandle(16, 1, 0),
    "shift(6,1)": lambda: shift_singquandle(6, 1),
}


@pytest.mark.parametrize("name", ALL_SQ + tuple(BUILT))
def test_generators_generate_the_star(name):
    q = BUILT[name]() if name in BUILT else corpus.load(name)
    gens = q.gens.tolist()
    assert gens == sorted(set(gens))
    assert star_closure(q.star.tolist(), gens) == set(range(q.order))
    with pytest.raises(ValueError):
        q.gens[0] = 1


@pytest.mark.parametrize("name", ALL_SQ + tuple(BUILT))
def test_rhos_are_the_moving_automorphisms_and_orbits_their_inn_orbits(name):
    q = BUILT[name]() if name in BUILT else corpus.load(name)
    idx = np.arange(q.order)
    moving = [q.star[:, s].tolist() for s in q.gens if (q.star[:, s] != idx).any()]
    assert q.rhos.tolist() == moving and q.rhos.shape == (len(moving), q.order)
    for rho in q.rhos:
        for t in (q.star, q.r1, q.r2):
            assert np.array_equal(t[rho[:, None], rho], rho[t])
    assert q.orbits.tolist() == element_orbits(q.star.tolist())
    assert not q.rhos.flags.writeable and not q.orbits.flags.writeable


def test_generators_of_relabelled_copies(xz8a):
    perm = [3, 0, 7, 5, 1, 6, 2, 4]
    other = xz8a.relabel(perm)
    assert star_closure(other.star.tolist(), other.gens.tolist()) == set(range(8))
    assert other.relabel(np.argsort(perm)) == xz8a


def test_report_describe_mentions_axiom():
    q = affine_singquandle(4, 3, 2)
    star = q.star.copy()
    star[1, 1] = 2
    text = validate_tables(star, q.r1, q.r2).describe()
    assert "idempotence" in text
    assert "invalid" in text


def test_validate_order_cross_check(xz4):
    # the order is len(star); a table of another shape is malformed
    assert validate_tables(xz4.star, xz4.r1, xz4.r2).order == 4
    for tables in ((xz4.star[:, :3], xz4.r1, xz4.r2), (xz4.star, xz4.r1, xz4.r2[:3])):
        with pytest.raises(MalformedTableError, match="shape"):
            validate_tables(*tables)
