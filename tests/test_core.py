import inspect
import random
import sys
import tracemalloc

import numpy as np
import pytest

from singquandles import core, corpus, kernels
from singquandles.core import (
    FiniteSingquandle,
    derive_bar,
    find_isomorphism,
    table_singquandle,
    validate_tables,
)
from singquandles.errors import (
    EmptySeedError,
    MalformedTableError,
    NotABijectionError,
    NotAQuandleError,
    NotASingquandleError,
    NotRightInvertibleError,
    UnknownLabelError,
)
from singquandles.formulas import affine_singquandle

from oracles import (
    bar_by_columns,
    naive_closure,
    profile_of,
    quandle_ok,
    shift_singquandle,
    sing_ok,
    star_closure,
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
            bar = derive_bar(star).tolist()
        except NotRightInvertibleError:
            bar_ok = False
        oracle_ok = (quandle_ok(star.tolist()) and bar_ok
                     and sing_ok(star.tolist(), bar, r1.tolist(), r2.tolist()))
        assert report.ok == oracle_ok
        # a single-cell edit can only break things, never fix them
        assert not report.ok


def test_singular_rows_of_a_right_invertible_non_quandle():
    # the generating-set proof assumes the quandle axioms: on this star it
    # would pass, so validation must scan to find the singular rows
    star = np.array([[0, 2, 0], [1, 1, 2], [2, 0, 1]])
    r1 = np.array([[0, 0, 2], [1, 1, 1], [0, 2, 2]])
    r2 = r1[np.arange(3)[None, :], star]
    quandle, singular = violation_rows(star, derive_bar(star), r1, r2, core.MAX_VIOLATIONS)
    assert quandle and singular
    expected = [(f"singular-{code}", tuple(w for w in row if w != -1)) for code, *row in singular]
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


def test_derive_bar_roundtrip():
    for cid in ALL_SQ:
        q = corpus.load(cid)
        bar = derive_bar(q.star)
        n = q.order
        a = np.arange(n)[:, None]
        assert np.array_equal(bar[q.star, np.arange(n)[None, :]], np.broadcast_to(a, (n, n)))
        assert np.array_equal(q.star[bar, np.arange(n)[None, :]], np.broadcast_to(a, (n, n)))


def test_derive_bar_rejects_bad_column():
    star = np.zeros((3, 3), dtype=np.int64)  # column 0 is constant
    with pytest.raises(NotRightInvertibleError) as exc:
        derive_bar(star)
    assert exc.value.column == 0


def test_derive_bar_matches_column_loop():
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 33):
        for _ in range(5):
            # each column a random permutation: right-invertible, not a quandle
            star = rng.permuted(np.tile(np.arange(n)[:, None], (1, n)), axis=0)
            assert derive_bar(star).tolist() == bar_by_columns(star)
            if n == 1:
                continue
            bad = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
            for b in bad:
                a, a2 = rng.choice(n, size=2, replace=False)
                star[a, b] = star[a2, b] if rng.random() < 0.8 else n
            with pytest.raises(NotRightInvertibleError) as want:
                bar_by_columns(star)
            with pytest.raises(NotRightInvertibleError) as got:
                derive_bar(star)
            assert got.value.column == want.value.column == bad.min()


@pytest.mark.parametrize("bad", [
    np.zeros((2, 3), dtype=np.int64),
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.array([[0, 5], [1, 0]]),
    np.array([[0, -1], [1, 0]]),
])
def test_malformed_tables_rejected(bad):
    ok = np.array([[0, 0], [1, 1]])
    with pytest.raises(MalformedTableError):
        validate_tables(bad, ok, ok)


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


def test_profiles_match_oracle():
    for cid in ALL_SQ:
        q = corpus.load(cid)
        profs = q.profiles()
        for x in range(q.order):
            assert tuple(profs[x]) == profile_of(q, x)
            assert tuple(q.profile(x)) == profile_of(q, x)


def test_profile_known_values(xz4, yz4):
    assert tuple(xz4.profile(0)) == (2, 2, 1, 1, 4, 4)
    assert {tuple(p) for p in yz4.profiles()} == {(2, 4, 0, 0, 1, 1), (4, 2, 2, 2, 1, 1)}


def test_closure_matches_oracle():
    rng = random.Random(3)
    for cid in ALL_SQ:
        q = corpus.load(cid)
        for _ in range(10):
            seed = rng.sample(range(q.order), rng.randrange(1, q.order + 1))
            assert q.closure(seed) == naive_closure(q, seed)


def test_closure_empty_seed(xz4):
    with pytest.raises(EmptySeedError):
        xz4.closure([])


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


def _unvalidated(star) -> FiniteSingquandle:
    # star only; R1 = R2 = the left projection, bar unused by the search
    star = np.array(star, dtype=np.int64)
    proj = np.repeat(np.arange(len(star))[:, None], len(star), axis=1)
    return FiniteSingquandle(order=len(star), star=star, bar=star.copy(), r1=proj, r2=proj.copy())


def test_iso_result_is_a_homomorphism():
    # on these tables the pairwise consistency check alone accepts a mapping
    # that is not a homomorphism (a pair whose product is mapped last is
    # never compared); the full table comparison rejects it and the search
    # goes on, to the real isomorphism or to exhaustion
    a = _unvalidated([[2, 2, 1], [2, 2, 2], [1, 1, 1]])
    b = _unvalidated([[1, 1, 1], [0, 0, 0], [1, 0, 0]])  # a relabelled by (2, 1, 0)
    assert find_isomorphism(a, b).mapping == (2, 1, 0)
    c = _unvalidated([[0, 1, 0], [2, 1, 0], [0, 1, 0]])
    d = _unvalidated([[0, 0, 2], [0, 0, 2], [0, 0, 2]])
    result = find_isomorphism(c, d)
    assert not result
    assert result.reason == "exhausted"


def test_build_converts_and_derives_once(monkeypatch, xz8a):
    calls = []
    orig = core.derive_bar
    monkeypatch.setattr(core, "derive_bar", lambda star: calls.append(1) or orig(star))
    q = table_singquandle(8, xz8a.star.tolist(), xz8a.r1.tolist(), xz8a.r2.tolist())
    assert len(calls) == 1
    assert q == xz8a
    assert np.array_equal(q.bar, xz8a.bar)


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


def test_build_takes_one_generating_set(monkeypatch, xz8a):
    calls = []
    orig = kernels.generating_set
    monkeypatch.setattr(kernels, "generating_set", lambda star: calls.append(orig(star)) or calls[-1])
    q = table_singquandle(8, xz8a.star, xz8a.r1, xz8a.r2)
    assert q == xz8a
    assert len(calls) == 1
    # the structure keeps the set validation took, not a second one
    assert q.generators() is calls[0]
    q.profiles(), q.closure([0]), q.relabel(range(8))
    assert len(calls) == 2  # the relabelled copy is one more build


BUILT = {
    "affine(64,3,2)": lambda: affine_singquandle(64, 3, 2),
    "affine(48,47,2)": lambda: affine_singquandle(48, 47, 2),
    "trivial(16)": lambda: affine_singquandle(16, 1, 0),
    "shift(6,1)": lambda: shift_singquandle(6, 1),
}


@pytest.mark.parametrize("name", ALL_SQ + tuple(BUILT))
def test_generators_generate_the_star(name):
    q = BUILT[name]() if name in BUILT else corpus.load(name)
    gens = q.generators().tolist()
    assert gens == sorted(set(gens))
    assert star_closure(q.star.tolist(), gens) == set(range(q.order))
    with pytest.raises(ValueError):
        q.generators()[0] = 1


def test_generators_of_relabelled_copies(xz8a):
    perm = [3, 0, 7, 5, 1, 6, 2, 4]
    other = xz8a.relabel(perm)
    assert star_closure(other.star.tolist(), other.generators().tolist()) == set(range(8))
    assert other.relabel(np.argsort(perm)) == xz8a


def test_generators_take_no_part_in_equality_or_hash(xz8a):
    bare = FiniteSingquandle(order=8, star=xz8a.star.copy(), bar=xz8a.bar.copy(),
                             r1=xz8a.r1.copy(), r2=xz8a.r2.copy())
    other = FiniteSingquandle(order=8, star=xz8a.star.copy(), bar=xz8a.bar.copy(),
                              r1=xz8a.r1.copy(), r2=xz8a.r2.copy(), gens=np.arange(8))
    assert bare.generators().size == 0
    assert bare == xz8a == other
    assert hash(bare) == hash(xz8a) == hash(other)


def test_report_describe_mentions_axiom():
    q = affine_singquandle(4, 3, 2)
    star = q.star.copy()
    star[1, 1] = 2
    text = validate_tables(star, q.r1, q.r2).describe()
    assert "idempotence" in text
    assert "invalid" in text


def test_validate_order_cross_check(xz4):
    report = validate_tables(xz4.star, xz4.r1, xz4.r2, order=4)
    assert report.ok
    with pytest.raises(MalformedTableError):
        validate_tables(xz4.star, xz4.r1, xz4.r2, order=5)
