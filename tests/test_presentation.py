import itertools
import random
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from singquandles import corpus, kernels
from singquandles.core import table_singquandle
from singquandles.diagram import SingularPD, pd_to_presentation
from singquandles.errors import ParseError, UnboundGeneratorError
from singquandles.formulas import affine_singquandle
from singquandles.polynomial import PhiInvariant, SqPolynomial, ssqp
from singquandles.presentation import (
    SingPresentation,
    _coloring_rows,
    _plan,
    counting_invariant,
    enumerate_homs,
    parse_presentation,
    phi_ssqp,
    render_presentation,
    seed_sets,
)
from singquandles.terms import Gen, parse_term

from oracles import UncheckedTables, brute_homs, naive_closure, seed_orbits, shift_singquandle

LINKS = ("1_1l", "1_1l-2gen", "6_11l", "K1", "K2")
TARGETS = ("X-Z4", "Y-Z4", "X-Z8-a", "X-Z8-b")


def P(text: str) -> SingPresentation:
    return parse_presentation(text)


def test_parse_basic():
    pres = P("name: demo\ngenerators: x, y\nx = R2(x, y)\nR1(x, y) * x = y\n")
    assert pres.name == "demo"
    assert pres.generators == ("x", "y")
    assert len(pres.relations) == 2
    assert pres.relations[0] == (parse_term("x"), parse_term("R2(x,y)"))


def test_parse_comments_and_blanks():
    pres = P("# a comment\ngenerators: x\n\nx = x * x  # trailing\n")
    assert pres.generators == ("x",)
    assert len(pres.relations) == 1


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        P("generators: x\nx == x\n")
    with pytest.raises(ParseError, match="line 3"):
        P("generators: x\nx = x\ny = x\n")  # y undeclared
    with pytest.raises(ParseError):
        P("x = x\n")  # relations before generators
    with pytest.raises(ParseError):
        P("generators: x, x\n")
    with pytest.raises(ParseError, match="missing generators line"):
        P("name: empty\n")  # an empty generator list parses, a missing one not


def test_duplicate_generators_rejected():
    with pytest.raises(ParseError):
        SingPresentation(("x", "x"), ())


@pytest.mark.parametrize("name", ["R1", "R2", "x y", "x*y", "x=y", "1x", ""])
def test_a_generator_that_no_term_reads_back_is_rejected(name):
    with pytest.raises(ParseError, match="cannot name a generator"):
        SingPresentation(("a", name), ())


def test_a_relation_with_an_undeclared_generator_is_rejected():
    with pytest.raises(UnboundGeneratorError, match="undeclared generator 'y'") as exc:
        SingPresentation(("x",), ((Gen("x"), parse_term("x*y")),))
    assert isinstance(exc.value, ParseError)  # the family the CLI exits 3 on


def test_roundtrip():
    # every corpus PD code compiles to a presentation that reads back
    pds = [obj for obj in map(corpus.load, corpus.ids()) if isinstance(obj, SingularPD)]
    assert len(pds) == 4
    for pres in (corpus.load("6_11l"), SingPresentation((), ()), *map(pd_to_presentation, pds)):
        assert parse_presentation(render_presentation(pres)) == pres


@pytest.mark.parametrize("link", LINKS)
@pytest.mark.parametrize("target", TARGETS)
def test_enumeration_matches_brute_force(link, target, backend):
    pres = corpus.load(link)
    q = corpus.load(target)
    got = enumerate_homs(pres, q)
    want = brute_homs(pres, q)
    assert got == want  # same assignments, same lexicographic order


@pytest.mark.parametrize("link", ("1_1l-pd", "K1-pd", "K2-pd"))
@pytest.mark.parametrize("target", ("X-Z4", "Y-Z4"))
def test_pd_enumeration_matches_brute_force(link, target):
    pres = pd_to_presentation(corpus.load(link))
    q = corpus.load(target)
    assert enumerate_homs(pres, q) == brute_homs(pres, q)


@pytest.mark.parametrize("s", (0, 1))
def test_wide_pd_enumeration_matches_brute_force(s):
    pres = pd_to_presentation(corpus.load("6_11l-pd"))
    assert len(pres.generators) == 14
    q = shift_singquandle(2, s)
    assert enumerate_homs(pres, q) == brute_homs(pres, q)


# one hand-written presentation per planner path, with the step it must plan
PLANNER_PATHS = {
    "generator on both sides": ("generators: x, y\nx = R2(x, y)\n",
                                ("join", "y", "R2", 1, Gen("x"), Gen("x"))),
    "generator nested on both sides": ("generators: x, y\nx = R2(x, R1(x, y))\n",
                                       ("check", Gen("x"), parse_term("R2(x,R1(x,y))"))),
    "solve through *": ("generators: a, b, c\na*b = c\nb = R1(c, c)\n",
                        ("derive", "a", parse_term("c/b"))),
    "solve through /": ("generators: a, b, c\na/b = c\nb = R1(c, c)\n",
                        ("derive", "a", parse_term("c*b"))),
    "join / right operand": ("generators: x, y, z\ny = x/z\n",
                             ("join", "z", "/", 1, Gen("x"), Gen("y"))),
    "join * right operand": ("generators: x, y, z\nx*z/y = y\n",
                             ("join", "z", "*", 1, Gen("x"), parse_term("y*y"))),
    "join R1 left operand": ("generators: x, y, z\nR1(z, x) = y\n",
                             ("join", "z", "R1", 0, Gen("x"), Gen("y"))),
    "join R2 right operand": ("generators: x, y, z\nR2(y, z) = R1(x, y)\n",
                              ("join", "z", "R2", 1, Gen("y"), parse_term("R1(x,y)"))),
    "generator in no relation": ("generators: u, x, y\nx = R2(x, y)\nR1(x, y) * x = y\n",
                                 ("free", "u")),
    "relation x = x": ("generators: x, y\nx = x\nR1(x, y) = y\n",
                       ("check", Gen("x"), Gen("x"))),
}


@pytest.mark.parametrize("path", PLANNER_PATHS)
def test_planner_paths_match_brute_force(path, backend):
    text, step = PLANNER_PATHS[path]
    pres = P(text)
    assert step in _plan(pres)
    for q in (corpus.load("X-Z4"), corpus.load("Y-Z4"), corpus.load("X-Z8-a"),
              shift_singquandle(3, 1)):
        assert enumerate_homs(pres, q) == brute_homs(pres, q)


@pytest.mark.parametrize("link,free,joins", (("6_11l-pd", 2, 1), ("K1-pd", 2, 0)))
def test_plan_enumerates_only_free_generators(link, free, joins):
    kinds = [step[0] for step in _plan(pd_to_presentation(corpus.load(link)))]
    assert kinds.count("free") == free
    assert kinds.count("join") == joins


@pytest.mark.parametrize("link", ("6_11l", "6_11l-pd", "K2"))
def test_coloring_search_memory_is_bounded(link):
    # a free step followed by a check would hold n**3 = 2M rows of every
    # bound generator (over 100 MB); over this target a join's buckets hold
    # at most 2 values, so no frontier exceeds 2 n**2 rows
    pres, q = _link(link), affine_singquandle(128, 3, 2)
    tracemalloc.start()
    try:
        homs = enumerate_homs(pres, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(homs) == {"6_11l": 256, "6_11l-pd": 256, "K2": 128}[link]
    assert peak < 8 << 20


def test_spurious_backend_rows_are_rejected(monkeypatch):
    pres = corpus.load("1_1l")
    q = corpus.load("X-Z8-a")
    rows = np.array([[h[g] for g in pres.generators] for h in brute_homs(pres, q)])
    bogus = rows.copy()
    bogus[3, 2] = (bogus[3, 2] + 1) % q.order
    bogus[5, 2] = (bogus[5, 2] + 1) % q.order
    monkeypatch.setattr(kernels, "enumerate_colorings", lambda *args: bogus)
    first = dict(zip(pres.generators, bogus[3].tolist()))
    with pytest.raises(RuntimeError, match="spurious coloring " + re.escape(str(first))):
        enumerate_homs(pres, q)


def test_enumeration_on_random_affine_targets():
    rng = random.Random(5)
    pres = corpus.load("K2")
    for _ in range(5):
        n = rng.randrange(3, 8)
        t = rng.choice([t for t in range(1, n) if __import__("math").gcd(t, n) == 1])
        q = affine_singquandle(n, t, rng.randrange(n))
        assert enumerate_homs(pres, q) == brute_homs(pres, q)


def test_relation_order_is_irrelevant():
    pres = corpus.load("6_11l")
    q = corpus.load("X-Z8-a")
    flipped = SingPresentation(pres.generators, tuple(reversed(pres.relations)),
                               name=pres.name)
    assert enumerate_homs(flipped, q) == enumerate_homs(pres, q)


def test_generator_order_changes_tuple_not_set():
    pres = P("generators: x, y\nx = R2(x, y)\nR1(x, y) * x = y\n")
    swapped = P("generators: y, x\nx = R2(x, y)\nR1(x, y) * x = y\n")
    q = corpus.load("X-Z8-a")
    a = {tuple(sorted(h.items())) for h in enumerate_homs(pres, q)}
    b = {tuple(sorted(h.items())) for h in enumerate_homs(swapped, q)}
    assert a == b


def test_no_generators_yields_empty_hom():
    pres = SingPresentation((), ())
    q = corpus.load("X-Z4")
    assert enumerate_homs(pres, q) == [{}]
    # its image is empty, whose ssqp is 0, and phi counts it
    phi = phi_ssqp(pres, q)
    assert phi == PhiInvariant([(SqPolynomial([]), 1)]) and phi.render() == "1*u^{0}"
    assert phi.counting() == counting_invariant(pres, q) == 1


def test_unconstrained_generators():
    pres = P("generators: a, b\n")
    q = corpus.load("X-Z4")
    assert len(enumerate_homs(pres, q)) == 16


def test_unsatisfiable_relation():
    # R1(x,x) = x+1 in the shift structure, so x = R1(x,x) has no solutions
    pres = P("generators: x\nx = R1(x, x)\n")
    q = shift_singquandle(6, 1)
    assert enumerate_homs(pres, q) == []
    assert counting_invariant(pres, q) == 0
    assert phi_ssqp(pres, q) == PhiInvariant([])
    assert phi_ssqp(pres, q).render() == "0"


def test_hom_image_is_closure(xz8a):
    pres = corpus.load("1_1l")
    for hom in enumerate_homs(pres, xz8a):
        image = xz8a.closure(hom.values())
        assert image == naive_closure(xz8a, hom.values())
        assert xz8a.is_subsingquandle(image)


def test_counting_invariant_values():
    exp = corpus.expected()
    for link in ("1_1l", "6_11l"):
        assert counting_invariant(corpus.load(link), corpus.load("X-Z8-a")) == \
            exp[link]["counting"]["X-Z8-a"]
    for link in ("K1", "K2"):
        assert counting_invariant(corpus.load(link), corpus.load("X-Z8-b")) == \
            exp[link]["counting"]["X-Z8-b"]


def test_phi_matches_recorded_values():
    exp = corpus.expected()
    for link, target in (("1_1l", "X-Z8-a"), ("6_11l", "X-Z8-a"),
                         ("K1", "X-Z8-b"), ("K2", "X-Z8-b")):
        assert phi_ssqp(corpus.load(link), corpus.load(target)).render() == \
            exp[link]["phi"][target]


def test_phi_multiplicities_sum_to_counting():
    for link in LINKS:
        for target in TARGETS:
            pres, q = corpus.load(link), corpus.load(target)
            assert phi_ssqp(pres, q).counting() == counting_invariant(pres, q)


def test_phi_entries_are_image_polynomials(xz8b):
    pres = corpus.load("K1")
    homs = enumerate_homs(pres, xz8b)
    polys = [ssqp(xz8b, xz8b.closure(h.values())) for h in homs]
    assert phi_ssqp(pres, xz8b) == PhiInvariant(Counter(polys).items())


def _link(cid: str) -> SingPresentation:
    obj = corpus.load(cid)
    return pd_to_presentation(obj) if isinstance(obj, SingularPD) else obj


def _phi_per_coloring(pres, q) -> PhiInvariant:
    # the definition, one closure and one ssqp per coloring
    return PhiInvariant(Counter(ssqp(q, q.closure(h.values())) for h in enumerate_homs(pres, q))
                        .items())


ALL_LINKS = LINKS + ("1_1l-pd", "6_11l-pd", "K1-pd", "K2-pd")


# targets whose join buckets are empty or hold all n values: the trivial
# star (x*y = x, R2(x, y) = x) and the shift structures (constant R1 in its
# left operand, R2 in its right)
EDGE_TARGETS = {
    "trivial": lambda n: affine_singquandle(n, 1, 0),
    "shift-1": lambda n: shift_singquandle(n, 1),
    "shift-0": lambda n: shift_singquandle(n, 0),
}


@pytest.mark.parametrize("link", ALL_LINKS)
@pytest.mark.parametrize("target", EDGE_TARGETS)
def test_joins_with_empty_and_full_buckets_match_brute_force(link, target):
    pres = _link(link)
    # n = 3 brute-forces 3**6 assignments; the 14 generators of 6_11l-pd
    # need n = 2 (3**14 would take minutes)
    q = EDGE_TARGETS[target](2 if len(pres.generators) > 6 else 3)
    assert enumerate_homs(pres, q) == brute_homs(pres, q)


def _mixed_profiles(seed: int):
    # over the trivial star every R1 is valid with R2(a, b) = R1(b, a); a
    # random R1 gives elements different profiles, so images of one size
    # can have different polynomials (on affine targets they never do)
    rng = random.Random(seed)
    n = 5
    r1 = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    q = table_singquandle(n, [[a] * n for a in range(n)], r1, np.array(r1).T)
    assert len({tuple(row) for row in q.profiles().tolist()}) > 1
    return q


# targets outside the affine family and the corpus
BUILT_TARGETS = {
    "shift(4,1)": lambda: shift_singquandle(4, 1),
    "shift(5,0)": lambda: shift_singquandle(5, 0),
    "shift(6,2)": lambda: shift_singquandle(6, 2),
    **{f"mixed-{seed}": lambda seed=seed: _mixed_profiles(seed) for seed in range(4)},
}


@pytest.mark.parametrize("link", ALL_LINKS)
@pytest.mark.parametrize("target", TARGETS + tuple(BUILT_TARGETS))
def test_phi_equals_per_coloring_definition(link, target):
    pres = _link(link)
    q = BUILT_TARGETS[target]() if target in BUILT_TARGETS else corpus.load(target)
    assert phi_ssqp(pres, q) == _phi_per_coloring(pres, q)


def _random_tables(seed: int):
    # closure needs no axiom: tables that mostly return an operand, with a
    # few random cells and a diagonal that moves each even element; R2 is
    # not fixed by star and R1, as identity 4 fixes it in a singquandle
    rng = np.random.default_rng(seed)
    a, b = np.indices((9, 9))
    tables = np.where(rng.random((3, 9, 9)) < 0.5, a, b)
    tables = np.where(rng.random((3, 9, 9)) < 0.1, rng.integers(0, 9, (3, 9, 9)), tables)
    even = np.arange(0, 9, 2)
    tables[:, even, even] = (even + 1) % 9
    return UncheckedTables(order=9, star=tables[0], r1=tables[1], r2=tables[2])


CLOSURE_TARGETS = {
    **BUILT_TARGETS,
    "X-Z8-a": lambda: corpus.load("X-Z8-a"),
    "X-Z8-b": lambda: corpus.load("X-Z8-b"),
    "dihedral(12)": lambda: affine_singquandle(12, 11, 2),
    **{f"random-{seed}": lambda seed=seed: _random_tables(seed) for seed in range(2)},
}


# a block of 64 cells holds 2 rows of 3 members (3 * 3**2 products each) and
# 1 row of 4 or more, so rows split across blocks and leave in different rounds
@pytest.mark.parametrize("block", [kernels.CLOSURE_BLOCK, 64])
@pytest.mark.parametrize("target", CLOSURE_TARGETS)
def test_batched_closures_match_oracle(monkeypatch, target, block):
    monkeypatch.setattr(kernels, "CLOSURE_BLOCK", block)
    q = CLOSURE_TARGETS[target]()
    n = q.order
    seeds = [seed for k in (1, 2, 3) for seed in itertools.combinations(range(n), k)]
    rows = np.array([[*seed] + [n] * (3 - len(seed)) for seed in seeds])
    got = kernels.closures((q.star, q.r1, q.r2), rows, n).tolist()
    want = [sorted(naive_closure(q, seed)) for seed in seeds]
    width = max(map(len, want))
    assert got == [members + [n] * (width - len(members)) for members in want]


# 50 orbit representatives, 16 of whose closures are all 48 elements: such a
# row leaves in the round that marks every element, without a round that
# only re-proves it closed (217,026 products when it took one)
@pytest.mark.parametrize("block", [kernels.CLOSURE_BLOCK, 64])
def test_closures_that_reach_every_element_match_oracle(monkeypatch, block):
    monkeypatch.setattr(kernels, "CLOSURE_BLOCK", block)
    q = affine_singquandle(48, 47, 2)
    n = q.order
    seeds, _, _ = seed_sets(_coloring_rows(corpus.load("1_1l"), q), n)
    label = kernels.orbit_labels(seeds, q.rhos, n)
    reps = seeds[label == np.arange(len(label))]
    products = [0]
    orig = kernels._members

    def counted(tables, rows, n):
        products[0] += 3 * rows.shape[0] * rows.shape[1] ** 2
        return orig(tables, rows, n)
    monkeypatch.setattr(kernels, "_members", counted)
    got = kernels.closures((q.star, q.r1, q.r2), reps, n).tolist()
    want = [sorted(naive_closure(q, row[row < n].tolist())) for row in reps]
    assert got == [members + [n] * (n - len(members)) for members in want]
    assert (len(reps), sum(len(members) == n for members in want)) == (50, 16)
    assert products[0] == 64_962


def test_closures_cut_seed_rows_to_the_largest_seed_set(monkeypatch):
    # over the trivial star every coloring of 1_1l-pd's four generators
    # takes at most two values, so its seed rows hold two members and two
    # padding columns; cut to two, the one round takes 24,960 products, not
    # the 99,840 of four columns
    products = []
    orig = kernels._members

    def counted(tables, rows, n):
        products.append(3 * rows.shape[0] * rows.shape[1] ** 2)
        return orig(tables, rows, n)
    monkeypatch.setattr(kernels, "_members", counted)
    pres, q = pd_to_presentation(corpus.load("1_1l-pd")), affine_singquandle(64, 1, 0)
    assert len(pres.generators) == 4
    phi = phi_ssqp(pres, q)
    assert phi.counting() == 64 ** 2
    assert products == [24_960]


def test_phi_takes_little_memory_over_a_large_trivial_target():
    # 65,536 colorings and 32,896 seed sets, each its own closure
    pres, q = corpus.load("1_1l"), affine_singquandle(256, 1, 0)
    tracemalloc.start()
    try:
        phi = phi_ssqp(pres, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert phi.counting() == 256 ** 2
    assert peak < 16 << 20


def test_phi_counts_images_that_share_a_polynomial():
    # 144 colorings, 28 distinct images but only 6 distinct polynomials: a
    # merge that keys counts by polynomial and overwrites would lose colorings
    pres, q = corpus.load("1_1l"), affine_singquandle(12, 11, 2)
    homs = enumerate_homs(pres, q)
    images = {q.closure(h.values()) for h in homs}
    assert (len(homs), len(images), len({ssqp(q, im) for im in images})) == (144, 28, 6)
    phi = phi_ssqp(pres, q)
    assert phi == _phi_per_coloring(pres, q)
    assert phi.counting() == 144
    assert len(phi.entries()) == 6


@pytest.mark.parametrize("link, target", [("1_1l", "X-Z8-a"), ("6_11l", "X-Z8-a"),
                                          ("K1-pd", "X-Z8-b")])
def test_phi_takes_one_profile_table_and_one_closure_per_seed_set(structure_calls, closure_rows,
                                                                  link, target):
    pres, q = _link(link), corpus.load(target)
    seeds = {frozenset(h.values()) for h in enumerate_homs(pres, q)}
    orbits = seed_orbits(q.star.tolist(), seeds)
    phi_ssqp(pres, q)
    assert structure_calls["profiles"] == 1
    assert closure_rows["rows"] == len(orbits) <= len(seeds)


# seed sets of the colorings and their Inn-orbits, counted independently
@pytest.mark.parametrize("link, target, n_seeds, n_orbits", [
    ("1_1l", (48, 47, 2), 1144, 50),
    ("1_1l-2gen", (48, 47, 2), 1176, 38),
    ("1_1l", (12, 11, 2), 70, 14),
    ("1_1l", (64, 3, 2), 160, 6),
    ("1_1l", (64, 1, 0), 2080, 2080),  # trivial star: every rho_s is the identity
])
def test_phi_takes_one_closure_per_inn_orbit(closure_rows, link, target, n_seeds, n_orbits):
    pres, q = corpus.load(link), affine_singquandle(*target)
    seeds = {frozenset(h.values()) for h in enumerate_homs(pres, q)}
    assert (len(seeds), len(seed_orbits(q.star.tolist(), seeds))) == (n_seeds, n_orbits)
    phi = phi_ssqp(pres, q)
    assert closure_rows["rows"] == n_orbits
    assert phi == _phi_per_coloring(pres, q)
