import math
import random

import pytest

from singquandles import corpus
from singquandles.diagram import Crossing, parse_pd, pd_to_presentation, render_pd
from singquandles.errors import (DanglingArcError, DuplicatePortError, NotASingquandleError,
                                 ParseError)
from singquandles.formulas import affine_singquandle
from singquandles.presentation import enumerate_homs, phi_ssqp

from oracles import braid_closure

PD_IDS = ("1_1l-pd", "6_11l-pd", "K1-pd", "K2-pd")


def test_parse_single_line_and_name():
    pd = parse_pd("name: demo\nS[a,b,c,d] P[c,d,a,b]\n")
    assert pd.name == "demo"
    assert pd.crossings == (Crossing("S", ("a", "b", "c", "d")),
                            Crossing("P", ("c", "d", "a", "b")))


def test_labels_first_occurrence():
    pd = parse_pd("S[x,y,z,w] P[z,w,x,y]")
    assert pd.labels() == ("x", "y", "z", "w")


def test_roundtrip():
    for cid in PD_IDS:
        pd = corpus.load(cid)
        assert parse_pd(render_pd(pd)) == pd


def test_empty_input_is_empty_diagram():
    pd = parse_pd("# nothing here\n")
    assert pd.crossings == ()
    assert pd_to_presentation(pd).generators == ()


@pytest.mark.parametrize("bad", ["Q[a,b,c,d]", "P[a,b,c]", "P[a,b,c,d,e]", "P(a,b,c,d)", "xyz"])
def test_malformed_entries(bad):
    with pytest.raises(ParseError):
        parse_pd(bad)


def test_unclosed_entry_is_quoted():
    with pytest.raises(ParseError) as exc:
        parse_pd("P[a,b")
    assert str(exc.value) == "bad PD entry near 'P[a,b'"
    with pytest.raises(ParseError) as exc:
        parse_pd("P[a,b,c,d]  N[b,a,d,c] ?" + "x" * 30)
    assert str(exc.value) == "bad PD entry near '?" + "x" * 23 + "'"


def test_twice_as_input_rejected():
    with pytest.raises(DuplicatePortError):
        parse_pd("P[a,b,c,d] P[a,b,e,f] P[c,d,a,b] P[e,f,c,d]")


def test_dangling_arc_rejected():
    with pytest.raises(DanglingArcError):
        parse_pd("P[a,b,c,d]")


def _relation_texts(pres):
    from singquandles.terms import render_term
    return {(render_term(l), render_term(r)) for l, r in pres.relations}


def test_positive_crossing_relations():
    # over-strand passes through unchanged; under-out picks up a*b
    pres = pd_to_presentation(parse_pd("P[a,b,c,d] N[c,d,a,b]"))
    assert {("c", "b"), ("d", "a*b")} <= _relation_texts(pres)


def test_negative_crossing_relations():
    pres = pd_to_presentation(parse_pd("N[a,b,c,d] P[c,d,a,b]"))
    assert {("c", "b"), ("d", "a/b")} <= _relation_texts(pres)


def test_kink_has_order_many_colorings():
    # a single positive kink: the only relations are b=b and b=a*b, so
    # colorings are the diagonal and idempotence gives exactly n of them
    pres = pd_to_presentation(parse_pd("P[a,b,a,b]"))
    q = affine_singquandle(5, 2, 3)
    homs = enumerate_homs(pres, q)
    assert len(homs) == 5
    assert all(h["a"] == h["b"] for h in homs)


def test_rii_cancellation_pins_negative_rule():
    # sliding one strand under another and back: every pair must color it.
    # with the wrong inverse on the N crossing this collapses below n^2.
    pd = parse_pd("P[a,b,y,x] N[x,y,b,a]")
    q = affine_singquandle(5, 2, 3)  # star is not involutive here
    assert len(enumerate_homs(pd_to_presentation(pd), q)) == 25


def test_singular_crossing_relations():
    pres = pd_to_presentation(parse_pd("S[x,y,z,w] P[z,w,x,y]"))
    assert {("z", "R1(x,y)"), ("w", "R2(x,y)")} <= _relation_texts(pres)


def test_pd_paths_match_presentations():
    exp = corpus.expected()
    for pd_id in PD_IDS:
        link_id = pd_id.removesuffix("-pd")
        pres_pd = pd_to_presentation(corpus.load(pd_id))
        pres_hand = corpus.load(link_id)
        for target in ("X-Z4", "Y-Z4", "X-Z8-a", "X-Z8-b"):
            q = corpus.load(target)
            homs_pd = enumerate_homs(pres_pd, q)
            homs_hand = enumerate_homs(pres_hand, q)
            assert len(homs_pd) == len(homs_hand)
            assert phi_ssqp(pres_pd, q) == phi_ssqp(pres_hand, q)


# Both sides of the relations of the singular braid monoid (Fenn, Keyman
# and Rourke, JKTR 1998), as (lhs, rhs, strands), in the letters of
# oracles.braid_closure: s<i> is sigma_i, S<i> its inverse, t<i> tau_i.
BRAID_RELATIONS = {
    "tau-commutes-with-sigma": [("t1 s1", "s1 t1", 2), ("t1 S1", "S1 t1", 2)],
    "sigma-sigma-tau": [("s1 s2 t1", "t2 s1 s2", 3), ("s2 s1 t2", "t1 s2 s1", 3)],
    "inverse": [("s1 S1", "", 2), ("S2 s2", "", 3)],
    "braid": [("s1 s2 s1", "s2 s1 s2", 3), ("S1 S2 S1", "S2 S1 S2", 3)],
    "far-commutation": [("s1 s3", "s3 s1", 4), ("t1 S3", "S3 t1", 4), ("t1 t3", "t3 t1", 4)],
}


def _random_word(rng, strands: int, extra: int) -> list[str]:
    """Random letters, one on each pair of neighbouring positions and extra
    more anywhere, shuffled: the word touches every strand, as a closure
    must (see oracles.braid_closure)."""
    letters = [f"{rng.choice('sSt')}{i}" for i in range(1, strands)]
    letters += [f"{rng.choice('sSt')}{rng.randrange(1, strands)}" for _ in range(extra)]
    rng.shuffle(letters)
    return letters


def _braid_moves() -> dict[str, list[tuple[str, int, str, int]]]:
    """Pairs (word, strands, word, strands) whose closures are isotopic:
    each relation inside two seeded random contexts, so that its sides
    differ only there; conjugation, w v against v w; and stabilisation by
    sigma_k^(+-1), w on k strands against w s_k or w S_k on k + 1."""
    rng = random.Random(6)
    moves = {}
    for name, relations in BRAID_RELATIONS.items():
        moves[name] = []
        for lhs, rhs, strands in relations:
            for _ in range(2):
                context = _random_word(rng, strands, 2)
                cut = rng.randrange(len(context) + 1)
                pre, post = " ".join(context[:cut]), " ".join(context[cut:])
                moves[name].append((f"{pre} {lhs} {post}", strands, f"{pre} {rhs} {post}", strands))
    moves["conjugation"] = []
    for strands in (2, 3):
        w, v = " ".join(_random_word(rng, strands, 1)), " ".join(_random_word(rng, strands, 1))
        moves["conjugation"].append((f"{w} {v}", strands, f"{v} {w}", strands))
    moves["stabilisation"] = []
    for strands in (2, 3):
        w = " ".join(_random_word(rng, strands, 2))
        for letter in ("s", "S"):
            moves["stabilisation"].append((w, strands, f"{w} {letter}{strands}", strands + 1))
    return moves


BRAID_MOVES = _braid_moves()


@pytest.fixture(scope="module")
def braid_targets():
    """The corpus structures and the 48 valid affine(n, t, s), 2 <= n <= 6."""
    targets = [corpus.load(cid) for cid in ("X-Z4", "Y-Z4", "X-Z8-a", "X-Z8-b")]
    for n in range(2, 7):
        for t in (t for t in range(1, n) if math.gcd(t, n) == 1):
            for s in range(n):
                try:
                    targets.append(affine_singquandle(n, t, s))
                except NotASingquandleError:
                    pass
    assert len(targets) == 52
    return targets


@pytest.mark.parametrize("move", sorted(BRAID_MOVES))
def test_phi_is_unchanged_by_singular_braid_moves(move, braid_targets):
    """Closures of braids that differ by a relation of the singular braid
    monoid or by a singular Markov move (Gemein, JKTR 1997) are isotopic,
    so phi must agree on them over every target.  This pins the S-port
    convention of diagram.py: reading the singular crossing's incoming pair
    as (b, a), c = R1(b, a) and d = R2(b, a), makes 3 of these 28 pairs
    differ, in the tau-commutes-with-sigma and sigma-sigma-tau moves.  Every word touches every strand: sigma_2 sigma_2^-1 tau_1
    tau_1 against tau_1 tau_1 on 3 strands counts 32 against 8 colorings
    over X-Z4, as the second word's PD code drops the untouched strand."""
    for left, k, right, m in BRAID_MOVES[move]:
        presentations = [pd_to_presentation(parse_pd(braid_closure(w, strands)))
                         for w, strands in ((left, k), (right, m))]
        for q in braid_targets:
            phis = [phi_ssqp(pres, q) for pres in presentations]
            assert phis[0] == phis[1], (left, right, q, phis)
