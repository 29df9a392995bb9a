import pytest

from singquandles import corpus
from singquandles.diagram import Crossing, parse_pd, pd_to_presentation, render_pd
from singquandles.errors import DanglingArcError, DuplicatePortError, ParseError
from singquandles.formulas import affine_singquandle
from singquandles.presentation import enumerate_homs, phi_ssqp

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
