import pytest

from singquandles import corpus
from singquandles.core import FiniteSingquandle, validate_tables
from singquandles.diagram import SingularPD, pd_to_presentation
from singquandles.errors import UnknownIdError
from singquandles.polynomial import sqp, ssqp
from singquandles.presentation import SingPresentation, enumerate_homs, phi_ssqp
from singquandles.terms import parse_term

from oracles import eval_tree

SQ_IDS = ("X-Z4", "Y-Z4", "X-Z8-a", "X-Z8-b")


def test_ids_cover_everything():
    ids = corpus.ids()
    assert set(SQ_IDS) <= set(ids)
    assert {"1_1l", "1_1l-2gen", "6_11l", "K1", "K2"} <= set(ids)
    assert {"1_1l-pd", "6_11l-pd", "K1-pd", "K2-pd"} <= set(ids)
    assert len(ids) == 13


def test_kinds():
    assert corpus.entry("X-Z4").kind == "singquandle"
    assert corpus.entry("K1").kind == "presentation"
    assert corpus.entry("K1-pd").kind == "pd"


def test_aliases_resolve():
    # the ids are the data file stems alone; no other spelling names an entry
    for alias in ("1_1l-presentation", "link-K2-presentation", "link-K2-pd"):
        with pytest.raises(UnknownIdError) as exc:
            corpus.load(alias)
        assert ", ".join(corpus.ids()) in str(exc.value)


def test_unknown_id_lists_choices():
    with pytest.raises(UnknownIdError) as exc:
        corpus.load("nope")
    assert "X-Z4" in str(exc.value)


def test_loads_are_cached():
    assert corpus.load("X-Z4") is corpus.load("X-Z4")


@pytest.mark.parametrize("cid", SQ_IDS)
def test_singquandles_validate(cid):
    q = corpus.load(cid)
    assert isinstance(q, FiniteSingquandle)
    assert validate_tables(q.star, q.r1, q.r2).ok
    assert q.order == corpus.expected()[cid]["order"]


def test_every_expected_value_recomputes():
    """The backbone check: nothing in expected.json is stale."""
    exp = corpus.expected()
    for cid, rec in exp.items():
        obj = corpus.load(cid)
        if rec["kind"] == "singquandle":
            assert sqp(obj).render() == rec["sqp"]
            for key, want in rec.get("ssqp", {}).items():
                subset = [int(v) for v in key.split(",")]
                assert ssqp(obj, subset).render() == want
            continue
        pres = pd_to_presentation(obj) if isinstance(obj, SingularPD) else obj
        assert isinstance(pres, SingPresentation)
        for target, want_count in rec.get("counting", {}).items():
            q = corpus.load(target)
            homs = enumerate_homs(pres, q)
            assert len(homs) == want_count
            want_phi = rec.get("phi", {}).get(target)
            if want_phi is not None:
                assert phi_ssqp(pres, q).render() == want_phi


@pytest.mark.parametrize("link", ("1_1l", "6_11l"))
def test_recorded_coloring_tables(link):
    """Full agreement with the recorded hom tables: assignments, any derived
    columns, and image subsets, as sets of rows."""
    rec = corpus.expected()[link]["colorings"]["X-Z8-a"]
    pres = corpus.load(link)
    q = corpus.load("X-Z8-a")
    assert list(pres.generators) == rec["generators"]

    derived = [parse_term(t) for t in rec.get("derived_terms", ())]
    got_rows = set()
    for hom in enumerate_homs(pres, q):
        assignment = tuple(hom[g] for g in pres.generators)
        extras = tuple(eval_tree(t, q, hom) for t in derived)
        image = tuple(sorted(q.closure(hom.values())))
        got_rows.add((assignment, extras, image))

    want_rows = {(tuple(r["assignment"]), tuple(r.get("derived", ())), tuple(r["image"]))
                 for r in rec["rows"]}
    assert got_rows == want_rows
    assert len(rec["rows"]) == len(got_rows)


def test_pd_entries_agree_with_named_presentation():
    exp = corpus.expected()
    for pd_id in ("1_1l-pd", "6_11l-pd", "K1-pd", "K2-pd"):
        partner = exp[pd_id]["agrees_with"]
        pres_pd = pd_to_presentation(corpus.load(pd_id))
        pres = corpus.load(partner)
        for target in SQ_IDS:
            q = corpus.load(target)
            assert len(enumerate_homs(pres_pd, q)) == len(enumerate_homs(pres, q))
