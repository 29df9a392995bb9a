"""End-to-end acceptance checks.

Nine criteria, each printing a single PASS/FAIL line (run with ``pytest -s``
to see them).  Every comparison is exact: integer equality, tuple equality,
or string equality on canonical renders.  The randomized criterion uses a
fixed seed and counts its cases in the line it prints.
"""

import random

import numpy as np
import pytest

from singquandles import corpus
from singquandles.cli import main as cli_main
from singquandles.core import find_isomorphism, validate_tables
from singquandles.diagram import pd_to_presentation
from singquandles.formulas import affine_singquandle
from singquandles.polynomial import quandle_restriction, sqp, ssqp
from singquandles.presentation import counting_invariant, enumerate_homs, phi_ssqp
from singquandles.terms import parse_term

from oracles import eval_tree, naive_qp_terms, quandle_ok, sing_ok

SEED = 20260819
LINKS = ("1_1l", "6_11l", "K1", "K2")
TARGETS = ("X-Z4", "Y-Z4", "X-Z8-a", "X-Z8-b")


def _check(num, label, body):
    try:
        body()
    except BaseException:
        print(f"FAIL criterion {num}: {label}")
        raise
    print(f"PASS criterion {num}: {label}")


def test_criterion_1_affine_construction(tmp_path):
    def body():
        out = tmp_path / "gen.sq"
        assert cli_main(["gen", "affine", "--n", "4", "--t", "3", "--s", "2",
                         "-o", str(out)]) == 0
        from singquandles.fileformats import load_singquandle
        q = load_singquandle(out)
        assert q == corpus.load("X-Z4")
        assert np.array_equal(q.r2, np.arange(4).repeat(4).reshape(4, 4))
    _check(1, "gen affine --n 4 --t 3 --s 2 reproduces the order-4 tables", body)


def test_criterion_2_sqp_values():
    def body():
        assert dict(sqp(corpus.load("X-Z4")).terms()) == {(2, 2, 1, 1, 4, 4): 4}
        assert dict(sqp(corpus.load("Y-Z4")).terms()) == {
            (2, 4, 0, 0, 1, 1): 2, (4, 2, 2, 2, 1, 1): 2}
    _check(2, "sqp of both order-4 structures, exact term maps", body)


def test_criterion_3_ssqp_value():
    def body():
        p = ssqp(corpus.load("X-Z4"), [1, 3])
        assert dict(p.terms()) == {(2, 2, 1, 1, 4, 4): 2}
    _check(3, "subset polynomial of {1,3} in the order-4 structure", body)


def test_criterion_4_iso_separation():
    def body():
        result = find_isomorphism(corpus.load("X-Z4"), corpus.load("Y-Z4"))
        assert not result
        assert result.mapping is None
        assert result.reason == "sqp-mismatch"
    _check(4, "the two order-4 structures are separated, reason sqp-mismatch", body)


def _cli_color_rows(link, target, capsys):
    assert cli_main(["color", f"corpus:{link}", f"corpus:{target}", "--list"]) == 0
    out = capsys.readouterr().out.splitlines()
    rows = set()
    for line in out[2:]:
        values, image = line.split(" -> ")
        rows.add((tuple(int(v) for v in values.split()),
                  tuple(int(v) for v in image.strip("{}").split(","))))
    return rows


def test_criterion_5_counting_and_tables(capsys):
    def body():
        exp = corpus.expected()
        for link, target in (("1_1l", "X-Z8-a"), ("6_11l", "X-Z8-a"),
                             ("K1", "X-Z8-b"), ("K2", "X-Z8-b")):
            want = exp[link]["counting"][target]
            assert counting_invariant(corpus.load(link), corpus.load(target)) == want
        # the recorded 16-row coloring tables, reproduced through the CLI
        for link in ("1_1l", "6_11l"):
            rec = exp[link]["colorings"]["X-Z8-a"]
            got = _cli_color_rows(link, "X-Z8-a", capsys)
            want_rows = {(tuple(r["assignment"]), tuple(r["image"])) for r in rec["rows"]}
            assert got == want_rows
            # any recorded derived columns must recompute as well
            terms = [parse_term(t) for t in rec.get("derived_terms", ())]
            if terms:
                q = corpus.load("X-Z8-a")
                pres = corpus.load(link)
                by_assignment = {tuple(r["assignment"]): tuple(r["derived"])
                                 for r in rec["rows"]}
                for hom in enumerate_homs(pres, q):
                    key = tuple(hom[g] for g in pres.generators)
                    assert tuple(eval_tree(t, q, hom) for t in terms) == by_assignment[key]
    _check(5, "hom counts 16/16/8/8 and both recorded coloring tables", body)


def test_criterion_6_phi_separation():
    def body():
        exp = corpus.expected()
        values = {}
        for link, target in (("1_1l", "X-Z8-a"), ("6_11l", "X-Z8-a"),
                             ("K1", "X-Z8-b"), ("K2", "X-Z8-b")):
            phi = phi_ssqp(corpus.load(link), corpus.load(target))
            assert phi.render() == exp[link]["phi"][target]
            values[link] = phi
        assert values["1_1l"] != values["6_11l"]
        assert values["K1"] != values["K2"]
        # the distinguishing detail: the multiplicity-8 entries differ only
        # in the last variable's exponent
        top_a = values["1_1l"].entries()[0]
        top_b = values["6_11l"].entries()[0]
        assert top_a[1] == top_b[1] == 8
        (mono_a, _), = top_a[0].terms()
        (mono_b, _), = top_b[0].terms()
        assert mono_a[:5] == mono_b[:5]
        assert {mono_a[5], mono_b[5]} == {0, 8}
    _check(6, "all four phi values exact; phi separates both link pairs", body)


def test_criterion_7_dual_path_agreement():
    def body():
        for link in LINKS:
            pres_hand = corpus.load(link)
            pres_pd = pd_to_presentation(corpus.load(f"{link}-pd"))
            for target in TARGETS:
                q = corpus.load(target)
                assert counting_invariant(pres_pd, q) == counting_invariant(pres_hand, q)
                assert phi_ssqp(pres_pd, q) == phi_ssqp(pres_hand, q)
    _check(7, "PD codes and hand presentations agree on all 16 link/target pairs", body)


def test_criterion_8_property_suite():
    cases = 0

    def body():
        nonlocal cases
        rng = random.Random(SEED)

        def random_affine(n=None):
            n = n or rng.randrange(3, 13)
            t = rng.choice([t for t in range(1, n) if np.gcd(t, n) == 1])
            return affine_singquandle(n, t, rng.randrange(n))

        # (a) relabeling never moves the polynomial
        for _ in range(60):
            q = random_affine()
            perm = list(range(q.order))
            rng.shuffle(perm)
            assert sqp(q.relabel(perm)) == sqp(q)
            cases += 1

        # (b) every hom image is a subsingquandle
        for _ in range(40):
            pres = corpus.load(rng.choice(LINKS))
            q = random_affine(rng.randrange(3, 7))
            for hom in enumerate_homs(pres, q):
                assert q.is_subsingquandle(q.closure(hom.values()))
            cases += 1

        # (c) phi multiplicities total the hom count
        for _ in range(40):
            pres = corpus.load(rng.choice(LINKS))
            q = random_affine(rng.randrange(3, 7))
            assert phi_ssqp(pres, q).counting() == len(enumerate_homs(pres, q))
            cases += 1

        # (d) any diagonal star mutation is caught
        for _ in range(60):
            q = random_affine()
            star = q.star.copy()
            i = rng.randrange(q.order)
            star[i, i] = (i + 1 + rng.randrange(q.order - 1)) % q.order
            report = validate_tables(star, q.r1, q.r2)
            assert not report.ok
            assert any(v.axiom == "idempotence" and v.witness == (i,)
                       for v in report.violations)
            cases += 1

        # (e) bar round-trips on all pairs
        for _ in range(20):
            q = random_affine()
            for a in range(q.order):
                for b in range(q.order):
                    assert q.bar[q.star[a, b], b] == a
                    assert q.star[q.bar[a, b], b] == a
            cases += 1

        # (f) the full (t, s) grid over Z4, against the exhaustive oracle
        for t in (1, 3):
            for s in range(4):
                q = affine_singquandle(4, t, s)
                star = q.star.tolist()
                assert quandle_ok(star)
                assert sing_ok(star, q.bar.tolist(), q.r1.tolist(), q.r2.tolist())
                assert validate_tables(q.star, q.r1, q.r2).ok
                cases += 1

        assert cases >= 200
    _check(8, "randomized property suite", body)
    print(f"      ({cases} randomized cases, seed {SEED})")


def test_criterion_9_quandle_restriction():
    def body():
        rng = random.Random(SEED + 1)
        structures = [corpus.load(cid) for cid in TARGETS]
        for _ in range(20):
            n = rng.randrange(3, 13)
            t = rng.choice([t for t in range(1, n) if np.gcd(t, n) == 1])
            structures.append(affine_singquandle(n, t, rng.randrange(n)))
        for q in structures:
            assert quandle_restriction(sqp(q)) == naive_qp_terms(q.star.tolist())
    _check(9, "six-variable polynomial restricts to the independent two-variable one", body)
