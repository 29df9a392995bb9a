import pytest

from singquandles import corpus, polynomial, presentation
from singquandles.errors import NotASubsingquandleError
from singquandles.polynomial import (
    PhiInvariant,
    SqPolynomial,
    quandle_restriction,
    sqp,
    ssqp,
)

from oracles import naive_qp_terms, naive_sqp_terms, shift_singquandle, union_singquandle


def mono(s1=0, t1=0, s2=0, t2=0, s3=0, t3=0):
    return (s1, t1, s2, t2, s3, t3)


def test_terms_merge_and_drop_zero():
    p = SqPolynomial([(mono(1), 2), (mono(1), 3), (mono(t3=1), 0)])
    assert p.terms() == (((1, 0, 0, 0, 0, 0), 5),)


def test_zero_polynomial():
    p = SqPolynomial([])
    assert not p
    assert p.render() == "0"
    assert sum(c for _, c in p.terms()) == 0


def test_render_rules():
    p = SqPolynomial([(mono(s1=2, t1=2, s2=1, t2=1, s3=4, t3=4), 4)])
    assert p.render() == "4*s1^2*t1^2*s2*t2*s3^4*t3^4"
    assert SqPolynomial([(mono(s2=1), 1)]).render() == "s2"
    assert SqPolynomial([(mono(), 3)]).render() == "3"
    assert SqPolynomial([(mono(), 1)]).render() == "1"


def test_render_graded_lex_order():
    p = SqPolynomial([(mono(s1=3), 1), (mono(t3=2), 1), (mono(s1=1, t1=1), 1)])
    # ascending degree; ties broken by ascending lex on the exponent tuple
    assert p.render() == "t3^2 + s1*t1 + s1^3"


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        SqPolynomial([((1, -1, 0, 0, 0, 0), 1)])
    with pytest.raises(ValueError):
        SqPolynomial([((1, 0, 0), 1)])


def test_equality_and_hash():
    a = SqPolynomial([(mono(s1=1), 2)])
    b = SqPolynomial([(mono(s1=1), 1), (mono(s1=1), 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != SqPolynomial([(mono(s1=1), 3)])


# targets outside the affine family: a trivial star with shifted R1 and R2,
# and a disjoint union whose components give elements different profiles
_OTHER_TARGETS = {"shift-5-2": lambda: shift_singquandle(5, 2),
                  "union-3-3-5": lambda: union_singquandle((3, 3, 5))}


@pytest.mark.parametrize("cid", ["X-Z4", "Y-Z4", "X-Z8-a", "X-Z8-b", *_OTHER_TARGETS])
def test_sqp_matches_oracle_term_map(cid):
    q = _OTHER_TARGETS[cid]() if cid in _OTHER_TARGETS else corpus.load(cid)
    assert dict(sqp(q).terms()) == naive_sqp_terms(q)


@pytest.mark.parametrize("call", [sqp, lambda q: ssqp(q, [1, 3]),
                                  lambda q: presentation.phi_ssqp(corpus.load("1_1l"), q)],
                         ids=["sqp", "ssqp", "phi_ssqp"])
def test_polynomials_are_built_by_one_builder(monkeypatch, xz4, call):
    calls = []
    orig = polynomial._phi_of_closures

    def counted(*args):
        calls.append(args)
        return orig(*args)
    # presentation holds its own reference to the builder
    monkeypatch.setattr(polynomial, "_phi_of_closures", counted)
    monkeypatch.setattr(presentation, "_phi_of_closures", counted)
    call(xz4)
    assert len(calls) == 1


def test_sqp_expected_renders():
    exp = corpus.expected()
    for cid in ("X-Z4", "Y-Z4", "X-Z8-a", "X-Z8-b"):
        assert sqp(corpus.load(cid)).render() == exp[cid]["sqp"]


def test_sqp_coefficient_sum_is_order():
    for cid in ("X-Z4", "Y-Z4", "X-Z8-a", "X-Z8-b"):
        q = corpus.load(cid)
        assert sum(c for _, c in sqp(q).terms()) == q.order


def test_ssqp_uses_ambient_profiles(xz4):
    p = ssqp(xz4, [1, 3])
    assert p.render() == "2*s1^2*t1^2*s2*t2*s3^4*t3^4"
    # exponents come from profiles in the big structure, not the subset alone
    assert ssqp(xz4, range(4)) == sqp(xz4)


def test_ssqp_rejects_non_closed_subset(xz8a):
    with pytest.raises(NotASubsingquandleError):
        ssqp(xz8a, [0, 1])
    with pytest.raises(NotASubsingquandleError):
        ssqp(xz8a, [])


def test_quandle_restriction_matches_independent_count():
    for cid in ("X-Z4", "Y-Z4", "X-Z8-a", "X-Z8-b"):
        q = corpus.load(cid)
        assert quandle_restriction(sqp(q)) == naive_qp_terms(q.star.tolist())


def test_phi_entry_ordering():
    small = SqPolynomial([(mono(s1=1), 1)])
    big = SqPolynomial([(mono(s1=2), 1)])
    phi = PhiInvariant([(small, 2), (big, 6)])
    assert phi.entries() == ((big, 6), (small, 2))
    assert phi.counting() == 8


def test_phi_render_and_empty():
    p = SqPolynomial([(mono(s3=1, t3=1), 2)])
    phi = PhiInvariant([(p, 4)])
    assert phi.render() == "4*u^{2*s3*t3}"
    assert PhiInvariant([]).render() == "0"
    assert PhiInvariant([]).counting() == 0


def test_phi_merges_equal_polynomials():
    p = SqPolynomial([(mono(s1=1), 1)])
    phi = PhiInvariant([(p, 1), (SqPolynomial([(mono(s1=1), 1)]), 3)])
    assert phi.entries() == ((p, 4),)


def test_shift_structure_polynomial():
    # trivial star fixes everything both ways; the R1 shift hits each target
    # once per row and column; the R2 shift never fixes anything
    q = shift_singquandle(5, 2)
    assert sqp(q).terms() == (((5, 5, 1, 1, 0, 0), 5),)
