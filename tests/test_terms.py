import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from singquandles import corpus
from singquandles.errors import TermSyntaxError, UnboundGeneratorError, UnknownOperatorError
from singquandles.presentation import parse_presentation
from singquandles.terms import (
    MAX_DEPTH, Apply, Gen, eval_rows, eval_term, generators_of, parse_term, render_term)

from oracles import eval_tree


def test_parse_atoms():
    assert parse_term("x") == Gen("x")
    assert parse_term("  foo_1 ") == Gen("foo_1")


def test_parse_infix_left_assoc():
    t = parse_term("a*b/c")
    assert t == Apply("/", Apply("*", Gen("a"), Gen("b")), Gen("c"))


def test_parse_parens_override():
    t = parse_term("a*(b/c)")
    assert t == Apply("*", Gen("a"), Apply("/", Gen("b"), Gen("c")))


def test_parse_prefix_ops():
    t = parse_term("R1(x, R2(y, z))")
    assert t == Apply("R1", Gen("x"), Apply("R2", Gen("y"), Gen("z")))


def test_parse_mixed():
    t = parse_term("R1(x,y)*x")
    assert t == Apply("*", Apply("R1", Gen("x"), Gen("y")), Gen("x"))


@pytest.mark.parametrize("bad", ["", "a*", "(a", "a)b", "R1(a)", "R1(a,b,c)", "a b", "*a", "a,b"])
def test_syntax_errors(bad):
    with pytest.raises(TermSyntaxError) as exc:
        parse_term(bad)
    assert exc.value.position >= 0
    assert exc.value.expected


@pytest.mark.parametrize("make", [
    lambda d: "*".join(["x"] * (d + 1)),           # left-deep chain, no parentheses
    lambda d: "x*(" * (d - 1) + "x*x" + ")" * (d - 1),
    lambda d: "R1(x," * d + "x" + ")" * d,
    lambda d: "(" * d + "x" + ")" * d,             # nesting without operators
], ids=["chain", "parens", "R1", "bare-parens"])
def test_depth_limit(make):
    assert parse_term(make(MAX_DEPTH))
    with pytest.raises(TermSyntaxError, match=f"deeper than {MAX_DEPTH}"):
        parse_term(make(MAX_DEPTH + 1))


def _lowest_limit(fn):
    """The lowest recursion limit, to 5 frames, at which fn() returns."""
    old = sys.getrecursionlimit()
    limit, frame = 0, sys._getframe()
    while frame is not None:
        limit, frame = limit + 1, frame.f_back
    try:
        while True:
            try:
                sys.setrecursionlimit(limit)  # RecursionError below the current depth
                fn()
                return limit
            except RecursionError:
                limit += 5
    finally:
        sys.setrecursionlimit(old)


def test_equal_terms_compare_and_hash_within_the_parse_limit():
    # two equal but distinct presentations whose terms are MAX_DEPTH deep:
    # comparing and hashing them needs no more recursion than parsing them
    d = MAX_DEPTH
    text = ("generators: x, y\n"
            + "*".join(["x"] * (d + 1)) + " = " + "x*(" * (d - 1) + "x*x" + ")" * (d - 1) + "\n"
            + "R1(x," * d + "y" + ")" * d + " = " + "y" + "/x" * d + "\n")
    limit = _lowest_limit(lambda: parse_presentation(text))
    a, b = parse_presentation(text), parse_presentation(text)
    changed = parse_presentation(text[:-len("/x\n")] + "/y\n")
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != changed
    finally:
        sys.setrecursionlimit(old)


def test_unknown_operator():
    with pytest.raises(UnknownOperatorError):
        parse_term("R3(a,b)")


def test_reserved_names_not_generators():
    with pytest.raises(TermSyntaxError):
        parse_term("R1 * a")


def test_render_minimal_parens():
    assert render_term(parse_term("a*b/c")) == "a*b/c"
    assert render_term(parse_term("a*(b/c)")) == "a*(b/c)"
    assert render_term(parse_term("R1(a*b, c)")) == "R1(a*b,c)"


def test_generators_first_occurrence_order():
    t = parse_term("R1(b, a) * b / c")
    assert generators_of(t) == ("b", "a", "c")


# random terms: render then reparse must be the identity
_names = st.sampled_from(["x", "y", "z", "w"])


def _terms(depth):
    if depth == 0:
        return _names.map(Gen)
    sub = _terms(depth - 1)
    return st.one_of(
        _names.map(Gen),
        st.tuples(st.sampled_from(["*", "/", "R1", "R2"]), sub, sub).map(
            lambda t: Apply(*t)),
    )


@given(_terms(4))
def test_render_parse_roundtrip(term):
    assert parse_term(render_term(term)) == term


@given(_terms(3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_eval_matches_oracle(term, a, b, c, d):
    q = corpus.load("X-Z4")
    env = {"x": a, "y": b, "z": c, "w": d}
    want = eval_tree(term, q, env)
    assert eval_term(term, q, env) == want
    tables = {"*": q.star, "/": q.bar, "R1": q.r1, "R2": q.r2}
    assert eval_rows(term, tables, {g: np.array([v]) for g, v in env.items()}).tolist() == [want]


def test_eval_composite_value():
    # R1(2,4) = 0 and R2(2,4) = 2 in the first Z8 structure, and 0*2 = 4
    q = corpus.load("X-Z8-a")
    t = parse_term("R1(x,y)*R2(x,y)")
    assert eval_term(t, q, {"x": 2, "y": 4}) == 4


def test_eval_unbound_generator():
    q = corpus.load("X-Z4")
    with pytest.raises(UnboundGeneratorError):
        eval_term(parse_term("a*b"), q, {"a": 0})
