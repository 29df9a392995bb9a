import numpy as np
import pytest

from singquandles import corpus
from singquandles.errors import NotAQuandleError, ParseError
from singquandles.fileformats import load_singquandle, parse_singquandle, render_singquandle
from singquandles.formulas import affine_singquandle

TABLE_TEXT = """singquandle n=2
star:
0 0
1 1
R1:
0 1
0 1
R2:
0 0
1 1
"""

FORMULA_TEXT = """singquandle-formula n=4
star = 3*x + 2*y
R1 = 2*x + 3*y
R2 = x
"""


def test_table_variant_roundtrip():
    q = parse_singquandle(TABLE_TEXT)
    assert q.order == 2
    assert parse_singquandle(render_singquandle(q)) == q


def test_formula_variant_matches_table():
    q = parse_singquandle(FORMULA_TEXT)
    assert q == affine_singquandle(4, 3, 2)


def test_formula_files_in_corpus_render_as_tables():
    q = corpus.load("X-Z8-a")
    text = render_singquandle(q)
    assert text.startswith("singquandle n=8")
    assert parse_singquandle(text) == q


def test_custom_labels_roundtrip():
    text = """singquandle n=2
labels: p q
star:
p p
q q
R1:
p q
p q
R2:
p p
q q
"""
    q = parse_singquandle(text)
    assert q.labels == ("p", "q")
    assert "labels: p q" in render_singquandle(q)
    assert parse_singquandle(render_singquandle(q)) == q


def test_numeric_label_permutation_normalizes():
    # elements listed as 1 0: tables permute back into residue order
    text = """singquandle n=2
labels: 1 0
star:
1 1
0 0
R1:
1 0
1 0
R2:
1 1
0 0
"""
    assert parse_singquandle(text) == parse_singquandle(TABLE_TEXT)


@pytest.mark.parametrize("mutant", [
    lambda t: t.replace("singquandle n=2", "quandle n=2"),
    lambda t: t.replace("R2:\n0 0\n1 1\n", ""),
    lambda t: t + "R2:\n0 0\n1 1\n",
    lambda t: t.replace("star:", "star:\n0 0"),
    lambda t: t.replace("0 0\n1 1\nR1", "0 2\n1 1\nR1"),
])
def test_malformed_table_files(mutant):
    with pytest.raises(ParseError):
        parse_singquandle(mutant(TABLE_TEXT))


def test_undeclared_entry_names_the_first_one():
    # rows are read whole; the message still names the first undeclared
    # entry in row-major order, here in the middle row of R1
    text = """singquandle n=3
labels: a b c
star:
a a a
b b b
c c c
R1:
a b c
a x c
a b y
R2:
a a a
b b b
c c c
"""
    with pytest.raises(ParseError) as info:
        parse_singquandle(text)
    assert str(info.value) == "entry 'x' in block R1 is not a declared label"


def test_axiom_failure_raises_validation_error():
    bad = TABLE_TEXT.replace("star:\n0 0\n1 1", "star:\n1 1\n0 0")
    with pytest.raises(NotAQuandleError):
        parse_singquandle(bad)


def test_formula_variant_errors():
    with pytest.raises(ParseError):
        parse_singquandle("singquandle-formula n=4\nstar = x\nR1 = y\n")  # missing R2
    with pytest.raises(ParseError):
        parse_singquandle(FORMULA_TEXT + "star = x\n")  # duplicate
    with pytest.raises(ParseError):
        parse_singquandle("singquandle-formula n=4\nstar = z\nR1 = y\nR2 = x\n")


def test_load_from_disk(tmp_path):
    path = tmp_path / "demo.sq"
    path.write_text(FORMULA_TEXT, encoding="utf-8")
    q = load_singquandle(path)
    assert q.order == 4
    assert np.array_equal(q.r2, np.arange(4).repeat(4).reshape(4, 4))
