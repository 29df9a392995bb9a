import random
import tracemalloc

import numpy as np
import pytest

from singquandles import corpus, fileformats
from singquandles.errors import MalformedTableError, NotAQuandleError, ParseError
from singquandles.fileformats import load_singquandle, parse_singquandle, render_singquandle
from singquandles.core import table_singquandle
from singquandles.formulas import affine_singquandle

from oracles import read_table_file

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


def _by_label(q):
    """The three tables as a map from pairs of labels to triples of labels."""
    lab = q.labels
    return {(lab[a], lab[b]): (lab[q.star[a, b]], lab[q.r1[a, b]], lab[q.r2[a, b]])
            for a in range(q.order) for b in range(q.order)}


def test_every_accepted_labelling_renders_and_parses_back():
    # labels pieced from line heads, colons and digits, so that many are
    # rejected; every labelling the constructor takes must survive a file
    # (residue permutations come back in residue order, so compare by label)
    rng = random.Random(23)
    pieces = ["labels:", "star", "R1", "R2", ":", "::", "0", "1", "a", "\u00e9", "\u0663", "-"]
    accepted = rejected = 0
    for _ in range(600):
        q = affine_singquandle(*rng.choice([(1, 0, 0), (2, 1, 1), (3, 2, 1), (4, 3, 2)]))
        labels = ["".join(rng.choices(pieces, k=rng.randint(1, 3))) for _ in range(q.order)]
        try:
            q = table_singquandle(q.order, q.star, q.r1, q.r2, labels=labels)
        except MalformedTableError:
            rejected += 1
            continue
        accepted += 1
        assert _by_label(parse_singquandle(render_singquandle(q))) == _by_label(q)
    assert accepted > 100 and rejected > 100


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


def _read(reader, text):
    try:
        q = reader(text)
    except ParseError as exc:
        return "ParseError", str(exc)
    return q, q.labels


def _reader_agrees(text):
    got = _read(parse_singquandle, text)
    assert got == _read(read_table_file, text)
    return got


def _residue_file(n, labels, rng, spacing=False):
    """affine(n, n-1, 1) as a table file with the given labels line (None
    for none); with spacing, rows are split by runs of spaces and tabs,
    some carry a trailing comment and blank lines fall between them."""
    q = affine_singquandle(n, n - 1, 1)
    if labels is not None:
        q = table_singquandle(n, q.star, q.r1, q.r2, labels=labels)
    lines = render_singquandle(q).splitlines()
    if spacing:
        out, in_block = [], False
        for line in lines:
            if line.endswith(":"):
                in_block = True
            elif in_block:
                line = (rng.choice(["", " ", "\t"])
                        + "".join(tok + rng.choice([" ", "  ", "\t", " \t "]) for tok in line.split())
                        + rng.choice(["", "# row", " #", "\t# 0 1"]))
            out.append(line)
            if rng.random() < 0.2:
                out.append(rng.choice(["", "   ", "# note"]))
        lines = out
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [1, 7, 12, 101])
@pytest.mark.parametrize("labelled", ["default", "identity", "permuted", "opaque"])
@pytest.mark.parametrize("spacing", [False, True])
def test_bulk_reader_agrees_on_residue_files(n, labelled, spacing, monkeypatch):
    token_blocks = []
    orig = fileformats._token_block
    monkeypatch.setattr(fileformats, "_token_block",
                        lambda key, *args: token_blocks.append(key) or orig(key, *args))
    rng = random.Random(n)
    perm = list(range(n))
    rng.shuffle(perm)
    labels = {"default": None, "identity": [str(i) for i in range(n)],
              "permuted": [str(i) for i in perm], "opaque": [f"e{i}" for i in perm]}[labelled]
    q, _ = _reader_agrees(_residue_file(n, labels, rng, spacing))
    assert q.order == n
    # the loader reads only a file with opaque labels entry by entry
    assert token_blocks == (["star", "R1", "R2"] if labelled == "opaque" else [])
    if labelled == "default":
        assert q == affine_singquandle(n, n - 1, 1)


_N = 12  # order of the files the edits apply to


def _edit_block(text, block, edit):
    """text with the rows of one block replaced by edit(rows): rows are the
    block's lines split into entries, and edit returns the new lines."""
    lines = text.splitlines()
    i = lines.index(f"{block}:") + 1
    lines[i:i + _N] = edit([line.split() for line in lines[i:i + _N]])
    return "\n".join(lines) + "\n"


def _joined(rows):
    return [" ".join(row) for row in rows]


def _in_row(edit):
    """An edit of row 4 alone: edit maps its entries to its new lines."""
    return lambda rows: _joined(rows[:4]) + edit(rows[4]) + _joined(rows[5:])


def _set_entry(token):
    return _in_row(lambda toks: [" ".join(toks[:2] + [token] + toks[3:])])


_REJECTED = {
    "leading-zero": _set_entry("05"),
    "plus-sign": _set_entry("+5"),
    "minus-zero": _set_entry("-0"),
    "value-n": _set_entry(str(_N)),
    "20-digit": _set_entry("1" + "0" * 19),
    "20-digit-zero-padded": _set_entry("0" * 19 + "3"),
    "arabic-indic-digit": _set_entry("\u0663"),
    "short-row": _in_row(lambda toks: [" ".join(toks[:-1])]),
    "long-row": _in_row(lambda toks: [" ".join(toks + ["0"])]),
    "missing-row": _in_row(lambda toks: []),
    # n*n entries in n rows, but row 3 has one too many and row 4 one too few
    "uneven-rows": lambda rows: _joined(rows[:3] + [rows[3] + rows[4][:1], rows[4][1:]] + rows[5:]),
    # n distinct labels, so only its place is wrong
    "labels-line-inside-a-block": _in_row(lambda toks: [" ".join(toks),
                                                        "labels: " + " ".join(map(str, range(_N)))]),
    # n distinct labels, one holding ',': the label is reported before the place
    "comma-in-a-labels-line": _in_row(lambda toks: [" ".join(toks), "labels: 0,1 "
                                                    + " ".join(map(str, range(1, _N)))]),
}
_LOADED = {
    "unit-separator": _in_row(lambda toks: ["\x1f".join(toks)]),
    "ideographic-space": _in_row(lambda toks: ["\u3000".join(toks)]),
}


@pytest.mark.parametrize("block", ["star", "R2"])
@pytest.mark.parametrize("labelled", [False, True])
@pytest.mark.parametrize("form", list(_REJECTED) + list(_LOADED))
def test_bulk_reader_agrees_on_edited_rows(form, labelled, block):
    rng = random.Random(_N)
    perm = list(range(_N))
    rng.shuffle(perm)
    text = _residue_file(_N, [str(i) for i in perm] if labelled else None, rng)
    got = _reader_agrees(_edit_block(text, block, {**_REJECTED, **_LOADED}[form]))
    if form in _REJECTED:
        assert got[0] == "ParseError"
    else:
        assert got == _read(parse_singquandle, text)


def test_loading_order_512_stays_under_32_mb():
    text = render_singquandle(affine_singquandle(512, 3, 2))
    tracemalloc.start()
    try:
        q = parse_singquandle(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q == affine_singquandle(512, 3, 2)
    assert peak < 32 << 20
