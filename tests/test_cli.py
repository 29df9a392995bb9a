import argparse
import gc
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

import singquandles
from singquandles import cli, corpus, kernels
from singquandles.cli import main
from singquandles.core import MAX_VIOLATIONS
from singquandles.fileformats import MAX_ORDER, load_singquandle, render_singquandle
from singquandles.formulas import affine_singquandle
from singquandles.presentation import _plan, parse_presentation, render_presentation
from singquandles.terms import MAX_DEPTH

from oracles import naive_closure, violation_rows
from record_cli_digest import DIGEST_PATH, run_matrix


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_no_command_is_usage_error(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "frobnicate")[0] == 2


# a minimal argv each command parses, without the command name
_PARSES = {"validate": ["s"], "gen": ["affine", "--n", "4", "--t", "3", "--s", "2"],
           "sqp": ["s"], "ssqp": ["s", "--subset", "1"], "color": ["l", "s"],
           "phi": ["l", "s"], "iso": ["a", "b"], "pd2rel": ["p"]}
_USAGE_ARGVS = [[], ["-h"], ["frob"], ["PHI"],
                ["color", "l", "s", "--bogus"], ["phi", "l", "s", "--format", "xml"],
                ["sqp", "s", "--form", "xml"], ["gen", "affine", "--n", "0", "--t", "3", "--s", "2"]]
_USAGE_ARGVS += [argv for name, rest in _PARSES.items()
                 for argv in ([name, "-h"], [name], [name, *rest, "extra"])]


@pytest.mark.parametrize("columns", ["20", "80", "200"])
def test_usage_help_and_errors_match_the_full_parser(monkeypatch, capsys, columns):
    # main builds only the invoked command's parser; what it prints must not
    # tell the two apart
    monkeypatch.setenv("COLUMNS", columns)
    for argv in _USAGE_ARGVS:
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        want = (exc.value.code, *capsys.readouterr())
        assert run(capsys, *argv) == want, argv


def test_a_one_command_parser_parses_as_the_full_parser():
    argvs = [[name, *rest] for name, rest in _PARSES.items()]
    for argv in [*argvs, ["phi", "l", "s", "--form", "machine"], ["color", "--li", "l", "s"]]:
        assert cli.build_parser(argv[0]).parse_args(argv) == cli.build_parser().parse_args(argv)


def _count_parsers(monkeypatch):
    """Weak references to every ArgumentParser built from now on."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(weakref.ref(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


def test_a_call_builds_its_own_command_parser_alone(monkeypatch, capsys):
    # the top-level parser and the one subparser; the full parser has nine
    built = _count_parsers(monkeypatch)
    assert run(capsys, "phi", "corpus:1_1l", "corpus:X-Z4")[0] == 0
    assert len(built) == 2
    gc.collect()
    assert not [ref for ref in built if ref() is not None]  # no parser outlives its call
    built.clear()
    cli.build_parser()
    assert len(built) == 9


def test_console_script_takes_the_command_from_sys_argv(monkeypatch, capsys):
    built = _count_parsers(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["singquandles", "validate", "corpus:X-Z4"])
    assert main() == 0
    assert capsys.readouterr().out == "valid singquandle of order 4\n"
    assert len(built) == 2
    monkeypatch.setattr(sys, "argv", ["singquandles", "frob"])
    assert main() == 2
    assert "invalid choice: 'frob'" in capsys.readouterr().err


def test_validate_corpus(capsys):
    code, out, _ = run(capsys, "validate", "corpus:X-Z4")
    assert code == 0
    assert "valid singquandle of order 4" in out


def test_validate_reports_the_oracles_first_rows(tmp_path, capsys):
    # identity 1 alone has more rows than the report shows
    q = affine_singquandle(64, 3, 2)
    r1 = q.r1.copy()
    r1[5, 7] = (r1[5, 7] + 1) % 64
    p = tmp_path / "broken.sq"
    lines = ["singquandle n=64"]
    for name, table in (("star", q.star), ("R1", r1), ("R2", q.r2)):
        lines += [f"{name}:", *(" ".join(map(str, row)) for row in table.tolist())]
    p.write_text("\n".join(lines) + "\n")
    quandle, singular = violation_rows(q.star, q.bar, r1, q.r2)
    shown = (quandle + singular)[:MAX_VIOLATIONS]
    assert not quandle and len(singular) > len(shown)
    want = [f"invalid: {len(shown)} violation(s) shown (cap {MAX_VIOLATIONS})"]
    want += [f"  singular-{code} fails at {tuple(w for w in row if w != -1)}"
             for code, *row in shown]
    assert run(capsys, "validate", str(p)) == (4, "", "\n".join(want) + "\n")


def test_validate_bad_file(tmp_path, capsys):
    p = tmp_path / "bad.sq"
    p.write_text("singquandle n=2\nstar:\n1 0\n0 1\nR1:\n0 1\n0 1\nR2:\n0 0\n1 1\n")
    code, _, err = run(capsys, "validate", str(p))
    assert code == 4
    assert "idempotence" in err


@pytest.mark.parametrize("header", [
    "singquandle-formula n=1000000",
    f"singquandle n={MAX_ORDER + 1}",
    "singquandle n=" + "9" * 5000,  # more digits than int() converts
], ids=["formula-1e6", "table-max-plus-1", "table-5000-digits"])
def test_validate_rejects_order_above_maximum(tmp_path, capsys, header):
    p = tmp_path / "huge.sq"
    p.write_text(header + "\nstar = x\nR1 = y\nR2 = x\n")
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "validate", str(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert out == ""
    assert err.startswith("error: order n=") and f"larger than the maximum {MAX_ORDER}" in err
    assert "Traceback" not in err
    assert peak < 1 << 20


def test_validate_accepts_maximum_order_header(tmp_path, capsys):
    # the guard lets n = MAX_ORDER through; the missing blocks fail next
    p = tmp_path / "edge.sq"
    p.write_text(f"singquandle n={MAX_ORDER}\nstar:\n")
    code, _, err = run(capsys, "validate", str(p))
    assert code == 3
    assert err == "error: missing block(s): R1, R2\n"


def test_validate_unparseable(tmp_path, capsys):
    p = tmp_path / "junk.sq"
    p.write_text("not a header\n")
    code, _, err = run(capsys, "validate", str(p))
    assert code == 3
    assert "error:" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "sqp", "/no/such/file.sq")
    assert code == 3


def _assert_parse_error(result, *needles):
    code, out, err = result
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert all(needle in err for needle in needles)


def test_non_utf8_structure_is_unparseable(tmp_path, capsys):
    p = tmp_path / "bin.sq"
    p.write_bytes(b"singquandle n=2\nstar:\n0 \xff\n")
    _assert_parse_error(run(capsys, "validate", str(p)), str(p), "UTF-8")
    _assert_parse_error(run(capsys, "color", "corpus:K1", str(p)), str(p), "UTF-8")


def test_non_utf8_link_is_unparseable(tmp_path, capsys):
    p = tmp_path / "bin.pres"
    p.write_bytes(b"generators: x\nx = \xff\n")
    _assert_parse_error(run(capsys, "color", str(p), "corpus:X-Z4"), str(p), "UTF-8")
    _assert_parse_error(run(capsys, "pd2rel", str(p)), str(p), "UTF-8")


@pytest.mark.parametrize("rhs", ["(" * 5000 + "x" + ")" * 5000, "*".join(["x"] * 1500)],
                         ids=["5000-parens", "1500-factors"])
def test_deep_terms_are_unparseable(tmp_path, capsys, rhs):
    p = tmp_path / "deep.pres"
    p.write_text(f"generators: x\nx = {rhs}\n")
    _assert_parse_error(run(capsys, "color", str(p), "corpus:X-Z4"), f"deeper than {MAX_DEPTH}")


def test_term_at_depth_limit_colors(tmp_path, capsys):
    # y*x*...*x at depth MAX_DEPTH against a right-nested x*(x*(...)) of the
    # same depth: solving for y peels every factor onto the other side, so
    # the derived term is twice as deep
    lhs = "y" + "*x" * MAX_DEPTH
    rhs = "x*(" * (MAX_DEPTH - 1) + "x*x" + ")" * (MAX_DEPTH - 1)
    p = tmp_path / "limit.pres"
    p.write_text(f"generators: x, y\n{lhs} = {rhs}\n")
    pres = parse_presentation(p.read_text())
    assert [step[0] for step in _plan(pres)] == ["free", "derive"]
    assert render_presentation(pres) == p.read_text()
    code, out, _ = run(capsys, "color", str(p), "corpus:X-Z4", "--format", "machine")
    assert (code, out) == (0, "4\n")


def test_unknown_corpus_id(capsys):
    code, _, err = run(capsys, "sqp", "corpus:widget")
    assert code == 3
    assert "widget" in err


def test_gen_writes_valid_file(tmp_path, capsys):
    out_file = tmp_path / "x.sq"
    code, out, _ = run(capsys, "gen", "affine", "--n", "4", "--t", "3", "--s", "2",
                       "-o", str(out_file))
    assert code == 0
    assert load_singquandle(out_file) == affine_singquandle(4, 3, 2)


def test_gen_stdout_parses(capsys):
    code, out, _ = run(capsys, "gen", "affine", "--n", "5", "--t", "2", "--s", "1")
    assert code == 0
    from singquandles.fileformats import parse_singquandle
    assert parse_singquandle(out) == affine_singquandle(5, 2, 1)


def test_gen_rejects_noninvertible(capsys):
    code, _, err = run(capsys, "gen", "affine", "--n", "4", "--t", "2", "--s", "1")
    assert code == 4


@pytest.mark.parametrize("n", ["1000000", "0", str(MAX_ORDER + 1)])
def test_gen_rejects_order_outside_range(capsys, n):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "gen", "affine", "--n", n, "--t", "1", "--s", "0")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert f"1..{MAX_ORDER}" in err
    assert "Traceback" not in err
    assert peak < 1 << 20


def test_gen_unknown_family(capsys):
    assert run(capsys, "gen", "dihedral", "--n", "4", "--t", "1", "--s", "1")[0] == 3


def test_sqp_output(capsys):
    code, out, _ = run(capsys, "sqp", "corpus:X-Z4")
    assert code == 0
    assert out.strip() == corpus.expected()["X-Z4"]["sqp"]


def test_sqp_machine_format(capsys):
    code, out, _ = run(capsys, "sqp", "corpus:Y-Z4", "--format", "machine")
    assert code == 0
    lines = [ln.split() for ln in out.strip().splitlines()]
    assert [[int(v) for v in ln] for ln in lines] == [
        [2, 4, 0, 0, 1, 1, 2],
        [4, 2, 2, 2, 1, 1, 2],
    ]


def test_ssqp(capsys):
    code, out, _ = run(capsys, "ssqp", "corpus:X-Z4", "--subset", "1,3")
    assert code == 0
    assert out.strip() == "2*s1^2*t1^2*s2*t2*s3^4*t3^4"


def test_ssqp_bad_subset(capsys):
    code, _, err = run(capsys, "ssqp", "corpus:X-Z8-a", "--subset", "0,1")
    assert code == 4


def test_ssqp_unknown_label(capsys):
    code, _, err = run(capsys, "ssqp", "corpus:X-Z4", "--subset", "9")
    assert code == 3


def test_color_counts(capsys):
    code, out, _ = run(capsys, "color", "corpus:1_1l", "corpus:X-Z8-a")
    assert code == 0
    assert out.strip() == "16 colorings"
    code, out, _ = run(capsys, "color", "corpus:1_1l", "corpus:X-Z8-a",
                       "--format", "machine")
    assert out.strip() == "16"


def test_color_list_rows(capsys):
    code, out, _ = run(capsys, "color", "corpus:1_1l", "corpus:X-Z8-a", "--list")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "16 colorings"
    assert lines[1] == "generators: x y z"
    assert len(lines) == 18
    assert "2 2 2 -> {2}" in out


@pytest.mark.parametrize("link", ("1_1l", "1_1l-2gen", "1_1l-pd", "6_11l", "6_11l-pd",
                                  "K1", "K1-pd", "K2", "K2-pd"))
@pytest.mark.parametrize("target", ("X-Z4", "Y-Z4", "X-Z8-a", "X-Z8-b"))
def test_color_list_images_are_closures(capsys, link, target):
    code, out, _ = run(capsys, "color", f"corpus:{link}", f"corpus:{target}", "--list",
                       "--format", "machine")
    q = corpus.load(target)
    count, *lines = out.splitlines()
    assert code == 0 and len(lines) == int(count) > 0
    for line in lines:
        values, image = line.split(" -> ")
        seed = [q.index_of(v) for v in values.split()]
        want = ",".join(q.labels[x] for x in sorted(naive_closure(q, seed)))
        assert image == f"{{{want}}}"


def test_color_accepts_pd_input(capsys):
    code, out, _ = run(capsys, "color", "corpus:K1-pd", "corpus:X-Z8-b")
    assert code == 0
    assert out.strip() == "8 colorings"


def test_color_accepts_files(tmp_path, capsys):
    pres = tmp_path / "link.pres"
    pres.write_text("generators: a\na = a * a\n")
    code, out, _ = run(capsys, "color", str(pres), "corpus:X-Z4")
    assert code == 0
    assert out.strip() == "4 colorings"
    pd = tmp_path / "link.pd"
    pd.write_text("P[a,b,a,b]\n")
    code, out, _ = run(capsys, "color", str(pd), "corpus:X-Z4")
    assert code == 0
    assert out.strip() == "4 colorings"


def test_phi_output(capsys):
    code, out, _ = run(capsys, "phi", "corpus:K2", "corpus:X-Z8-b")
    assert code == 0
    assert out.strip() == corpus.expected()["K2"]["phi"]["X-Z8-b"]


def test_phi_machine_format(capsys):
    code, out, _ = run(capsys, "phi", "corpus:K2", "corpus:X-Z8-b",
                       "--format", "machine")
    assert code == 0
    for line in out.strip().splitlines():
        mult, flat = line.split(" ", 1)
        assert int(mult) > 0
        for term in flat.split(";"):
            assert len(term.split()) == 7


def test_iso_negative(capsys):
    code, out, _ = run(capsys, "iso", "corpus:X-Z4", "corpus:Y-Z4")
    assert code == 0
    assert out.strip() == "not isomorphic (sqp-mismatch)"


def test_iso_positive(tmp_path, capsys):
    from singquandles.fileformats import render_singquandle
    q = corpus.load("X-Z4")
    other = tmp_path / "relabeled.sq"
    other.write_text(render_singquandle(q.relabel([2, 0, 3, 1])))
    code, out, _ = run(capsys, "iso", "corpus:X-Z4", str(other))
    assert code == 0
    assert out.splitlines()[0] == "isomorphic"
    assert len(out.splitlines()) == 5


def test_pd2rel_output_parses(capsys):
    code, out, _ = run(capsys, "pd2rel", "corpus:K2-pd")
    assert code == 0
    pres = parse_presentation(out)
    assert pres.name == "K2-pd"
    assert len(pres.relations) == 6


def test_empty_diagram_compiles_to_a_presentation_that_colors(tmp_path, capsys):
    pd = tmp_path / "empty.pd"
    pd.write_text("")
    code, out, _ = run(capsys, "pd2rel", str(pd))
    assert code == 0 and out == "generators:\n"
    pres = tmp_path / "empty.pres"
    pres.write_text(out)
    for link in (pd, pres):
        assert run(capsys, "color", str(link), "corpus:X-Z4") == (0, "1 colorings\n", "")


@pytest.mark.parametrize("fmt", ("human", "machine"))
def test_color_list_of_a_link_without_generators_lists_the_empty_coloring(tmp_path, capsys, fmt):
    # its one coloring assigns nothing and has the empty image, whose ssqp
    # is 0; a subsingquandle is nonempty, so ssqp of the empty subset is not
    pd = tmp_path / "empty.pd"
    pd.write_text("")
    listed = {"human": "1 colorings\ngenerators:\n-> {}\n", "machine": "1\n-> {}\n"}[fmt]
    assert run(capsys, "color", "--list", "--format", fmt, str(pd), "corpus:X-Z4") == \
        (0, listed, "")
    assert run(capsys, "phi", str(pd), "corpus:X-Z4") == (0, "1*u^{0}\n", "")
    assert run(capsys, "phi", "--format", "machine", str(pd), "corpus:X-Z4") == (0, "1\n", "")
    assert run(capsys, "ssqp", "corpus:X-Z4", "--subset", "")[0] == 4


def test_pd2rel_rejects_presentation_id(capsys):
    code, _, err = run(capsys, "pd2rel", "corpus:K2")
    assert code == 3


def test_link_commands_reject_singquandle_id(capsys):
    code, _, err = run(capsys, "color", "corpus:X-Z4", "corpus:X-Z4")
    assert code == 3
    assert "not a link" in err


@pytest.mark.parametrize("argv, text, code, message", [
    (["sqp", "corpus:K1"], None, 3, "error: corpus id 'K1' is not a singquandle"),
    (["gen", "affine", "--n", "abc", "--t", "3", "--s", "2"], None, 2,
     "argument --n: expected an integer order in 1..4096"),
    (["validate"], "", 3, "error: empty singquandle file"),
    (["validate"], "singquandle n=0\n", 3, "error: order must be at least 1"),
    (["validate"], "singquandle-formula n=4\nstar x\n", 3,
     "error: expected 'star = ...', 'R1 = ...' or 'R2 = ...', got 'star x'"),
    (["validate"], "singquandle-formula n=4\nR3 = x\n", 3, "error: unknown formula key 'R3'"),
    (["validate"], "singquandle n=2\nlabels: a b c\n", 3,
     "error: labels line must list 2 distinct labels"),
    (["validate"], "singquandle n=2\n0 0\n", 3,
     "error: unexpected line '0 0' before any table block"),
    # valid under its first labels line, not under its second
    (["validate"], "singquandle n=2\nlabels: a b\nlabels: b a\n"
     "star:\na a\nb b\nR1:\nb a\nb a\nR2:\nb b\na a\n", 3,
     "error: a labels line must come once, before the first table block"),
    # loads at the parent, where `ssqp --subset a,b` then finds no label 'a'
    (["validate"], "singquandle n=2\nlabels: a,b c\n"
     "star:\na,b a,b\nc c\nR1:\nc a,b\nc a,b\nR2:\nc c\na,b a,b\n", 3,
     "error: a label must not contain ','"),
    (["pd2rel"], "P[a,b,c,c]\n", 3, "error: label 'c' used twice as an output port"),
    (["validate"], "singquandle-formula n=4\nstar = " + "9" * 5000 + "*x + 2*y\nR1 = y\nR2 = x\n",
     3, "error: number too long in factor '" + "9" * 40 + "'\n"),
], ids=["link-id-as-structure", "gen-order-not-an-integer", "empty-file", "order-zero",
        "formula-line-without-equals", "formula-key-R3", "labels-count", "row-before-block",
        "second-labels-line", "comma-in-a-label", "output-port-twice",
        "formula-literal-too-long"])
def test_documented_exits(tmp_path, capsys, argv, text, code, message):
    if text is not None:
        p = tmp_path / "input"
        p.write_text(text)
        argv = argv + [str(p)]
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("text", ["S[R1,b,c,d] P[c,d,R1,b]\n", "generators: R1, x\nx = x\n"],
                         ids=["pd-label", "generators-line"])
def test_an_operator_name_as_a_generator_is_unparseable(tmp_path, capsys, text):
    # pd2rel would print `c = R1(R1,b)`, which no reader takes back
    link = tmp_path / "link"
    link.write_text(text)
    code, out, err = run(capsys, "color", str(link), "corpus:X-Z4")
    assert (code, out) == (3, "")
    assert "error: 'R1' cannot name a generator" in err and "Traceback" not in err
    assert run(capsys, "pd2rel", str(link))[:2] == (3, "")


@pytest.mark.parametrize("command", ["color", "phi"])
def test_a_frontier_above_the_bound_is_refused_before_it_is_allocated(tmp_path, capsys, command):
    # with no relations the search frees all 9 generators: 8^9 rows of 9
    # int64 columns, about 9 GiB, of which no step may hold more than the bound
    p = tmp_path / "nine.pres"
    p.write_text("generators: " + ", ".join(f"g{i}" for i in range(9)) + "\n")
    tracemalloc.start()
    try:
        code, out, err = run(capsys, command, str(p), "corpus:X-Z8-a")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (4, "")
    assert f"bound of {kernels.MAX_FRONTIER_CELLS} cells" in err and "Traceback" not in err
    assert peak < kernels.MAX_FRONTIER_CELLS  # bytes: an eighth of the bound's int64 cells


def _mutations(text, rng):
    """Five each of four seeded edits below the header (the first line that
    is not a comment): an integer literal made 5,000 digits long, one
    character deleted, one of ``é # [ ^ ,`` inserted, one line doubled."""
    lines = text.splitlines(keepends=True)
    head = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    prefix, body = "".join(lines[:head]), "".join(lines[head:])
    literals = list(re.finditer(r"\d+", body))
    for _ in range(5):
        if literals:
            m = rng.choice(literals)
            yield prefix + body[:m.start()] + "9" * 5000 + body[m.end():]
        i = rng.randrange(len(body))
        yield prefix + body[:i] + body[i + 1:]
        i = rng.randrange(len(body) + 1)
        yield prefix + body[:i] + rng.choice("é#[^,") + body[i:]
        i = rng.randrange(head, len(lines))
        yield "".join(lines[:i + 1] + lines[i:])


def test_mutated_corpus_files_fail_with_documented_exits(tmp_path, capsys):
    commands = {".sq": [["validate"]], ".pres": [["color", "corpus:X-Z4"]],
                ".pd": [["pd2rel"], ["color", "corpus:X-Z4"]]}
    files = [f for f in sorted((Path(corpus.__file__).parent / "v1").iterdir())
             if f.suffix in commands]
    assert len(files) == 13
    rng = random.Random(21)
    p = tmp_path / "input"
    for path in files:
        for text in _mutations(path.read_text(), rng):
            p.write_text(text)
            for command, *rest in commands[path.suffix]:
                code, _, err = run(capsys, command, str(p), *rest)
                assert code in (0, 3, 4) and "Traceback" not in err, (path.name, text[:200])


def _checkout_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH, for a subprocess."""
    src = str(Path(singquandles.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_cli_runs_never_import_numpy_ma(tmp_path):
    # numpy.ma costs an import that setup and every first call would pay;
    # np.unique(axis=0) asked for the rows alone pulls it in, so no command
    # may take that path
    dihedral = tmp_path / "dihedral48.sq"
    argvs = [["gen", "affine", "--n", "48", "--t", "47", "--s", "2", "-o", str(dihedral)],
             ["phi", "corpus:1_1l", "corpus:X-Z8-a"], ["phi", "corpus:6_11l-pd", "corpus:X-Z4"],
             ["phi", "corpus:1_1l", str(dihedral)],
             ["iso", "corpus:X-Z8-a", "corpus:X-Z8-b"], ["iso", str(dihedral), str(dihedral)],
             ["color", "--list", "corpus:K1", "corpus:Y-Z4"],
             ["color", "--list", "corpus:1_1l-2gen", str(dihedral)]]
    script = ("import contextlib, io, sys\n"
              "from singquandles.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    codes = [main(argv) for argv in {argvs!r}]\n"
              "print(codes, 'numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_checkout_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"{[0] * len(argvs)} False"


def test_cli_output_matches_recorded_digest():
    # about 1,400 in-process calls (see tests/record_cli_digest.py)
    want = json.loads(DIGEST_PATH.read_text())
    got = run_matrix()
    assert list(got) == list(want)
    differ = [argv for argv, sha in want.items() if got[argv] != sha]
    assert not differ, f"{len(differ)} of {len(want)} calls differ, the first: {differ[0]}"


@pytest.mark.parametrize("argv, lines_read, unbuffered", [
    # more than a pipe buffer: the write in the call meets the closed pipe
    (["gen", "affine", "--n", "512", "--t", "3", "--s", "2"], 1, None),
    # one line, still buffered when the call ends
    (["validate", "corpus:X-Z4"], 0, None),
    # unbuffered, stdout writes through to the raw file, and a write that the
    # closed pipe cuts short returns its partial count where buffered it raises
    (["gen", "affine", "--n", "512", "--t", "3", "--s", "2"], 1, "1"),
    (["validate", "corpus:X-Z4"], 0, "1"),
], ids=["large-output", "buffered-output", "large-output-unbuffered", "one-line-unbuffered"])
def test_a_closed_output_pipe_exits_quietly(argv, lines_read, unbuffered):
    env = {k: v for k, v in _checkout_env().items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen([sys.executable, "-m", "singquandles.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        for _ in range(lines_read):
            assert proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=120) == 141
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()
