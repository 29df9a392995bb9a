"""Command line interface.

Inputs are file paths or ``corpus:<id>`` references.  Exit status: 0 on
success, 2 for usage errors (including a ``gen --n`` outside
1..``fileformats.MAX_ORDER``), 3 for unparseable input (including a file
header whose order exceeds ``fileformats.MAX_ORDER``), 4 for validation
failures (tables that are not singquandles, bad subsets, and the like), and
141 (128 + SIGPIPE), with nothing on stderr, when the reader of stdout
closes it before the output is written, buffered or not.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from typing import Optional

from . import corpus, kernels
from .core import FiniteSingquandle, find_isomorphism
from .diagram import SingularPD, parse_pd, pd_to_presentation
from .errors import ParseError, ValidationError
from .fileformats import MAX_ORDER, load_singquandle, read_text, render_singquandle
from .formulas import affine_singquandle
from .polynomial import PhiInvariant, SqPolynomial, sqp, ssqp
from .presentation import (
    SingPresentation,
    _coloring_rows,
    parse_presentation,
    phi_ssqp,
    render_presentation,
    seed_sets,
)

USAGE_ERROR, PARSE_ERROR, VALIDATION_ERROR = 2, 3, 4
BROKEN_PIPE = 141  # 128 + SIGPIPE


def _resolve(arg: str, kinds, what: str, load_path):
    """The entry a ``corpus:<id>`` argument names, if one of kinds; else load_path(arg)."""
    if not arg.startswith("corpus:"):
        return load_path(arg)
    cid = arg[len("corpus:"):]
    obj = corpus.load(cid)
    if not isinstance(obj, kinds):
        raise ParseError(f"corpus id {cid!r} is not a {what}")
    return obj


def _load_singquandle_arg(arg: str) -> FiniteSingquandle:
    return _resolve(arg, FiniteSingquandle, "singquandle", load_singquandle)


def _read_link(path: str):
    """A link file as a presentation, or as a PD code when it has no generators line."""
    text = read_text(path)
    if any(ln.split("#", 1)[0].strip().startswith("generators:") for ln in text.splitlines()):
        return parse_presentation(text)
    return parse_pd(text)


def _load_link_arg(arg: str) -> SingPresentation:
    """A link given as a presentation or as a PD code (compiled on the spot)."""
    link = _resolve(arg, (SingPresentation, SingularPD), "link", _read_link)
    return pd_to_presentation(link) if isinstance(link, SingularPD) else link


def _write(text: str) -> None:
    """sys.stdout.write that raises BrokenPipeError when a closed pipe cuts it
    short.  Unbuffered (``PYTHONUNBUFFERED``), stdout writes through to the raw
    file, whose short count ``TextIOWrapper`` ignores; here the rest is
    written again until none is left, and a write to the closed pipe raises."""
    raw = getattr(sys.stdout, "buffer", None)
    if not isinstance(raw, io.RawIOBase):
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
    while data:
        data = data[raw.write(data):]


def _print_poly(p: SqPolynomial, fmt: str) -> None:
    if fmt == "machine":
        for mono, coeff in p.terms():
            print(" ".join(str(e) for e in mono), coeff)
    else:
        print(p.render())


def _print_phi(phi: PhiInvariant, fmt: str) -> None:
    if fmt == "machine":
        for poly, mult in phi.entries():
            flat = ";".join(" ".join([*map(str, mono), str(coeff)]) for mono, coeff in poly.terms())
            print(mult, flat)
    else:
        print(phi.render())


def _cmd_validate(args) -> int:
    # loading validates; a failure raises NotA*Error with the report attached
    q = _load_singquandle_arg(args.structure)
    print(f"valid singquandle of order {q.order}")
    return 0


def _order(text: str) -> int:
    """A ``gen --n`` value, checked against MAX_ORDER before any table exists."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer order in 1..{MAX_ORDER}") from None
    if not 1 <= n <= MAX_ORDER:
        raise argparse.ArgumentTypeError(
            f"order {n} is outside 1..{MAX_ORDER}, the maximum order (fileformats.MAX_ORDER)")
    return n


def _cmd_gen(args) -> int:
    if args.family != "affine":
        raise ParseError(f"unknown family {args.family!r}; only 'affine' is available")
    q = affine_singquandle(args.n, args.t, args.s)
    text = render_singquandle(q)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        _write(text)
    return 0


def _cmd_sqp(args) -> int:
    _print_poly(sqp(_load_singquandle_arg(args.structure)), args.format)
    return 0


def _cmd_ssqp(args) -> int:
    q = _load_singquandle_arg(args.structure)
    subset = [q.index_of(lab.strip()) for lab in args.subset.split(",") if lab.strip()]
    _print_poly(ssqp(q, subset), args.format)
    return 0


def _cmd_color(args) -> int:
    pres = _load_link_arg(args.link)
    q = _load_singquandle_arg(args.structure)
    rows = _coloring_rows(pres, q)
    if args.list:  # before any output, so a failing closure prints nothing
        seeds, which, _ = seed_sets(rows, q.order)
        images = [",".join(q.labels[x] for x in row if x < q.order)
                  for row in kernels.closures((q.star, q.r1, q.r2), seeds, q.order).tolist()]
    if args.format == "machine":
        print(len(rows))
    else:
        print(f"{len(rows)} colorings")
    if args.list:
        if args.format != "machine":
            print("generators: " + " ".join(pres.generators))
        for row, i in zip(rows.tolist(), which.tolist()):
            values = " ".join(q.labels[x] for x in row)
            print(f"{values} -> {{{images[i]}}}")
    return 0


def _cmd_phi(args) -> int:
    pres = _load_link_arg(args.link)
    q = _load_singquandle_arg(args.structure)
    _print_phi(phi_ssqp(pres, q), args.format)
    return 0


def _cmd_iso(args) -> int:
    q1 = _load_singquandle_arg(args.first)
    q2 = _load_singquandle_arg(args.second)
    result = find_isomorphism(q1, q2)
    if result:
        print("isomorphic")
        for i, j in enumerate(result.mapping):
            print(f"  {q1.labels[i]} -> {q2.labels[j]}")
    else:
        print(f"not isomorphic ({result.reason})")
    return 0


def _cmd_pd2rel(args) -> int:
    pd = _resolve(args.pd, SingularPD, "PD code", lambda path: parse_pd(read_text(path)))
    _write(render_presentation(pd_to_presentation(pd)))
    return 0


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("human", "machine"), default="human",
                   help="machine output is line-stable for scripting")


def _validate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("structure", help="singquandle file or corpus:<id>")


def _gen_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("family", help="family name; 'affine'")
    p.add_argument("--n", type=_order, required=True, help=f"order (modulus), 1..{MAX_ORDER}")
    p.add_argument("--t", type=int, required=True, help="star parameter, invertible mod n")
    p.add_argument("--s", type=int, required=True, help="R1 parameter")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")


def _sqp_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("structure")
    _add_format(p)


def _ssqp_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("structure")
    p.add_argument("--subset", required=True, help="comma-separated element labels")
    _add_format(p)


def _color_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("link", help="presentation/PD file or corpus:<id>")
    p.add_argument("structure")
    p.add_argument("--list", action="store_true", help="print every coloring with its image")
    _add_format(p)


def _phi_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("link")
    p.add_argument("structure")
    _add_format(p)


def _iso_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("first")
    p.add_argument("second")


def _pd2rel_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("pd", help="PD file or corpus:<id>")


# name -> (help, adds the command's arguments, handler), in usage order
_COMMANDS = {
    "validate": ("check a singquandle file against all axioms", _validate_args, _cmd_validate),
    "gen": ("generate a structure from a named family", _gen_args, _cmd_gen),
    "sqp": ("singquandle polynomial of a structure", _sqp_args, _cmd_sqp),
    "ssqp": ("subsingquandle polynomial of a subset", _ssqp_args, _cmd_ssqp),
    "color": ("count (and list) colorings of a link by a structure", _color_args, _cmd_color),
    "phi": ("phi invariant of a link against a structure", _phi_args, _cmd_phi),
    "iso": ("search for an isomorphism between two structures", _iso_args, _cmd_iso),
    "pd2rel": ("compile a PD code to a presentation", _pd2rel_args, _cmd_pd2rel),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI parser with every command, or with the one named command alone.

    A one-command parser parses that command's argv as the full parser does
    and prints the same usage, help and errors: its subcommand metavar lists
    every command.  The full parser sets no metavar, since one would rename
    ``command`` in its "invalid choice" and "required" errors.
    """
    parser = argparse.ArgumentParser(
        prog="singquandles",
        description="Finite oriented singquandles: validation, polynomial invariants, "
                    "and colorings of singular links.")
    if command is None:
        sub = parser.add_subparsers(dest="command", required=True)
        names = list(_COMMANDS)
    else:
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(_COMMANDS) + "}")
        names = [command]
    for name in names:
        help_text, add_arguments, handler = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a call builds only the parser of the command it runs: building all of
    # them costs more than a small call's own work
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not in the flush at exit
        return code
    except BrokenPipeError:
        # the reader is gone: send what stdout still buffers to devnull so the
        # flush at exit stays quiet, and exit as a process killed by SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except ValidationError as exc:
        report = getattr(exc, "report", None)
        print(report.describe() if report is not None else f"error: {exc}", file=sys.stderr)
        return VALIDATION_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
