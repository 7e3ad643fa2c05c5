"""Command-line surface: library operations plus the verification sweeps.

Each command is one row of :data:`COMMANDS`: its help, its arguments as
``add_argument`` keywords and a handler that parses its inputs, calls the
library once and returns its :class:`Output`.  :func:`build_parser` makes
a subparser of each row, and :func:`_dispatch` makes the one output
decision, JSON or text.

Exit codes: 0 success / check passed, 1 a verification check failed
(witnesses printed), 2 usage or parse error, 3 a broken internal invariant
(a fault in sytkit, not in the input).  Text and DOT output are
byte-identical across runs; JSON additionally carries wall-clock
``elapsed_ms``, the one intentionally nondeterministic field.
"""

from __future__ import annotations

import argparse
import errno
import functools
import inspect
import json
import os
import sys
from collections.abc import Callable
from typing import NamedTuple

from . import hopf, verify, weakorder
from .knuthclass import knuth_class
from .permutation import CAPS, InvariantError, _is_decimal, check_range, format_word, parse_word
from .tableau import (
    evacuate,
    format_skew,
    format_tableau,
    jdt_slide,
    parse_skew,
    parse_tableau,
    restrict,
    rsk,
    skew_to_json,
    tableau_to_json,
    transpose,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

FAMILIES = tuple(f.replace("_", "-") for f in verify.FAMILIES)  # CLI spellings


def _integer(text: str) -> int:
    """An integer option: ASCII digits 0-9 after an optional "-", so that
    other scripts' digits, underscores, signs "+" and spaces, which ``int``
    takes, are refused as usage errors; the range is checked by the
    command."""
    if not _is_decimal(text[1:] if text.startswith("-") else text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


class Output(NamedTuple):
    """A command's JSON payload and text, each made by a call so that only
    the form printed is built (each form of the n = 9 poset takes about
    10 ms), and its exit code."""

    payload: Callable[[], object]
    text: Callable[[], str]
    code: int = EXIT_OK


def _rsk(args) -> Output:
    word = parse_word(args.word)
    insertion, recording = rsk(word)
    return Output(lambda: {"word": format_word(word), "insertion": tableau_to_json(insertion),
                           "recording": tableau_to_json(recording)},
                  lambda: f"I: {format_tableau(insertion)}\nR: {format_tableau(recording)}\n")


def _class(args) -> Output:
    tab = parse_tableau(args.tableau)
    words = sorted(knuth_class(tab).words)
    return Output(lambda: {"tableau": format_tableau(tab), "words": [format_word(w) for w in words]},
                  lambda: "".join(format_word(w) + "\n" for w in words))


def _poset_text(p: weakorder.TableauPoset) -> str:
    lines = [f"n: {p.n}", f"nodes: {len(p.nodes)}", f"covers: {len(p.covers)}"]
    lines += [f"node {i}: {format_tableau(t)}" for i, t in enumerate(p.nodes)]
    lines += [f"cover: {a} -> {b}" for a, b in p.covers]
    return "\n".join(lines) + "\n"


def _poset(args) -> Output:
    p = weakorder.cached_poset(args.n)
    return Output(lambda: weakorder.poset_to_json(p),
                  lambda: weakorder.to_dot(p) if args.format == "dot" else _poset_text(p))


def _verify(args) -> Output:
    run = verify.CHECKS[args.check].run
    family = args.family and args.family.replace("-", "_")
    given = {"k": args.k, "mode": args.mode, "family": family}
    options = {flag: value for flag, value in given.items() if value is not None}
    params = inspect.signature(run).parameters
    for flag in options:
        if flag not in params:
            raise ValueError(f"{args.check} does not take --{flag}")
    if "family" in params and family is None:
        raise ValueError(f"{args.check} needs --family, one of {', '.join(FAMILIES)}")
    verify._check_scale(args.check, args.n)
    reports = run(n=args.n, **options)
    return Output(lambda: reports[0].to_json() if len(reports) == 1 else [r.to_json() for r in reports],
                  lambda: "\n\n".join("\n".join(r.text_lines()) for r in reports) + "\n",
                  EXIT_OK if all(r.passed for r in reports) else EXIT_VIOLATION)


def _product(args) -> Output:
    result = hopf.plactic_product(parse_tableau(args.left), parse_tableau(args.right))
    terms = [(format_tableau(t), result.terms[t]) for t in result.support()]
    return Output(lambda: {"terms": [{"tableau": t, "multiplicity": m} for t, m in terms]},
                  lambda: "".join(f"{t} x{m}\n" for t, m in terms))


def _interval(args) -> Output:
    left = parse_tableau(args.left)
    right = parse_tableau(args.right)
    n = sum(len(r) for r in left) + sum(len(r) for r in right)
    p = weakorder.cached_poset(check_range(n, 2, CAPS["order"], "product size"))
    iv = hopf.product_interval(left, right, p)
    bottom, top = format_tableau(p.nodes[iv.bottom]), format_tableau(p.nodes[iv.top])
    members = [format_tableau(t) for t in iv.member_tableaux()]
    return Output(lambda: {"bottom": bottom, "top": top, "members": members,
                           "covers": [list(e) for e in iv.covers]},
                  lambda: "".join(f"{line}\n" for line in [f"bottom: {bottom}", f"top: {top}", *members]))


def _one(value, to_json=tableau_to_json, to_text=format_tableau) -> Output:
    """The output of a command that prints one tableau (or skew tableau)."""
    return Output(lambda: to_json(value), lambda: to_text(value) + "\n")


class Command(NamedTuple):
    """A row of :data:`COMMANDS`."""

    help: str
    arguments: dict[str, dict]  # each name or flag, in order, with its add_argument keywords
    handler: Callable[[argparse.Namespace], Output]
    formats: tuple[str, ...] = ("text", "json")  # --format's choices; the first is its default
    epilog: str | None = None


COMMANDS: dict[str, Command] = {
    "rsk": Command("insertion and recording tableaux of a word", {"word": {}}, _rsk),
    "class": Command("all words inserting to a tableau", {"tableau": {}}, _class),
    "poset": Command("the weak order poset on size-n tableaux", {"--n": {"type": _integer, "required": True}},
                     _poset, formats=("text", "json", "dot")),
    "verify": Command("run an exhaustive check", {
        "check": {"choices": tuple(verify.CHECKS)},
        "--n": {"type": _integer, "default": 6,
                "help": "size swept (hook length k for hook-eta, k + l for interval-isomorphism)"},
        "--k": {"type": _integer, "default": None, "help": "first factor size for interval-isomorphism"},
        "--mode": {"choices": verify.MODES, "default": None},
        "--family": {"default": None, "choices": FAMILIES},
    }, _verify, epilog="the --n each check accepts:\n"
        + "".join(f"  {check:<24} {row.lo}..{row.hi}\n" for check, row in verify.CHECKS.items())),
    "product": Command("shuffle product of two tableau classes", {"left": {}, "right": {}}, _product),
    "interval": Command("order interval bounding the product of two tableaux", {"left": {}, "right": {}},
                        _interval),
    "restrict": Command("restrict a tableau to a letter segment",
                        {"tableau": {}, "i": {"type": _integer}, "j": {"type": _integer}},
                        lambda args: _one(restrict(parse_tableau(args.tableau), args.i, args.j))),
    "evac": Command("evacuation of a tableau", {"tableau": {}},
                    lambda args: _one(evacuate(parse_tableau(args.tableau)))),
    "transpose": Command("transpose of a tableau", {"tableau": {}},
                         lambda args: _one(transpose(parse_tableau(args.tableau)))),
    "jdt": Command("one jeu de taquin slide on a skew tableau (gaps written '.')", {
        "skew": {}, "row": {"type": _integer}, "col": {"type": _integer},
        "direction": {"choices": ("forward", "backward")},
    }, lambda args: _one(jdt_slide(parse_skew(args.skew), (args.row, args.col), args.direction),
                         skew_to_json, format_skew)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sytkit",
        description="standard Young tableaux: insertion, classes, the weak order, checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help, epilog=command.epilog,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        for argument, keywords in command.arguments.items():
            p.add_argument(argument, **keywords)
        p.add_argument("--format", choices=command.formats, default="text")
        p.add_argument("--out", metavar="PATH", help="write output to a file")
    return parser


def _dispatch(args) -> tuple[int, str]:
    """Run the command and build the one form it prints."""
    output = COMMANDS[args.command].handler(args)
    if args.format == "json":
        return output.code, json.dumps(output.payload(), indent=2, sort_keys=True) + "\n"
    return output.code, output.text()


def _check_out_path(path: str) -> None:
    """Raise the error that opening ``path`` for writing would raise when
    it is a directory or its directory is missing, so that an unwritable
    ``--out`` fails before the command runs."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
        raise OSError(code, os.strerror(code), path)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reads every command line with, built once
    per process: parsing leaves it as it was."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    if args.out:
        try:
            _check_out_path(args.out)
        except OSError as exc:
            print(f"error: cannot write --out: {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        code, text = _dispatch(args)
    except ValueError as exc:  # ParseError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write --out: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
