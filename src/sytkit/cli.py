"""Command-line surface: library operations plus the verification sweeps.

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

from . import hopf, verify, weakorder
from .knuthclass import knuth_class
from .permutation import CAPS, InvariantError, _is_decimal, check_range, format_word, parse_word
from .report import VerificationReport
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

VERIFY_CHECKS = tuple(verify.CHECKS)
FAMILIES = tuple(f.replace("_", "-") for f in verify.FAMILIES)  # CLI spellings


def _integer(text: str) -> int:
    """An integer option: ASCII digits 0-9 after an optional "-", so that
    other scripts' digits, underscores, signs "+" and spaces, which ``int``
    takes, are refused as usage errors; the range is checked by the
    command."""
    if not _is_decimal(text[1:] if text.startswith("-") else text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _add_output_flags(sub: argparse.ArgumentParser, formats=("text", "json")) -> None:
    sub.add_argument("--format", choices=formats, default="text")
    sub.add_argument("--out", metavar="PATH", help="write output to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sytkit",
        description="standard Young tableaux: insertion, classes, the weak order, checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rsk = sub.add_parser("rsk", help="insertion and recording tableaux of a word")
    p_rsk.add_argument("word")
    _add_output_flags(p_rsk)

    p_class = sub.add_parser("class", help="all words inserting to a tableau")
    p_class.add_argument("tableau")
    _add_output_flags(p_class)

    p_poset = sub.add_parser("poset", help="the weak order poset on size-n tableaux")
    p_poset.add_argument("--n", type=_integer, required=True)
    _add_output_flags(p_poset, formats=("text", "json", "dot"))

    ranges = "".join(f"  {check:<24} {row.lo}..{row.hi}\n" for check, row in verify.CHECKS.items())
    p_verify = sub.add_parser("verify", help="run an exhaustive check",
                              epilog="the --n each check accepts:\n" + ranges,
                              formatter_class=argparse.RawDescriptionHelpFormatter)
    p_verify.add_argument("check", choices=VERIFY_CHECKS)
    p_verify.add_argument("--n", type=_integer, default=6,
                          help="size swept (hook length k for hook-eta, k + l for interval-isomorphism)")
    p_verify.add_argument("--k", type=_integer, default=None,
                          help="first factor size for interval-isomorphism")
    p_verify.add_argument("--mode", choices=verify.MODES, default=None)
    p_verify.add_argument("--family", default=None, choices=FAMILIES)
    _add_output_flags(p_verify)

    p_product = sub.add_parser("product", help="shuffle product of two tableau classes")
    p_product.add_argument("left")
    p_product.add_argument("right")
    _add_output_flags(p_product)

    p_interval = sub.add_parser(
        "interval", help="order interval bounding the product of two tableaux"
    )
    p_interval.add_argument("left")
    p_interval.add_argument("right")
    _add_output_flags(p_interval)

    p_restrict = sub.add_parser("restrict", help="restrict a tableau to a letter segment")
    p_restrict.add_argument("tableau")
    p_restrict.add_argument("i", type=_integer)
    p_restrict.add_argument("j", type=_integer)
    _add_output_flags(p_restrict)

    p_evac = sub.add_parser("evac", help="evacuation of a tableau")
    p_evac.add_argument("tableau")
    _add_output_flags(p_evac)

    p_transpose = sub.add_parser("transpose", help="transpose of a tableau")
    p_transpose.add_argument("tableau")
    _add_output_flags(p_transpose)

    p_jdt = sub.add_parser(
        "jdt",
        help="one jeu de taquin slide on a skew tableau (gaps written '.')",
    )
    p_jdt.add_argument("skew")
    p_jdt.add_argument("row", type=_integer)
    p_jdt.add_argument("col", type=_integer)
    p_jdt.add_argument("direction", choices=("forward", "backward"))
    _add_output_flags(p_jdt)

    return parser


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _report_text(reports: list[VerificationReport]) -> str:
    blocks = ["\n".join(r.text_lines()) for r in reports]
    return "\n\n".join(blocks) + "\n"


def _run_verify(args) -> tuple[int, str]:
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
    code = EXIT_OK if all(r.passed for r in reports) else EXIT_VIOLATION
    if args.format == "json":
        payload = [r.to_json() for r in reports]
        return code, _dumps(payload[0] if len(payload) == 1 else payload)
    return code, _report_text(reports)


def _dispatch(args) -> tuple[int, str]:
    if args.command == "rsk":
        word = parse_word(args.word)
        insertion, recording = rsk(word)
        if args.format == "json":
            return EXIT_OK, _dumps(
                {
                    "word": format_word(word),
                    "insertion": tableau_to_json(insertion),
                    "recording": tableau_to_json(recording),
                }
            )
        return EXIT_OK, (
            f"I: {format_tableau(insertion)}\nR: {format_tableau(recording)}\n"
        )

    if args.command == "class":
        tab = parse_tableau(args.tableau)
        words = sorted(knuth_class(tab).words)
        if args.format == "json":
            return EXIT_OK, _dumps(
                {
                    "tableau": format_tableau(tab),
                    "words": [format_word(w) for w in words],
                }
            )
        return EXIT_OK, "".join(format_word(w) + "\n" for w in words)

    if args.command == "poset":
        p = weakorder.cached_poset(args.n)
        if args.format == "dot":
            return EXIT_OK, weakorder.to_dot(p)
        if args.format == "json":
            return EXIT_OK, _dumps(weakorder.poset_to_json(p))
        lines = [f"n: {p.n}", f"nodes: {len(p.nodes)}", f"covers: {len(p.covers)}"]
        for i, t in enumerate(p.nodes):
            lines.append(f"node {i}: {format_tableau(t)}")
        for a, b in p.covers:
            lines.append(f"cover: {a} -> {b}")
        return EXIT_OK, "\n".join(lines) + "\n"

    if args.command == "verify":
        return _run_verify(args)

    if args.command == "product":
        left = parse_tableau(args.left)
        right = parse_tableau(args.right)
        result = hopf.plactic_product(left, right)
        if args.format == "json":
            return EXIT_OK, _dumps(
                {
                    "terms": [
                        {"tableau": format_tableau(t), "multiplicity": m}
                        for t, m in sorted(
                            result.terms.items(),
                            key=lambda kv: weakorder.canonical_key(kv[0]),
                        )
                    ]
                }
            )
        return EXIT_OK, "".join(
            f"{format_tableau(t)} x{result.terms[t]}\n" for t in result.support()
        )

    if args.command == "interval":
        left = parse_tableau(args.left)
        right = parse_tableau(args.right)
        n = sum(len(r) for r in left) + sum(len(r) for r in right)
        p = weakorder.cached_poset(check_range(n, 2, CAPS["order"], "product size"))
        iv = hopf.product_interval(left, right, p)
        members = iv.member_tableaux()
        if args.format == "json":
            return EXIT_OK, _dumps(
                {
                    "bottom": format_tableau(p.nodes[iv.bottom]),
                    "top": format_tableau(p.nodes[iv.top]),
                    "members": [format_tableau(t) for t in members],
                    "covers": [list(e) for e in iv.covers],
                }
            )
        lines = [
            f"bottom: {format_tableau(p.nodes[iv.bottom])}",
            f"top: {format_tableau(p.nodes[iv.top])}",
        ]
        lines += [format_tableau(t) for t in members]
        return EXIT_OK, "\n".join(lines) + "\n"

    if args.command in ("restrict", "evac", "transpose"):
        tab = parse_tableau(args.tableau)
        if args.command == "restrict":
            tab = restrict(tab, args.i, args.j)
        else:
            tab = evacuate(tab) if args.command == "evac" else transpose(tab)
        if args.format == "json":
            return EXIT_OK, _dumps(tableau_to_json(tab))
        return EXIT_OK, format_tableau(tab) + "\n"

    if args.command == "jdt":
        skew = parse_skew(args.skew)
        moved = jdt_slide(skew, (args.row, args.col), args.direction)
        if args.format == "json":
            return EXIT_OK, _dumps(skew_to_json(moved))
        return EXIT_OK, format_skew(moved) + "\n"

    raise ValueError(f"unknown command {args.command!r}")


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
    out = getattr(args, "out", None)
    if out:
        try:
            _check_out_path(out)
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
    if out:
        try:
            with open(out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write --out: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
