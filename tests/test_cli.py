import ast
import json
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import sytkit.cli as cli
import sytkit.knuthclass as knuthclass
from sytkit import verify
from sytkit.cli import EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main
from sytkit.hopf import verify_interval_isomorphism
from sytkit.permutation import CAPS, InvariantError
from sytkit.weakorder import (
    cached_poset,
    check_monotone_descent,
    check_monotone_shape,
    to_dot,
)
from test_hopf import GRAPH_FAULTS, cut_short, graph_fault, transposed_insertion
from test_verify import _thinned

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rsk_golden(capsys):
    code, out, _ = run(capsys, "rsk", "52413")
    assert code == EXIT_OK
    assert out == "I: 1,3/2,4/5\nR: 1,3/2,5/4\n"


def test_rsk_json(capsys):
    code, out, _ = run(capsys, "rsk", "52413", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["insertion"]["rows"] == [[1, 3], [2, 4], [5]]
    assert payload["recording"]["rows"] == [[1, 3], [2, 5], [4]]


def test_parse_error_exit_2_with_position(capsys):
    code, _, err = run(capsys, "rsk", "5x413")
    assert code == EXIT_USAGE
    assert "position 1" in err


@pytest.mark.parametrize(
    "argv, position",
    [
        (("rsk", "21\u00b3"), 2),
        (("rsk", "2,1,\u00b3"), 4),
        (("class", "1,\u0662/3"), 2),
        (("jdt", ".,\u00b2/1", "1", "1", "forward"), 2),
    ],
    ids=["rsk-compact", "rsk-commas", "class", "jdt"],
)
def test_non_ascii_digits_exit_2_with_position(capsys, argv, position):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert f"(at position {position})" in err


_SCRIPTS = {
    "arabic-indic": lambda text: text.translate({ord(d): 0x0660 + int(d) for d in "0123456789"}),
    "fullwidth": lambda text: text.translate({ord(d): 0xFF10 + int(d) for d in "0123456789"}),
    "underscored": lambda text: "0_" + text,
}


@pytest.mark.parametrize("script", list(_SCRIPTS))
@pytest.mark.parametrize(
    "argv, slot",
    [
        (("poset", "--n", "3"), 2),
        (("verify", "antisymmetry", "--n", "3"), 3),
        (("verify", "interval-isomorphism", "--n", "3", "--k", "1"), 5),
        (("restrict", "1,2/3", "1", "2"), 2),
        (("restrict", "1,2/3", "1", "2"), 3),
        (("jdt", ".,.,4/.,2,5/1,3", "1", "2", "forward"), 2),
        (("jdt", ".,.,4/.,2,5/1,3", "1", "2", "forward"), 3),
    ],
    ids=["poset-n", "verify-n", "verify-k", "restrict-i", "restrict-j", "jdt-row", "jdt-col"],
)
def test_integer_options_take_ascii_digits_only(capsys, argv, slot, script):
    # the command runs with its ASCII argument; the same integer in another
    # script's digits or with an underscore, both of which ``int`` reads, is
    # a usage error naming the argument
    assert run(capsys, *argv)[0] == EXIT_OK
    written = _SCRIPTS[script](argv[slot])
    code, out, err = run(capsys, *argv[:slot], written, *argv[slot + 1:])
    assert code == EXIT_USAGE
    assert out == ""
    assert f"invalid int value: {written!r}" in err


@pytest.mark.parametrize("value", ["0", "-1", "-0"])
def test_integer_options_below_the_range_get_its_message(capsys, value):
    # a leading "-" is read, so the command's range check names the value
    code, out, err = run(capsys, "verify", "antisymmetry", "--n", value)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: n must be in 1..{verify.CHECKS['antisymmetry'].hi}\n"


def test_tableau_parse_error_position(capsys):
    code, _, err = run(capsys, "class", "1,3/2,x/5")
    assert code == EXIT_USAGE
    assert "position 6" in err


def test_broken_invariant_is_not_a_usage_error(capsys, monkeypatch):
    def broken(*args):
        raise InvariantError("slide stopped early")

    monkeypatch.setattr(cli, "jdt_slide", broken)
    code, out, err = run(capsys, "jdt", ".,.,4/.,2,5/1,3", "1", "2", "forward")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == "internal error: slide stopped early\n"


def test_source_has_no_assert():
    # InvariantError is raised explicitly so that python -O keeps every
    # check; an assert statement would vanish under -O
    sources = sorted((ROOT / "src" / "sytkit").glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name}: assert on lines {lines}"


def test_product_broken_invariant_exits_3(capsys, monkeypatch):
    for fault, message, _ in GRAPH_FAULTS.values():
        with monkeypatch.context() as patch:
            fault(patch)
            code, out, err = run(capsys, "product", "1,2,4/3,5", "1/2")
        assert code == EXIT_INTERNAL
        assert out == ""
        assert err == f"internal error: {message}\n"


def test_product_short_word_exits_3(capsys, monkeypatch):
    graph_fault(cut_short)(monkeypatch)
    code, out, err = run(capsys, "product", "1,2/3", "1/2")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == "internal error: a reverse-bump step of 1,2/3 does not take exactly its letter 1\n"


def test_product_wrong_upper_factor_exits_3(capsys, monkeypatch):
    transposed_insertion(monkeypatch)
    code, out, err = run(capsys, "product", "1,2,4/3,5", "1/2")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == "internal error: term 1,2,4/3,5/6/7 does not restrict to the two factors\n"


def test_product_lists_no_class_word(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a class word was listed")

    monkeypatch.setattr(knuthclass, "_class_words", refuse)
    code, out, _ = run(capsys, "product", "1,2/3", "1/2")
    assert code == EXIT_OK
    assert out == "1,2/3/4/5 x1\n1,2/3,4/5 x1\n1,2,4/3/5 x1\n1,2,4/3,5 x1\n"


def test_product_term_short_of_its_hook_count_exits_3(capsys, monkeypatch):
    # only the terms' shapes, of 5 cells: the total stays right
    count = cli.hopf._hook_count
    monkeypatch.setattr(cli.hopf, "_hook_count", lambda shape: count(shape) + (sum(shape) == 5))
    code, out, err = run(capsys, "product", "1,2/3", "1/2")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err.startswith("internal error: shuffle words cover class")


def test_usage_error_on_unknown_command(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    capsys.readouterr()


def test_class_command(capsys):
    code, out, _ = run(capsys, "class", "1,2,5/3,4")
    assert code == EXIT_OK
    assert out.split() == ["31425", "31452", "34125", "34152", "34512"]


@pytest.mark.parametrize(
    "argv, parser, value",
    [
        (("evac", "x"), "parse_tableau", ((1.5, 2), (3,))),
        (("transpose", "x"), "parse_tableau", ((True, 2), (3,))),
        (("rsk", "x"), "parse_word", (2.9, 1.0)),
    ],
)
def test_non_int_entries_are_usage_errors(capsys, monkeypatch, argv, parser, value):
    # what a library caller might pass in place of a parsed argument
    monkeypatch.setattr(cli, parser, lambda text: value)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "must be integers, got" in err


def test_poset_dot(capsys):
    code, out, _ = run(capsys, "poset", "--n", "3", "--format", "dot")
    assert code == EXIT_OK
    assert out.startswith("digraph weak_order_syt_3 {")
    assert 'n0 [label="1/2/3"];' in out
    assert "n3 -> n1;" in out


def test_poset_json(capsys):
    code, out, _ = run(capsys, "poset", "--n", "4", "--format", "json")
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["n"] == 4
    assert len(payload["nodes"]) == 10


def test_poset_text_deterministic(capsys):
    _, first, _ = run(capsys, "poset", "--n", "4")
    _, second, _ = run(capsys, "poset", "--n", "4")
    assert first == second


def _script(name, *argv):
    """Run ``scripts/<name>.py`` with ``argv`` in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{name}.py"), *argv],
        capture_output=True,
        text=True,
    )


def _assert_jobs_refused(capsys, argv, jobs):
    """``--jobs`` is no option of any command: argparse refuses it, exit 2."""
    if argv == ("run_verification",):
        done = _script("run_verification", "--jobs", jobs)
        code, out, err = done.returncode, done.stdout, done.stderr
    else:
        code, out, err = run(capsys, *argv, "--jobs", jobs)
    assert code == EXIT_USAGE
    assert out == ""
    assert f"error: unrecognized arguments: --jobs {jobs}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("poset", "--n", "4"),
        ("verify", "antisymmetry", "--n", "4"),
        ("interval", "1,2/3", "1/2"),
        ("run_verification",),
    ],
    ids=["poset", "verify", "interval", "run_verification"],
)
def test_jobs_is_an_unrecognized_argument(capsys, argv):
    _assert_jobs_refused(capsys, argv, "2")


@pytest.mark.parametrize("jobs", ["0", "-5"])
@pytest.mark.parametrize(
    "argv",
    [("poset", "--n", "4"), ("verify", "antisymmetry", "--n", "4"), ("interval", "1,2/3", "1/2")],
)
def test_jobs_below_one_is_a_usage_error(capsys, argv, jobs):
    _assert_jobs_refused(capsys, argv, jobs)


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_run_verification_rejects_jobs_below_one(capsys, jobs):
    _assert_jobs_refused(capsys, ("run_verification",), jobs)


def test_poset_jobs_do_not_change_output(capsys):
    # cached_poset keeps an ignored jobs keyword for the benchmark's callers
    code, out, _ = run(capsys, "poset", "--n", "4", "--format", "dot")
    assert code == EXIT_OK
    assert out == to_dot(cached_poset(4, jobs=2))


def test_verify_translation_pass(capsys):
    code, out, _ = run(capsys, "verify", "inner-translation", "--n", "5")
    assert code == EXIT_OK
    assert "mode: cover" in out
    assert out.rstrip().endswith("PASS")


def test_verify_translation_json_has_elapsed(capsys):
    code, out, _ = run(
        capsys, "verify", "inner-translation", "--n", "4", "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["check"] == "inner-tableau-translation"
    assert "elapsed_ms" in payload


def test_verify_fails_check_exits_zero_and_prints_witness(capsys):
    code, out, _ = run(capsys, "verify", "inner-translation-fails")
    assert code == EXIT_OK
    assert "1,2,4/3,5,6" in out
    assert "1,2,5/3,6/4" in out
    assert out.rstrip().endswith("PASS")


@pytest.mark.parametrize("n", ["9", "-4", "5"])
def test_verify_single_triple_scan_refuses_any_n_but_6(capsys, n):
    code, out, err = run(capsys, "verify", "inner-translation-fails", "--n", n)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: inner-translation-fails takes n = 6 only\n"
    assert run(capsys, "verify", "inner-translation-fails", "--n", "6")[0] == EXIT_OK


def test_verify_structural(capsys):
    code, out, _ = run(capsys, "verify", "structural", "--n", "4")
    assert code == EXIT_OK
    assert out.count("PASS") == 6


def test_verify_monotone_reports_direction(capsys):
    code, out, _ = run(capsys, "verify", "monotone", "--n", "5")
    assert code == EXIT_OK
    assert "direction: down" in out


def test_verify_special_cases_needs_family(capsys):
    code, _, err = run(capsys, "verify", "special-cases", "--n", "5")
    assert code == EXIT_USAGE
    assert "family" in err


def test_verify_special_cases_names_the_families_as_the_cli_spells_them(capsys):
    code, out, err = run(capsys, "verify", "special-cases", "--n", "5")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: special-cases needs --family, one of two-row, two-col, hook\n"
    assert "_" not in err


def test_verify_special_cases(capsys):
    code, out, _ = run(
        capsys, "verify", "special-cases", "--n", "5", "--family", "two-row"
    )
    assert code == EXIT_OK
    assert "family: two_row" in out


def test_verify_hook_eta(capsys):
    code, out, _ = run(capsys, "verify", "hook-eta", "--n", "5")
    assert code == EXIT_OK
    assert "skipped: 2" in out


# every check's arguments at a small n, and the library calls they stand for
DIRECT = {
    "antisymmetry": (["--n", "4"], lambda: [verify.verify_antisymmetry(4)]),
    "inner-translation": (
        ["--n", "5", "--mode", "order"],
        lambda: [verify.verify_inner_tableau_translation(5, "order")],
    ),
    "inner-translation-fails": ([], lambda: [verify.verify_inner_translation_fails()]),
    "special-cases": (
        ["--n", "5", "--family", "two-col"],
        lambda: [verify.verify_special_cases(5, "two_col")],
    ),
    "hook-eta": (["--n", "5"], lambda: [verify.verify_hook_eta(5)]),
    "structural": (["--n", "4"], lambda: verify.verify_structural(4)),
    "monotone": (
        ["--n", "4"],
        lambda: [check_monotone_descent(cached_poset(4)), check_monotone_shape(cached_poset(4))],
    ),
    "interval-isomorphism": (
        ["--n", "5", "--k", "2"],
        lambda: [verify_interval_isomorphism(2, 3)],
    ),
}


@pytest.mark.parametrize("check", list(verify.CHECKS))
def test_verify_command_prints_the_library_reports(capsys, check):
    argv, calls = DIRECT[check]
    code, out, _ = run(capsys, "verify", check, *argv)
    assert code == EXIT_OK
    assert out == "\n\n".join("\n".join(r.text_lines()) for r in calls()) + "\n"


@pytest.mark.parametrize(
    "check, flag, value",
    [
        ("inner-translation", "--family", "hook"),
        ("inner-translation-fails", "--mode", "order"),
        ("antisymmetry", "--k", "2"),
        ("hook-eta", "--mode", "cover"),
        ("monotone", "--family", "two-row"),
    ],
)
def test_verify_rejects_a_flag_the_check_does_not_take(capsys, check, flag, value):
    code, out, err = run(capsys, "verify", check, "--n", "5", flag, value)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: {check} does not take {flag}\n"


def test_readme_lists_every_verify_check():
    text = README.read_text()
    commands = re.findall(r"sytkit verify ([a-z-]+)", text)
    assert set(commands) == set(verify.CHECKS)
    # the command list under "## CLI" has one line per check, none twice
    block = text.split("## CLI", 1)[1].split("```")[1]
    names = re.findall(r"^sytkit verify ([a-z-]+)", block, re.M)
    assert sorted(names) == sorted(verify.CHECKS)
    # and each line gives the --n its check accepts, as the table does
    ranges = re.findall(r"^sytkit verify ([a-z-]+).*# --n (\d+)\.\.(\d+)", block, re.M)
    assert {name: (int(lo), int(hi)) for name, lo, hi in ranges} == {
        name: (row.lo, row.hi) for name, row in verify.CHECKS.items()
    }


def test_verify_help_lists_each_checks_range(capsys):
    code, out, _ = run(capsys, "verify", "--help")
    assert code == EXIT_OK
    listed = re.findall(r"^  ([a-z-]+) +(\d+)\.\.(\d+)$", out, re.M)
    assert listed == [(name, str(row.lo), str(row.hi)) for name, row in verify.CHECKS.items()]


def test_main_builds_its_parser_once(capsys, monkeypatch):
    built = []

    def build():
        built.append(None)
        return real()

    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", build)
    cli._parser.cache_clear()
    try:
        assert run(capsys, "rsk", "52413")[0] == EXIT_OK
        code, out, _ = run(capsys, "verify", "--help")
    finally:
        cli._parser.cache_clear()
    assert code == EXIT_OK
    assert len(built) == 1
    listed = re.findall(r"^  ([a-z-]+) +(\d+)\.\.(\d+)$", out, re.M)
    assert listed == [(name, str(row.lo), str(row.hi)) for name, row in verify.CHECKS.items()]


def _verify_argv(check, n):
    # the flags of the row's first option set at n (interval-isomorphism
    # has none at n = 1, where no k splits the total)
    options = next(iter(verify.CHECKS[check].options(range(n, n + 1))), {})
    flags = [f"--{key}={value}".replace("_", "-") for key, value in options.items() if key != "n"]
    return ["verify", check, "--n", str(n), *flags]


@pytest.mark.parametrize("check", list(verify.CHECKS))
def test_verify_accepts_exactly_the_range_in_its_row(capsys, check):
    row = verify.CHECKS[check]
    for n in (row.lo - 1, row.hi + 1):
        code, out, err = run(capsys, *_verify_argv(check, n))
        assert code == EXIT_USAGE, n
        assert out == ""
        if row.lo == row.hi:
            assert err == f"error: {check} takes n = {row.lo} only\n"
        else:
            assert err == f"error: n must be in {row.lo}..{row.hi}\n"
    code, out, _ = run(capsys, *_verify_argv(check, row.lo))
    assert code == EXIT_OK
    assert out.rstrip().endswith("PASS")


@pytest.mark.parametrize("stretch", [False, True])
def test_battery_stays_inside_each_checks_row(stretch):
    tops = {}
    for check, options in verify.battery(stretch):
        row = verify.CHECKS[check]
        n = options["n"]
        assert row.lo <= n <= row.hi, (check, options)
        tops[check] = max(tops.get(check, n), n)
    # each check reaches the top of its row's column at that scale
    assert tops == {check: row.stretch_top if stretch else row.top for check, row in verify.CHECKS.items()}


def _halves(total):
    """Two one-row tableaux, as text, of ``total`` letters in all."""
    return tuple(",".join(map(str, range(1, m + 1))) for m in (total // 2, (total + 1) // 2))


def test_product_too_large_exits_2(capsys, monkeypatch):
    # refused before either reverse-bump graph is made
    monkeypatch.setattr(cli.hopf, "_bump_graph", None)
    code, out, err = run(capsys, "product", *_halves(CAPS["lift"] + 1))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: product size must be in 2..{CAPS['lift']}\n"


def test_interval_too_large_is_refused_by_its_product_size(capsys, monkeypatch):
    # named by the product size, as product names it, before any order is built
    monkeypatch.setattr(cli.weakorder, "cached_poset", None)
    code, out, err = run(capsys, "interval", *_halves(CAPS["order"] + 1))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: product size must be in 2..{CAPS['order']}\n"


@pytest.mark.parametrize(
    "flags, message",
    [(["--n", str(CAPS["order"] + 1)], f"n must be in 2..{CAPS['order']}"),
     (["--n", "6", "--k", "6"], "k must be in 1..5"), (["--n", "6", "--k", "0"], "k must be in 1..5")],
)
def test_verify_interval_isomorphism_names_the_options_it_takes(capsys, flags, message):
    # the total through its CHECKS row and k in 1..n - 1, never an l
    code, out, err = run(capsys, "verify", "interval-isomorphism", *flags)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: {message}\n"


def test_product_golden(capsys):
    code, out, _ = run(capsys, "product", "1,2/3", "1/2")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "1,2/3/4/5 x1",
        "1,2/3,4/5 x1",
        "1,2,4/3/5 x1",
        "1,2,4/3,5 x1",
    ]


def test_interval_matches_product(capsys):
    code, out, _ = run(capsys, "interval", "1,2/3", "1/2")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "bottom: 1,2,4/3,5"
    assert lines[1] == "top: 1,2/3/4/5"
    assert sorted(lines[2:]) == sorted(
        ["1,2/3/4/5", "1,2/3,4/5", "1,2,4/3/5", "1,2,4/3,5"]
    )


def test_restrict_evac_transpose(capsys):
    code, out, _ = run(capsys, "restrict", "1,3/2,4/5", "2", "5")
    assert (code, out) == (EXIT_OK, "1,2/3/4\n")
    code, out, _ = run(capsys, "evac", "1,3/2,4/5")
    assert code == EXIT_OK and out == "1,4/2,5/3\n"
    code, out, _ = run(capsys, "transpose", "1,3/2,4/5")
    assert (code, out) == (EXIT_OK, "1,2,5/3,4\n")


def test_jdt_command(capsys):
    code, out, _ = run(capsys, "jdt", ".,.,4/.,2,5/1,3", "1", "2", "forward")
    assert (code, out) == (EXIT_OK, ".,2,4/.,3,5/1\n")
    code, out, _ = run(capsys, "jdt", ".,2,4/.,3,5/1", "3", "2", "backward")
    assert (code, out) == (EXIT_OK, ".,.,4/.,2,5/1,3\n")


def test_jdt_rejects_bad_hole(capsys):
    code, _, err = run(capsys, "jdt", ".,.,4/.,2,5/1,3", "2", "2", "forward")
    assert code == EXIT_USAGE
    assert "removable" in err


# one input per command, with its text and its JSON (less elapsed_ms)
PINNED = {
    "rsk": (
        ["52413"],
        "I: 1,3/2,4/5\nR: 1,3/2,5/4\n",
        {"insertion": {"rows": [[1, 3], [2, 4], [5]]}, "recording": {"rows": [[1, 3], [2, 5], [4]]},
         "word": "52413"},
    ),
    "class": (
        ["1,2,5/3,4"],
        "31425\n31452\n34125\n34152\n34512\n",
        {"tableau": "1,2,5/3,4", "words": ["31425", "31452", "34125", "34152", "34512"]},
    ),
    "poset": (
        ["--n", "3"],
        "n: 3\nnodes: 4\ncovers: 4\nnode 0: 1/2/3\nnode 1: 1,3/2\nnode 2: 1,2/3\nnode 3: 1,2,3\n"
        "cover: 1 -> 0\ncover: 2 -> 0\ncover: 3 -> 1\ncover: 3 -> 2\n",
        {"covers": [[1, 0], [2, 0], [3, 1], [3, 2]], "n": 3, "nodes": ["1/2/3", "1,3/2", "1,2/3", "1,2,3"]},
    ),
    "verify": (
        ["inner-translation", "--n", "4"],
        "check: inner-tableau-translation\nmode: cover\nn: 4\nchecked: 4\nviolations: 0\nPASS\n",
        {"check": "inner-tableau-translation", "checked": 4, "range": {"mode": "cover", "n": 4},
         "violations": []},
    ),
    "product": (
        ["1,3/2", "1,2"],
        "1,3/2,5/4 x1\n1,3,5/2/4 x1\n1,3,5/2,4 x1\n1,3,4,5/2 x1\n",
        {"terms": [{"multiplicity": 1, "tableau": t}
                   for t in ("1,3/2,5/4", "1,3,5/2/4", "1,3,5/2,4", "1,3,4,5/2")]},
    ),
    "interval": (
        ["1,2/3", "1/2"],
        "bottom: 1,2,4/3,5\ntop: 1,2/3/4/5\n1,2/3/4/5\n1,2/3,4/5\n1,2,4/3/5\n1,2,4/3,5\n",
        {"bottom": "1,2,4/3,5", "covers": [[9, 4], [14, 9], [19, 14]], "top": "1,2/3/4/5",
         "members": ["1,2/3/4/5", "1,2/3,4/5", "1,2,4/3/5", "1,2,4/3,5"]},
    ),
    "restrict": (["1,3/2,4/5", "2", "5"], "1,2/3/4\n", {"rows": [[1, 2], [3], [4]]}),
    "evac": (["1,3/2,4/5"], "1,4/2,5/3\n", {"rows": [[1, 4], [2, 5], [3]]}),
    "transpose": (["1,3/2,4/5"], "1,2,5/3,4\n", {"rows": [[1, 2, 5], [3, 4]]}),
    "jdt": (
        [".,.,4/.,2,5/1,3", "1", "2", "forward"],
        ".,2,4/.,3,5/1\n",
        {"inner": [1, 1], "outer": [3, 3, 1], "rows": [[None, 2, 4], [None, 3, 5], [1]]},
    ),
}


@pytest.mark.parametrize("command", list(PINNED))
def test_every_command_prints_its_pinned_text_and_json(capsys, command):
    argv, text, payload = PINNED[command]
    assert run(capsys, command, *argv) == (EXIT_OK, text, "")
    code, out, err = run(capsys, command, *argv, "--format", "json")
    assert (code, err) == (EXIT_OK, "")
    got = json.loads(out)
    assert out == json.dumps(got, indent=2, sort_keys=True) + "\n"
    got.pop("elapsed_ms", None)
    assert got == payload


def test_verify_exits_1_and_prints_the_witnesses_on_a_broken_order(capsys, monkeypatch):
    broken = _thinned(6, 1)
    witnesses = verify._translation_sweep(broken, "cover", None)[1]
    assert witnesses
    monkeypatch.setattr(verify, "cached_poset", lambda n: broken)
    code, out, err = run(capsys, "verify", "inner-translation", "--n", "6")
    assert (code, err) == (EXIT_VIOLATION, "")
    lines = out.splitlines()
    assert lines[-1] == "FAIL"
    assert f"violations: {len(witnesses)}" in lines
    shown = witnesses[:20]
    assert [line for line in lines if line.startswith("  witness: ")] == [
        "  witness: " + json.dumps(w, sort_keys=True) for w in shown
    ]
    code, out, _ = run(capsys, "verify", "inner-translation", "--n", "6", "--format", "json")
    assert code == EXIT_VIOLATION
    assert json.loads(out)["violations"] == witnesses


def _readme_commands():
    """Each ``sytkit …`` line of the README's CLI block: its arguments and
    its comment."""
    block = README.read_text().split("## CLI", 1)[1].split("```")[1]
    lines = [line.partition("#") for line in block.splitlines() if line.startswith("sytkit ")]
    return [(shlex.split(command)[1:], comment.strip()) for command, _, comment in lines]


def test_readme_cli_block_runs_and_its_comments_match(capsys):
    outputs = {}
    for argv, comment in _readme_commands():
        code, out, err = run(capsys, *argv)
        assert (code, err) == (EXIT_OK, ""), argv
        outputs[argv[0], argv[-1]] = out, comment
    out, comment = outputs["rsk", "52413"]
    assert "  ".join(out.splitlines()) == comment
    out, comment = outputs["poset", "dot"]
    nodes = int(re.search(r"(\d+) nodes", comment).group(1))
    assert len(re.findall(r"^  n\d+ \[label=", out, re.M)) == nodes == 10
    out, comment = outputs["product", "1/2"]
    assert comment == "four tableaux, multiplicity 1 each"
    terms = [line.rsplit(" ", 1) for line in out.splitlines()]
    assert len(terms) == 4 and {m for _, m in terms} == {"x1"}
    out, comment = outputs["interval", "1/2"]
    bottom, top = re.search(r"from (\S+) to (\S+)$", comment).groups()
    lines = out.splitlines()
    assert lines[:2] == [f"bottom: {bottom}", f"top: {top}"]
    assert sorted(lines[2:]) == sorted(t for t, _ in terms)
    for direction in ("forward", "backward"):
        out, comment = outputs["jdt", direction]
        assert out == comment.split()[0].rstrip(",") + "\n"


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "diagram.dot"
    code, out, _ = run(
        capsys, "poset", "--n", "3", "--format", "dot", "--out", str(target)
    )
    assert code == EXIT_OK
    assert out == ""
    assert target.read_text().startswith("digraph weak_order_syt_3 {")


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys, where):
    target = tmp_path if where == "directory" else tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, "rsk", "52413", "--out", str(target))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("where", ["directory", "missing-parent", "file-parent"])
def test_unwritable_out_path_fails_before_the_command(tmp_path, capsys, monkeypatch, where):
    (tmp_path / "taken").write_text("")
    target = {
        "directory": tmp_path,
        "missing-parent": tmp_path / "missing" / "out.txt",
        "file-parent": tmp_path / "taken" / "out.txt",
    }[where]
    with pytest.raises(OSError) as opened:
        open(target, "w")

    def dispatch(args):
        raise AssertionError("the command ran before --out was checked")

    monkeypatch.setattr(cli, "_dispatch", dispatch)
    code, out, err = run(
        capsys, "verify", "interval-isomorphism", "--n", "6", "--out", str(target)
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: cannot write --out: {opened.value}\n"


def test_run_verification_rejects_an_out_dir_that_is_a_file(tmp_path):
    target = tmp_path / "taken"
    target.write_text("")
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_verification.py"), "--out-dir", str(target)],
        capture_output=True,
        text=True,
    )
    assert out.returncode == EXIT_USAGE
    assert out.stdout == ""
    assert "error: cannot use --out-dir" in out.stderr
    assert "Traceback" not in out.stderr


def test_export_hasse_writes_the_dot_of_every_size(tmp_path):
    done = _script("export_hasse", "--out-dir", str(tmp_path), "--max-n", "4")
    assert done.returncode == EXIT_OK
    names = [f"weak_order_syt_{n}.dot" for n in (2, 3, 4)]
    assert sorted(path.name for path in tmp_path.iterdir()) == names
    for n, name in zip((2, 3, 4), names):
        p = cached_poset(n)
        assert (tmp_path / name).read_text() == to_dot(p)
        assert f"{tmp_path / name}: {len(p.nodes)} nodes, {len(p.covers)} covers\n" in done.stdout


@pytest.mark.parametrize("max_n", ["1", str(CAPS["order"] + 1), "-3"])
def test_export_hasse_refuses_an_out_of_range_max_n(tmp_path, max_n):
    # --max-n 10 once wrote eight files and then died with a traceback
    target = tmp_path / "out"
    done = _script("export_hasse", "--out-dir", str(target), "--max-n", max_n)
    assert done.returncode == EXIT_USAGE
    assert done.stdout == ""
    assert f"error: --max-n must be in 2..{CAPS['order']}, got {max_n}" in done.stderr
    assert not target.exists()


@pytest.mark.parametrize("max_n", ["٣", "0_3"], ids=["arabic-indic", "underscored"])
def test_export_hasse_takes_ascii_digits_only(tmp_path, max_n):
    # ``int`` reads both as 3, which once exported the sizes 2..3
    target = tmp_path / "out"
    done = _script("export_hasse", "--out-dir", str(target), "--max-n", max_n)
    assert done.returncode == EXIT_USAGE
    assert done.stdout == ""
    assert f"invalid int value: {max_n!r}" in done.stderr
    assert not target.exists()
