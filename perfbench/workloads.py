"""The benchmark's workloads: two verification batteries and a query stream.

A workload is a list of operations.  Each operation is one call (or a short
chain of calls, the way one CLI command makes them) into the public
functions of sytkit, and the benchmark times each one.  Inputs come from
the seed alone; answers are checked by gates.py outside the timed call.

The library modules are passed in as ``lib`` (a namespace with the six
modules as attributes) and looked up when an operation runs, so the tracer
in tracer.py sees every call.
"""

from __future__ import annotations

import json
import pathlib
import random
import time
from dataclasses import dataclass
from typing import Any, Callable

import gates

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

# (top, max_n) as in scripts/run_verification.py: --stretch raises the
# translation sweep and antisymmetry to n = 9, other checks keep max_n = 7
BATTERIES = {"desk": (7, 7), "stretch": (9, 7)}


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None] | None = None  # None: expects ValueError
    label: str = ""


# ---------------------------------------------------------------------------
# batteries

def battery_ops(lib, top: int, max_n: int) -> list[Op]:
    """The run_verification.py battery as operations; each call returns a
    list of VerificationReports.  jobs=1 throughout."""
    verify, weakorder, hopf = lib.verify, lib.weakorder, lib.hopf
    ops = []

    def add(kind, fn, *args):
        label = " ".join([kind, *map(str, args)])
        ops.append(Op(kind, lambda: fn(*args), label=label))

    for n in range(2, top + 1):
        add("antisymmetry", lambda n: [verify.verify_antisymmetry(n, jobs=1)], n)
    for n in range(2, top + 1):
        for mode in ("cover", "order"):
            add("inner-translation", lambda n, mode: [
                verify.verify_inner_tableau_translation(n, mode, jobs=1)
            ], n, mode)
    add("inner-translation-fails", lambda: [verify.verify_inner_translation_fails(jobs=1)])
    for family in ("two_row", "two_col", "hook"):
        for n in range(2, min(top, 8) + 1):
            add("special-cases", lambda n, family: [
                verify.verify_special_cases(n, family, jobs=1)
            ], n, family)
    for k in range(5, min(top, 9) + 1):
        add("hook-eta", lambda k: [verify.verify_hook_eta(k)], k)
    for n in range(2, min(max_n, 6) + 1):
        add("structural", lambda n: verify.verify_structural(n, jobs=1), n)
    for n in range(2, min(max_n, 7) + 1):
        add("monotone-descent", lambda n: [
            weakorder.check_monotone_descent(weakorder.cached_poset(n, jobs=1))
        ], n)
        add("monotone-shape", lambda n: [
            weakorder.check_monotone_shape(weakorder.cached_poset(n, jobs=1))
        ], n)
    for total in range(2, min(max_n, 6) + 1):
        for k in range(1, total):
            add("interval-isomorphism", lambda k, l: [
                hopf.verify_interval_isomorphism(k, l, jobs=1)
            ], k, total - k)
    return ops


def load_golden(name: str) -> list[dict]:
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


# ---------------------------------------------------------------------------
# query stream

POSET_SIZES = range(1, 9)  # built in set-up, for interval_product


def setup_queries(lib) -> dict:
    return {n: lib.weakorder.cached_poset(n, jobs=1) for n in POSET_SIZES}


def _word(rng, n):
    return tuple(rng.sample(range(1, n + 1), n))


def _tableau(rng, n):
    return gates.insertion(_word(rng, n))


def _rsk(rng, lib, posets):
    word = _word(rng, rng.randint(6, 10))
    return [Op("rsk", lambda: lib.tableau.rsk(word), lambda a: gates.check_rsk(word, a))]


def _knuth_class(rng, lib, posets):
    rows = _tableau(rng, rng.randint(5, 9))
    return [Op("knuth_class", lambda: lib.knuthclass.knuth_class(rows),
               lambda a: gates.check_knuth_class(rows, a))]


def _product_pair(rng, lib, posets):
    """plactic_product and interval_product on one pair; the two answers
    are compared with each other."""
    total = rng.randint(4, 8)
    k = rng.randint(1, total - 1)
    left, right = _tableau(rng, k), _tableau(rng, total - k)
    answers: dict = {}

    def keep(name, answer):
        answers[name] = answer
        if len(answers) < 2:
            return None  # compared when the second answer arrives
        return gates.check_product(left, right, answers["terms"], answers["members"])

    return [
        Op("plactic_product", lambda: lib.hopf.plactic_product(left, right),
           lambda a: keep("terms", a.terms)),
        Op("interval_product",
           lambda: lib.hopf.interval_product(left, right, posets[total]),
           lambda a: keep("members", a)),
    ]


def _restrict(rng, lib, posets):
    n = rng.randint(5, 9)
    rows = _tableau(rng, n)
    i = rng.randint(1, n - 1)
    j = rng.randint(i + 1, n)
    return [Op("restrict", lambda: lib.tableau.restrict(rows, i, j),
               lambda a: gates.check_restrict(rows, i, j, a))]


def _evacuate(rng, lib, posets):
    rows = _tableau(rng, rng.randint(5, 9))
    return [Op("evacuate", lambda: lib.tableau.evacuate(rows),
               lambda a: gates.check_equal(gates.evacuate(rows), a, "evacuate"))]


def _transpose(rng, lib, posets):
    rows = _tableau(rng, rng.randint(5, 9))
    return [Op("transpose", lambda: lib.tableau.transpose(rows),
               lambda a: gates.check_equal(gates.transpose(rows), a, "transpose"))]


def _skew(rng, lib):
    """A random skew tableau: a tableau of size 5-9 with its k smallest
    entries cut out.  Built here, untimed: constructing a SkewTableau
    validates it."""
    n = rng.randint(5, 9)
    k = rng.randint(1, n - 2)
    skew_rows = tuple(
        tuple(None if x <= k else x for x in row) for row in _tableau(rng, n)
    )
    return skew_rows, lib.tableau.SkewTableau.from_rows(skew_rows)


def _rectify(rng, lib, posets):
    skew_rows, skew = _skew(rng, lib)
    return [Op("rectify", lambda: lib.tableau.rectify(skew),
               lambda a: gates.check_rectify(skew_rows, a))]


def _jdt(rng, lib, posets):
    """One slide, as the CLI's jdt command makes it: forward from an inner
    corner or backward from an addable outer cell."""
    skew_rows, skew = _skew(rng, lib)
    if rng.random() < 0.5:
        direction, hole = "forward", rng.choice(gates.inner_corners(skew_rows))
    else:
        direction, hole = "backward", rng.choice(gates.addable_cells(skew_rows))
    return [Op("jdt", lambda: lib.tableau.jdt_slide(skew, hole, direction),
               lambda a: gates.check_jdt(skew_rows, hole, direction, a.rows))]


def _malformed(rng, lib, posets):
    """A bad argument for a public entry point; it must raise ValueError."""
    tab = lib.tableau
    rows = [list(row) for row in _tableau(rng, rng.randint(5, 9))]
    n = sum(map(len, rows))
    choice = rng.randrange(8)
    if choice == 0:
        word = list(_word(rng, rng.randint(5, 9)))
        word[rng.randrange(1, len(word))] = word[0]  # a repeated letter
        call = lambda: tab.rsk(tuple(word))
    elif choice == 1:
        too_long = _word(rng, 11)
        call = lambda: tab.rsk(too_long)
    elif choice == 2 and any(len(row) > 1 for row in rows):
        row = next(row for row in rows if len(row) > 1)
        row[0], row[1] = row[1], row[0]
        bad = tuple(map(tuple, rows))
        call = lambda: lib.knuthclass.knuth_class(bad)
    elif choice == 3 and len(rows) > 1:
        rows[0][0], rows[1][0] = rows[1][0], rows[0][0]
        bad = tuple(map(tuple, rows))
        call = lambda: tab.evacuate(bad)
    elif choice == 4:
        i = rng.randint(2, n)
        j = rng.randint(1, i)
        good = tuple(map(tuple, rows))
        call = lambda: tab.restrict(good, i, j)
    elif choice == 5:
        text = "1/2,3" if rng.random() < 0.5 else "1,3/2,3"
        call = lambda: tab.parse_tableau(text)
    elif choice == 6:
        text = ",".join(map(str, _word(rng, 6))) + ",x"
        call = lambda: lib.permutation.parse_word(text)
    else:  # a missing letter: n replaced by n + 1
        bad = tuple(tuple(n + 1 if x == n else x for x in row) for row in rows)
        call = lambda: tab.transpose(bad)
    return [Op("malformed", call)]


# generator -> how many times it runs per block.  The mix is the CLI's
# interactive commands (rsk, class, product, interval, restrict, evac,
# transpose, jdt) plus rectify, three of each, and a tenth malformed input.
# No record of real use exists, so equal weights are an assumption, not a
# measurement.  A block is shuffled, so every block has the same mix and
# only the inputs vary with the seed.
QUERY_MIX = (
    (_rsk, 3),
    (_knuth_class, 3),
    (_product_pair, 3),  # one product and one interval call each
    (_restrict, 3),
    (_evacuate, 3),
    (_transpose, 3),
    (_jdt, 3),
    (_rectify, 3),
    (_malformed, 3),
)


def query_block(rng: random.Random, lib, posets: dict) -> list[Op]:
    """One block of QUERY_MIX operations on fresh random inputs, shuffled.

    Inputs are made with gates.py, so generation calls the library only to
    build skew tableaux; the worker pauses the tracer meanwhile.
    """
    ops = [op for make, count in QUERY_MIX for _ in range(count)
           for op in make(rng, lib, posets)]
    rng.shuffle(ops)
    return ops


def run_op(op: Op) -> tuple[float, float, Any, BaseException | None]:
    """Time one operation; return (start, seconds, answer, exception)."""
    answer = error = None
    start = time.perf_counter()
    try:
        answer = op.call()
    except Exception as exc:  # a failed operation is counted, not fatal
        error = exc
    return start, time.perf_counter() - start, answer, error


def judge(op: Op, answer, error) -> str | None:
    """The gate's verdict on one operation: None when correct."""
    if op.check is None:
        if isinstance(error, ValueError):
            return None
        return f"malformed input gave {error!r}" if error else "malformed input accepted"
    if error is not None:
        return f"{op.kind} raised {error!r}"
    try:
        return op.check(answer)
    except Exception as exc:  # a malformed answer fails the gate
        return f"{op.kind} answer unreadable: {exc!r}"
