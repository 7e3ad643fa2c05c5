"""Acceptance criteria, one test per criterion, each printing a PASS line
with its measured time against the stated budget (run with ``pytest -s``
to see the lines)."""

import re
import time

from test_tableau import _all_skew_fillings, _rectify_all_orders
from test_weakorder import oracle_relation

from sytkit.cli import main
from sytkit.hopf import interval_product, plactic_product, verify_interval_isomorphism
from sytkit.knuthclass import knuth_class
from sytkit.permutation import format_word, parse_word
from sytkit.tableau import (
    format_skew,
    format_tableau,
    jdt_slide_trace,
    parse_skew,
    parse_tableau,
    rectify,
    rsk,
    all_standard_tableaux,
)
from sytkit.verify import (
    verify_antisymmetry,
    verify_hook_eta,
    verify_inner_tableau_translation,
    verify_inner_translation_fails,
    verify_restriction_monotone,
    verify_evac_transpose_monotone,
    verify_special_cases,
)
from sytkit.weakorder import (
    cached_poset,
    check_monotone_descent,
    check_monotone_shape,
    leq,
    to_dot,
)
from word_oracle import inversions_left


def _report(num: int, name: str, elapsed: float, budget: float) -> None:
    print(f"[crit {num:02d}] PASS {name}: {elapsed * 1000:.1f} ms (budget {budget:.0f} s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_01_rsk_golden(capsys):
    word = parse_word("52413")
    rsk(word)  # warm caches
    t0 = time.perf_counter()
    insertion, recording = rsk(word)
    elapsed = time.perf_counter() - t0
    assert format_tableau(insertion) == "1,3/2,4/5"
    assert format_tableau(recording) == "1,3/2,5/4"
    assert main(["rsk", "52413"]) == 0
    assert capsys.readouterr().out == "I: 1,3/2,4/5\nR: 1,3/2,5/4\n"
    with capsys.disabled():
        _report(1, "rsk golden", elapsed, 0.001)


def test_criterion_02_knuth_classes_golden(capsys):
    expected = {
        "1,2,5/3,4": {"31425", "34125", "31452", "34152", "34512"},
        "1,4,5/2/3": {"32145", "32415", "32451", "34215", "34251", "34521"},
        "1,4/2,5/3": {"32154", "32514", "35214", "32541", "35241"},
    }
    t0 = time.perf_counter()
    for text, words in expected.items():
        got = {format_word(w) for w in knuth_class(parse_tableau(text)).words}
        assert got == words
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(2, "Knuth classes golden", elapsed, 0.010)


def test_criterion_03_transitive_closure_is_necessary(capsys):
    t0 = time.perf_counter()
    p = cached_poset(5)
    lower = parse_tableau("1,2,5/3,4")
    upper = parse_tableau("1,4/2,5/3")
    assert leq(p, lower, upper)
    # the inversion (2,4) sits in every word of the lower class and in no
    # word of the upper class, so no direct witness pair exists
    assert all((2, 4) in inversions_left(w) for w in knuth_class(lower).words)
    assert all((2, 4) not in inversions_left(w) for w in knuth_class(upper).words)
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(3, "closure necessity at n=5", elapsed, 1.0)


def test_criterion_04_antisymmetry(capsys):
    t0 = time.perf_counter()
    for n in range(2, 8):
        report = verify_antisymmetry(n)
        assert report.passed, (n, report.violations)
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(4, "antisymmetry n=2..7", elapsed, 30.0)


def test_criterion_05_translation_sweep(capsys):
    t0 = time.perf_counter()
    for n in range(2, 8):
        for mode in ("cover", "order"):
            report = verify_inner_tableau_translation(n, mode)
            assert report.passed, (n, mode, report.violations)
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(5, "inner tableau translation n=2..7 both modes", elapsed, 600.0)


def test_criterion_06_failure_witness_reproduced(capsys):
    t0 = time.perf_counter()
    report = verify_inner_translation_fails()
    elapsed = time.perf_counter() - t0
    assert report.passed
    assert report.details["witness"] == {
        "triple": [3, 4, 5],
        "S": "1,2,4/3,5,6",
        "T": "1,2,4/3,6/5",
        "S_relabeled": "1,2,3/4,5,6",
        "T_relabeled": "1,2,5/3,6/4",
    }
    assert main(["verify", "inner-translation-fails"]) == 0
    out = capsys.readouterr().out
    assert "1,2,4/3,6/5" in out and "1,2,5/3,6/4" in out
    with capsys.disabled():
        _report(6, "single-triple failure witness", elapsed, 5.0)


def test_criterion_07_proved_special_cases(capsys):
    t0 = time.perf_counter()
    for family in ("two_row", "two_col", "hook"):
        for n in range(2, 8):
            report = verify_special_cases(n, family)
            assert report.passed, (family, n, report.violations)
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(7, "two-row/two-col/hook cases n<=7", elapsed, 600.0)


def test_criterion_08_restriction_lemma(capsys):
    t0 = time.perf_counter()
    for n in range(2, 7):
        report = verify_restriction_monotone(n)
        assert report.passed, (n, report.violations)
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(8, "restriction monotone n<=6", elapsed, 120.0)


def test_criterion_09_monotone_maps(capsys):
    t0 = time.perf_counter()
    directions = set()
    for n in range(2, 8):
        p = cached_poset(n)
        descent = check_monotone_descent(p)
        shape = check_monotone_shape(p)
        assert descent.passed, (n, descent.violations)
        assert shape.passed, (n, shape.violations)
        directions.add(shape.details["direction"])
    assert directions == {"down"}
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(9, "descent/shape maps monotone n<=7 (direction: down)", elapsed, 60.0)


def test_criterion_10_evac_transpose(capsys):
    t0 = time.perf_counter()
    for n in range(2, 7):
        report = verify_evac_transpose_monotone(n)
        assert report.passed, (n, report.violations)
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(10, "evacuation/transpose order maps n<=6", elapsed, 60.0)


def test_criterion_11_product_equals_interval(capsys):
    t0 = time.perf_counter()
    left = parse_tableau("1,2/3")
    right = parse_tableau("1/2")
    product = plactic_product(left, right)
    assert {format_tableau(t) for t in product.terms} == {
        "1,2,4/3,5",
        "1,2,4/3/5",
        "1,2/3,4/5",
        "1,2/3/4/5",
    }
    assert all(m == 1 for m in product.terms.values())
    for total in range(2, 8):
        p = cached_poset(total)
        for k in range(1, total):
            for a in all_standard_tableaux(k):
                for b in all_standard_tableaux(total - k):
                    support = set(plactic_product(a, b).terms)
                    assert support == set(interval_product(a, b, p))
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(11, "shuffle product = order interval, k+l<=7", elapsed, 300.0)


def test_criterion_12_interval_isomorphism(capsys):
    t0 = time.perf_counter()
    for total in range(2, 7):
        for k in range(1, total):
            report = verify_interval_isomorphism(k, total - k)
            assert report.passed, (k, total - k, report.violations)
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(12, "interval isomorphism k+l<=6", elapsed, 300.0)


def test_criterion_13_hook_eta(capsys):
    t0 = time.perf_counter()
    for k in range(5, 9):
        report = verify_hook_eta(k)
        assert report.passed, (k, report.violations)
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(13, "hook reverse-insertion exits k=5..8", elapsed, 60.0)


def test_criterion_14_jdt_golden_and_confluence(capsys):
    t0 = time.perf_counter()
    start = parse_skew(".,.,4/.,2,5/1,3")
    forward, trace = jdt_slide_trace(start, (1, 2), "forward")
    assert format_skew(forward) == ".,2,4/.,3,5/1"
    assert [h for h, _ in trace] == [(1, 2), (2, 2), (3, 2)]
    assert trace[1][1] == ((None, 2, 4), (None, None, 5), (1, 3))
    back, trace_back = jdt_slide_trace(forward, (3, 2), "backward")
    assert back == start
    assert [h for h, _ in trace_back] == [(3, 2), (2, 2), (1, 2)]
    assert trace_back[1][1] == ((None, 2, 4), (None, None, 5), (1, 3))
    for skew in _all_skew_fillings(6):
        outcomes = _rectify_all_orders(skew)
        assert len(outcomes) == 1
        assert rectify(skew) == next(iter(outcomes))
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(14, "jdt golden slides + rectification confluence <=6 cells", elapsed, 60.0)


def test_criterion_15_hasse_diagram_surrogate(capsys):
    t0 = time.perf_counter()
    expected_counts = {2: 2, 3: 4, 4: 10, 5: 26}
    for n, count in expected_counts.items():
        dot = to_dot(cached_poset(n))
        labels = dict(re.findall(r'(n\d+) \[label="([^"]+)"\];', dot))
        edges = re.findall(r"(n\d+) -> (n\d+);", dot)
        assert len(labels) == count
        tabs, _, oracle_covers = oracle_relation(n)
        got = {(parse_tableau(labels[a]), parse_tableau(labels[b])) for a, b in edges}
        assert got == oracle_covers
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(15, "Hasse diagrams n=2..5 match brute-force oracle", elapsed, 5.0)
