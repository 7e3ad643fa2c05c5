import random
import re
from collections import defaultdict
from itertools import permutations

import pytest
from hypothesis import given

import class_oracle
import sytkit.hopf as hopf
import sytkit.knuthclass as knuthclass
import sytkit.verify as verify
import sytkit.weakorder as weakorder
from conftest import tableaux
from sytkit.cli import EXIT_INTERNAL, EXIT_USAGE, main
from sytkit.knuthclass import knuth_class
from sytkit.permutation import CAPS, InvariantError, descents_left, format_word
from sytkit.tableau import (
    _hook_count,
    all_standard_tableaux,
    corners,
    descent_set,
    insertion_tableau,
    is_hook,
    parse_tableau,
    partitions,
    reverse_insert,
    row_word,
    shape_of,
    size_of,
    standard_tableaux,
    transpose,
)
from sytkit.verify import verify_hook_eta
from word_oracle import inversions_left


def test_class_goldens():
    got = {format_word(w) for w in knuth_class(parse_tableau("1,2,5/3,4")).words}
    assert got == {"31425", "34125", "31452", "34152", "34512"}
    got = {format_word(w) for w in knuth_class(parse_tableau("1,4,5/2/3")).words}
    assert got == {"32145", "32415", "32451", "34215", "34251", "34521"}
    got = {format_word(w) for w in knuth_class(parse_tableau("1,4/2,5/3")).words}
    assert got == {"32154", "32514", "35214", "32541", "35241"}


def test_single_row_class_is_identity():
    assert knuth_class(((1, 2, 3, 4),)).words == frozenset({(1, 2, 3, 4)})


def test_row_word_goldens():
    assert row_word(parse_tableau("1,3/2,4/5")) == (5, 2, 4, 1, 3)
    assert (3, 4, 1, 2, 5) in knuth_class(parse_tableau("1,2,5/3,4")).words


def test_classes_partition_all_words_n7():
    for n in range(1, 8):
        coverage = []
        for tab in all_standard_tableaux(n):
            coverage.extend(knuth_class(tab).words)
        assert len(coverage) == len(set(coverage))
        assert sorted(coverage) == sorted(permutations(range(1, n + 1)))


def test_class_equals_insertion_fiber_n6():
    for n in range(2, 7):
        fibers = defaultdict(set)
        for u in permutations(range(1, n + 1)):
            fibers[insertion_tableau(u)].add(u)
        for tab, fiber in fibers.items():
            assert knuth_class(tab).words == fiber


@given(tableaux(max_n=6))
def test_every_class_word_inserts_back(tab):
    cls = knuth_class(tab)
    assert cls.tableau == tab
    for w in cls.words:
        assert insertion_tableau(w) == tab


def test_descents_constant_on_classes_n5():
    for tab in all_standard_tableaux(5):
        expected = descent_set(tab)
        for w in knuth_class(tab).words:
            assert descents_left(w) == expected


def test_known_inversion_stays_in_one_class_not_the_other():
    lower = parse_tableau("1,2,5/3,4")
    upper = parse_tableau("1,4/2,5/3")
    assert all((2, 4) in inversions_left(w) for w in knuth_class(lower).words)
    assert all((2, 4) not in inversions_left(w) for w in knuth_class(upper).words)


def test_more_than_ten_cells_is_refused_before_any_word(capsys, monkeypatch):
    def listing(rows):
        raise AssertionError("class words listed for an oversized tableau")

    monkeypatch.setattr(knuthclass, "_class_words", listing)
    monkeypatch.setattr(knuthclass, "_bump_graph", listing)
    one_more = ",".join(map(str, range(1, CAPS["word"] + 2)))
    message = f"tableau size must be in 1..{CAPS['word']}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        knuth_class(parse_tableau(one_more))
    assert main(["class", one_more]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_ten_cells_are_accepted():
    tab = parse_tableau("1,2,3,4,5/6,7,8,9,10")
    cls = knuth_class(tab)
    assert len(cls) == 42
    assert cls.words == class_oracle.class_words(tab)


def test_a_repeated_word_is_an_invariant_error(capsys, monkeypatch):
    # every corner reverse-bumped as the last row's: each step takes
    # exactly its letter, but a node's steps repeat one another; on an
    # empty step table, so the fault reaches every entry and none outlives
    # the test
    real = knuthclass._reverse_bump

    def last_row(rows, r):
        return real(rows, len(rows))

    monkeypatch.setattr(knuthclass, "_STEPS", {})
    monkeypatch.setattr(knuthclass, "_reverse_bump", last_row)
    text = "1,2,3/4,5/6"
    with pytest.raises(InvariantError, match="repeated a word of class 1,2,3/4,5/6"):
        knuth_class(parse_tableau(text))
    assert main(["class", text]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: reverse bumping repeated")


def test_a_wrong_exit_letter_is_an_invariant_error(capsys, monkeypatch):
    # a step table entry is checked as it is made: its child must hold
    # the tableau's letters less the exit letter
    real = knuthclass._reverse_bump

    def wrong_exit(rows, r):
        return real(rows, r)[0], 1

    monkeypatch.setattr(knuthclass, "_STEPS", {})
    monkeypatch.setattr(knuthclass, "_reverse_bump", wrong_exit)
    text = "1,2,3/4,5/6"
    message = "a reverse-bump step of 1,2,3/4,5/6 does not take exactly its letter 1"
    with pytest.raises(InvariantError) as info:
        knuth_class(parse_tableau(text))
    assert str(info.value) == message
    assert knuthclass._STEPS == {}  # no faulty entry is kept
    assert main(["class", text]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: {message}\n"


@pytest.mark.parametrize("n", range(1, 9))
def test_bump_graph_paths_are_the_hook_count(n):
    # one path from the tableau to the empty end per class word: as many
    # as standard tableaux of the shape, counted through the depth order
    for tab in all_standard_tableaux(n):
        masks, steps = knuthclass._bump_graph(tab)
        assert masks[0] == (2 << n) - 2  # bit x for letter x
        assert (masks[-1], steps[-1]) == (0, [])
        paths = [0] * len(steps)
        paths[-1] = 1
        for a in range(len(steps) - 2, -1, -1):
            assert steps[a], a
            for c, x in steps[a]:
                assert c > a and masks[c] | 1 << x == masks[a] != masks[c]
            paths[a] = sum(paths[c] for c, _ in steps[a])
        assert paths[0] == _hook_count(shape_of(tab)), tab


def _graph_by_reverse_insert(roots):
    """The reverse-bump graph below the roots made with the public
    ``reverse_insert``: the roots first, then every tableau when it is
    first reached, level by level, each node's corners top row first."""
    ids = {rows: a for a, rows in enumerate(roots)}
    tabs, steps = list(roots), []
    for tab in tabs:
        out = []
        for corner in corners(tab) if tab else ():
            sub, x = reverse_insert(tab, corner)
            if sub not in ids:
                ids[sub] = len(tabs)
                tabs.append(sub)
            out.append((ids[sub], x))
        steps.append(out)
    return [sum(1 << x for row in tab for x in row) for tab in tabs], steps


@pytest.mark.parametrize("n", range(1, 9))
def test_one_root_graph_is_made_as_before(n):
    for tab in all_standard_tableaux(n):
        assert knuthclass._bump_graph(tab) == _graph_by_reverse_insert([tab]), tab


@pytest.mark.parametrize("m", range(1, 8))
def test_one_graph_below_every_tableau_of_a_size(m):
    # one checked graph below each standard tableau of size m: every step
    # takes exactly its letter, the root spells its class, and the graph is
    # the one made with a node per distinct tableau reached
    for root in all_standard_tableaux(m):
        masks, steps = hopf._checked_graph(root)
        assert (masks, steps) == _graph_by_reverse_insert([root])
        words = [set()] * (len(steps) - 1) + [{()}]
        for a in range(len(steps) - 2, -1, -1):
            words[a] = {u + (x,) for c, x in steps[a] for u in words[c]}
        assert words[0] == class_oracle.class_words(root), root


def _hook_eta_roots(k):
    """The corner children hook-eta reads at k: the children of the two
    corners of each hook tableau it checks, by ``reverse_insert``, their
    letters above the exit letter lowered by one, in the order met."""
    roots = {}
    for shape in partitions(k):
        if not is_hook(shape) or len(shape) < 3 or shape[0] < 3:
            continue
        for tab in standard_tableaux(shape):
            if {tab[0][-1], tab[-1][0]} == {k, k - 1}:
                for corner in corners(tab):
                    sub, x = reverse_insert(tab, corner)
                    roots.setdefault(tuple(tuple(y - (y > x) for y in row) for row in sub), None)
    return list(roots)


def _standard_count(n):
    """The standard tableaux of the sizes 0..n, the empty one included."""
    return 1 + sum(_hook_count(shape) for m in range(1, n + 1) for shape in partitions(m))


def test_bump_graph_is_the_reverse_insert_graph_on_an_empty_and_a_warm_table(monkeypatch):
    # every standard tableau of size <= 8, 200 seeded ones of size 9 and
    # 10, and hook-eta's corner children for k = 5..9, one graph each:
    # first on an empty step table, which grows by at most one entry per
    # standard tableau of the sizes reached, then on the table so filled,
    # which gains no entry
    rng = random.Random(34)
    cases = [tab for n in range(1, 9) for tab in all_standard_tableaux(n)]
    for _ in range(200):
        n = rng.randint(9, 10)
        cases.append(insertion_tableau(tuple(rng.sample(range(1, n + 1), n))))
    cases += [root for k in range(5, 10) for root in _hook_eta_roots(k)]
    expected = [_graph_by_reverse_insert([tab]) for tab in cases]
    monkeypatch.setattr(knuthclass, "_STEPS", {})
    reached = 0
    for tab, graph in zip(cases, expected):
        assert knuthclass._bump_graph(tab) == graph, tab
        reached = max(reached, size_of(tab))
        assert len(knuthclass._STEPS) <= _standard_count(reached)
    filled = dict(knuthclass._STEPS)
    assert len(filled) <= _standard_count(10) == 13_232
    for tab, graph in zip(cases, expected):
        assert knuthclass._bump_graph(tab) == graph, tab
    assert knuthclass._STEPS == filled


@pytest.mark.parametrize("k", range(5, 10))
def test_hook_eta_graph_has_the_reverse_insert_roots(monkeypatch, k):
    # hook-eta reads the step table below each corner child's transpose,
    # not below the child: the size k - 1 codes whose steps it reads are
    # the row codes of the transposes of the tuple-standardized children
    read = []
    code_steps = verify._code_steps

    def recorded(code):
        read.append(code)
        return code_steps(code)

    monkeypatch.setattr(verify, "_code_steps", recorded)
    assert verify_hook_eta(k).passed
    turned = [weakorder._row_code(transpose(root)) for root in _hook_eta_roots(k)]
    top = [code for code in read if size_of(knuthclass._code_rows(code)) == k - 1]
    assert sorted(top) == sorted(turned)


def test_a_step_table_entry_that_takes_another_letter_is_refused(monkeypatch):
    # an entry is checked when it is made, and kept only when it passes:
    # a kernel that names as its exit letter one the child still holds is
    # refused for the entry's tableau, and the table stays empty
    real = knuthclass._reverse_bump

    def held_exit(rows, r):
        sub, _ = real(rows, r)
        return sub, sub[0][0]

    monkeypatch.setattr(knuthclass, "_STEPS", {})
    monkeypatch.setattr(knuthclass, "_reverse_bump", held_exit)
    code = weakorder._row_code(parse_tableau("1,3/2,4"))
    message = "a reverse-bump step of 1,3/2,4 does not take exactly its letter 1"
    with pytest.raises(InvariantError) as info:
        knuthclass._code_steps(code)
    assert str(info.value) == message
    assert knuthclass._STEPS == {}
    monkeypatch.setattr(knuthclass, "_reverse_bump", real)
    assert knuthclass._code_steps(code) == knuthclass._STEPS[code]
    assert knuthclass._STEPS[code] == ((weakorder._row_code(parse_tableau("1,3/2")), 3),)
