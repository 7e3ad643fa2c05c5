import dataclasses
import os
import random
import re
import subprocess
import sys
from itertools import permutations

import pytest
from hypothesis import given
import hypothesis.strategies as st

import jdt_oracle as oracle
import sytkit.tableau as tableau
import move_oracle
import validator_oracle
from conftest import tableaux, words
from sytkit.permutation import InvariantError, ParseError, descents_left, evac_word
from sytkit.knuthclass import knuth_class
from sytkit.tableau import (
    SkewTableau,
    _dual_moves,
    _insertion_tableau,
    addable_cells,
    all_standard_tableaux,
    beside,
    check_partition,
    check_standard,
    check_tableau,
    corners,
    descent_set,
    dominance_leq,
    dual_knuth_move,
    evacuate,
    format_skew,
    format_tableau,
    inner_corners,
    inner_tableau,
    inner_translate,
    insert,
    insertion_tableau,
    is_hook,
    jdt_slide,
    jdt_slide_trace,
    over,
    parse_skew,
    parse_tableau,
    partitions,
    rectify,
    removable_cells,
    restrict,
    reverse_insert,
    row_word,
    rsk,
    shape_of,
    size_of,
    skew_from_json,
    skew_to_json,
    standard_tableaux,
    tableau_from_json,
    tableau_to_json,
    transpose,
)
from sytkit.weakorder import cached_poset
from word_oracle import dual_knuth_move_word, restrict_standardize


# --- shapes -----------------------------------------------------------------

def test_partitions_counts_and_order():
    assert partitions(4) == ((1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,))
    assert [len(partitions(n)) for n in range(1, 8)] == [1, 2, 3, 5, 7, 11, 15]


def test_standard_tableaux_counts():
    assert [len(all_standard_tableaux(n)) for n in range(1, 7)] == [1, 2, 4, 10, 26, 76]
    assert len(standard_tableaux((2, 1))) == 2
    assert len(standard_tableaux((3, 2))) == 5


def test_is_hook():
    assert is_hook((3, 1, 1))
    assert is_hook((4,))
    assert is_hook((1, 1, 1))
    assert not is_hook((2, 2))


def test_dominance():
    assert dominance_leq((2, 1), (2, 1))
    assert dominance_leq((1, 1, 1), (3,))
    assert not dominance_leq((3,), (1, 1, 1))
    with pytest.raises(ValueError):
        dominance_leq((2, 1), (2, 2))


def test_corner_cells():
    assert corners(parse_tableau("1,3,5/2/4")) == [(1, 3), (3, 1)]
    assert removable_cells((3, 3, 1)) == [(2, 3), (3, 1)]
    assert addable_cells((3, 1)) == [(1, 4), (2, 2), (3, 1)]


# --- validation, text and JSON forms ------------------------------------------

def test_check_standard_rejects():
    for bad in [((1, 3), (2, 4, 5)), ((1, 2), (2, 3)), ((2, 1),), ((1,), (2, 3))]:
        with pytest.raises(ValueError):
            check_standard(bad)


def _outcome(check, rows):
    try:
        return check(rows)
    except ValueError as exc:
        return type(exc), str(exc)


def _corrupted(tab, rng):
    """The tableau, its letters doubled, and one seeded corruption of each
    kind: a float, a bool, an entry out of range (n + 1, 0, negative, a
    repeat), two entries swapped, an empty row, the rows in reverse order
    and one row reversed."""
    n = size_of(tab)
    cells = [(r, c) for r, row in enumerate(tab) for c in range(len(row))]

    def put(value_of):
        r, c = rng.choice(cells)
        rows = [list(row) for row in tab]
        rows[r][c] = value_of(rows[r][c])
        return rows

    swapped = [list(row) for row in tab]
    (r, c), (s, d) = rng.sample(cells, 2) if n > 1 else (cells[0], cells[0])
    swapped[r][c], swapped[s][d] = swapped[s][d], swapped[r][c]
    r = rng.randrange(len(tab))
    return [
        tab,
        tuple(tuple(2 * x for x in row) for row in tab),
        put(float),
        put(lambda x: x == 1 or rng.random() < 0.5),
        put(lambda x: n + 1),
        put(lambda x: 0),
        put(lambda x: -x),
        put(lambda x: rng.randint(1, n)),
        swapped,
        [*tab[:r], (), *tab[r:]],
        tab[::-1],
        [*tab[:r], tab[r][::-1], *tab[r + 1:]],
    ]


def test_validators_match_the_old_ones():
    # the one-pass validators against the row-by-row ones they replace,
    # every message and its precedence, on every standard tableau of size
    # <= 9, at most 16 per shape, each seeded corruption of it, and inputs
    # that are no tableau at all; every message is met
    rng = random.Random(34)
    messages = set()
    cases = [(), [], 5, [1, 2], "12", [[1, 2], 3], [(1,), None], [[1.0]], [[True]]]
    for n in range(1, 10):
        for shape in partitions(n):
            for tab in standard_tableaux(shape)[:16]:
                cases += _corrupted(tab, rng)
    for new, old in [
        (check_standard, validator_oracle.check_standard),
        (check_tableau, validator_oracle.check_tableau),
    ]:
        for rows in cases:
            outcome = _outcome(new, rows)
            assert outcome == _outcome(old, rows), rows
            if type(outcome) is tuple and outcome[0] is ValueError:
                messages.add(re.sub(r"[:,] .*|[0-9]+", "", outcome[1]))
    assert len(cases) > 10_000
    assert messages == {
        "a tableau is a sequence of rows",
        "tableau entries must be integers",
        "tableau must have nonempty rows",
        "partition parts must be weakly decreasing",
        "entries must be exactly ..",
        "entries must be positive",
        "entries must be distinct",
        "row not increasing",
        "column  not increasing",
    }


def test_parse_format_roundtrip():
    text = "1,3/2,4/5"
    assert format_tableau(parse_tableau(text)) == text
    with pytest.raises(ParseError) as err:
        parse_tableau("1,3/2,x/5")
    assert err.value.position == 6


@pytest.mark.parametrize(
    "parse, text, position",
    [
        (parse_tableau, "1,\u0662/3", 2),
        (parse_tableau, "1,2/\u00b3", 4),
        (parse_skew, ".,\u00b2/1", 2),
        (parse_skew, ".,2/\uff11", 4),
    ],
    ids=["tableau-arabic-indic", "tableau-superscript", "skew-superscript", "skew-fullwidth"],
)
def test_grid_literals_take_ascii_digits_only(parse, text, position):
    # an entry of other digits is refused at its token, as a ParseError,
    # not read as a number nor left to int's bare ValueError
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.position == position


def test_json_roundtrip():
    tab = parse_tableau("1,3/2,4/5")
    assert tableau_from_json(tableau_to_json(tab)) == tab
    skew = parse_skew(".,.,4/.,2,5/1,3")
    assert skew_from_json(skew_to_json(skew)) == skew
    assert skew_to_json(skew)["rows"][0] == [None, None, 4]


# --- insertion ------------------------------------------------------------------

def test_rsk_goldens():
    insertion, recording = rsk((5, 2, 4, 1, 3))
    assert format_tableau(insertion) == "1,3/2,4/5"
    assert format_tableau(recording) == "1,3/2,5/4"
    assert rsk((1, 2, 3)) == (((1, 2, 3),), ((1, 2, 3),))
    assert rsk((3, 2, 1)) == (((1,), (2,), (3,)), ((1,), (2,), (3,)))


def test_rsk_is_a_bijection_n4():
    seen = {}
    for u in permutations(range(1, 5)):
        pair = rsk(u)
        assert shape_of(pair[0]) == shape_of(pair[1])
        assert pair not in seen
        seen[pair] = u
    assert len(seen) == 24


def test_rsk_is_a_bijection_n7():
    # 5040 distinct (P, Q) pairs, f^lambda squared of each shape, and
    # the squares add up to 7!
    pairs = {rsk(u) for u in permutations(range(1, 8))}
    assert len(pairs) == 5040
    per_shape = {}
    for insertion, recording in pairs:
        assert shape_of(insertion) == shape_of(recording)
        per_shape[shape_of(insertion)] = per_shape.get(shape_of(insertion), 0) + 1
    squares = {s: len(standard_tableaux(s)) ** 2 for s in partitions(7)}
    assert per_shape == squares
    assert sum(squares.values()) == 5040


def test_same_shape_pair_count_recovers_factorial():
    from math import factorial

    for n in range(1, 7):
        total = sum(len(standard_tableaux(s)) ** 2 for s in partitions(n))
        assert total == factorial(n)


@given(words())
def test_rsk_output_is_standard(u):
    insertion, recording = rsk(u)
    check_standard(insertion)
    check_standard(recording)


# --- reverse insertion ------------------------------------------------------------

def test_reverse_insert_hook_golden():
    hook = parse_tableau("1,3,5/2/4")
    up, eta = reverse_insert(hook, (1, 3))
    assert eta == 5 and up == parse_tableau("1,3/2/4")
    up, eta = reverse_insert(hook, (3, 1))
    # ejecting 1 leaves a partial (not standard) tableau on {2,3,4,5}
    assert eta == 1 and up == ((2, 3, 5), (4,))


def test_reverse_insert_rejects_non_corner():
    with pytest.raises(ValueError):
        reverse_insert(parse_tableau("1,3/2,4/5"), (1, 1))


def test_reverse_insert_rejects_a_decreasing_row():
    with pytest.raises(ValueError, match="row not increasing"):
        reverse_insert(((3, 1), (2,)), (2, 1))


def test_reverse_insert_rejects_a_decreasing_column():
    with pytest.raises(ValueError, match="column 2 not increasing"):
        reverse_insert(((1, 5), (3, 4)), (2, 2))


def test_reverse_insert_rejects_repeated_and_nonpositive_letters():
    with pytest.raises(ValueError, match="distinct"):
        reverse_insert(((1, 2), (2,)), (2, 1))
    with pytest.raises(ValueError, match="positive"):
        reverse_insert(((0, 2), (3,)), (2, 1))


def test_reverse_insert_on_other_letters():
    tab = ((2, 5), (7,))
    assert reverse_insert(tab, (2, 1)) == (((2, 7),), 5)
    assert reverse_insert(tab, (1, 2)) == (((2,), (7,)), 5)
    assert _insertion_tableau((2, 7, 5)) == tab  # the public form takes permutations only


@pytest.mark.parametrize(
    "word, message",
    [
        ((1, 1), r"not a permutation of 1\.\.2: \(1, 1\)"),
        ((1.5, 2), "word letters must be integers, got 1.5"),
        ((True,), "word letters must be integers, got True"),
        ((), "empty word"),
        ((2, 7, 5), "not a permutation of 1..3"),
    ],
)
def test_insertion_tableau_checks_its_word(word, message):
    with pytest.raises(ValueError, match=message):
        insertion_tableau(word)


def test_insert_and_evacuate_check_no_word(monkeypatch):
    # their words are made from checked tableaux, and insert's may hold
    # any distinct letters: both call the unchecked kernel
    def refuse(word):
        raise AssertionError("a word was checked")

    monkeypatch.setattr(tableau, "check_word", refuse)
    assert insert(((2, 5), (7,)), 3) == ((2, 3), (5,), (7,))
    assert evacuate(((1, 2), (3,))) == ((1, 3), (2,))
    with pytest.raises(AssertionError, match="a word was checked"):
        insertion_tableau((2, 1))


def test_reverse_insert_then_insert_is_identity_n5():
    for tab in all_standard_tableaux(5):
        for corner in corners(tab):
            up, eta = reverse_insert(tab, corner)
            assert insert(up, eta) == tab


def test_reverse_insert_exit_matches_class_words():
    tab = parse_tableau("1,3/2,4/5")
    up, eta = reverse_insert(tab, (3, 1))
    matching = [w for w in knuth_class(tab).words
                if w[-1] == eta and _insertion_tableau(w[:-1]) == up]
    assert matching


def test_insert_rejects_a_tableau_that_is_not_increasing():
    with pytest.raises(ValueError, match="row not increasing"):
        insert(((3, 1), (2,)), 4)


def test_insert_rejects_a_nonpositive_letter():
    with pytest.raises(ValueError, match="positive integer"):
        insert(((1, 3), (2,)), 0)


def test_insert_rejects_a_letter_already_present():
    with pytest.raises(ValueError, match="already in the tableau"):
        insert(((1, 3), (2,)), 3)


def test_insert_into_the_empty_tableau():
    up, eta = reverse_insert(((4,),), (1, 1))
    assert (up, eta) == ((), 4)
    assert insert(up, eta) == ((4,),)


def test_insert_undoes_reverse_insert_on_other_letters():
    tab = ((2, 5), (7,))
    for corner in corners(tab):
        up, eta = reverse_insert(tab, corner)
        assert insert(up, eta) == tab


# --- row word -----------------------------------------------------------------------

def test_row_word_goldens():
    assert row_word(parse_tableau("1,3/2,4/5")) == (5, 2, 4, 1, 3)
    assert row_word(((1, 2, 3),)) == (1, 2, 3)
    assert row_word(parse_tableau("1,2,5/3,4")) == (3, 4, 1, 2, 5)


@given(tableaux())
def test_row_word_inserts_back(tab):
    assert insertion_tableau(row_word(tab)) == tab


# --- jeu de taquin -------------------------------------------------------------------

P_TEXT = ".,.,4/.,2,5/1,3"
Q_TEXT = ".,2,4/.,3,5/1"


def test_jdt_forward_golden_move_for_move():
    moved, trace = jdt_slide_trace(parse_skew(P_TEXT), (1, 2), "forward")
    assert format_skew(moved) == Q_TEXT
    assert [t[0] for t in trace] == [(1, 2), (2, 2), (3, 2)]
    assert trace[0][1] == ((None, None, 4), (None, 2, 5), (1, 3))
    assert trace[1][1] == ((None, 2, 4), (None, None, 5), (1, 3))
    assert trace[2][1] == ((None, 2, 4), (None, 3, 5), (1, None))


def test_jdt_backward_golden_move_for_move():
    moved, trace = jdt_slide_trace(parse_skew(Q_TEXT), (3, 2), "backward")
    assert format_skew(moved) == P_TEXT
    assert [t[0] for t in trace] == [(3, 2), (2, 2), (1, 2)]
    assert trace[0][1] == ((None, 2, 4), (None, 3, 5), (1, None))
    assert trace[1][1] == ((None, 2, 4), (None, None, 5), (1, 3))
    assert trace[2][1] == ((None, None, 4), (None, 2, 5), (1, 3))


def _corrupt_skew(outer, inner, rows):
    """A SkewTableau that skips validation, to break jdt's invariants."""
    skew = object.__new__(SkewTableau)
    object.__setattr__(skew, "outer", outer)
    object.__setattr__(skew, "inner", inner)
    object.__setattr__(skew, "rows", rows)
    return skew


@pytest.mark.parametrize(
    "outer, inner, rows, hole, direction, message",
    [
        ((3,), (1,), ((None, None, 3),), (1, 1), "forward", "inside row 1"),
        ((1, 1), (1,), ((None,), (None,)), (1, 1), "forward", "not the last row"),
        ((2,), (), ((None, 2),), (1, 3), "backward", "not next to the inner"),
    ],
)
def test_jdt_broken_invariant_is_not_a_value_error(
    outer, inner, rows, hole, direction, message
):
    skew = _corrupt_skew(outer, inner, rows)
    with pytest.raises(InvariantError, match=message) as info:
        jdt_slide_trace(skew, hole, direction)
    assert not isinstance(info.value, ValueError)


def test_jdt_invariant_check_survives_optimize():
    code = (
        "from sytkit.tableau import SkewTableau, jdt_slide\n"
        "from sytkit.permutation import InvariantError\n"
        "t = object.__new__(SkewTableau)\n"
        "for k, v in (('outer', (3,)), ('inner', (1,)), ('rows', ((None, None, 3),))):\n"
        "    object.__setattr__(t, k, v)\n"
        "try:\n"
        "    jdt_slide(t, (1, 1), 'forward')\n"
        "except InvariantError:\n"
        "    print('raised')\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert out.stdout == "raised\n", out.stderr


def test_jdt_rejects_bad_holes():
    skew = parse_skew(P_TEXT)
    with pytest.raises(ValueError):
        jdt_slide(skew, (1, 1), "forward")  # inner but not removable
    with pytest.raises(ValueError):
        jdt_slide(skew, (2, 2), "forward")  # occupied
    with pytest.raises(ValueError):
        jdt_slide(skew, (1, 2), "backward")  # not addable outside
    with pytest.raises(ValueError):
        jdt_slide(skew, (1, 2), "sideways")


@given(words(min_n=2, max_n=6), st.data())
def test_jdt_forward_backward_roundtrip(u, data):
    tab = insertion_tableau(u)
    n = size_of(tab)
    if n < 2:
        return
    i = data.draw(st.integers(min_value=2, max_value=n), label="cut")
    skew_rows = []
    for row in tab:
        cut = sum(1 for x in row if x < i)
        kept = tuple(x for x in row if x >= i)
        if cut or kept:
            skew_rows.append((None,) * cut + kept)
    skew = SkewTableau.from_rows(tuple(skew_rows))
    from sytkit.tableau import inner_corners

    holes = inner_corners(skew)
    if not holes:
        return
    hole = data.draw(st.sampled_from(holes), label="hole")
    moved, trace = jdt_slide_trace(skew, hole, "forward")
    exit_cell = trace[-1][0]
    assert jdt_slide(moved, exit_cell, "backward") == skew


def _all_skew_fillings(max_cells: int):
    """Every standard filling of every skew shape on at most max_cells cells."""
    out = []
    for total in range(1, max_cells + 1):
        for outer in partitions(total):
            inners = {()}
            for mu in partitions_below(outer):
                inners.add(mu)
            for mu in sorted(inners):
                cells = [
                    (r, c)
                    for r in range(len(outer))
                    for c in range((mu[r] if r < len(mu) else 0), outer[r])
                ]
                if not cells:
                    continue
                for filling in _standard_fillings(outer, mu, cells):
                    out.append(filling)
    return out


def partitions_below(outer):
    """All partitions contained in the given one (the possible inner shapes)."""
    rows = len(outer)

    def gen(r, cap):
        if r == rows:
            yield ()
            return
        for first in range(min(outer[r], cap), -1, -1):
            for rest in gen(r + 1, first):
                yield (first,) + rest

    for mu in gen(0, outer[0]):
        trimmed = tuple(x for x in mu if x)
        if sum(trimmed) < sum(outer):
            yield trimmed


def _standard_fillings(outer, mu, cells):
    """Fill the listed cells with 1..m increasing along rows and columns."""
    m = len(cells)
    grid = {c: None for c in cells}
    fillings = []

    def ok(cell, value):
        r, c = cell
        left = grid.get((r, c - 1), "absent")
        above = grid.get((r - 1, c), "absent")
        if left is None or above is None:
            return False  # fill order: a smaller value must come first
        if left != "absent" and left > value:
            return False
        if above != "absent" and above > value:
            return False
        return True

    def fill(value):
        if value > m:
            rows = []
            for r in range(len(outer)):
                row = []
                for c in range(outer[r]):
                    row.append(grid.get((r, c), None) if (r, c) in grid else None)
                rows.append(tuple(row))
            fillings.append(SkewTableau.from_rows(tuple(rows)))
            return
        for cell in cells:
            if grid[cell] is None and ok(cell, value):
                grid[cell] = value
                fill(value + 1)
                grid[cell] = None

    fill(1)
    return fillings


def _rectify_all_orders(skew):
    from sytkit.tableau import inner_corners

    results = set()

    def walk(cur):
        holes = inner_corners(cur)
        if not holes:
            results.add(tuple(tuple(x for x in row) for row in cur.rows))
            return
        for hole in holes:
            walk(jdt_slide(cur, hole, "forward"))

    walk(skew)
    return results


def test_rectification_is_slide_order_independent_small():
    fillings = _all_skew_fillings(5)
    assert fillings
    for skew in fillings:
        results = _rectify_all_orders(skew)
        assert len(results) == 1
        assert rectify(skew) == next(iter(results))


def _candidate_holes(skew):
    """Every cell of the bounding box one step past the outer shape."""
    rows = len(skew.outer) + 1
    cols = (skew.outer[0] if skew.outer else 0) + 1
    return [(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]


def test_slides_match_the_oracle_on_every_small_filling():
    legal = 0
    for skew in _all_skew_fillings(6):
        for direction, holes in (
            ("forward", inner_corners(skew)),
            ("backward", addable_cells(skew.outer)),
        ):
            for hole in _candidate_holes(skew):
                if hole not in holes:
                    with pytest.raises(ValueError):
                        oracle.jdt_slide_trace(skew, hole, direction)
                    with pytest.raises(ValueError):
                        jdt_slide(skew, hole, direction)
                    continue
                legal += 1
                want, want_trace = oracle.jdt_slide_trace(skew, hole, direction)
                assert jdt_slide_trace(skew, hole, direction) == (want, want_trace)
                assert jdt_slide(skew, hole, direction) == want
        assert rectify(skew) == oracle.rectify(skew)
    assert legal == 1912


def test_slide_results_built_unchecked_equal_the_validated_ones():
    # a slide's result is built from the kernel's grid and inner shape
    # without validation; from_rows of the same grid must agree with it,
    # field for field, on every small filling and legal hole
    legal = 0
    for skew in _all_skew_fillings(6):
        for direction, holes in (
            ("forward", inner_corners(skew)),
            ("backward", addable_cells(skew.outer)),
        ):
            for hole in holes:
                legal += 1
                grid = [list(row) for row in skew.rows]
                inner = list(skew._inner_padded())
                tableau._slide(grid, inner, hole, direction == "forward")
                want = SkewTableau.from_rows(grid)
                got = SkewTableau._trusted(grid, inner)
                assert (got.outer, got.inner, got.rows) == (want.outer, want.inner, want.rows)
                assert repr(got) == repr(want)
                assert jdt_slide(skew, hole, direction) == want
    assert legal == 1912


def test_restrict_matches_the_oracle_n7():
    for n in range(2, 8):
        for tab in all_standard_tableaux(n):
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    assert restrict(tab, i, j) == oracle.restrict(tab, i, j)


def test_rectify_normal_tableau_is_identity():
    tab = parse_tableau("1,3/2,4/5")
    assert rectify(SkewTableau.from_tableau(tab)) == tab


# --- skew tableaux from their rows ---------------------------------------------------

def _old_shapes(rows):
    """The outer and inner shapes as they were once passed in beside the
    rows: row lengths, and leading gaps with trailing zeros trimmed."""
    outer = tuple(len(row) for row in rows)
    inner = [next((c for c, x in enumerate(row) if x is not None), len(row)) for row in rows]
    while inner and inner[-1] == 0:
        inner.pop()
    return outer, tuple(inner)


def test_skew_constructor_is_from_rows():
    rows = ((None, None, 4), (None, 2, 5), (1, 3))
    t = SkewTableau(rows)
    assert t == SkewTableau.from_rows(rows)
    assert (t.outer, t.inner, t.rows) == ((3, 3, 2), (2, 1), rows)
    assert hash(t) == hash(parse_skew(P_TEXT))


def test_skew_rows_come_back_as_tuples():
    t = SkewTableau([[None, 2], [1]])
    assert t.rows == ((None, 2), (1,))
    assert t == parse_skew(".,2/1")


def test_skew_replace_derives_both_shapes_again():
    t = parse_skew(P_TEXT)
    moved = dataclasses.replace(t, rows=((None, 2, 4), (None, 3, 5), (1,)))
    assert (moved.outer, moved.inner) == ((3, 3, 1), (1, 1))
    assert moved == parse_skew(Q_TEXT)
    with pytest.raises(ValueError, match="column 2 not increasing"):
        dataclasses.replace(t, rows=((None, 5), (None, 2)))


def test_skew_shapes_match_the_old_derivation_on_every_small_filling():
    fillings = _all_skew_fillings(6)
    assert fillings
    for t in fillings:
        assert (t.outer, t.inner) == _old_shapes(t.rows)


def test_skew_rejects_a_gap_after_an_entry():
    with pytest.raises(ValueError, match="gap pattern of row 2 disagrees with the inner shape"):
        SkewTableau(((None, 1), (2, None)))
    with pytest.raises(ParseError, match="gap pattern of row 1"):
        parse_skew("1,.,2")


def test_skew_rejects_an_entry_that_is_not_an_integer():
    with pytest.raises(ValueError, match="entry 'x' is not a positive integer"):
        SkewTableau(((None, "x"),))


@pytest.mark.parametrize(
    "make",
    [
        lambda: skew_from_json({"rows": [[None, 1.5], [2.5]]}),
        lambda: SkewTableau(((None, "3"), ("2",))),
        lambda: SkewTableau(((None, 3), (-1,))),
        lambda: SkewTableau(((None, 3), (0,))),
        lambda: SkewTableau(((None, True), (2,))),
    ],
    ids=["float", "string", "negative", "zero", "bool"],
)
def test_skew_rejects_an_entry_that_is_not_a_positive_int(make):
    with pytest.raises(ValueError, match="is not a positive integer"):
        make()


# --- restriction -----------------------------------------------------------------------

def test_restrict_goldens():
    tab = insertion_tableau((5, 2, 4, 1, 3))
    assert restrict(tab, 2, 5) == parse_tableau("1,2/3/4")
    assert restrict(tab, 1, 5) == tab
    with pytest.raises(ValueError):
        restrict(tab, 0, 3)


@given(words(min_n=2, max_n=6), st.data())
def test_restrict_commutes_with_insertion(u, data):
    i, j = data.draw(
        st.tuples(st.integers(1, len(u) - 1), st.integers(2, len(u))).filter(
            lambda ij: ij[0] < ij[1]
        ),
        label="segment",
    )
    assert restrict(insertion_tableau(u), i, j) == insertion_tableau(
        restrict_standardize(u, i, j)
    )


@given(tableaux(min_n=2), st.data())
def test_inner_tableau_is_initial_restriction(tab, data):
    n = size_of(tab)
    k = data.draw(st.integers(min_value=2, max_value=n), label="k")
    expected = inner_tableau(tab, k)
    if k < n:
        assert restrict(tab, 1, k) == expected
    check_standard(expected)
    assert size_of(expected) == k


# --- transpose / evacuate ------------------------------------------------------------------

def test_transpose_golden():
    assert transpose(parse_tableau("1,3/2,4/5")) == parse_tableau("1,2,5/3,4")


def test_evacuate_golden():
    assert evacuate(insertion_tableau((5, 2, 4, 1, 3))) == insertion_tableau(
        (3, 5, 2, 4, 1)
    )


def test_evacuate_involution_n5():
    for tab in all_standard_tableaux(5):
        assert evacuate(evacuate(tab)) == tab
        assert transpose(transpose(tab)) == tab


@given(words(max_n=6))
def test_symmetries_through_words(u):
    assert transpose(insertion_tableau(u)) == insertion_tableau(u[::-1])
    assert evacuate(insertion_tableau(u)) == insertion_tableau(evac_word(u))


# --- descents -------------------------------------------------------------------------------

def test_descent_set_goldens():
    assert descent_set(((1, 2, 3, 4),)) == frozenset()
    assert descent_set(((1,), (2,), (3,))) == frozenset({1, 2})
    assert descent_set(parse_tableau("1,2,4/3,5,6")) == frozenset({2, 4})


def test_descent_set_matches_class_words():
    tab = parse_tableau("1,3/2,4/5")
    expected = descent_set(tab)
    assert expected == frozenset({1, 3, 4})
    for w in knuth_class(tab).words:
        assert descents_left(w) == expected


@given(words(max_n=6))
def test_descent_set_equals_word_descents(u):
    assert descent_set(insertion_tableau(u)) == descents_left(u)


# --- dual Knuth moves on tableaux --------------------------------------------------------------

def test_dual_knuth_move_goldens():
    assert dual_knuth_move(parse_tableau("1,2,4/3,5,6"), 3) == parse_tableau(
        "1,2,3/4,5,6"
    )
    assert dual_knuth_move(parse_tableau("1,2,4/3,6/5"), 3) == parse_tableau(
        "1,2,5/3,6/4"
    )


def test_dual_knuth_move_preconditions():
    tab = parse_tableau("1,2,3/4,5,6")  # descents {3}
    with pytest.raises(ValueError):
        dual_knuth_move(tab, 1)  # neither 1 nor 2 is a descent
    column = parse_tableau("1/2/3/4")  # descents {1, 2, 3}
    with pytest.raises(ValueError):
        dual_knuth_move(column, 1)  # both 1 and 2 are descents
    with pytest.raises(ValueError):
        dual_knuth_move(tab, 10)  # out of range
    assert shape_of(dual_knuth_move(tab, 2)) == (3, 3)  # exactly one: fine


_SMALL = ((1, 2), (3,))
_SKEW = SkewTableau.from_rows(((None, 1), (2,)))  # inner corner (1, 1), outer (1, 3), (2, 2)


@pytest.mark.parametrize(
    "call, args",
    [
        (restrict, (_SMALL, 1.5, 3)),
        (restrict, (_SMALL, 1, 3.0)),
        (restrict, (_SMALL, True, 3)),
        (restrict_standardize, ((2, 1, 3), 1.5, 3)),
        (restrict_standardize, ((2, 1, 3), 1, "3")),
        (inner_tableau, (_SMALL, 2.0)),
        (inner_tableau, (_SMALL, True)),
        (dual_knuth_move, (((1, 2, 3), (4, 5, 6)), 2.0)),
        (dual_knuth_move_word, ((1, 3, 2), 1.0)),
        (lambda node: cached_poset(3).node_id(node), (True,)),
        (lambda node: cached_poset(3).node_id(node), (False,)),
        (partitions, (True,)),
        (partitions, (2.0,)),
        (all_standard_tableaux, (True,)),
        (all_standard_tableaux, (2.0,)),
        (jdt_slide, (_SKEW, (1.0, 1), "forward")),
        (jdt_slide, (_SKEW, (True, 1), "forward")),
        (jdt_slide, (_SKEW, (1, 3.0), "backward")),
        (jdt_slide_trace, (_SKEW, (1.0, 1), "forward")),
        (jdt_slide_trace, (_SKEW, (True, 3), "backward")),
        (reverse_insert, (_SMALL, (1.0, 2))),
        (reverse_insert, (_SMALL, (2, True))),
    ],
    ids=[
        "restrict-float-i", "restrict-float-j", "restrict-bool",
        "restrict_standardize-float", "restrict_standardize-str",
        "inner_tableau-float", "inner_tableau-bool", "dual_knuth_move-float",
        "dual_knuth_move_word-float", "node_id-True", "node_id-False",
        "partitions-True", "partitions-float", "all_standard_tableaux-True",
        "all_standard_tableaux-float", "jdt_slide-forward-float", "jdt_slide-forward-bool",
        "jdt_slide-backward-float", "jdt_slide_trace-forward-float",
        "jdt_slide_trace-backward-bool", "reverse_insert-float", "reverse_insert-bool",
    ],
)
def test_integer_arguments_refuse_non_ints(call, args):
    with pytest.raises(ValueError, match="must be an integer"):
        call(*args)


@pytest.mark.parametrize(
    "rows, entry",
    [
        (((1.5, 2.2),), "1.5"),
        (((True, 2),), "True"),
        (((1, 2), (3.0,)), "3.0"),
        ((("1", 2),), "'1'"),
    ],
    ids=["float", "bool", "integral-float", "str"],
)
def test_tableau_entries_refuse_non_ints(rows, entry):
    # the entries are not coerced: ((1.5, 2.2),) once came back as ((1, 2),)
    for check in (check_standard, check_tableau):
        with pytest.raises(ValueError, match=f"tableau entries must be integers, got {re.escape(entry)}$"):
            check(rows)


@pytest.mark.parametrize(
    "call, args, part",
    [
        (check_partition, ((2.5, 1),), "2.5"),
        (check_partition, ((True, True),), "True"),
        (check_partition, ((2, 1.0),), "1.0"),
        (check_partition, (("2", 1),), "'2'"),
        (dominance_leq, ((2, 1), (2.0, 1)), "2.0"),
        (dominance_leq, ((True, 1), (2,)), "True"),
        (standard_tableaux, ((2.5, 1),), "2.5"),
        (is_hook, ((3, True),), "True"),
    ],
    ids=[
        "float", "bool", "integral-float", "str", "dominance_leq-float",
        "dominance_leq-bool", "standard_tableaux-float", "is_hook-bool",
    ],
)
def test_partition_parts_refuse_non_ints(call, args, part):
    # the parts are not coerced: (2.5, 1) once came back as (2, 1) and
    # (True, True) as (1, 1)
    with pytest.raises(ValueError, match=f"partition parts must be integers, got {re.escape(part)}$"):
        call(*args)


def test_node_id_refuses_a_tableau_of_non_ints():
    p = cached_poset(3)
    with pytest.raises(ValueError, match="tableau entries must be integers, got 1.5"):
        p.node_id(((1.5, 2), (3,)))
    with pytest.raises(ValueError, match="a tableau is a sequence of rows, got 1.5"):
        p.node_id(1.5)


def test_dual_knuth_move_preserves_shape_n5():
    for tab in all_standard_tableaux(5):
        des = descent_set(tab)
        for i in range(1, 4):
            if (i in des) != ((i + 1) in des):
                moved = dual_knuth_move(tab, i)
                assert shape_of(moved) == shape_of(tab)
                moved_des = descent_set(moved)
                assert (i in moved_des) != (i in des)
                assert dual_knuth_move(moved, i) == tab


@pytest.mark.parametrize("n", range(1, 11))
def test_dual_moves_match_the_word_route(n):
    # the entry exchange against row word -> dual Knuth rewrite -> insertion,
    # move for move and in order, on every standard tableau of size n
    for tab in all_standard_tableaux(n):
        assert _dual_moves(tab) == move_oracle.dual_moves(tab)


# --- inner translation ---------------------------------------------------------------------------

def test_inner_translate_identity_and_golden():
    tab = parse_tableau("1,2,4/3,5,6")
    sub = parse_tableau("1,2,4/3")
    assert inner_tableau(tab, 4) == sub
    assert inner_translate(tab, sub, sub) == tab
    moved_sub = dual_knuth_move(sub, 2)
    assert moved_sub == parse_tableau("1,2,3/4")
    translated = inner_translate(tab, sub, moved_sub)
    assert translated == parse_tableau("1,2,3/4,5,6")
    assert inner_translate(translated, moved_sub, sub) == tab


def test_inner_translate_errors():
    tab = parse_tableau("1,2,4/3,5,6")  # restricts to 1,2/3 at k=3
    with pytest.raises(ValueError):
        inner_translate(tab, parse_tableau("1,3/2"), parse_tableau("1,2/3"))
    with pytest.raises(ValueError):
        inner_translate(tab, parse_tableau("1,2,4/3"), parse_tableau("1,2/3,4"))


# --- row/column concatenations --------------------------------------------------------------------

def test_beside_and_over_goldens():
    left = parse_tableau("1,2/3")
    right = parse_tableau("1/2")
    assert beside(left, right) == parse_tableau("1,2,4/3,5")
    assert over(left, right) == parse_tableau("1,2/3/4/5")


def test_over_single_cell_adds_bottom_row():
    left = parse_tableau("1,2/3")
    assert over(left, ((1,),)) == parse_tableau("1,2/3/4")


@given(tableaux(max_n=4), tableaux(max_n=3))
def test_beside_over_transpose_duality(a, b):
    assert over(a, b) == transpose(beside(transpose(a), transpose(b)))
    check_standard(beside(a, b))
    check_standard(over(a, b))
