"""``hopf.plactic_product`` (the factors' reverse-bump graphs walked
together, the words counted by insertion tableau through the lift's column
tables, suffix by suffix from the right, and terms checked by the total,
the hook-length count and the restriction to the factors) against the
literal product in ``product_oracle``, which row-inserts every shuffle
word: the same terms in the same order, also when a table or a graph is
broken and the product raises."""

import random

import pytest

import product_oracle as oracle
from conftest import broken_lift
import sytkit.hopf as hopf
import sytkit.knuthclass as knuthclass
import sytkit.tableau as tableau
import sytkit.weakorder as weakorder
from sytkit.hopf import plactic_product
from sytkit.permutation import CAPS, InvariantError
from sytkit.tableau import (
    _hook_count,
    all_standard_tableaux,
    format_tableau,
    partitions,
    standard_tableaux,
)


def pairs(n):
    """Every (left, right) pair of standard tableaux of total size n."""
    return [
        (left, right)
        for k in range(1, n)
        for left in all_standard_tableaux(k)
        for right in all_standard_tableaux(n - k)
    ]


def assert_same_product(left, right):
    got = plactic_product(left, right).terms
    expected = oracle.plactic_product(left, right).terms
    assert list(got.items()) == list(expected.items()), (
        format_tableau(left), format_tableau(right)
    )


@pytest.mark.parametrize("n", range(2, 8))
def test_every_product_matches_the_oracle(n):
    for left, right in pairs(n):
        assert_same_product(left, right)


# the products reach the lift's cap, and the oracle inserts words of n
# letters, which the word cap bounds
_SAMPLED_TOP = min(CAPS["lift"], CAPS["word"])


@pytest.mark.parametrize("n", range(8, _SAMPLED_TOP + 1))
def test_sampled_products_match_the_oracle(n):
    rng = random.Random(n)
    for left, right in rng.sample(pairs(n), 40):
        assert_same_product(left, right)
    if n == _SAMPLED_TOP:
        # the one-cell factor's two-node graph, the walk's smallest, as the
        # left factor and as the right one, at the top of both caps
        for tab in rng.sample(all_standard_tableaux(n - 1), 20):
            assert_same_product(tab, ((1,),))
            assert_same_product(((1,),), tab)


def test_the_product_makes_no_tableau_from_a_word(monkeypatch):
    expected = oracle.plactic_product(((1, 3), (2,)), ((1, 2, 4), (3,))).terms

    def refuse(*args):
        raise AssertionError("a shuffle word was inserted")

    monkeypatch.setattr(tableau, "insertion_tableau", refuse)
    monkeypatch.setattr(tableau, "insert", refuse)
    got = plactic_product(((1, 3), (2,)), ((1, 2, 4), (3,))).terms
    assert list(got.items()) == list(expected.items())


def test_a_broken_column_table_is_an_invariant_error(monkeypatch):
    # the smallest letter column-inserted into a row of two gives a row of
    # three (the word 123); made 1/2/3 instead, every term's count still
    # matches its hook count, and only the restriction to the factors
    # tells that the product of 1 and 1,2 is wrong
    shared = [list(table) for table in weakorder._size(3).tables]
    assert weakorder._size(3).nodes[shared[0][1]] == ((1, 2, 3),)
    monkeypatch.setattr(hopf, "_size", broken_lift(3, 0, 1, 0))
    with pytest.raises(InvariantError, match=r"^term 1/2/3 does not restrict to the two factors$"):
        plactic_product(((1,),), ((1, 2),))
    assert [list(table) for table in weakorder._SIZES[3].tables] == shared


def test_a_broken_column_table_never_gives_wrong_terms(monkeypatch):
    # each size-3 table entry changed to each other node in turn: every
    # product of total 3..6 raises or is right, and some raise
    shared = [list(table) for table in weakorder._size(3).tables]
    count = len(weakorder._size(3).nodes)
    products = [
        (left, right, list(oracle.plactic_product(left, right).terms.items()))
        for n in range(3, 7)
        for left, right in pairs(n)
    ]
    for x, table in enumerate(shared):
        for t, right_id in enumerate(table):
            for wrong in range(count):
                if wrong == right_id:
                    continue
                monkeypatch.setattr(hopf, "_size", broken_lift(3, x, t, wrong))
                raised = 0
                for left, right, expected in products:
                    try:
                        got = plactic_product(left, right).terms
                    except InvariantError:
                        raised += 1
                        continue
                    assert list(got.items()) == expected, (x, t, wrong, left, right)
                assert raised, (x, t, wrong)
    assert [list(table) for table in weakorder._SIZES[3].tables] == shared


def graph_changes(masks, steps):
    """Every change of one step of a reverse-bump graph, as (node, its new
    steps): the step dropped, taken twice, its exit letter set to each
    other letter of the tableau, or its child set to each other node of
    the same letters."""
    letters = [x for x in range(1, masks[0].bit_length()) if masks[0] >> x & 1]
    for a, out in enumerate(steps):
        for i, (c, x) in enumerate(out):
            before, after = out[:i], out[i + 1:]
            yield a, [*before, *after]
            yield a, [*out, out[i]]
            for y in letters:
                if y != x:
                    yield a, [*before, (c, y), *after]
            for d, mask in enumerate(masks):
                if d != c and mask == masks[c]:
                    yield a, [*before, (d, x), *after]


@pytest.mark.parametrize("side", [0, 1], ids=["left", "right"])
def test_a_broken_graph_never_gives_wrong_terms(monkeypatch, side):
    # each single change of one factor's graph against every product of
    # total 3..6 with that factor on that side: each raises or is right,
    # and only a step moved to another node of the same letters can be
    # right
    graph = knuthclass._bump_graph
    products = [
        (pair, list(oracle.plactic_product(*pair).terms.items()))
        for n in range(3, 7)
        for pair in pairs(n)
    ]
    changes = raised = 0
    for tab in {pair[side] for pair, _ in products}:
        masks, steps = graph(tab)
        for a, out in graph_changes(masks, steps):
            changes += 1
            changed = [*steps[:a], out, *steps[a + 1:]]
            monkeypatch.setattr(
                hopf, "_bump_graph", lambda rows: (masks, changed) if rows == tab else graph(rows)
            )
            for pair, expected in products:
                if pair[side] != tab:
                    continue
                try:
                    got = plactic_product(*pair).terms
                except InvariantError:
                    raised += 1
                    continue
                assert list(got.items()) == expected, (a, out, pair)
                assert len(out) == len(steps[a]) and {x for _, x in out} == {x for _, x in steps[a]}
    assert changes and raised


def riffles(a, b):
    """The riffles of a and b by their first letters: those starting with
    a's, then those starting with b's, as ``combinations`` orders the
    places of a."""
    if not a or not b:
        return [tuple(a) + tuple(b)]
    return [(a[0], *w) for w in riffles(a[1:], b)] + [(b[0], *w) for w in riffles(a, b[1:])]


@pytest.mark.parametrize("n", range(0, 10))
def test_interleavings_match_the_letter_loop(n):
    rng = random.Random(n)
    letters = list(range(1, n + 1))
    for k in range(n + 1):
        rng.shuffle(letters)
        a, b = tuple(letters[:k]), tuple(letters[k:])
        assert riffles(a, b) == oracle.interleavings(a, b), (a, b)


def test_interleavings_of_empty_and_one_letter_words():
    assert oracle.interleavings((), ()) == [()]
    assert oracle.interleavings((1,), ()) == [(1,)]
    assert oracle.interleavings((), (1,)) == [(1,)]
    assert oracle.interleavings((1,), (2,)) == [(1, 2), (2, 1)]
    assert oracle.interleavings([1], [2, 3]) == [(1, 2, 3), (2, 1, 3), (2, 3, 1)]


@pytest.mark.parametrize("n", range(0, 10))
def test_hook_count_is_the_number_of_standard_tableaux(n):
    for shape in partitions(n):
        assert _hook_count(shape) == len(standard_tableaux(shape)), shape
