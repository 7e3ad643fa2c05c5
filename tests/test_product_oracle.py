"""``hopf.plactic_product`` (each factor class listed once, terms checked by
the hook-length count, riffles from cached index tables) against the
literal product in ``product_oracle``: the same terms in the same order."""

import random

import pytest

import product_oracle as oracle
from sytkit.hopf import MAX_PRODUCT_SIZE, plactic_product
from sytkit.permutation import interleavings
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


@pytest.mark.parametrize("n", range(8, MAX_PRODUCT_SIZE + 1))
def test_sampled_products_match_the_oracle(n):
    rng = random.Random(n)
    for left, right in rng.sample(pairs(n), 40):
        assert_same_product(left, right)


@pytest.mark.parametrize("n", range(0, 10))
def test_interleavings_match_the_letter_loop(n):
    rng = random.Random(n)
    letters = list(range(1, n + 1))
    for k in range(n + 1):
        rng.shuffle(letters)
        a, b = tuple(letters[:k]), tuple(letters[k:])
        assert interleavings(a, b) == oracle.interleavings(a, b), (a, b)


def test_interleavings_of_empty_and_one_letter_words():
    assert interleavings((), ()) == [()]
    assert interleavings((1,), ()) == [(1,)]
    assert interleavings((), (1,)) == [(1,)]
    assert interleavings((1,), (2,)) == [(1, 2), (2, 1)]
    assert interleavings([1], [2, 3]) == oracle.interleavings([1], [2, 3])


@pytest.mark.parametrize("n", range(0, 10))
def test_hook_count_is_the_number_of_standard_tableaux(n):
    for shape in partitions(n):
        assert _hook_count(shape) == len(standard_tableaux(shape)), shape
