"""The one-pass closure and reduction of ``weakorder._poset`` against
Tarjan's closure and the gap test in ``closure_oracle``: ``reach``, its
transpose and the covers must agree exactly, on the real lifted edges and
on random graphs whose numbering is a linear extension, their successor
lists shuffled and holding repeats and loops."""

import random

import pytest

import closure_oracle as oracle
import sytkit.weakorder as weakorder


def test_closure_makes_a_cycle_mutual():
    # a projected cycle is not assumed away: its members reach each other,
    # which verify_antisymmetry would report
    reach = oracle.closure([[1], [2], [0, 3], []])
    assert reach == [0b1111, 0b1111, 0b1111, 0b1000]


def _rows(p):
    return list(p.reach), list(oracle.transpose(p.reach)), list(p.covers)


@pytest.mark.parametrize("n", range(1, 10))
def test_one_pass_build_matches_the_oracle(n):
    nodes, succ = weakorder._lift_edges(n)
    want = oracle.close_and_reduce(succ)
    p = weakorder._poset(n, nodes, succ)
    assert weakorder._closure_fault(p) is None
    assert _rows(p) == want


def test_one_pass_build_matches_the_oracle_on_random_graphs():
    # every edge a -> b has a > b, as the lifted edges do; 127 of the 200
    # graphs have edges that are not covers (8624 of 12982 edges in all).
    # From a second generator, each list gets a repeat of about half its
    # successors, some lists a loop a -> a (5727 repeats and 1113 loops in
    # all), and each is shuffled: _poset sorts it and passes over both
    rng, noise = random.Random(11), random.Random(12)
    for _ in range(200):
        count = rng.randrange(1, 40)
        density = rng.choice((0.05, 0.2, 0.5))
        succ = [[b for b in range(a) if rng.random() < density] for a in range(count)]
        for a, links in enumerate(succ):
            links += noise.sample(links, len(links) // 2)
            if noise.random() < 0.3:
                links.append(a)
            noise.shuffle(links)
        want = oracle.close_and_reduce(succ)
        got = weakorder._poset(0, tuple(range(count)), [list(links) for links in succ])
        assert _rows(got) == want
