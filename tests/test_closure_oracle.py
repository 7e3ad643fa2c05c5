"""The one-pass closure and reduction of ``weakorder._poset`` against
Tarjan's closure and the gap test in ``closure_oracle``: ``reach``, its
transpose and the covers must agree exactly, on the real lifted edges and
on random graphs whose numbering is a linear extension."""

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
    nodes, edges = weakorder._lift_edges(n)
    p = weakorder._poset(n, nodes, edges)
    assert weakorder._closure_fault(p) is None
    assert _rows(p) == oracle.close_and_reduce(len(nodes), edges)


def test_one_pass_build_matches_the_oracle_on_random_graphs():
    # every edge a -> b has a > b, as the lifted edges do; 127 of the 200
    # graphs have edges that are not covers (8624 of 12982 edges in all)
    rng = random.Random(11)
    for _ in range(200):
        count = rng.randrange(1, 40)
        density = rng.choice((0.05, 0.2, 0.5))
        edges = sorted(
            a << 16 | b
            for a in range(count)
            for b in range(a)
            if rng.random() < density
        )
        got = weakorder._poset(0, tuple(range(count)), edges)
        assert _rows(got) == oracle.close_and_reduce(count, edges)
