"""The relation checks, mask tests through one kernel, against the
pair-by-pair oracle in ``relation_oracle``: ``checked`` and the violation
lists must agree entry for entry, in order, on the real orders and on
broken ones where the lists are not empty.  On the same broken orders,
intervals and induced covers against ``reach`` and its transpose."""

import dataclasses
import random

import pytest

import relation_oracle as oracle
import sytkit.verify as verify
from closure_oracle import gap_covers, transpose
from sytkit.permutation import InvariantError
from sytkit.tableau import format_tableau, shape_of
from sytkit.weakorder import (
    _bits,
    _closure_fault,
    _unpreserved,
    cached_poset,
    check_monotone_descent,
    check_monotone_shape,
    induced_covers,
    interval,
)
from test_verify import _non_transitive, _relations, _self_loop, _thinned, _unreduced


def _outcome(report):
    return report.checked, report.violations


def _compare(monkeypatch, posets: dict) -> dict:
    """Run every relation check on ``posets`` (size -> order; the largest is
    the one checked, the smaller ones are restriction targets) and its
    oracle; return the new reports by check."""
    monkeypatch.setattr(verify, "cached_poset", lambda m: posets[m])
    n = max(posets)
    p = posets[n]
    got = {
        "antisymmetry": verify.verify_antisymmetry(n),
        "restriction": verify.verify_restriction_monotone(n),
        "evac-transpose": verify.verify_evac_transpose_monotone(n),
        "descent": check_monotone_descent(p),
        "shape": check_monotone_shape(p),
    }
    assert _outcome(got["antisymmetry"]) == oracle.antisymmetry(p)
    assert _outcome(got["restriction"]) == oracle.restriction_monotone(p, posets)
    assert _outcome(got["evac-transpose"]) == oracle.evac_transpose_monotone(p)
    assert _outcome(got["descent"]) == oracle.monotone_descent(p)
    assert _outcome(got["shape"]) == oracle.monotone_shape(p)
    if n == 6:
        report = verify.verify_inner_translation_fails()
        checked, found = oracle.single_triple_failures(p)
        assert report.checked == checked
        assert report.details["failures_found"] == len(found)
        assert report.passed == (verify._WITNESS in found)
        got["fails"] = report
    return got


@pytest.mark.parametrize("n", range(2, 9))
def test_relation_checks_match_the_oracle(monkeypatch, n):
    got = _compare(monkeypatch, {m: cached_poset(m) for m in range(2, n + 1)})
    assert all(report.passed for report in got.values())


@pytest.mark.parametrize("n, seed", [(5, 1), (6, 2)])
def test_relation_checks_match_the_oracle_with_covers_dropped(monkeypatch, n, seed):
    # each size loses about a third of its covers and is closed again, so
    # the maps into the thinned orders break
    got = _compare(monkeypatch, {m: _thinned(m, seed) for m in range(2, n + 1)})
    assert got["restriction"].violations
    maps = {v["map"] for v in got["evac-transpose"].violations}
    assert maps == {"evacuation", "transpose"}
    assert not got["antisymmetry"].violations


def _dropped(m, cover):
    """The size-m order with one cover removed and closed again."""
    p = cached_poset(m)
    return _relations(p, p.nodes, [edge for edge in p.covers if edge != cover])


def test_relation_checks_fall_through_when_a_cover_image_misses(monkeypatch):
    # the size-6 and size-4 orders each lose a cover and are closed again:
    # their covers still close to reach, so the covers are tested first,
    # and the evacuated and restricted covers that land on a lost one
    # miss the target, so every relation is tested after all
    n = 6
    posets = {m: cached_poset(m) for m in range(2, n + 1)}
    posets[n] = _dropped(n, posets[n].covers[0])
    posets[4] = _dropped(4, posets[4].covers[0])
    assert _closure_fault(posets[n]) is None and _closure_fault(posets[4]) is None
    got = _compare(monkeypatch, posets)
    assert {v["map"] for v in got["evac-transpose"].violations} == {"evacuation", "transpose"}
    # only the segments of four letters land in the thinned size-4 order
    assert {j - i + 1 for i, j in (v["segment"] for v in got["restriction"].violations)} == {4}


def _looped(p):
    """``p`` with the loop (51, 51) added to its covers."""
    return dataclasses.replace(p, covers=(*p.covers, (51, 51)))


def _upward(p):
    """``p`` with its first cover (a, b) also given as (b, a), which goes up
    in the id order; ``reach`` is left as it is."""
    a, b = p.covers[0]
    return dataclasses.replace(p, covers=(*p.covers, (b, a)))


@pytest.mark.parametrize("broken", [_looped, _upward, _unreduced])
def test_relation_checks_fall_through_when_a_cover_does_not_go_down(monkeypatch, broken):
    # the covers fail the id-order test, or (_unreduced: an added cover
    # a < c passes through the covers a < b < c) the reduction test, so
    # every relation is tested, on the real order and on one with covers
    # dropped, and nothing is raised
    for thinned in (False, True):
        posets = {m: _thinned(m, 2) if thinned else cached_poset(m) for m in range(2, 7)}
        posets[6] = broken(posets[6])
        assert _closure_fault(posets[6]) is not None
        got = _compare(monkeypatch, posets)
        for check in ("restriction", "evac-transpose", "descent"):
            assert bool(got[check].violations) == (thinned and check != "descent"), check


def _shape_cover(p):
    """The first cover of ``p`` that changes the shape."""
    return next(
        (a, b) for a, b in p.covers if shape_of(p.nodes[a]) != shape_of(p.nodes[b])
    )


def _with_cycle(p, a, b, covers):
    """``p`` with the edge b -> a added and closed again; ``covers`` given."""
    return dataclasses.replace(_relations(p, p.nodes, [*p.covers, (b, a)]), covers=covers)


@pytest.mark.parametrize("n", [5, 6])
def test_relation_checks_match_the_oracle_on_a_two_node_cycle(monkeypatch, n):
    # the covers stay those of the order, so the shape map keeps its
    # direction and is tested on every relation, the reversed one included
    p = cached_poset(n)
    a, b = _shape_cover(p)
    posets = {m: cached_poset(m) for m in range(2, n)}
    posets[n] = _with_cycle(p, a, b, p.covers)
    got = _compare(monkeypatch, posets)
    low, high = sorted((a, b))  # the pair is reported once, by node id
    assert got["antisymmetry"].violations == [
        {"S": format_tableau(p.nodes[low]), "T": format_tableau(p.nodes[high])}
    ]
    assert got["shape"].details["direction"] == "down"
    for check in ("restriction", "evac-transpose", "descent", "shape"):
        assert got[check].violations, check


def test_antisymmetry_passes_an_upward_edge_without_a_cycle(monkeypatch):
    # the edge x -> y added between incomparable nodes x < y: reach[x] then
    # holds ids above x that do not reach x back, which are no violation
    p = cached_poset(5)
    count = len(p.nodes)
    x, y = next(
        (x, y)
        for x in range(count)
        for y in range(x + 1, count)
        if not p.reach[x] >> y & 1 and not p.reach[y] >> x & 1
    )
    posets = {m: cached_poset(m) for m in range(2, 5)}
    posets[5] = _relations(p, p.nodes, [*p.covers, (x, y)])
    assert posets[5].reach[x].bit_length() > x + 1
    got = _compare(monkeypatch, posets)
    assert got["antisymmetry"].violations == []


def test_shape_cover_branch_matches_the_oracle_on_a_two_node_cycle():
    # with the reversed cover among the covers no direction holds
    p = cached_poset(5)
    a, b = _shape_cover(p)
    cyclic = _with_cycle(p, a, b, (*p.covers, (b, a)))
    report = check_monotone_shape(cyclic)
    assert report.details["direction"] == "none"
    assert report.violations
    assert _outcome(report) == oracle.monotone_shape(cyclic)


def test_unpreserved_assumes_nothing_of_either_side():
    # neither side transitive or reflexive; a non-injective map; pairs come
    # back in (a, b) order and the diagonal is never tested
    rows = [0b1111, 0b0110, 0b0000, 0b0011]
    image = [0, 1, 1, 2]
    up = [0b010, 0b000, 0b001]
    assert _unpreserved(rows, image, up) == [(0, 3), (1, 2), (3, 1)]


def _two_node_cycle():
    """The size-5 order with its last cover also given reversed, closed again."""
    p = cached_poset(5)
    a, b = p.covers[-1]
    return _relations(p, p.nodes, [*p.covers, (b, a)])


@pytest.mark.parametrize(
    "broken, holds",
    [
        (lambda: _thinned(6, 1), True),
        (_two_node_cycle, False),
        (_self_loop, False),
        (lambda: _upward(cached_poset(6)), False),
        (_non_transitive, False),
        (_unreduced, False),
    ],
)
def test_intervals_on_broken_orders(broken, holds):
    # an interval's members are read from reach alone only when the order's
    # premises hold, else its closure fault is raised; the induced covers
    # assume nothing of reach and match the gap test on every order
    p = broken()
    fault = _closure_fault(p)
    assert (fault is None) == holds
    below = transpose(p.reach)
    count = len(p.nodes)
    rng = random.Random(2)
    for _ in range(40):
        a, b = rng.randrange(count), rng.randrange(count)
        if holds:
            assert interval(p, a, b).members == tuple(_bits(p.reach[a] & below[b]))
        else:
            with pytest.raises(InvariantError) as raised:
                interval(p, a, b)
            assert str(raised.value) == fault
        members = rng.sample(range(count), rng.randrange(1, count + 1))
        assert induced_covers(p, members) == gap_covers(p.reach, below, members)
