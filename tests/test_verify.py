import dataclasses
import random
from itertools import permutations
from math import factorial
import re
from types import SimpleNamespace

import pytest

from closure_oracle import closure, gap_covers, transpose
from conftest import broken_lift, made, table_faults
import descents_oracle
import hook_eta_oracle
import move_oracle
import restriction_oracle
import sytkit.hopf as hopf
import sytkit.knuthclass as knuthclass
import sytkit.tableau as tableau
import sytkit.verify as verify
import sytkit.weakorder as weakorder
import translation_oracle as oracle
from sytkit.cli import EXIT_INTERNAL, main
from sytkit.hopf import verify_interval_isomorphism
from sytkit.knuthclass import knuth_class
from sytkit.permutation import (
    CAPS,
    InvariantError,
    descents_left,
    format_word,
    parse_word,
)
from sytkit.tableau import (
    _dual_moves,
    _relabel_inner,
    descent_set,
    dual_knuth_move,
    inner_tableau,
    inner_translate,
    insertion_tableau,
    parse_tableau,
    reverse_insert,
    shape_of,
    size_of,
)
from sytkit.verify import (
    verify_antisymmetry,
    verify_descents_constant,
    verify_dual_knuth_connectivity,
    verify_evac_transpose_monotone,
    verify_hook_eta,
    verify_inner_tableau_translation,
    verify_inner_translation_fails,
    verify_restriction_insertion,
    verify_restriction_monotone,
    verify_special_cases,
    verify_structural,
)
from sytkit.weakorder import _bits, _closure_fault, cached_poset, induced_covers, leq
from word_oracle import cover_witness_words, dual_knuth_move_word, inversions_left, restrict_standardize


# --- headline sweep ------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("mode", ["cover", "order"])
def test_inner_tableau_translation_clean(n, mode):
    report = verify_inner_tableau_translation(n, mode)
    assert report.passed, report.violations
    if n >= 5:
        assert report.checked > 0


def test_inner_tableau_translation_vacuous_small_inner():
    # size 3 has only k=1,2 inner tableaux below it... k ranges to n-1=2,
    # so nothing admits a dual Knuth move at n=3? k=2 has no triple; n=4,
    # k=3 is the first k with moves
    report = verify_inner_tableau_translation(3, "cover")
    assert report.checked == 0
    report = verify_inner_tableau_translation(2, "cover")
    assert report.checked == 0 and report.passed


def test_inner_tableau_translation_guards():
    with pytest.raises(ValueError):
        verify_inner_tableau_translation(1)
    with pytest.raises(ValueError):
        verify_inner_tableau_translation(5, mode="sideways")


@pytest.mark.parametrize("n", range(4, 8))
def test_unchecked_relabel_matches_inner_translate(n):
    # every (node, inner tableau, dual Knuth move) the sweep relabels
    p = cached_poset(n)
    count = 0
    for node in p.nodes:
        for k in range(3, n):
            sub = inner_tableau(node, k)
            for i, moved_sub in _dual_moves(sub):
                assert moved_sub == dual_knuth_move(sub, i)
                assert _relabel_inner(node, moved_sub) == inner_translate(
                    node, sub, moved_sub
                )
                count += 1
    assert count > 0


@pytest.mark.parametrize("mode, checked", [("cover", 10412), ("order", 47136)])
def test_inner_tableau_translation_n8(mode, checked):
    report = verify_inner_tableau_translation(8, mode)
    assert report.checked == checked
    assert report.violations == []


# --- the run-based sweep against the pair-by-pair oracle ----------------------------------

@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("mode", ["cover", "order"])
@pytest.mark.parametrize("family", [None, "two_row", "two_col", "hook"])
def test_sweep_matches_the_oracle(n, mode, family):
    p = cached_poset(n)
    assert verify._translation_sweep(p, mode, family) == oracle.translation_sweep(
        p, mode, family
    )


def _relations(p, nodes, kept):
    """A poset on ``nodes`` whose order is the closure of the covers ``kept``."""
    succ = [[] for _ in nodes]
    for a, b in kept:
        succ[a].append(b)
    reach = closure(succ)
    return dataclasses.replace(
        p,
        nodes=tuple(nodes),
        covers=gap_covers(reach, transpose(reach), range(len(nodes))),
        reach=tuple(reach),
        index={t: i for i, t in enumerate(nodes)},
    )


def _thinned(n, seed):
    """The size-n order with about a third of its covers dropped."""
    p = cached_poset(n)
    rng = random.Random(seed)
    kept = [edge for edge in p.covers if rng.randrange(3)]
    return _relations(p, p.nodes, kept)


@pytest.mark.parametrize("n, seed", [(6, 1), (6, 2), (7, 1)])
@pytest.mark.parametrize("mode", ["cover", "order"])
def test_sweep_matches_the_oracle_on_broken_orders(n, mode, seed):
    # dropping covers breaks the translation property, so the witness
    # lists are real and must agree entry for entry, in order
    p = _thinned(n, seed)
    for family in (None, "two_row", "hook"):
        got = verify._translation_sweep(p, mode, family)
        assert got == oracle.translation_sweep(p, mode, family)
    assert got[1]


def test_local_covers_match_the_gap_test():
    # random partial orders, numbered in a random order so that the
    # numbering is not a linear extension
    rng = random.Random(5)
    for _ in range(200):
        size = rng.randrange(1, 8)
        label = rng.sample(range(size), size)
        succ = [[] for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                if rng.random() < 0.3:
                    succ[label[i]].append(label[j])
        reach = closure(succ)
        below = transpose(reach)
        ups = [reach[a] & ~(1 << a) for a in range(size)]
        want = [
            sum(1 << b for b in _bits(ups[a])
                if not reach[a] & below[b] & ~((1 << a) | (1 << b)))
            for a in range(size)
        ]
        assert oracle.local_covers(ups) == want


@pytest.mark.parametrize("n", range(4, 10))
def test_layout_cover_rows_are_the_reduction_of_the_order_rows(n):
    # each run is convex, so its cover rows, read off the poset's covers,
    # are the transitive reduction of its order rows; and a run's judgment
    # counts the bits of both
    layout = verify._sweep_layout(cached_poset(n))
    runs = {(lo, hi) for level in layout.levels for _, lo, hi, _ in level}
    for lo, hi in runs:
        assert layout.rows("cover", lo, hi) == oracle.local_covers(
            layout.rows("order", lo, hi)
        )
    assert runs
    for k, level in enumerate(layout.levels, 3):
        for s, (_, lo, hi, _) in enumerate(level):
            covers, relations, _ = layout.judge(k, s)
            assert covers == sum(row.bit_count() for row in layout.rows("cover", lo, hi))
            assert relations == sum(row.bit_count() for row in layout.rows("order", lo, hi))


def _moves(p):
    """(k, triple start, source run, target run, position -> node id) of
    every move of the sweep layout of a copy of ``p``, each run as
    (lo, hi)."""
    layout = verify._sweep_layout(dataclasses.replace(p))
    for k, level in enumerate(layout.levels, 3):
        for _, lo, hi, moves in level:
            for i, t in moves:
                yield k, i, (lo, hi), level[t][1:3], layout.order


def _move_witnesses(p, violations, k, i, run):
    lo = run[0]
    sub = inner_tableau(p.nodes[verify._sweep_layout(p).order[lo]], k)
    return [
        v for v in violations
        if (v["k"], v["triple"][0], v["R"]) == (k, i, tableau.format_tableau(sub))
    ]


def _richer(p, mode):
    """``p`` with two unrelated members of a target run put in order, the
    first two found whose target rows then strictly contain the source's
    rows, with that move."""
    for k, i, source, (lo, hi), order in _moves(p):
        for x in range(lo, hi):
            for y in range(x + 1, hi):
                if p.reach[order[x]] >> order[y] & 1:
                    continue
                richer = _relations(p, p.nodes, list(p.covers) + [(order[x], order[y])])
                layout = verify._sweep_layout(richer)
                rows, images = layout.rows(mode, *source), layout.rows(mode, lo, hi)
                if rows != images and not any(r & ~im for r, im in zip(rows, images)):
                    return richer, k, i, source
    raise AssertionError("no such order")


def _cover_made_a_relation():
    """The size-6 order with a member b of a target run put
    between the ends of a cover a < c inside it, as the covers a < b < c,
    b unrelated to both before and between them in the id order and in the
    row-sequence numbering: with the move onto that run and its source.
    The source's cover at the places of a and c is then carried onto a
    relation that is no cover, so the move breaks a cover and keeps every
    relation."""
    p = cached_poset(6)
    covers = set(p.covers)
    for k, i, source, (lo, hi), order in _moves(p):
        members = order[lo:hi]
        for x, a in enumerate(members):
            for z in range(x + 2, len(members)):
                c = members[z]
                if (a, c) not in covers:
                    continue
                for b in members[x + 1:z]:
                    if a > b > c and not p.reach[a] >> b & 1 and not p.reach[b] >> c & 1:
                        added = list(p.covers) + [(a, b), (b, c)]
                        return _relations(p, p.nodes, added), k, i, source
    raise AssertionError("no such order")


def test_sweep_judges_a_move_that_breaks_a_cover_but_keeps_the_relations():
    # the move is judged failing; cover mode lists the broken cover, and
    # order mode, comparing the relation rows, finds nothing for it
    q, k, i, source = _cover_made_a_relation()
    covers, relations = (verify._translation_sweep(q, mode, None) for mode in ("cover", "order"))
    assert _move_witnesses(q, covers[1], k, i, source)
    assert _move_witnesses(q, relations[1], k, i, source) == []
    layout = verify._sweep_layout(q)
    level = layout.levels[k - 3]
    s = next(s for s, run in enumerate(level) if run[1:3] == source)
    assert i in [j for j, _ in layout.judge(k, s)[2]]
    assert covers == oracle.translation_sweep(q, "cover", None)
    assert relations == oracle.translation_sweep(q, "order", None)


@pytest.mark.parametrize("mode", ["cover", "order"])
def test_sweep_passes_a_target_run_with_more_relations(mode):
    # the rows differ, so the whole-run test fails, and the row test must
    # still find nothing for that move
    richer, k, i, source = _richer(cached_poset(6), mode)
    got = verify._translation_sweep(richer, mode, None)
    assert _move_witnesses(richer, got[1], k, i, source) == []
    assert got == oracle.translation_sweep(richer, mode, None)


@pytest.mark.parametrize("mode", ["cover", "order"])
def test_sweep_lists_the_relations_a_target_run_misses(mode):
    p = cached_poset(6)
    k, i, source, target, a, b = next(
        (k, i, source, target, a, b)
        for k, i, source, target, order in _moves(p)
        for a, b in p.covers
        if {a, b} <= set(order[target[0]:target[1]])
    )
    poorer = _relations(p, p.nodes, [edge for edge in p.covers if edge != (a, b)])
    got = verify._translation_sweep(poorer, mode, None)
    assert _move_witnesses(poorer, got[1], k, i, source)
    assert got == oracle.translation_sweep(poorer, mode, None)


def test_sweep_rejects_an_order_with_a_cycle():
    # a reversed cover added to the order makes a two-node cycle that the
    # bottom element reaches, and one of its covers goes up in the id order
    p = cached_poset(5)
    a, b = p.covers[-1]
    cyclic = _relations(p, p.nodes, list(p.covers) + [(b, a)])
    assert cyclic.reach[a] == cyclic.reach[b]
    for mode in ("cover", "order"):
        with pytest.raises(InvariantError, match="does not go down in the id order"):
            verify._translation_sweep(cyclic, mode, None)


def test_sweep_rejects_a_cover_that_goes_down():
    # the size-4 order with the cover 1,3/2,4 < 1,2/3/4 added and closed
    # again: it goes down in the id order and the covers close and are
    # reduced, so only the row-sequence numbering is broken
    p = cached_poset(4)
    extra = _relations(p, p.nodes, list(p.covers) + [(4, 3)])
    assert (4, 3) in extra.covers and _closure_fault(extra) is None
    for mode in ("cover", "order"):
        with pytest.raises(InvariantError, match="goes down in the row-sequence numbering"):
            verify._translation_sweep(extra, mode, None)


def test_sweep_rejects_covers_that_do_not_close_to_reach():
    p = cached_poset(5)
    broken = dataclasses.replace(p, covers=p.covers[1:])
    with pytest.raises(InvariantError, match="closure of the covers disagrees"):
        verify._translation_sweep(broken, "order", None)
    # a reversed cover lies outside reach, and goes up in the id order
    (a, b), rest = p.covers[0], p.covers[1:]
    broken = dataclasses.replace(p, covers=((b, a),) + rest)
    with pytest.raises(InvariantError, match="does not go down in the id order"):
        verify._translation_sweep(broken, "cover", None)


def _non_transitive():
    """The size-6 order with one reach row moved off the closure of the
    covers: at the first cover (a, b) where b reaches some c != b that a
    does not cover, a stops reaching c and reaches instead the lowest id it
    did not reach.  Every row keeps its size, and a < b < c no longer
    gives a < c."""
    p = cached_poset(6)
    covered = {}
    for a, b in p.covers:
        covered.setdefault(a, set()).add(b)
    a, b, c = next(
        (a, b, c)
        for a, b in p.covers
        for c in _bits(p.reach[b])
        if c != b and c not in covered[a]
    )
    x = next(x for x in range(len(p.nodes)) if x != a and not p.reach[a] >> x & 1)
    reach = list(p.reach)
    reach[a] = reach[a] & ~(1 << c) | 1 << x
    return dataclasses.replace(p, reach=tuple(reach))


@pytest.mark.parametrize("mode", ["cover", "order"])
def test_sweep_rejects_a_reach_that_is_not_transitive(mode):
    p = cached_poset(6)
    broken = _non_transitive()
    changed = [a for a in range(len(p.nodes)) if broken.reach[a] != p.reach[a]]
    assert len(changed) == 1
    assert broken.reach[changed[0]].bit_count() == p.reach[changed[0]].bit_count()
    with pytest.raises(InvariantError, match="closure of the covers disagrees with reach at"):
        verify._translation_sweep(broken, mode, None)


def _missing_node(n=5, gone="1,2,4/3,5"):
    """The size-n order restricted to all nodes but ``gone``; by default
    one in a size-5 group that has a dual Knuth move at k = 3, so its
    image run is longer than its run."""
    p = cached_poset(n)
    drop = p.index[parse_tableau(gone)]
    keep = [a for a in range(len(p.nodes)) if a != drop]
    new = {a: i for i, a in enumerate(keep)}
    kept = [(new[a], new[b]) for a in keep for b in _bits(p.reach[a])
            if b != a and b in new]
    return _relations(p, [p.nodes[a] for a in keep], kept)


def test_sweep_rejects_runs_with_different_suffixes():
    broken = _missing_node()
    for mode in ("cover", "order"):
        with pytest.raises(InvariantError, match="is not onto its group"):
            verify._translation_sweep(broken, mode, None)


def test_sweep_rejects_a_move_that_changes_the_shape(fresh_lift):
    # inner tableaux of shapes (4, 1) and (3, 2) have the same suffixes at
    # n = 6 (letter 6 in row 1, 2 or 3), so only the shape test can tell;
    # the move goes into the move table of a fresh size-5 record
    size = weakorder._size(5)
    moved = size.ids_of[weakorder._row_code(parse_tableau("1,2,3/4,5"))]
    size.moves = [((1, moved),) if shape_of(sub) == (4, 1) else () for sub in size.nodes]
    # a copy, whose sweep layout is made afresh: the cached poset's may
    # already hold the real moves
    with pytest.raises(InvariantError, match="is not onto its group"):
        verify._translation_sweep(dataclasses.replace(cached_poset(6)), "order", None)


def _without_a_size_3_node():
    """Fresh size records, the size-3 code map of which has lost the node
    1,3/2, and a copy of the size-5 order to lay out with it.  The sweep
    reads the size-3 move table too, which is made on the intact map
    first: else it is made on the broken map, where it fails on its own
    check.  Called under the ``fresh_lift`` fixture."""
    p = dataclasses.replace(cached_poset(5))
    size = weakorder._size(3)
    assert size.moves  # made on the intact map
    gone = size.ids_of[weakorder._row_code(parse_tableau("1,3/2"))]
    size.ids_of = {c: t for c, t in size.ids_of.items() if t != gone}
    return p


def test_sweep_rejects_a_run_whose_inner_tableau_is_not_a_node(fresh_lift):
    p = _without_a_size_3_node()
    for mode in ("cover", "order"):
        with pytest.raises(InvariantError, match="inner tableau 1,3/2 of a run is not a size-3 node"):
            verify._translation_sweep(p, mode, None)


def test_a_run_whose_inner_tableau_is_not_a_node_exits_3(capsys, monkeypatch, fresh_lift):
    p = _without_a_size_3_node()
    monkeypatch.setattr(verify, "cached_poset", lambda n: p)
    code = main(["verify", "inner-translation", "--n", "5"])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL
    assert captured.out == ""
    assert captured.err.startswith("internal error: inner tableau 1,3/2 of a run")


def test_a_replaced_poset_does_not_reuse_the_sweep_layout():
    # the layout of the cached order is made and kept first; a copy with a
    # cover dropped must still fail the closure check
    p = cached_poset(5)
    for mode in ("cover", "order"):
        verify._translation_sweep(p, mode, None)
    assert "sweep" in p._cache
    broken = dataclasses.replace(p, covers=p.covers[1:])
    assert broken._cache == {}
    with pytest.raises(InvariantError, match="closure of the covers disagrees"):
        verify._translation_sweep(broken, "order", None)


def test_sweep_layout_is_made_once_per_poset():
    p = dataclasses.replace(cached_poset(7))
    first = {mode: verify._translation_sweep(p, mode, None) for mode in ("cover", "order")}
    layout = p._cache["sweep"]
    for mode in ("cover", "order"):
        assert verify._translation_sweep(p, mode, None) == first[mode]
    assert p._cache["sweep"] is layout


def test_single_family_sweep_reads_only_two_row_runs(monkeypatch):
    p = dataclasses.replace(cached_poset(7))
    layout = verify._sweep_layout(p)
    two_row = {
        (lo, hi)
        for level in layout.levels
        for shape, lo, hi, _ in level
        if len(shape) == 2
    }
    read = []
    rows = layout.rows

    def recorded(mode, lo, hi):
        read.append((lo, hi))
        return rows(mode, lo, hi)

    monkeypatch.setattr(layout, "rows", recorded)
    for mode in ("cover", "order"):
        verify._translation_sweep(p, mode, "two_row")
    # a move keeps the shape, so its image run is two-row too; only the
    # runs of the shapes read are judged: every two-row run, each has a move
    assert read and set(read) <= two_row
    judged = {
        (lo, hi)
        for level, counts in zip(layout.levels, layout.counts)
        for s, (_, lo, hi, _) in enumerate(level)
        if counts[2 * s] >= 0
    }
    assert judged == two_row


def _unreduced(p=None):
    """The size-5 order, or ``p``, with one more cover a < c, where a and c
    have the same inner tableau on 1..3 and a < b < c are covers: the new
    cover passes through b."""
    p = cached_poset(5) if p is None else p
    covered = {}
    for a, b in p.covers:
        covered.setdefault(a, []).append(b)
    a, c = next(
        (a, c)
        for a, b in p.covers
        for c in covered.get(b, ())
        if inner_tableau(p.nodes[a], 3) == inner_tableau(p.nodes[c], 3)
    )
    return dataclasses.replace(p, covers=p.covers + ((a, c),))


def _self_loop():
    """The size-6 order with the loop (51, 51) added to its covers: node 51
    has nothing below it in its run at k = 3, so only the id-order test
    can tell."""
    p = cached_poset(6)
    return dataclasses.replace(p, covers=(*p.covers, (51, 51)))


def test_sweep_rejects_a_self_loop_cover():
    for mode in ("cover", "order"):
        with pytest.raises(InvariantError, match="does not go down in the id order"):
            verify._translation_sweep(_self_loop(), mode, None)


def test_sweep_rejects_covers_that_are_not_reduced():
    for mode in ("cover", "order"):
        with pytest.raises(InvariantError, match="covers are not reduced"):
            verify._translation_sweep(_unreduced(), mode, None)


_LAYOUT_FIELDS = ("order", "start", "ups", "covers", "levels")


def _fields(layout):
    """The fields of ``layout``, and every run's judgment, level by level."""
    judgments = [
        [layout.judge(k, s) for s in range(len(level))] for k, level in enumerate(layout.levels, 3)
    ]
    return [getattr(layout, name) for name in _LAYOUT_FIELDS] + [judgments]


def _layouts(p):
    """The fields of the sweep layout of a copy of ``p`` and of the
    tableau-built oracle's, with every run's judgment, or the message each
    raises."""
    out = []
    for make in (verify._SweepLayout, oracle.sweep_layout):
        try:
            layout = make(dataclasses.replace(p))
        except InvariantError as error:
            out.append(str(error))
        else:
            out.append(_fields(layout))
    return out


@pytest.mark.parametrize("n", range(2, 10))
def test_sweep_layout_matches_the_tableau_built_oracle(n):
    fast, slow = _layouts(cached_poset(n))
    assert fast == slow
    assert n < 4 or fast[-1]


@pytest.mark.parametrize("n", [5, 9])
def test_the_layout_reads_the_lifts_row_codes(monkeypatch, n):
    # the lift's nodes take their codes from its code map; the order made
    # without one node still gets a layout, its codes made node by node
    expected = _layouts(cached_poset(n))[0]
    missing = _layouts(_missing_node(5))[0]
    made = []
    monkeypatch.setattr(verify, "_row_code", lambda t: made.append(t) or weakorder._row_code(t))
    layout = verify._SweepLayout(dataclasses.replace(cached_poset(n)))
    assert _fields(layout) == expected
    assert made == []
    assert _layouts(_missing_node(5))[0] == missing
    assert len(made) == len(cached_poset(5).nodes) - 1


@pytest.mark.parametrize(
    "broken, message",
    [
        (_missing_node, "relabeling "),
        (lambda: _richer(cached_poset(6), "cover")[0], None),
        (_unreduced, "covers are not reduced"),
    ],
)
def test_sweep_layout_matches_the_oracle_on_test_made_orders(broken, message):
    fast, slow = _layouts(broken())
    assert fast == slow
    if message is None:
        assert fast[-1]
    else:
        assert fast.startswith(message)


@pytest.mark.parametrize(
    "broken",
    [
        lambda: _richer(cached_poset(6), "order")[0],
        lambda: _thinned(6, 1),
        lambda: _cover_made_a_relation()[0],
    ],
    ids=["richer-in-order", "thinned", "cover-made-a-relation"],
)
def test_sweep_layout_judges_as_the_oracle_on_orders_with_failing_moves(broken):
    # relations added, covers dropped, and a cover made a relation that is
    # no cover: the judgments list failing moves, and match the oracle's
    fast, slow = _layouts(broken())
    assert fast == slow
    assert any(judgment[2] for level in fast[-1] for judgment in level)


@pytest.mark.parametrize(
    "broken, message",
    [
        (lambda: dataclasses.replace(cached_poset(5), covers=cached_poset(5).covers[1:]),
         "closure of the covers disagrees"),
        (_missing_node, "relabeling"),
        (_non_transitive, "closure of the covers disagrees with reach at"),
        (_unreduced, "covers are not reduced"),
        (_self_loop, "cover 1,4,5,6/2/3 < 1,4,5,6/2/3 does not go down in the id order"),
    ],
)
def test_broken_sweep_invariants_exit_3(capsys, monkeypatch, broken, message):
    poset = broken()
    monkeypatch.setattr(verify, "cached_poset", lambda n: poset)
    code = main(["verify", "inner-translation", "--n", "5"])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL
    assert captured.out == ""
    assert captured.err.startswith("internal error: " + message)


def test_order_mode_checks_at_least_cover_pairs():
    cover = verify_inner_tableau_translation(6, "cover")
    order = verify_inner_tableau_translation(6, "order")
    assert order.checked >= cover.checked


# --- reproduction of the size-6 failure -------------------------------------------

def test_single_triple_failure_reproduced():
    report = verify_inner_translation_fails()
    assert report.passed
    witness = report.details["witness"]
    assert witness["S"] == "1,2,4/3,5,6"
    assert witness["T"] == "1,2,4/3,6/5"
    assert witness["S_relabeled"] == "1,2,3/4,5,6"
    assert witness["T_relabeled"] == "1,2,5/3,6/4"
    assert report.details["failures_found"] >= 1


def test_single_triple_scan_rejects_a_move_off_the_node_set(capsys, monkeypatch):
    # the witness's S moves onto 1,2,3/4,5,6, which is dropped
    broken = _missing_node(6, "1,2,3/4,5,6")
    monkeypatch.setattr(verify, "cached_poset", lambda n: broken)
    message = "the size-6 order's nodes are not the lift's size-6 tableaux"
    with pytest.raises(InvariantError, match=message):
        verify_inner_translation_fails()
    code = main(["verify", "inner-translation-fails"])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL
    assert captured.out == ""
    assert captured.err == f"internal error: {message}\n"


def test_the_stretch_checks_lift_each_order_from_the_one_below(fresh_lift):
    # the sweeps, antisymmetry, the monotone maps and evacuation-transpose
    # keep nothing on a fresh poset but its closure check and sweep layout
    for name, options in verify.battery(stretch=True):
        if options.get("n", 0) >= 7:
            assert all(report.passed for report in verify.CHECKS[name].run(**options))
    for n in range(7, 10):
        assert verify.verify_evac_transpose_monotone(n).passed
    # each order is lifted from the covers of the one a size down
    assert made("order") == list(range(1, 10))
    posets = [weakorder._size(n).order for n in range(1, 10)]
    assert all(set(p._cache) <= {"closure", "sweep"} for p in posets)


def test_size_moves_are_the_dual_moves():
    # the one move table of the sweep, the scan and connectivity, made on
    # row codes, against the exchange kernel and the word route on every node
    for n in range(1, 10):
        size = weakorder._size(n)
        subs = size.nodes
        for sub, moves in zip(subs, size.moves):
            named = [(i, subs[t]) for i, t in moves]
            assert named == _dual_moves(sub) == move_oracle.dual_moves(sub)


def test_single_triple_failure_witness_replays():
    report = verify_inner_translation_fails()
    witness = report.details["witness"]
    p = cached_poset(6)
    s = parse_tableau(witness["S"])
    t = parse_tableau(witness["T"])
    i = witness["triple"][0]
    assert leq(p, s, t)
    assert dual_knuth_move(s, i) == parse_tableau(witness["S_relabeled"])
    assert dual_knuth_move(t, i) == parse_tableau(witness["T_relabeled"])
    assert not leq(p, dual_knuth_move(s, i), dual_knuth_move(t, i))


def test_identity_translation_preserves_everything():
    p = cached_poset(6)
    s = parse_tableau("1,2,4/3,5,6")
    t = parse_tableau("1,2,4/3,6/5")
    sub = inner_tableau(s, 4)
    assert inner_translate(s, sub, sub) == s
    assert inner_translate(t, sub, sub) == t
    assert leq(p, s, t)


# --- special cases --------------------------------------------------------------------

@pytest.mark.parametrize("family", ["two_row", "two_col", "hook"])
def test_special_cases_clean_n6(family):
    report = verify_special_cases(6, family)
    assert report.passed, report.violations
    assert report.checked > 0


def test_two_col_matches_transposed_two_row():
    rows = verify_special_cases(6, "two_row")
    cols = verify_special_cases(6, "two_col")
    assert rows.checked == cols.checked
    assert rows.passed and cols.passed


def test_special_cases_guards():
    with pytest.raises(ValueError):
        verify_special_cases(6, "three_row")
    with pytest.raises(ValueError):
        verify_special_cases(verify.CHECKS["special-cases"].hi + 1, "hook")


# --- hook eta ---------------------------------------------------------------------------

def test_hook_eta_k5_exact_counts():
    report = verify_hook_eta(5)
    assert report.passed
    # four size-5 hooks with >= 3 rows and columns carry corner labels
    # {5, 4}; the other two are outside the hypothesis
    assert report.skipped == 2
    assert report.checked >= 4


def test_hook_eta_golden_exits():
    hook = parse_tableau("1,3,5/2/4")
    assert reverse_insert(hook, (1, 3))[1] == 5
    assert reverse_insert(hook, (3, 1))[1] == 1


@pytest.mark.parametrize("k", [5, 6, 7])
def test_hook_eta_clean(k):
    report = verify_hook_eta(k)
    assert report.passed, report.violations


def _shared_graph(monkeypatch, change):
    """The one reverse-bump graph that the hook-eta walk reads per k, below
    the standardized corner children, with ``change(roots, steps)`` applied
    to its steps."""
    graph = knuthclass._bump_graph

    def changed(*roots):
        masks, steps = graph(*roots)
        return masks, change(roots, steps)

    monkeypatch.setattr(hopf, "_bump_graph", changed)


def test_hook_eta_reports_corners_with_one_exit_letter(monkeypatch):
    # every corner step made the top corner's: the two exit letters then
    # agree, and at k = 5 the one shape 3,1,1 has as many words through
    # either corner (3 and 3), so the paths still number its hook count
    # and the report is made, equal to the word oracle's on the words
    # through the top corner, each twice
    # on an empty step table, and at size 5 only: the graph below the
    # corner children is the true one
    real = tableau._reverse_bump
    monkeypatch.setattr(knuthclass, "_STEPS", {})
    monkeypatch.setattr(
        knuthclass, "_reverse_bump", lambda rows, r: real(rows, 1 if size_of(rows) == 5 else r)
    )
    report = verify_hook_eta(5)
    eta = [v for v in report.violations if "eta_top" in v]
    assert eta[0] == {"R": "1,3,5/2/4", "eta_top": 5, "eta_bottom": 5}
    assert len(eta) == 4
    assert all(v["eta_top"] == v["eta_bottom"] == parse_tableau(v["R"])[0][-1] for v in eta)

    def top_corner_twice(tab):
        sub, x = real(tab, 1)
        return [u + (x,) for u in knuthclass._class_words(sub)] * 2

    expected = hook_eta_oracle.hook_eta(5, top_corner_twice)
    assert (report.checked, report.skipped, report.violations) == expected


@pytest.mark.parametrize(
    "where",
    ["the bottom corner", "the last step of the first node with two"],
)
def test_hook_eta_refuses_a_graph_that_drops_a_path(monkeypatch, where):
    # the walk counts the paths against the hook-length count of the shape;
    # 1,2,4/3 is the standardized bottom child of 1,3,5/2/4, the first
    # tableau checked
    def drop(roots, steps):
        if where == "the bottom corner":
            a = roots.index(parse_tableau("1,2,4/3"))
            return [[] if b == a else out for b, out in enumerate(steps)]
        a = next(a for a, out in enumerate(steps) if len(out) > 1)
        return [out[:-1] if b == a else out for b, out in enumerate(steps)]

    _shared_graph(monkeypatch, drop)
    message = r"^the reverse-bump graph of 1,3,5/2/4 spells [0-5] words, not the 6 of its shape$"
    with pytest.raises(InvariantError, match=message):
        verify_hook_eta(5)


def test_hook_eta_refuses_a_step_that_takes_another_letter(monkeypatch):
    # each corner step is tested as its step table entry is made, on an
    # empty table so that the fault reaches the entry
    real = tableau._reverse_bump
    monkeypatch.setattr(knuthclass, "_STEPS", {})
    monkeypatch.setattr(knuthclass, "_reverse_bump", lambda rows, r: (real(rows, r)[0], 1))
    message = r"^a reverse-bump step of 1,3,5/2/4 does not take exactly its letter 1$"
    with pytest.raises(InvariantError, match=message):
        verify_hook_eta(5)


def test_hook_eta_refuses_a_shared_step_that_takes_another_letter(monkeypatch):
    # the shared graph is checked too; its roots at k = 5 are the four
    # standardized corner children, in the order the corners are met
    _shared_graph(monkeypatch, lambda roots, steps: [[(c, 1) for c, _ in steps[0]], *steps[1:]])
    message = (
        r"^a reverse-bump step of 1,3/2/4, 1,2,4/3, 1,2/3/4, 1,2,3/4 "
        r"does not take exactly its letter 1$"
    )
    with pytest.raises(InvariantError, match=message):
        verify_hook_eta(5)


@pytest.mark.parametrize(
    "k, tableaux, walks", [(5, 4, 4), (6, 12, 10), (7, 28, 22), (8, 60, 46), (9, 124, 94)]
)
def test_hook_eta_walks_once_per_distinct_corner_child(monkeypatch, k, tableaux, walks):
    # two corner steps read per tableau checked, one walk per standardized
    # child, however many corners share it
    calls = {"corners": 0, "walks": 0}
    code_steps, walk = verify._code_steps, verify._prefix_ids

    def corner_steps(code):
        out = code_steps(code)
        calls["corners"] += len(out)
        return out

    def counted_walk(*args):
        calls["walks"] += 1
        return walk(*args)

    monkeypatch.setattr(verify, "_code_steps", corner_steps)
    monkeypatch.setattr(verify, "_prefix_ids", counted_walk)
    assert verify_hook_eta(k).passed
    assert calls == {"corners": 2 * tableaux, "walks": walks}


def test_hook_eta_guards():
    with pytest.raises(ValueError):
        verify_hook_eta(4)
    with pytest.raises(ValueError):
        verify_hook_eta(verify.CHECKS["hook-eta"].hi + 1)


# --- structural bundle ---------------------------------------------------------------------

def test_structural_bundle_n5():
    reports = verify_structural(5)
    assert len(reports) == 6
    for report in reports:
        assert report.passed, (report.check, report.violations)
        assert report.checked > 0


def test_structural_bundle_n2_trivial():
    reports = verify_structural(2)
    assert all(r.passed for r in reports)


def test_structural_guards():
    with pytest.raises(ValueError):
        verify_structural(CAPS["order"] + 1)


def test_every_checks_row_lies_inside_the_cap_of_what_it_reads():
    # the order checks read orders of n up to their highest; hook-eta reads
    # the lift's tables of sizes 1..k - 1 and builds no order
    for check, row in verify.CHECKS.items():
        assert 1 <= row.lo <= row.hi, check
        if check == "hook-eta":
            assert row.hi - 1 <= CAPS["lift"]
        else:
            assert row.hi <= CAPS["order"], check


def test_structural_at_the_top_of_its_row():
    reports = {r.check: r for r in verify_structural(9)}
    assert all(r.passed for r in reports.values())
    assert reports["restriction-commutes-with-insertion"].checked == 13063680
    assert reports["descent-sets-constant-on-classes"].checked == 362880


# the lemma instances tested per n: (restriction, descents)
LEMMA_INSTANCES = {
    1: (0, 0), 2: (0, 2), 3: (12, 8), 4: (44, 24), 5: (144, 74),
    6: (456, 230), 7: (1520, 762), 8: (5232, 2618), 9: (18984, 9494),
}


def _lift_tables(n):
    sizes = [verify._size(m) for m in range(1, n + 1)]
    return [size.nodes for size in sizes], [size.tables for size in sizes]


@pytest.mark.parametrize("n", range(1, 10))
def test_every_lemma_instance_is_tested_and_holds(n):
    nodes, tables = _lift_tables(n)
    restriction = verify._restriction_lemma(tables)
    descents = verify._descent_lemma(nodes, tables)
    assert (restriction[1], descents[1]) == (None, None)
    assert (restriction[0], descents[0]) == LEMMA_INSTANCES[n]


@pytest.mark.parametrize("n", range(1, 9))
def test_the_lemma_checks_match_the_suffix_walks(n):
    for check, walk in (
        (verify_restriction_insertion, restriction_oracle.suffix_walk),
        (verify_descents_constant, descents_oracle.suffix_walk),
    ):
        report = check(n)
        assert report.passed
        assert (report.checked, report.violations) == walk(n)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_antisymmetry_clean(n):
    assert verify_antisymmetry(n).passed


def test_individual_structural_checks_n4():
    assert verify_descents_constant(4).passed
    assert verify_restriction_insertion(4).passed
    assert verify_restriction_monotone(4).passed
    assert verify_evac_transpose_monotone(4).passed
    assert verify_dual_knuth_connectivity(4).passed


@pytest.mark.parametrize("n", range(2, 7))
def test_restriction_insertion_matches_the_oracle(n):
    report = verify_restriction_insertion(n)
    assert report.passed
    assert (report.checked, report.violations) == restriction_oracle.restriction_insertion(n)


def _break_a_segment(monkeypatch):
    """Dropping the 1 of a size-4 tableau comes out transposed on shape
    (2, 1) only, so the segments [i, j] with i >= n - 2, whose images pass
    through that step, break for some words of every class and not for
    others.  The check reads its images off the one-step tables, here with
    the size-4 lo table of a fresh record broken so (the callers run under
    the ``fresh_lift`` fixture); the oracle restricts each segment step by
    step through the same broken step."""
    real = tableau._restrict

    def broken(rows, i, j):
        out = real(rows, i, j)
        return tableau.transpose(out) if (i, j) == (2, 4) and shape_of(out) == (2, 1) else out

    def stepwise(rows, i, j):
        size = sum(map(len, rows))
        for m in range(size, size - i + 1, -1):
            rows = broken(rows, 2, m)
        for m in range(size - i + 1, j - i + 1, -1):
            rows = broken(rows, 1, m - 1)
        return rows

    subs, turn = weakorder._size(3).nodes, weakorder._size(3).transposition
    record = weakorder._size(4)
    record.lo = [turn[t] if shape_of(subs[t]) == (2, 1) else t for t in record.lo]
    monkeypatch.setattr(tableau, "_restrict", stepwise)


@pytest.mark.parametrize("n", [4, 6])
def test_restriction_insertion_reports_a_broken_segment_like_the_oracle(monkeypatch, fresh_lift, n):
    # the lemma first fails at m = 4, dropping 1; each (word, segment) the
    # check reports is one that the per-word oracle and the walk list
    _break_a_segment(monkeypatch)
    checked, expected = restriction_oracle.restriction_insertion(n)
    broken_words = {}
    for v in expected:
        broken_words.setdefault(tuple(v["segment"]), []).append(v["word"])
    assert {i for i, _ in broken_words} == set(range(n - 2, n))
    assert all(0 < len(words) < factorial(n) for words in broken_words.values())
    assert restriction_oracle.suffix_walk(n) == (checked, expected)
    _, tables = _lift_tables(n)
    m, _, _, step = verify._restriction_lemma(tables)[1]
    assert (m, step) == (4, 1)
    report = verify_restriction_insertion(n)
    assert report.checked == checked
    assert report.violations and all(v in expected for v in report.violations)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_a_restriction_witness_replays_through_insertion_and_restriction(monkeypatch, fresh_lift, n):
    # the reported word, inserted by rows and restricted by jeu de taquin
    # (both through the module), fails on exactly the reported segments
    _break_a_segment(monkeypatch)
    report = verify_restriction_insertion(n)
    (word,) = {v["word"] for v in report.violations}
    u = parse_word(word)
    p = tableau.insertion_tableau(u)
    failing = [
        [i, j]
        for i in range(1, n)
        for j in range(i + 1, n + 1)
        if tableau._restrict(p, i, j) != tableau.insertion_tableau(restrict_standardize(u, i, j))
    ]
    assert failing and [v["segment"] for v in report.violations] == failing


@pytest.mark.parametrize("n", range(2, 8))
def test_descents_constant_matches_the_oracle(n):
    report = verify_descents_constant(n)
    assert report.passed
    assert (report.checked, report.violations) == descents_oracle.descents_constant(n)


@pytest.mark.parametrize("n", [0, CAPS["lift"] + 1])
def test_descents_constant_refuses_n_outside_the_lift(n):
    # the lift's cap, not the word cap: the check walks no word
    with pytest.raises(ValueError, match=rf"^n must be in 1\.\.{CAPS['lift']}$"):
        verify_descents_constant(n)


def test_descents_constant_accepts_n_up_to_the_lift():
    for n in range(1, 10):
        report = verify_descents_constant(n)
        assert report.passed and report.checked == factorial(n)


def test_the_word_walks_make_no_tableau_from_a_word(monkeypatch):
    def refused(*args):
        raise AssertionError("a word-walking check made a tableau from a word")

    monkeypatch.setattr(tableau, "insertion_tableau", refused)
    assert verify_restriction_insertion(6).checked == 10800
    assert verify_descents_constant(6).checked == 720


def test_structural_word_walks_at_n7_check_every_word():
    reports = {r.check: r for r in verify_structural(7)}
    restriction = reports["restriction-commutes-with-insertion"]
    descents = reports["descent-sets-constant-on-classes"]
    assert (restriction.checked, restriction.passed) == (105840, True)
    assert (descents.checked, descents.passed) == (5040, True)


@pytest.mark.parametrize("n", [3, 5, 6])
def test_word_walks_report_a_broken_insertion_table(monkeypatch, n):
    # one entry of the size-3 column tables is wrong: 1 inserted into the
    # row 1,2 gives a tableau of another descent set.  Both walks name
    # their suffixes through the tables, so each must list what inserting
    # every word and every restricted word through the same tables would
    # give, words in lexicographic order, then segments in order.  Both
    # lemmas fail at m = 3, and every word they report is on those lists
    nodes, tables = weakorder._size(3).nodes, weakorder._size(3).tables
    right = tables[0][1]
    wrong = next(
        b for b in range(len(nodes)) if tableau._descents(nodes[b]) != tableau._descents(nodes[right])
    )
    clean_checked = (verify_restriction_insertion(n).checked, verify_descents_constant(n).checked)
    monkeypatch.setattr(verify, "_size", broken_lift(3, 0, 1, wrong))
    inserting = [verify._size(m).tables for m in range(1, n + 1)]

    def node_of(word):
        return weakorder._insertion_id(word, inserting)

    words = list(permutations(range(1, n + 1)))
    images = verify._segment_images(n)
    segments = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    expected = [
        {"word": format_word(u), "segment": [i, j]}
        for u in words
        for i, j in segments
        if images[i, j][node_of(u)] != node_of([x for x in u if i <= x <= j])
    ]
    assert expected and restriction_oracle.suffix_walk(n) == (clean_checked[0], expected)
    report = verify_restriction_insertion(n)
    assert report.checked == clean_checked[0]
    assert report.violations and all(v in expected for v in report.violations)
    nodes_n = verify._size(n).nodes
    expected = [
        {"word": format_word(u)}
        for u in words
        if descents_left(u) != tableau._descents(nodes_n[node_of(u)])
    ]
    assert expected and descents_oracle.suffix_walk(n) == (clean_checked[1], expected)
    report = verify_descents_constant(n)
    assert report.checked == clean_checked[1]
    assert report.violations and all(v in expected for v in report.violations)


def test_the_lemmas_flag_every_table_fault_the_walks_flag(monkeypatch):
    # every single-entry change of the size-3 and size-4 column tables, at
    # n = 5: by the induction, a word the walk flags makes a failing lemma
    # instance, and each is reported as a word the walk flags too
    faults = table_faults()
    assert len(faults) == 18 + 144
    flagged = [0, 0]
    for fault in faults:
        with monkeypatch.context() as patch:
            patch.setattr(verify, "_size", broken_lift(*fault))
            for s, (check, walk) in enumerate((
                (verify_restriction_insertion, restriction_oracle.suffix_walk),
                (verify_descents_constant, descents_oracle.suffix_walk),
            )):
                checked, expected = walk(5)
                report = check(5)
                assert report.checked == checked
                if expected:
                    flagged[s] += 1
                    assert report.violations and all(v in expected for v in report.violations), fault
    assert flagged == [162, 156]


def test_a_failing_instance_that_no_word_replays_is_named(monkeypatch):
    # the size-3 fault above, at m = 3, t = 1,2, x = 1; with row words
    # read backwards, the tables insert the row word of 1,2 to 1/2, so no
    # word is made and the instance is named
    nodes, tables = weakorder._size(3).nodes, weakorder._size(3).tables
    right = tables[0][1]
    wrong = next(
        b for b in range(len(nodes)) if tableau._descents(nodes[b]) != tableau._descents(nodes[right])
    )
    monkeypatch.setattr(verify, "_size", broken_lift(3, 0, 1, wrong))
    monkeypatch.setattr(verify, "row_word", lambda rows: tableau.row_word(rows)[::-1])
    instance = [{"m": 3, "T": "1,2", "x": 1}]
    for n in (3, 5):
        assert verify_restriction_insertion(n).violations == instance
        assert verify_descents_constant(n).violations == instance


@pytest.mark.parametrize("check", [verify_evac_transpose_monotone, verify.verify_restriction_monotone])
def test_the_id_table_checks_refuse_an_order_on_other_nodes(monkeypatch, check):
    # evacuation, transposition and the restriction images are read by
    # lift id, which must be the node id
    broken = _missing_node()
    real = cached_poset
    monkeypatch.setattr(verify, "cached_poset", lambda n: broken if n == 5 else real(n))
    with pytest.raises(InvariantError, match="the size-5 order's nodes are not the lift's"):
        check(5)


@pytest.mark.parametrize("m", range(2, 10))
def test_one_step_tables_are_the_restrictions(m):
    # hi from the row code, lo through evacuation, against jeu de taquin
    # on every node
    nodes = weakorder._size(m).nodes
    index = {t: a for a, t in enumerate(weakorder._size(m - 1).nodes)}
    hi, lo = weakorder._size(m).hi, weakorder._size(m).lo
    assert list(hi) == [index[tableau._restrict(t, 1, m - 1)] for t in nodes]
    assert list(lo) == [index[tableau._restrict(t, 2, m)] for t in nodes]


@pytest.mark.parametrize("n", range(2, 10))
def test_segment_images_are_the_restrictions(n):
    # the one-step tables composed, against jeu de taquin on every
    # tableau and segment: slide-order independence is checked here
    posets = {m: cached_poset(m) for m in range(2, n + 1)}
    images = verify._segment_images(n)
    segments = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    assert sorted(images) == segments
    for i, j in segments:
        q = posets[j - i + 1]
        assert images[i, j] == [q.index[tableau._restrict(t, i, j)] for t in posets[n].nodes]


@pytest.mark.parametrize("n", [5, 6])
def test_dual_knuth_connectivity_per_shape(n):
    assert verify_dual_knuth_connectivity(n).passed


@pytest.mark.parametrize("n", range(1, 9))
def test_dual_knuth_connectivity_matches_the_oracle(n):
    report = verify_dual_knuth_connectivity(n)
    assert (report.checked, report.violations) == move_oracle.connectivity(n)


def test_dual_knuth_connectivity_names_each_broken_move(fresh_lift):
    # the search of shape (3, 1) starts at its first id, whose one move
    # now goes into shape (2, 2), so neither other member is reached
    size = weakorder._size(4)
    subs = size.nodes
    table = list(size.moves)
    run = [t for t, sub in enumerate(subs) if shape_of(sub) == (3, 1)]
    other = next(t for t, sub in enumerate(subs) if shape_of(sub) == (2, 2))
    assert len(run) == 3
    table[run[0]] = ((2, other),)
    size.moves = table
    report = verify_dual_knuth_connectivity(4)
    assert report.checked == sum(len(moves) for t, moves in enumerate(table) if t not in run[1:])
    assert report.violations == [
        {
            "T": tableau.format_tableau(subs[run[0]]),
            "moved": tableau.format_tableau(subs[other]),
            "reason": "shape changed",
        },
        {
            "shape": [3, 1],
            "unreached": [tableau.format_tableau(subs[t]) for t in run[1:]],
            "reason": "shape class not connected",
        },
    ]


@pytest.mark.parametrize(
    "moved",
    [
        ("1,3/2", 1),  # 1 and 2 exchanged: 2,3/1, the row code of no node
        ("1,3/2", 3),  # 3 and 4 exchanged: a letter past the size
        ("1,2,3", 1),  # 1 and 2 share a row: the move is onto the node itself
    ],
)
def test_dual_knuth_connectivity_rejects_a_move_off_the_node_set(monkeypatch, fresh_lift, moved):
    # the move table is made afresh from a rule that leaves the tableaux:
    # at one node, told by the rows of its letters, it exchanges x and x + 1
    text, x = moved
    code = weakorder._row_code(parse_tableau(text))
    rows = [0, *(code >> 4 * y & 15 for y in range(3))]  # the rows of 1, 2, 3
    monkeypatch.setattr(weakorder, "_move_exchanges", lambda r: [(1, x)] if r == rows else [])
    message = f"dual Knuth move on the triple 1,2,3 of {text} is not onto another size-3 node"
    with pytest.raises(InvariantError, match=re.escape(message)):
        verify_dual_knuth_connectivity(3)


@pytest.mark.parametrize(
    "move, message",
    [
        # 3 and 4 exchanged on the triple 1,2,3: 1,2,3/4, of the same shape
        (
            (1, 3),
            "dual Knuth move on the triple 1,2,3 of 1,2,4/3 exchanges 3 and 4, "
            "not two of its letters",
        ),
        # 2 and 3 exchanged on the triple 2,3,4: 1,3,4/2, of the same shape,
        # which has no move on that triple
        (
            (2, 2),
            "dual Knuth move on the triple 2,3,4 of 1,2,4/3 is onto 1,3,4/2, "
            "whose move on it does not lead back",
        ),
    ],
)
def test_dual_knuth_connectivity_rejects_a_move_to_a_wrong_node_of_its_shape(
    monkeypatch, fresh_lift, move, message
):
    # the move table is made afresh from a rule that sends one node's move
    # on one triple to another node of its shape, which connectivity alone
    # does not see; 1,2,4/3 has the moves (1, 2) and (2, 3)
    code = weakorder._row_code(parse_tableau("1,2,4/3"))
    rows = [0, *(code >> 4 * y & 15 for y in range(4))]
    exchanges = weakorder._move_exchanges
    assert exchanges(rows) == [(1, 2), (2, 3)]

    def wrong(r):
        if r != rows:
            return exchanges(r)
        return [move if i == move[0] else (i, x) for i, x in exchanges(r)]

    monkeypatch.setattr(weakorder, "_move_exchanges", wrong)
    with pytest.raises(InvariantError, match=re.escape(message)):
        verify_dual_knuth_connectivity(4)


@pytest.mark.parametrize("n", [0, -1, CAPS["lift"] + 1])
def test_dual_knuth_connectivity_refuses_n_outside_the_lift(n):
    with pytest.raises(ValueError, match=f"n must be in 1..{CAPS['lift']}"):
        verify_dual_knuth_connectivity(n)


# --- timing ------------------------------------------------------------------------------------

def test_elapsed_ms_times_the_check_alone(monkeypatch):
    # the poset and the lift tables are made before the stopwatch starts:
    # each call advances a fake clock by 1000 s, and no report's time shows
    # a step of it
    checks = [
        lambda: verify.CHECKS["inner-translation"].run(5, "order"),
        lambda: verify.CHECKS["special-cases"].run(5, "hook"),
        lambda: verify.CHECKS["hook-eta"].run(5),
        lambda: verify.CHECKS["inner-translation-fails"].run(6),
        lambda: verify.CHECKS["antisymmetry"].run(5),
        lambda: [verify_dual_knuth_connectivity(5)],
    ]
    for check in checks:  # every table and layout made first
        check()

    now = [0.0]
    step_s = 1000.0

    def slowed(make):
        def slow(n):
            now[0] += step_s
            return make(n)
        return slow

    monkeypatch.setattr("sytkit.report.time", SimpleNamespace(perf_counter=lambda: now[0]))
    monkeypatch.setattr(verify, "cached_poset", slowed(verify.cached_poset))
    monkeypatch.setattr(verify, "_size", slowed(verify._size))
    for check in checks:
        for report in check():
            assert report.elapsed_ms < step_s * 1000, report.check
    assert now[0] > 0  # the patched calls ran, outside every stopwatch


# --- determinism ------------------------------------------------------------------------------

def test_reports_replay_identically():
    first = verify_inner_tableau_translation(5, "cover")
    second = verify_inner_tableau_translation(5, "cover")
    assert first.replay_key() == second.replay_key()
    first = verify_hook_eta(6)
    second = verify_hook_eta(6)
    assert first.replay_key() == second.replay_key()


# --- cover witnesses and the two-row proof skeleton ---------------------------------------------

def test_every_cover_has_adjacent_swap_witnesses_n5():
    p = cached_poset(5)
    for a, b in p.covers:
        sigma, tau = cover_witness_words(p, a, b)
        assert insertion_tableau(sigma) == p.nodes[a]
        assert insertion_tableau(tau) == p.nodes[b]
        assert len(inversions_left(tau)) == len(inversions_left(sigma)) + 1
        diff = [j for j in range(5) if sigma[j] != tau[j]]
        assert len(diff) == 2 and diff[1] == diff[0] + 1


def test_cover_witness_rejects_non_edges():
    p = cached_poset(3)
    with pytest.raises(ValueError):
        cover_witness_words(p, parse_tableau("1,3/2"), parse_tableau("1,2/3"))


def _two_row_cover_pairs(p, k):
    """Covers (in the induced subposet) between nodes sharing a two-row
    inner tableau of size k, grouped with that inner tableau."""
    groups = {}
    for i, node in enumerate(p.nodes):
        sub = inner_tableau(node, k)
        if len(shape_of(sub)) == 2:
            groups.setdefault(sub, []).append(i)
    for sub, members in sorted(groups.items()):
        for a, b in induced_covers(p, members):
            yield sub, a, b


@pytest.mark.parametrize("n,k", [(5, 3), (5, 4), (6, 4)])
def test_two_row_translation_proof_skeleton(n, k):
    """Replay the constructive argument behind the two-row case on real
    covers: adjacent-swap witnesses exist, and whenever the swapped letters
    avoid {k, k-2}, applying the dual Knuth move to both witnesses lands in
    the relabeled classes and stays an adjacent-swap cover."""
    p = cached_poset(n)
    seen_easy = seen_hard = 0
    for sub, a, b in _two_row_cover_pairs(p, k):
        des = descent_set(sub)
        moves = [i for i in range(1, k - 1) if (i in des) != ((i + 1) in des)]
        if not moves:
            continue
        sigma, tau = cover_witness_words(p, a, b)
        j = next(idx for idx in range(n - 1) if sigma[idx] != tau[idx])
        for i in moves:
            moved_sub = dual_knuth_move(sub, i)
            expect_s = inner_translate(p.nodes[a], sub, moved_sub)
            expect_t = inner_translate(p.nodes[b], sub, moved_sub)
            if {sigma[j], sigma[j + 1]} != {i, i + 2}:
                sigma_moved = dual_knuth_move_word(sigma, i)
                tau_moved = dual_knuth_move_word(tau, i)
                assert insertion_tableau(sigma_moved) == expect_s
                assert insertion_tableau(tau_moved) == expect_t
                assert (
                    tau_moved
                    == sigma_moved[:j]
                    + (sigma_moved[j + 1], sigma_moved[j])
                    + sigma_moved[j + 2:]
                )
                assert len(inversions_left(tau_moved)) == len(inversions_left(sigma_moved)) + 1
                seen_easy += 1
            else:
                # the delicate case: confirm the conclusion and that some
                # adjacent-swap witness pair exists for the relabeled cover
                found = False
                for s2 in sorted(knuth_class(expect_s).words):
                    for jj in range(n - 1):
                        if s2[jj] < s2[jj + 1]:
                            t2 = s2[:jj] + (s2[jj + 1], s2[jj]) + s2[jj + 2:]
                            if insertion_tableau(t2) == expect_t:
                                found = True
                                break
                    if found:
                        break
                assert found
                seen_hard += 1
    assert seen_easy > 0


# --- integer sizes ------------------------------------------------------------------------

@pytest.mark.parametrize(
    "check, args",
    [
        (weakorder.build_poset, (True,)),
        (weakorder.build_poset, (3.0,)),
        (cached_poset, (True,)),
        (cached_poset, (3.0,)),
        (verify_descents_constant, (True,)),
        (verify_descents_constant, (3.0,)),
        (verify_interval_isomorphism, (True, 2)),
        (verify_interval_isomorphism, (2, 2.0)),
        (verify_antisymmetry, (3.0,)),
        (verify_hook_eta, (5.0,)),
        (verify_hook_eta, (True,)),
        (verify_inner_tableau_translation, (3.0,)),
        (verify_special_cases, (3.0, "hook")),
        (verify_restriction_insertion, (3.0,)),
        (verify_restriction_monotone, (3.0,)),
        (verify_evac_transpose_monotone, (3.0,)),
        (verify_dual_knuth_connectivity, (3.0,)),
        (verify_structural, (3.0,)),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_a_bool_or_float_size_is_a_value_error(check, args):
    # True == 1 and 3.0 == 3: the cached orders of sizes 1 and 3 must not
    # be found under them
    cached_poset(1), cached_poset(3)
    with pytest.raises(ValueError, match="must be an integer, got (True|[0-9.]+)$"):
        check(*args)
