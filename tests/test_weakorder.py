"""Poset construction against three oracles (an independently coded
brute-force one, the original per-word construction, and the word walk
with its edge projection), plus interval, isomorphism, and monotone-map
behavior."""

import concurrent.futures
import concurrent.futures.process
import dataclasses
import functools
import multiprocessing
import random
from collections import Counter
from itertools import permutations

import pytest

import closure_oracle
import column_oracle
import projection_oracle
import relation_oracle
from conftest import fresh_sizes, made
import sytkit.hopf as hopf
import sytkit.tableau as tableau
import sytkit.verify as verify
import sytkit.weakorder as weakorder
import walk_oracle
from interval_oracle import is_isomorphic
from sytkit.cli import EXIT_INTERNAL, main
from sytkit.hopf import verify_interval_isomorphism
from sytkit.knuthclass import knuth_class
from sytkit.permutation import CAPS, InvariantError
from sytkit.tableau import (
    all_standard_tableaux,
    beside,
    evacuate,
    format_tableau,
    insertion_tableau,
    over,
    parse_tableau,
    restrict,
    shape_of,
    transpose,
)
from sytkit.weakorder import (
    TableauPoset,
    build_poset,
    cached_poset,
    canonical_key,
    check_monotone_descent,
    check_monotone_shape,
    induced_covers,
    interval,
    leq,
    poset_to_json,
    to_dot,
)
from word_oracle import inversions_left


# --- brute-force oracle -------------------------------------------------------
# Independent route: compare whole classes by inversion containment, close
# with a naive Warshall pass on dict sets, reduce naively.

def oracle_relation(n):
    tabs = sorted(all_standard_tableaux(n), key=canonical_key)
    classes = {t: knuth_class(t).words for t in tabs}
    invs = {t: [inversions_left(w) for w in sorted(classes[t])] for t in tabs}
    direct = {
        t: {
            s
            for s in tabs
            if any(a <= b for a in invs[t] for b in invs[s])
        }
        for t in tabs
    }
    closure = {t: set(direct[t]) | {t} for t in tabs}
    changed = True
    while changed:
        changed = False
        for t in tabs:
            for mid in list(closure[t]):
                extra = closure[mid] - closure[t]
                if extra:
                    closure[t] |= extra
                    changed = True
    covers = set()
    for a in tabs:
        for b in closure[a]:
            if a == b:
                continue
            if any(c not in (a, b) and c in closure[a] and b in closure[c]
                   for c in tabs):
                continue
            covers.add((a, b))
    return tabs, closure, covers


# --- per-word oracle -------------------------------------------------------------
# The original construction: insert every word and every ascent swap of it
# from scratch, close with a Floyd-Warshall pass over bitmasks, transpose
# bit by bit, reduce by the bypass test.

def oracle_build(n):
    nodes = tuple(sorted(all_standard_tableaux(n), key=canonical_key))
    index = {t: i for i, t in enumerate(nodes)}
    edges = set()
    for u in permutations(range(1, n + 1)):
        a = index[insertion_tableau(u)]
        for p in range(n - 1):
            if u[p] < u[p + 1]:
                b = index[insertion_tableau(u[:p] + (u[p + 1], u[p]) + u[p + 2:])]
                if a != b:
                    edges.add((a, b))
    count = len(nodes)
    reach = [1 << i for i in range(count)]
    for a, b in edges:
        reach[a] |= 1 << b
    for k in range(count):
        for i in range(count):
            if reach[i] >> k & 1:
                reach[i] |= reach[k]
    below = [1 << j for j in range(count)]
    for a in range(count):
        for b in range(count):
            if a != b and reach[a] >> b & 1:
                below[b] |= 1 << a
    covers = tuple(
        (a, b) for a, b in sorted(edges)
        if reach[a] & below[b] & ~((1 << a) | (1 << b)) == 0
    )
    return nodes, tuple(reach), tuple(below), covers


@pytest.mark.parametrize("n", range(1, 9))
def test_build_poset_matches_per_word_oracle(n):
    nodes, reach, below, covers = oracle_build(n)
    p = build_poset(n)
    assert p.nodes == nodes
    assert p.reach == reach
    assert closure_oracle.transpose(p.reach) == below
    assert p.covers == covers
    assert p.index == {t: i for i, t in enumerate(nodes)}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_poset_matches_direct_definition_oracle(n):
    p = cached_poset(n)
    tabs, closure, covers = oracle_relation(n)
    assert p.nodes == tuple(tabs)
    for a, ta in enumerate(tabs):
        ups = {tabs[b] for b in range(len(tabs)) if p.leq_ids(a, b)}
        assert ups == closure[ta]
    got_covers = {(p.nodes[a], p.nodes[b]) for a, b in p.covers}
    assert got_covers == covers


# --- golden structure ------------------------------------------------------------

def test_n3_diamond():
    p = cached_poset(3)
    labels = [format_tableau(t) for t in p.nodes]
    assert labels == ["1/2/3", "1,3/2", "1,2/3", "1,2,3"]
    assert p.covers == ((1, 0), (2, 0), (3, 1), (3, 2))
    assert leq(p, parse_tableau("1,2,3"), parse_tableau("1/2/3"))
    assert not leq(p, parse_tableau("1,3/2"), parse_tableau("1,2/3"))
    assert not leq(p, parse_tableau("1,2/3"), parse_tableau("1,3/2"))


def test_node_counts():
    assert [len(cached_poset(n).nodes) for n in range(2, 6)] == [2, 4, 10, 26]


def test_build_poset_guards():
    with pytest.raises(ValueError):
        build_poset(0)
    with pytest.raises(ValueError):
        build_poset(CAPS["order"] + 1)


def _ids_of(n):
    return {weakorder._row_code(t): i for i, t in enumerate(cached_poset(n).nodes)}


@pytest.mark.parametrize("n", range(1, 10))
def test_walk_matches_the_walk_oracle(n):
    ids_of = _ids_of(n)
    assert projection_oracle.class_ids(n, ids_of) == walk_oracle.class_ids(n, ids_of)


@functools.cache
def _walked(n):
    return projection_oracle.lift_edges(n)


def _walked_poset(n):
    """The size-n order closed from the walked edges, on copies of their
    successor lists, which ``_poset`` sorts in place."""
    nodes, succ = _walked(n)
    return weakorder._poset(n, nodes, [list(links) for links in succ])


def _pairs(succ):
    """The distinct edges a -> b, b != a, of successor lists."""
    return {(a, b) for a, links in enumerate(succ) for b in links if b != a}


@pytest.mark.parametrize("n", range(1, 10))
def test_lifted_edges_match_the_projection_oracle(n):
    # the covers one size down are lifted, not every walked edge: the
    # lifted edges, repeats and loops set aside, are walked ones, and they
    # close and reduce to the same order
    nodes, succ = weakorder._lift_edges(n)
    walked_nodes, walked = _walked(n)
    assert nodes == walked_nodes
    assert len(succ) == len(nodes)
    assert _pairs(succ) <= _pairs(walked)
    got, expected = weakorder._poset(n, nodes, succ), _walked_poset(n)
    assert (got.covers, got.reach) == (expected.covers, expected.reach)


@pytest.mark.parametrize("n", range(1, 10))
def test_build_poset_matches_the_projection_oracle(n):
    expected = _walked_poset(n)
    got = cached_poset(n)
    assert (got.nodes, got.covers, got.reach) == (expected.nodes, expected.covers, expected.reach)
    assert got.index == expected.index


def _size(m):
    """The size-m nodes (m may be 0) and their ids by tableau."""
    nodes = tuple(sorted(all_standard_tableaux(m), key=canonical_key)) if m else ((),)
    return nodes, {t: i for i, t in enumerate(nodes)}


def _codes(index):
    """Ids by tableau as ids by row code, in id order."""
    return {weakorder._row_code(t): i for t, i in index.items()}


@pytest.mark.parametrize("k", range(1, 10))
def test_lifted_nodes_are_the_sorted_tableaux(fresh_lift, k):
    # from a cold lift, the size-k nodes grown from the size below and their
    # code map against the enumeration, canonically sorted, and _row_code;
    # each node's parent is the node left when its largest letter is removed
    size = weakorder._size(k)
    want, index = _size(k)
    assert size.nodes == want
    assert list(size.ids_of.items()) == list(_codes(index).items())
    assert size.codes == list(_codes(index))
    _, smaller = _size(k - 1)
    less = [tuple(row for row in (tuple(x for x in r if x != k) for r in t) if row) for t in want]
    assert list(size.parents) == [smaller[t] for t in less]
    assert sorted(weakorder._SIZES) == list(range(1, k + 1))


def test_lifted_tables_match_the_column_walk(fresh_lift):
    # every entry of each size's tables C_k[x] and of the rows they add,
    # lifted from the size below on a cold lift, against a real column
    # insertion into each size k - 1 tableau
    for k in range(1, 10):
        size = weakorder._size(k)
        nodes, index = _size(k - 1)
        tables, added = column_oracle.column_tables(nodes, list(_codes(index)), size.ids_of, k)
        assert [list(table) for table in size.tables] == tables
        assert [list(rows) for rows in size.added] == added
        assert {table.typecode for table in size.tables} == {weakorder._ID_TYPECODE}
        assert {rows.typecode for rows in size.added} == {"B"}


def test_a_column_table_miss_is_an_invariant_error():
    # a code map without 1,4/2/3 cannot name it; the first letter and node
    # that give it in table order are 3 and 1/2/3: 3 bumps the raised 4 out
    # of the one column 1,2,4 into a second one
    codes = dict(weakorder._size(4).ids_of)
    del codes[weakorder._row_code(parse_tableau("1,4/2/3"))]
    with pytest.raises(InvariantError) as raised:
        weakorder._column_tables(weakorder._size(3), codes, 4)
    assert str(raised.value) == "3 column-inserted into the size-3 node 1/2/3 is not a size-4 node"


@pytest.mark.parametrize("m", range(8))
def test_column_tables_insert_a_first_letter(m):
    # Schensted: P(x.w) is x column-inserted into P(w), for every word w of
    # m letters and every first letter x, with w's letters >= x raised, in
    # the lift's size m + 1 tables
    nodes, index = _size(m)
    _, bigger = _size(m + 1)
    tables = weakorder._size(m + 1).tables
    assert len(tables) == m + 1 and all(len(table) == len(nodes) for table in tables)
    for w in permutations(range(1, m + 1)):
        t = index[insertion_tableau(w) if w else ()]  # the empty word is no permutation
        for x in range(1, m + 2):
            xw = (x,) + tuple(a + (a >= x) for a in w)
            assert tables[x - 1][t] == bigger[insertion_tableau(xw)]


def _standardized(word):
    rank = {x: r for r, x in enumerate(sorted(word), 1)}
    return tuple(rank[x] for x in word)


@pytest.mark.parametrize("m", range(1, 8))
def test_insertion_ids_are_the_insertion_tableaux(m):
    # every word of m letters, on 1..m or with a gap at g (its letters
    # >= g raised), column-inserted from the right through the lift's tables
    tables = [weakorder._size(j).tables for j in range(1, m + 1)]
    index = cached_poset(m).index
    for w in permutations(range(1, m + 1)):
        for gap in range(1, m + 2):
            word = tuple(x + (x >= gap) for x in w)
            want = index[insertion_tableau(_standardized(word))]
            assert weakorder._insertion_id(word, tables) == want


def _answers(jobs):
    """What the seven functions that still take ``jobs`` give for it: the
    order of a fresh poset, then each report without ``elapsed_ms``."""
    p = cached_poset(7, jobs=jobs)
    reports = [
        verify.verify_antisymmetry(5, jobs=jobs),
        verify.verify_inner_tableau_translation(5, "order", jobs=jobs),
        verify.verify_inner_translation_fails(jobs=jobs),
        verify.verify_special_cases(5, "hook", jobs=jobs),
        *verify.verify_structural(4, jobs=jobs),
        verify_interval_isomorphism(2, 3, jobs=jobs),
    ]
    return (p.nodes, p.covers, p.reach), [r.to_json(False) for r in reports]


@pytest.mark.parametrize("jobs", [2, 64, 10**6])
def test_jobs_start_no_process_pool(monkeypatch, fresh_lift, jobs):
    # perfbench passes jobs=1 to these seven; any other value is ignored
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(multiprocessing, "Pool", refuse)
    got = _answers(jobs)  # the posets are built here, on fresh records
    weakorder._reset_sizes()
    assert got == _answers(1)


def _cyclic_lift(n):
    """The size-n nodes and lifted successor lists with the reverse of one
    edge added, which makes a two-node cycle, and that edge's ends."""
    nodes, succ = weakorder._lift_edges(n)
    pairs = sorted(_pairs(succ))
    a, b = pairs[len(pairs) // 2]
    succ[b].append(a)
    return nodes, succ, (nodes[b], nodes[a])


def test_an_edge_that_goes_up_is_an_invariant_error():
    # antisymmetry is checked during the build: the id order must be a
    # linear extension, so a cycle among the edges cannot be closed
    nodes, edges, (lower, upper) = _cyclic_lift(5)
    with pytest.raises(InvariantError) as raised:
        weakorder._poset(5, nodes, edges)
    assert str(raised.value) == (
        f"projected edge {format_tableau(lower)} < {format_tableau(upper)} "
        "goes up in the id order"
    )


@pytest.mark.parametrize("off", [26, 1000, -1])
def test_a_successor_off_the_nodes_is_an_invariant_error(off):
    # a node id past the last node, or a negative one, is named, not read
    nodes, succ = weakorder._lift_edges(5)
    assert len(nodes) == 26
    succ[20].append(off)
    with pytest.raises(InvariantError) as raised:
        weakorder._poset(5, nodes, succ)
    at = format_tableau(nodes[20])
    assert str(raised.value) == f"projected edge from {at} to node id {off}, off the nodes"


def test_successor_lists_for_other_nodes_are_an_invariant_error():
    nodes, succ = weakorder._lift_edges(5)
    for broken in succ + [[]], succ[:-1]:
        with pytest.raises(InvariantError) as raised:
            weakorder._poset(5, nodes, broken)
        assert str(raised.value) == f"projected edges from {len(broken)} node ids, not the 26 nodes"


def test_an_edge_that_goes_up_exits_3(capsys, monkeypatch, fresh_lift):
    nodes, edges, _ = _cyclic_lift(5)
    monkeypatch.setattr(weakorder, "_lift_edges", lambda n: (nodes, edges))
    code = main(["poset", "--n", "5"])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL
    assert captured.out == ""
    assert captured.err.startswith("internal error: projected edge ")


def test_each_size_is_lifted_once(monkeypatch, fresh_lift):
    # each size's tables are lifted once, from the record one size down
    sizes = []

    def counted(below, ids_of, k):
        assert below is (weakorder._SIZES[k - 1] if k > 1 else weakorder._EMPTY)
        sizes.append(k)
        return column_tables(below, ids_of, k)

    column_tables = weakorder._column_tables
    monkeypatch.setattr(weakorder, "_column_tables", counted)
    for n in range(2, 10):
        build_poset(n)
    assert sizes == list(range(1, 10))


# every field of a size record; hi and lo from size 2, as a size-1 node
# loses its one letter to no node of the lift
FIELDS = (
    "nodes", "codes", "ids_of", "parents", "tables", "added",
    "evacuation", "transposition", "hi", "lo", "moves", "order",
)


def _every_field(k):
    size = weakorder._size(k)
    return {name: getattr(size, name) for name in FIELDS if k > 1 or name not in ("hi", "lo")}


def test_every_field_is_made_once_after_a_reset(monkeypatch):
    # each field of sizes 1..7 read twice after a reset, its maker counted
    # per size: once each, and equal to the record the process made first
    warm = {k: _every_field(k) for k in range(1, 8)}
    calls = Counter()

    def count(name, size_of):
        maker = getattr(weakorder, name)

        def counted(*args):
            calls[name, size_of(*args)] += 1
            return maker(*args)

        monkeypatch.setattr(weakorder, name, counted)

    count("_grown", lambda prev, prev_codes, k: k)
    count("_column_tables", lambda below, ids_of, k: k)
    for name in ("_symmetry_tables", "_one_steps", "_move_table"):
        count(name, lambda size: size.k)
    count("build_poset", lambda n: n)
    with fresh_sizes():
        for k in range(1, 8):
            first = _every_field(k)
            assert _every_field(k) == first == warm[k]
    makers = ("_grown", "_column_tables", "_symmetry_tables", "_one_steps", "_move_table", "build_poset")
    assert calls == {
        (name, k): 1 for name in makers for k in range(1, 8) if (name, k) != ("_one_steps", 1)
    }


def test_a_size_with_more_nodes_than_the_id_typecode_holds_is_refused(monkeypatch, fresh_lift):
    # one byte per id holds the 232 nodes of size 7, not the 764 of size 8
    monkeypatch.setattr(weakorder, "_ID_TYPECODE", "B")
    assert [len(weakorder._size(k).nodes) for k in range(1, 8)] == [1, 2, 4, 10, 26, 76, 232]
    size = weakorder._size(7)
    assert {table.typecode for table in (*size.tables, size.evacuation, size.transposition)} == {"B"}
    with pytest.raises(InvariantError) as raised:
        weakorder._size(8)
    assert str(raised.value) == "size 8 has 764 nodes, more than the 256 ids of typecode 'B'"


def test_the_lift_refuses_a_size_outside_its_cap(fresh_lift):
    # _size(0) once counted down through the negative sizes without end, and
    # a size above the cap was lifted though nothing reads it
    def records():
        return {k: (size, dict(vars(size))) for k, size in weakorder._SIZES.items()}

    for largest in (None, 3):
        if largest:
            weakorder._size(largest)
        before = records()
        for k in (0, -1, CAPS["lift"] + 1):
            with pytest.raises(InvariantError) as raised:
                weakorder._size(k)
            assert str(raised.value) == f"the lift holds sizes 1..{CAPS['lift']}, not {k}"
            assert records() == before
    # each size made keeps what the next is lifted from
    lifted = {"parents", "tables", "added"}
    assert [k for k, size in weakorder._SIZES.items() if lifted <= vars(size).keys()] == [1, 2, 3]


def _lifted_fields(size):
    return (size.nodes, size.codes, list(size.parents),
            [list(table) for table in size.tables], [list(rows) for rows in size.added])


def test_a_failed_lift_leaves_the_records_it_made(monkeypatch, fresh_lift):
    # the next lift grows from the largest of them: no record is made again
    monkeypatch.setattr(weakorder, "_ID_TYPECODE", "B")
    weakorder._size(6)
    with pytest.raises(InvariantError):
        weakorder._size(8)  # size 7 is made, size 8 is refused
    made_before = dict(weakorder._SIZES)
    assert sorted(made_before) == list(range(1, 8))
    grown = []
    grow = weakorder._grown

    def counted(prev, codes, k):
        grown.append(k)
        return grow(prev, codes, k)

    monkeypatch.setattr(weakorder, "_grown", counted)
    monkeypatch.setattr(weakorder, "_ID_TYPECODE", "H")
    size = weakorder._size(8)
    assert len(size.nodes) == 764 and grown == [8]
    assert all(weakorder._SIZES[k] is record for k, record in made_before.items())
    with fresh_sizes():
        assert _lifted_fields(size) == _lifted_fields(weakorder._size(8))


def _fields(p):
    return p.nodes, p.covers, p.reach, p.index


@pytest.mark.parametrize("n", range(4, 9))
def test_build_poset_does_not_depend_on_the_sizes_lifted_before(fresh_lift, n):
    # cold: neither the tables nor the orders one size down are made yet
    cold = _fields(build_poset(n))
    for first in (n + 1, n - 3):
        weakorder._reset_sizes()
        build_poset(first)
        assert _fields(build_poset(n)) == cold


def test_closure_is_needed_at_n5():
    p = cached_poset(5)
    lower = parse_tableau("1,2,5/3,4")
    upper = parse_tableau("1,4/2,5/3")
    assert leq(p, lower, upper)
    # no single pair of class words certifies the relation directly
    lo_invs = [inversions_left(w) for w in knuth_class(lower).words]
    up_invs = [inversions_left(w) for w in knuth_class(upper).words]
    assert not any(a <= b for a in lo_invs for b in up_invs)


def test_leq_rejects_foreign_nodes():
    p = cached_poset(3)
    with pytest.raises(ValueError):
        leq(p, parse_tableau("1,2"), parse_tableau("1/2"))


# --- intervals and induced covers ---------------------------------------------------

def test_interval_golden_four_members():
    p = cached_poset(5)
    left = parse_tableau("1,2/3")
    right = parse_tableau("1/2")
    iv = interval(p, beside(left, right), over(left, right))
    labels = sorted(format_tableau(t) for t in iv.member_tableaux())
    assert labels == ["1,2,4/3,5", "1,2,4/3/5", "1,2/3,4/5", "1,2/3/4/5"]
    assert iv.bottom in iv.members and iv.top in iv.members


def test_interval_of_equal_endpoints():
    p = cached_poset(4)
    t = parse_tableau("1,2/3,4")
    iv = interval(p, t, t)
    assert iv.members == (p.node_id(t),)
    assert iv.covers == ()


def test_induced_covers_differ_from_restriction_of_global_covers():
    # on a 3-chain {a < b < c}, the subset {a, c} has induced cover (a, c)
    p = cached_poset(3)
    bottom = p.node_id(parse_tableau("1,2,3"))
    top = p.node_id(parse_tableau("1/2/3"))
    assert (bottom, top) not in p.covers
    assert induced_covers(p, [bottom, top]) == ((bottom, top),)


def test_induced_covers_count_a_repeated_node_once():
    p = cached_poset(4)
    iv = interval(p, parse_tableau("1,2,3,4"), parse_tableau("1/2/3/4"))
    m = list(iv.members)
    assert len(m) == 10
    covers = induced_covers(p, m + m[:2])
    assert covers.count((1, 0)) == 1
    assert covers == induced_covers(p, m) == iv.covers


@pytest.mark.parametrize("n", range(1, 7))
def test_intervals_match_reach_and_its_transpose(n):
    # every node pair, the empty intervals of the pairs a </= b included
    p = cached_poset(n)
    below = closure_oracle.transpose(p.reach)
    count = len(p.nodes)
    empty = 0
    for a in range(count):
        for b in range(count):
            iv = interval(p, a, b)
            members = weakorder._bits(p.reach[a] & below[b])
            assert iv.members == tuple(members)
            assert iv.covers == closure_oracle.gap_covers(p.reach, below, members)
            empty += not members
    assert empty == count * count - p.strict_relations() - count


@pytest.mark.parametrize("n", [6, 7])
def test_induced_covers_match_the_gap_test_on_random_subsets(n):
    p = cached_poset(n)
    below = closure_oracle.transpose(p.reach)
    rng = random.Random(n)
    for _ in range(200):
        members = rng.sample(range(len(p.nodes)), rng.randrange(1, 60))
        want = closure_oracle.gap_covers(p.reach, below, members)
        assert induced_covers(p, members) == want


def test_induced_covers_contain_known_failure_pair():
    p = cached_poset(6)
    sub = parse_tableau("1,2,4/3")
    members = [
        i for i, t in enumerate(p.nodes)
        if shape_of(t)[0] >= 3 and _inner(t, 4) == sub
    ]
    pair = (
        p.node_id(parse_tableau("1,2,4/3,5,6")),
        p.node_id(parse_tableau("1,2,4/3,6/5")),
    )
    assert pair in induced_covers(p, members)


def _inner(tab, k):
    from sytkit.tableau import inner_tableau

    return inner_tableau(tab, k)


# --- isomorphism ------------------------------------------------------------------------

def test_isomorphic_reflexive_and_size_check():
    p = cached_poset(5)
    left = parse_tableau("1,2/3")
    right = parse_tableau("1/2")
    iv = interval(p, beside(left, right), over(left, right))
    assert is_isomorphic(iv, iv)
    smaller = interval(p, p.nodes[0], p.nodes[0])
    assert not is_isomorphic(iv, smaller)


def test_same_shapes_give_isomorphic_intervals_n5():
    p = cached_poset(5)
    pairs = []
    for left in (parse_tableau("1,2/3"), parse_tableau("1,3/2")):
        iv = interval(p, beside(left, parse_tableau("1/2")),
                      over(left, parse_tableau("1/2")))
        pairs.append(iv)
    assert is_isomorphic(pairs[0], pairs[1])


def test_non_isomorphic_intervals_detected():
    p = cached_poset(3)
    chain = interval(p, p.node_id(parse_tableau("1,2,3")),
                     p.node_id(parse_tableau("1,3/2")))
    diamond = interval(p, p.node_id(parse_tableau("1,2,3")),
                       p.node_id(parse_tableau("1/2/3")))
    assert not is_isomorphic(chain, diamond)


# --- the closure of the covers ------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 10))
def test_built_orders_are_the_closures_of_their_covers(n):
    p = dataclasses.replace(cached_poset(n))
    assert weakorder._closure_fault(p) is None
    assert "closure" in p._cache


def test_closure_fault_names_what_fails_first():
    p = cached_poset(5)
    (a, b), rest = p.covers[0], p.covers[1:]
    e, c = p.covers[-1]  # c is just above the bottom, so few nodes lie below it
    d = next(d for x, d in p.covers if x == c)  # e < c < d are covers
    reach = list(p.reach)
    reach[a] &= ~(1 << b)
    s, t = format_tableau(p.nodes[a]), format_tableau(p.nodes[b])
    cases = [
        (dataclasses.replace(p, reach=tuple(reach)),
         f"closure of the covers disagrees with reach at {s}"),
        # a cover going up and a loop fail the id-order premise, not a row
        (dataclasses.replace(p, covers=((b, a),) + rest),
         f"cover {t} < {s} does not go down in the id order"),
        (dataclasses.replace(p, covers=p.covers + ((a, a),)),
         f"cover {s} < {s} does not go down in the id order"),
        # the rows still close, and the added cover e < d passes through c
        (dataclasses.replace(p, covers=tuple(sorted((*p.covers, (e, d))))),
         f"covers are not reduced: cover {format_tableau(p.nodes[e])} < "
         f"{format_tableau(p.nodes[d])} passes through another"),
    ]
    for broken, fault in cases:
        assert weakorder._closure_fault(broken) == fault


# --- monotone maps -------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_monotone_descent(n):
    report = check_monotone_descent(cached_poset(n))
    assert report.passed
    assert report.checked > 0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_monotone_shape_direction_down(n):
    report = check_monotone_shape(cached_poset(n))
    assert report.passed
    assert report.details["direction"] == "down"


def test_monotone_shape_direction_up_on_the_dual_order():
    p = cached_poset(4)
    dual = TableauPoset(
        p.n,
        p.nodes,
        tuple(sorted((b, a) for a, b in p.covers)),
        closure_oracle.transpose(p.reach),
        p.index,
    )
    report = check_monotone_shape(dual)
    assert report.passed
    assert report.details["direction"] == "up"
    assert report.checked == check_monotone_shape(p).checked


def test_monotone_shape_direction_none():
    # one cover rises in dominance, (2,1) -> (3); the other falls,
    # (2,1) -> (1,1,1); ids follow the shapes' lexicographic order
    nodes = (((1,), (2,), (3,)), ((1, 2), (3,)), ((1, 2, 3),))
    p = TableauPoset(
        3,
        nodes,
        ((1, 0), (1, 2)),
        (0b001, 0b111, 0b100),
        {t: i for i, t in enumerate(nodes)},
    )
    report = check_monotone_shape(p)
    assert not report.passed
    assert report.checked == 2
    assert report.details["direction"] == "none"
    assert report.violations == [
        {"S": "1,2/3", "T": "1,2,3", "sh_S": [2, 1], "sh_T": [3]}
    ]


def _without(p, gone):
    """The order ``p`` induced on all its nodes but ``gone``."""
    keep = [a for a in range(len(p.nodes)) if a != gone]
    new = {a: i for i, a in enumerate(keep)}
    nodes = tuple(p.nodes[a] for a in keep)
    reach = tuple(sum(1 << new[b] for b in weakorder._bits(p.reach[a]) if b in new) for a in keep)
    covers = tuple((new[a], new[b]) for a, b in induced_covers(p, keep))
    return TableauPoset(p.n, nodes, covers, reach, {t: i for i, t in enumerate(nodes)})


def _dual(p):
    """``p`` with every relation reversed: its covers go up in the id order."""
    reach = tuple(closure_oracle.transpose(p.reach))
    return dataclasses.replace(p, covers=tuple(sorted((b, a) for a, b in p.covers)), reach=reach)


def test_monotone_descent_on_other_nodes_matches_the_oracle():
    # orders on nodes that are not the lift's: the three nodes of
    # test_monotone_shape_direction_none, where 1,2/3 < 1,2,3 loses the
    # descent 2, and the size-5 order less one node, upright and reversed;
    # each node's mask is read off its own row code
    nodes = (((1,), (2,), (3,)), ((1, 2), (3,)), ((1, 2, 3),))
    small = TableauPoset(3, nodes, ((1, 0), (1, 2)), (0b001, 0b111, 0b100),
                         {t: i for i, t in enumerate(nodes)})
    five = _without(cached_poset(5), cached_poset(5).index[parse_tableau("1,2,4/3,5")])
    for p in (small, five, _dual(five)):
        assert weakorder._node_codes(p) is not weakorder._size(p.n).codes
        report = check_monotone_descent(p)
        assert (report.checked, report.violations) == relation_oracle.monotone_descent(p)
        assert report.passed == (p is five)
    assert check_monotone_descent(small).violations == [
        {"S": "1,2/3", "T": "1,2,3", "des_S": [2], "des_T": []}
    ]


def _inclusion_rows(masks):
    """The pairwise definition: bit t of row m for each mask t that holds m."""
    distinct = set(masks)
    return {m: sum(1 << t for t in distinct if not m & ~t) for m in distinct}


@pytest.mark.parametrize("n", range(1, 10))
def test_superset_rows_are_the_inclusion_rows(n):
    masks = weakorder._size(n).descents
    rows = weakorder._superset_rows(masks, n)
    assert len(rows) == 1 << n
    assert {m: rows[m] for m in set(masks)} == _inclusion_rows(masks)


def test_superset_rows_on_masks_with_gaps():
    # even masks below 2**7 with neither bit 3 nor bit 5 in all but one,
    # and values between them that no mask takes
    masks = [0b0000000, 0b0000100, 0b1000010, 0b1010110, 0b1000110, 0b0101000, 0b1000010]
    rows = weakorder._superset_rows(masks, 7)
    assert {m: rows[m] for m in set(masks)} == _inclusion_rows(masks)
    assert rows[0b0000000] == sum(1 << t for t in set(masks))
    assert rows[0b0101000] == 1 << 0b0101000


def test_the_descent_and_shape_tables_are_the_tableaux(fresh_lift):
    # every node of sizes 1..9 of a cold lift; the column tables are gone
    # before any mask is made, so no mask reads them
    top = CAPS["lift"]
    weakorder._size(top)
    for k in range(1, top + 1):
        vars(weakorder._size(k))["tables"] = None
    for k in range(1, top + 1):
        size = weakorder._size(k)
        assert [weakorder._bits(d) for d in size.descents] == [
            sorted(tableau._descents(t)) for t in size.nodes
        ]
        assert size.shapes == [shape_of(t) for t in size.nodes]


def test_restriction_is_order_monotone_n5():
    p = cached_poset(5)
    small = {m: cached_poset(m) for m in range(2, 6)}
    for a in range(len(p.nodes)):
        for b in range(len(p.nodes)):
            if a == b or not p.leq_ids(a, b):
                continue
            for i in range(1, 5):
                for j in range(i + 1, 6):
                    q = small[j - i + 1]
                    assert leq(q, restrict(p.nodes[a], i, j),
                               restrict(p.nodes[b], i, j))


def test_evac_transpose_monotone_n5():
    p = cached_poset(5)
    for a in range(len(p.nodes)):
        for b in range(len(p.nodes)):
            if a == b or not p.leq_ids(a, b):
                continue
            assert leq(p, evacuate(p.nodes[a]), evacuate(p.nodes[b]))
            assert leq(p, transpose(p.nodes[b]), transpose(p.nodes[a]))


def test_transpose_reverses_the_hasse_diagram_n8():
    # transpose is an anti-automorphism: every cover (a, b) maps to the
    # cover (T(b), T(a)), and T is an involution on the nodes
    p = cached_poset(8)
    image = [p.index[transpose(t)] for t in p.nodes]
    assert all(image[image[a]] == a for a in range(len(p.nodes)))
    assert {(image[b], image[a]) for a, b in p.covers} == set(p.covers)


def test_evacuation_preserves_the_hasse_diagram_n8():
    # evacuation is an automorphism: every cover (a, b) maps to the cover
    # (E(a), E(b)), and E is an involution on the nodes
    p = cached_poset(8)
    image = [p.index[evacuate(t)] for t in p.nodes]
    assert all(image[image[a]] == a for a in range(len(p.nodes)))
    assert {(image[a], image[b]) for a, b in p.covers} == set(p.covers)


@pytest.mark.parametrize("n", range(1, 10))
def test_symmetry_tables_are_evacuation_and_transposition(n):
    # the id tables made from the size below and the column tables,
    # against the tableau forms on every node
    size = weakorder._size(n)
    nodes = size.nodes
    index = {t: a for a, t in enumerate(nodes)}
    evacuation, transposition = size.evacuation, size.transposition
    assert list(evacuation) == [index[tableau._evacuate(t)] for t in nodes]
    assert list(transposition) == [index[tableau._transpose(t)] for t in nodes]


def _symmetry_fault(change):
    """The message of ``_check_symmetries`` on the size-5 tables with
    ``change(evacuation, transposition, nodes)`` applied to copies."""
    size = weakorder._size(5)
    nodes = size.nodes
    evacuation, transposition = list(size.evacuation), list(size.transposition)
    change(evacuation, transposition, nodes)
    with pytest.raises(InvariantError) as info:
        weakorder._check_symmetries(size, evacuation, transposition)
    return str(info.value)


def _swap(table, a, b):
    table[a], table[b] = table[b], table[a]


def test_symmetry_tables_must_be_involutions():
    # two entries of evacuation exchanged: 1/2/3/4/5 (id 0) now goes where
    # the next node went, which does not come back
    message = _symmetry_fault(lambda e, t, nodes: _swap(e, 0, 1))
    assert message == "the evacuation table is not an involution at 1/2/3/4/5"
    message = _symmetry_fault(lambda e, t, nodes: _swap(t, 0, 1))
    assert message == "the transposition table is not an involution at 1/2/3/4/5"
    # a node left without an image keeps the id past the last node
    message = _symmetry_fault(lambda e, t, nodes: e.__setitem__(3, len(nodes)))
    assert message.startswith("the evacuation table is not an involution at ")


def test_symmetry_tables_must_keep_or_conjugate_the_shape():
    # the identity is an involution, but transposes no shape but a
    # self-conjugate one; evacuation swapped between two nodes of different
    # shapes, both ways, stays an involution
    def transposition_identity(e, t, nodes):
        t[:] = range(len(t))

    message = _symmetry_fault(transposition_identity)
    assert message == "the transposition table moves the shape of 1/2/3/4/5"

    def evacuation_across_shapes(e, t, nodes):
        a, b = 0, len(nodes) - 1  # 1/2/3/4/5 and 1,2,3,4,5, both fixed
        e[a], e[b] = b, a

    message = _symmetry_fault(evacuation_across_shapes)
    assert message == "the evacuation table moves the shape of 1/2/3/4/5"


def test_the_symmetry_tables_are_made_once_per_size(fresh_lift):
    # made from the size below, each once per process; no table is made by
    # a product or the public evacuate and transpose
    def symmetries(m):
        size = weakorder._size(m)
        return size.evacuation, size.transposition

    left, right = parse_tableau("1,2/3"), parse_tableau("1,3/2,4")
    hopf.plactic_product(left, right)
    evacuate(parse_tableau("1,2,4/3,5")), transpose(parse_tableau("1,2,4/3,5"))
    assert made("evacuation") == made("transposition") == []
    first = symmetries(6)
    assert made("evacuation") == made("transposition") == list(range(1, 7))
    assert all(a is b for a, b in zip(symmetries(6), first))
    # an interval product reads its ends through the transposition tables
    # of its factors' sizes and its total: only the total's is new here
    kept = {m: symmetries(m) for m in made("evacuation")}
    hopf.interval_product(left, right, cached_poset(7))
    assert made("evacuation") == made("transposition") == list(range(1, 8))
    assert all(a is b for m, tables in kept.items() for a, b in zip(symmetries(m), tables))


def test_poset_counts_n9():
    # an identity oracle at the largest size: nodes (one per involution of
    # 9 letters), covers and strict relations, as measured at n = 9
    p = cached_poset(9)
    assert (len(p.nodes), len(p.covers), p.strict_relations()) == (2620, 9826, 284975)


# --- exports ----------------------------------------------------------------------------------

EXPECTED_DOT_3 = """digraph weak_order_syt_3 {
  rankdir=BT;
  n0 [label="1/2/3"];
  n1 [label="1,3/2"];
  n2 [label="1,2/3"];
  n3 [label="1,2,3"];
  n1 -> n0;
  n2 -> n0;
  n3 -> n1;
  n3 -> n2;
}
"""


def test_dot_export_golden():
    assert to_dot(cached_poset(3)) == EXPECTED_DOT_3


def test_json_export():
    got = poset_to_json(cached_poset(3))
    assert got["n"] == 3
    assert got["nodes"] == ["1/2/3", "1,3/2", "1,2/3", "1,2,3"]
    assert got["covers"] == [[1, 0], [2, 0], [3, 1], [3, 2]]


def test_exports_are_deterministic():
    a = to_dot(build_poset(4))
    b = to_dot(build_poset(4))
    assert a == b
