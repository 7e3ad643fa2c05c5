import dataclasses
from math import comb

import pytest

import product_oracle
import sytkit.hopf as hopf
import sytkit.knuthclass as knuthclass
import sytkit.tableau as tableau
import sytkit.weakorder as weakorder
from sytkit.hopf import (
    interval_product,
    plactic_product,
    verify_interval_isomorphism,
)
from sytkit.knuthclass import knuth_class
from sytkit.permutation import CAPS, InvariantError
from sytkit.tableau import (
    all_standard_tableaux,
    beside,
    dominance_leq,
    evacuate,
    over,
    parse_tableau,
    shape_of,
    size_of,
)
from sytkit.weakorder import cached_poset


def test_product_golden_four_terms():
    left = parse_tableau("1,2/3")
    right = parse_tableau("1/2")
    got = plactic_product(left, right)
    expected = {
        parse_tableau("1,2,4/3,5"),
        parse_tableau("1,2,4/3/5"),
        parse_tableau("1,2/3,4/5"),
        parse_tableau("1,2/3/4/5"),
    }
    assert set(got.terms) == expected
    assert all(m == 1 for m in got.terms.values())


def test_product_of_single_cells():
    got = plactic_product(((1,),), ((1,),))
    assert set(got.terms) == {((1, 2),), ((1,), (2,))}


def _one_row(m):
    return (tuple(range(1, m + 1)),)


# a product one past the lift's cap, in two factors, and its refusal
_TOO_LARGE = (CAPS["lift"] + 1) // 2, (CAPS["lift"] + 2) // 2
_TOO_LARGE_MESSAGE = rf"^product size must be in 2\.\.{CAPS['lift']}$"


def test_product_size_guard():
    left, right = _TOO_LARGE
    with pytest.raises(ValueError, match=_TOO_LARGE_MESSAGE):
        plactic_product(
            all_standard_tableaux(left)[0], all_standard_tableaux(right)[0]
        )


def test_product_size_guard_messages(monkeypatch):
    listed = []
    monkeypatch.setattr(hopf, "_bump_graph", listed.append)
    left, right = _TOO_LARGE
    with pytest.raises(ValueError, match=_TOO_LARGE_MESSAGE):
        plactic_product(_one_row(left), _one_row(right))
    # a factor beyond the class listing's limit is refused by the product's
    # size too: each factor is checked, then the size compared, before any
    # reverse-bump graph is made
    beyond = _one_row(CAPS["word"] + 1)
    with pytest.raises(ValueError, match=_TOO_LARGE_MESSAGE):
        plactic_product(beyond, ((1,),))
    with pytest.raises(ValueError, match="row not increasing"):
        plactic_product(((2, 1), (3,)), beyond)
    assert listed == []


def test_plactic_product_validates_each_factor_once(monkeypatch):
    left, right = parse_tableau("1,2/3"), parse_tableau("1/2")
    calls = []
    check = tableau.check_standard

    def counting(rows):
        calls.append(rows)
        return check(rows)

    for module in (tableau, hopf, knuthclass):
        monkeypatch.setattr(module, "check_standard", counting)
    product = hopf.plactic_product(left, right)
    assert calls == [left, right]
    assert len(product) == 4
    with pytest.raises(ValueError, match="row not increasing"):
        hopf.plactic_product(((2, 1), (3,)), right)
    with pytest.raises(ValueError, match="column 1 not increasing"):
        hopf.plactic_product(left, ((2,), (1,)))


def test_support_equals_interval_members_upto_6():
    for k in range(1, 6):
        for l in range(1, 7 - k):
            p = cached_poset(k + l)
            for left in all_standard_tableaux(k):
                for right in all_standard_tableaux(l):
                    support = set(plactic_product(left, right).terms)
                    members = set(interval_product(left, right, p))
                    assert support == members


def test_interval_product_needs_matching_poset():
    with pytest.raises(ValueError):
        interval_product(((1,),), ((1,),), cached_poset(3))


def test_a_product_above_the_order_cap_is_refused_before_the_lift_is_read(monkeypatch):
    # a hand-made order of the product's size passes the size match, and
    # the lift holds no size above its cap: the product size is refused
    # first, a usage error, never the lift's InvariantError
    monkeypatch.setattr(hopf, "_check_lift_nodes", None)
    monkeypatch.setattr(hopf, "_size", None)
    left, right = (tuple(range(1, CAPS["order"] + 1)),), ((1,),)
    p = weakorder.TableauPoset(n=CAPS["order"] + 1, nodes=(), covers=(), reach=(), index={})
    for product in (hopf.product_interval, hopf.interval_product):
        with pytest.raises(ValueError, match=rf"^product size must be in 2\.\.{CAPS['order']}$"):
            product(left, right, p)


def test_product_interval_validates_each_factor_once(monkeypatch):
    left, right = parse_tableau("1,2/3"), parse_tableau("1/2")
    p = cached_poset(5)
    calls = []
    check = tableau.check_standard

    def counting(rows):
        calls.append(rows)
        return check(rows)

    for module in (tableau, hopf, weakorder):
        monkeypatch.setattr(module, "check_standard", counting)
    iv = hopf.product_interval(left, right, p)
    assert calls == [left, right]
    assert (p.nodes[iv.bottom], p.nodes[iv.top]) == (
        parse_tableau("1,2,4/3,5"), parse_tableau("1,2/3/4/5")
    )
    assert len(iv.members) == 4
    calls.clear()
    # the support is read from the member mask: no covers are induced
    monkeypatch.setattr(weakorder, "induced_covers", None)
    assert hopf.interval_product(left, right, p) == iv.member_tableaux()
    assert calls == [left, right]
    for product in (hopf.product_interval, hopf.interval_product):
        with pytest.raises(ValueError):
            product(((2, 1), (3,)), right, p)


def test_endpoints_belong_to_support():
    for k, l in [(1, 3), (2, 2), (3, 2)]:
        for left in all_standard_tableaux(k):
            for right in all_standard_tableaux(l):
                support = set(plactic_product(left, right).terms)
                assert beside(left, right) in support
                assert over(left, right) in support


def test_class_size_counting_identity():
    # shuffle words split into whole classes: sizes must add up
    for k, l in [(k, l) for k in range(1, 6) for l in range(1, 6) if k + l <= 6]:
        for left in all_standard_tableaux(k):
            for right in all_standard_tableaux(l):
                got = plactic_product(left, right)
                total = sum(len(knuth_class(t).words) for t in got.terms)
                expected = (
                    comb(k + l, k)
                    * len(knuth_class(left).words)
                    * len(knuth_class(right).words)
                )
                assert total == expected


def test_endpoint_shapes_are_dominance_extremes():
    for k, l in [(2, 2), (2, 3), (3, 3)]:
        for left in all_standard_tableaux(k):
            for right in all_standard_tableaux(l):
                got = plactic_product(left, right)
                top_shape = shape_of(over(left, right))
                bottom_shape = shape_of(beside(left, right))
                for tab in got.terms:
                    assert dominance_leq(top_shape, shape_of(tab))
                    assert dominance_leq(shape_of(tab), bottom_shape)


def test_evacuation_swaps_the_concatenations():
    for k, l in [(2, 2), (2, 3), (3, 3)]:
        for left in all_standard_tableaux(k):
            for right in all_standard_tableaux(l):
                assert evacuate(beside(left, right)) == beside(
                    evacuate(right), evacuate(left)
                )
                assert evacuate(over(left, right)) == over(
                    evacuate(right), evacuate(left)
                )


def test_interval_isomorphism_small_sweeps():
    for k, l in [(1, 3), (2, 2), (2, 3), (1, 4)]:
        report = verify_interval_isomorphism(k, l)
        assert report.passed, report.violations


@pytest.mark.parametrize(
    "k, checked", [(1, 217), (2, 130), (3, 83), (4, 75), (5, 83), (6, 130), (7, 217)]
)
def test_interval_isomorphism_n8(k, checked):
    report = verify_interval_isomorphism(k, 8 - k)
    assert report.checked == checked
    assert report.violations == []


def test_interval_isomorphism_guards():
    with pytest.raises(ValueError):
        verify_interval_isomorphism(4, CAPS["order"] + 1 - 4)
    with pytest.raises(ValueError):
        verify_interval_isomorphism(0, 3)


def drop_root_step(masks, steps):
    """The graph's first root step dropped: it spells a partial class,
    the words through the other corners only."""
    del steps[0][0]


def duplicate_root_step(masks, steps):
    """The graph's first root step taken twice: each word through it is
    spelled twice."""
    steps[0].append(steps[0][0])


def cut_short(masks, steps):
    """The first step of the first two-letter node led straight to the
    empty end: the words through it are one letter short."""
    a = next(a for a, mask in enumerate(masks) if mask.bit_count() == 2)
    steps[a][0] = (len(steps) - 1, steps[a][0][1])


def graph_fault(change):
    """A fault installer: ``hopf._bump_graph`` with ``change`` applied to
    the graph of every tableau of at least three cells."""

    def install(monkeypatch):
        graph = knuthclass._bump_graph

        def broken(rows):
            masks, steps = graph(rows)
            if size_of(rows) >= 3:
                change(masks, steps)
            return masks, steps

        monkeypatch.setattr(hopf, "_bump_graph", broken)

    return install


def exit_letter_one(monkeypatch):
    """Every reverse bump exits the letter 1, on an empty step table: the
    fault reaches every entry made, and none outlives the test."""
    real = knuthclass._reverse_bump
    monkeypatch.setattr(knuthclass, "_STEPS", {})
    monkeypatch.setattr(knuthclass, "_reverse_bump", lambda rows, r: (real(rows, r)[0], 1))


# fault -> the product's errors on 1,2,4/3,5 times 1/2 and on 1/2 times
# 1,2,4/3,5: only the graph of 1,2,4/3,5 is faulted, so the second pair
# faults the right factor, whose steps the walk reads with their letters
# raised
GRAPH_FAULTS = {
    "partial-class": (
        graph_fault(drop_root_step),
        "counted 63 shuffle words, not the 5 * 1 * C(7, 5) = 105 of the two classes",
        "counted 63 shuffle words, not the 1 * 5 * C(7, 2) = 105 of the two classes",
    ),
    "root-step-duplicated": (
        graph_fault(duplicate_root_step),
        "counted 147 shuffle words, not the 5 * 1 * C(7, 5) = 105 of the two classes",
        "counted 147 shuffle words, not the 1 * 5 * C(7, 2) = 105 of the two classes",
    ),
    "short-word": (
        graph_fault(cut_short),
        "a reverse-bump step of 1,2,4/3,5 does not take exactly its letter 1",
        "a reverse-bump step of 1,2,4/3,5 does not take exactly its letter 1",
    ),
    "exit-letter-one": (
        exit_letter_one,
        "a reverse-bump step of 1,2,4/3,5 does not take exactly its letter 1",
        "a reverse-bump step of 1,2,4/3,5 does not take exactly its letter 1",
    ),
}


@pytest.mark.parametrize("fault, message, swapped", GRAPH_FAULTS.values(), ids=GRAPH_FAULTS)
def test_product_broken_invariant_is_not_a_value_error(monkeypatch, fault, message, swapped):
    fault(monkeypatch)
    big, small = parse_tableau("1,2,4/3,5"), parse_tableau("1/2")
    for left, right, expected in [(big, small, message), (small, big, swapped)]:
        with pytest.raises(InvariantError) as info:
            plactic_product(left, right)
        assert str(info.value) == expected
        assert not isinstance(info.value, ValueError)


@pytest.mark.parametrize(
    "left, right",
    [("1", "1"), ("1,2,3,4/5,6,7,8", "1"), ("1", "1,2,3,4/5,6,7,8"), ("1,2/3,4", "1,3/2,5/4")],
)
def test_the_product_is_one_walk_of_the_two_factor_graphs(monkeypatch, left, right):
    # one class walk per product, of the pair of the two factors' checked
    # graphs in place, each from its root 0: no pair graph is listed
    left, right = parse_tableau(left), parse_tableau(right)
    walks = []
    walk = hopf._prefix_ids

    def counted(left_graph, a, right_graph, b, tables):
        walks.append((left_graph, a, right_graph, b, len(tables)))
        return walk(left_graph, a, right_graph, b, tables)

    monkeypatch.setattr(hopf, "_prefix_ids", counted)
    expected = product_oracle.plactic_product(left, right).terms
    assert plactic_product(left, right).terms == expected
    ((left_graph, a, right_graph, b, sizes),) = walks
    for graph, tab in [(left_graph, left), (right_graph, right)]:
        # the factor's own graph, node for node: its root 0, its end last
        assert graph == knuthclass._bump_graph(tab)
        masks, steps = graph
        assert masks[0] == (2 << size_of(tab)) - 2 and masks[-1] == 0 and steps[-1] == []
    assert (a, b, sizes) == (0, 0, size_of(left) + size_of(right))


def test_the_product_lists_no_class_word(monkeypatch):
    expected = plactic_product(parse_tableau("1,2,4/3,5"), parse_tableau("1,3/2"))

    def refuse(*args):
        raise AssertionError("a class word was listed")

    monkeypatch.setattr(knuthclass, "_class_words", refuse)
    monkeypatch.setattr(knuthclass, "_knuth_class", refuse)
    got = plactic_product(parse_tableau("1,2,4/3,5"), parse_tableau("1,3/2"))
    assert list(got.terms.items()) == list(expected.terms.items())
    assert len(got) == 10


def test_product_term_short_of_its_hook_count_is_an_invariant_error(monkeypatch):
    # only the terms' shapes, of 5 cells: the factors' counts, and so the
    # total, stay right
    count = hopf._hook_count
    monkeypatch.setattr(hopf, "_hook_count", lambda shape: count(shape) + (sum(shape) == 5))
    with pytest.raises(InvariantError, match="only partially") as info:
        plactic_product(parse_tableau("1,2/3"), parse_tableau("1/2"))
    assert not isinstance(info.value, ValueError)
    assert str(info.value).startswith("shuffle words cover class")


def test_upper_factor_by_insertion_is_the_restriction_by_slides():
    # every term of every pair of total <= 7: the reading word of its
    # letters above k, inserted, against jeu de taquin
    checked = 0
    for n in range(2, 8):
        for k in range(1, n):
            for left in all_standard_tableaux(k):
                for right in all_standard_tableaux(n - k):
                    for t in plactic_product(left, right).terms:
                        upper = hopf._upper_factor(t, k)
                        assert upper == tableau._restrict(t, k + 1, n) == right
                        checked += 1
    # each standard tableau of size n is a term of one pair per split k
    assert checked == sum((n - 1) * len(all_standard_tableaux(n)) for n in range(2, 8))


def transposed_insertion(monkeypatch):
    """The product's insertion kernel returns the transpose of the
    insertion tableau: every term's upper factor comes out wrong."""
    real = tableau._insertion_tableau
    monkeypatch.setattr(hopf, "_insertion_tableau", lambda word: tableau._transpose(real(word)))


def test_a_wrong_upper_factor_is_an_invariant_error(monkeypatch):
    transposed_insertion(monkeypatch)
    with pytest.raises(InvariantError) as info:
        plactic_product(parse_tableau("1,2,4/3,5"), parse_tableau("1/2"))
    assert not isinstance(info.value, ValueError)
    assert str(info.value) == "term 1,2,4/3,5/6/7 does not restrict to the two factors"


def test_product_ends_are_beside_and_over():
    # _product_ends, from the factors' row codes, against the tableau
    # forms looked up in the order's index, on every pair of total <= 8
    for n in range(2, 9):
        p = cached_poset(n)
        for k in range(1, n):
            for left in all_standard_tableaux(k):
                for right in all_standard_tableaux(n - k):
                    assert hopf._product_ends(left, right, p) == (
                        p.index[tableau._beside(left, right)],
                        p.index[tableau._over(left, right)],
                    )


def test_product_ends_need_the_lift_nodes():
    left, right = parse_tableau("1,2/3"), parse_tableau("1/2")
    p = cached_poset(5)
    nodes = list(p.nodes)
    nodes[0], nodes[1] = nodes[1], nodes[0]
    moved = dataclasses.replace(p, nodes=tuple(nodes))
    for product in (hopf.product_interval, hopf.interval_product):
        with pytest.raises(InvariantError, match="nodes are not the lift's size-5") as info:
            product(left, right, moved)
        assert not isinstance(info.value, ValueError)
    # a copy holds the same nodes; equal nodes in a new tuple pass as well
    expected = hopf.product_interval(left, right, p)
    for same in (dataclasses.replace(p), dataclasses.replace(p, nodes=tuple(list(p.nodes)))):
        iv = hopf.product_interval(left, right, same)
        assert (iv.bottom, iv.top, iv.members, iv.covers) == (
            expected.bottom, expected.top, expected.members, expected.covers
        )
        assert hopf.interval_product(left, right, same) == expected.member_tableaux()


def test_relabeling_is_a_splice_of_row_codes():
    # the lowest k digits of T's row code replaced by L's code, named in
    # the code map, against the tableau form on every (T, k, L) of total
    # at most 8 where L has the shape of T's inner tableau of size k
    checked = 0
    for n in range(2, 9):
        ids_of = weakorder._size(n).ids_of
        for t in weakorder._size(n).nodes:
            code = weakorder._row_code(t)
            for k in range(1, n):
                low = (1 << 4 * k) - 1
                for sub in tableau._standard_tableaux(shape_of(tableau._inner_rows(t, k))):
                    spliced = ids_of[code & ~low | weakorder._row_code(sub)]
                    assert spliced == ids_of[weakorder._row_code(tableau._relabel_inner(t, sub))]
                    checked += n == 8
    assert checked == 33996


def test_the_interval_ends_are_beside_and_over():
    # hopf._ends against the tableau forms on every (L, R) of total <= 8
    for n in range(2, 9):
        index = {t: a for a, t in enumerate(weakorder._size(n).nodes)}
        for k in range(1, n):
            lefts = weakorder._size(k).nodes
            rights = weakorder._size(n - k).nodes
            for left, left_form in zip(lefts, hopf._forms(k, lefts)):
                for right, right_form in zip(rights, hopf._forms(n - k, rights)):
                    assert hopf._ends(n, k, left_form, right_form) == (
                        index[tableau._beside(left, right)],
                        index[tableau._over(left, right)],
                    )


@pytest.mark.parametrize("m", range(1, 9))
def test_forms_are_the_codes_of_the_tableau_forms(m):
    tabs = weakorder._size(m).nodes
    code = weakorder._row_code
    assert hopf._forms(m, tabs) == [
        (code(t), code(tableau._transpose(t)), code(tableau._evacuate(t))) for t in tabs
    ]
