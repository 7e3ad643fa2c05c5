"""The product-interval isomorphism check, explicit maps tested by masks,
against the backtracking search in ``interval_oracle``.  On the real
orders both must count the same choices and pass.  On broken orders the
search's violations (no isomorphism exists) must all be violations of the
explicit map too; the map may fail where some other isomorphism exists."""

from array import array

import pytest

import interval_oracle as oracle
import sytkit.hopf as hopf
import sytkit.verify as verify
import sytkit.weakorder as weakorder
from sytkit.hopf import _is_isomorphism, verify_interval_isomorphism
from sytkit.permutation import InvariantError
from sytkit.weakorder import cached_poset
from test_verify import _missing_node, _relations, _thinned


@pytest.mark.parametrize("n", range(2, 9))
def test_interval_isomorphism_matches_the_oracle(n):
    p = cached_poset(n)
    for k in range(1, n):
        report = verify_interval_isomorphism(k, n - k)
        assert (report.checked, report.violations) == oracle.interval_isomorphism(
            k, n - k, p
        )
        assert report.passed


@pytest.mark.parametrize("n, seed", [(5, 1), (6, 2), (7, 1)])
def test_interval_isomorphism_with_covers_dropped(monkeypatch, n, seed):
    # about a third of the covers dropped and closed again: some intervals
    # stop being isomorphic, and the map must fail on each of those
    p = _thinned(n, seed)
    monkeypatch.setattr(hopf, "cached_poset", lambda m: p)
    found = 0
    for k in range(1, n):
        report = verify_interval_isomorphism(k, n - k)
        checked, violations = oracle.interval_isomorphism(k, n - k, p)
        assert report.checked == checked
        assert all(v in report.violations for v in violations)
        found += len(violations)
    assert found


def _with_evacuation(monkeypatch, n, change):
    """The lift's id tables with ``change`` applied to a copy of the size-n
    evacuation table; the tables of every other size stay as made.  The
    callers run under the ``fresh_lift`` fixture, so that no field is made
    from the changed table past the test."""
    size = weakorder._size(n)
    evacuation = list(size.evacuation)
    change(evacuation)
    monkeypatch.setattr(size, "evacuation", array(weakorder._ID_TYPECODE, evacuation))


def test_images_without_the_evacuated_inner_tableau_are_violations(monkeypatch, fresh_lift):
    # with evacuation replaced by the identity, the images keep inner
    # tableau L, not eps R0: the check must say so, not relabel them anyway
    def identity(table):
        table[:] = range(len(table))

    _with_evacuation(monkeypatch, 6, identity)
    report = verify_interval_isomorphism(3, 3)
    assert report.checked == 7
    assert report.violations


def _fails(check, *args):
    """Whether the check reports a violation or raises InvariantError."""
    try:
        return bool(check(*args).violations)
    except InvariantError:
        return True


def test_two_swapped_evacuation_entries_never_pass(monkeypatch, fresh_lift):
    # the entries of 1,5,6/2/3/4 (id 20) and of each other size-6 node
    # exchanged: both checks that read the table must fail.  (A swap among
    # 1/2/3/4/5/6, 1,2,3,4,5/6 and 1,2,3,4,5,6 alone slips past interval
    # isomorphism: it evacuates those three only for shape pairs with one
    # choice of each factor, where no map is compared.  Evacuation-
    # transpose still fails on it.)
    for other in range(76):
        if other == 20:
            continue

        def swapped(table):
            table[20], table[other] = table[other], table[20]

        with monkeypatch.context() as patch:
            _with_evacuation(patch, 6, swapped)
            assert any(_fails(verify_interval_isomorphism, k, 6 - k) for k in range(1, 6)), other
            assert _fails(verify.verify_evac_transpose_monotone, 6), other


def test_members_without_the_base_inner_tableau_are_violations(monkeypatch):
    # in a linear extension of the order, here the id order, the base
    # intervals take in tableaux whose inner tableau is not L0
    p = cached_poset(6)
    line = range(len(p.nodes) - 1, -1, -1)
    total = _relations(p, p.nodes, list(zip(line, line[1:])))
    monkeypatch.setattr(hopf, "cached_poset", lambda m: total)
    report = verify_interval_isomorphism(3, 3)
    assert report.checked == len(report.violations) == 7


def test_an_order_whose_premises_fail_is_refused(monkeypatch):
    # the interval members are read from reach only when every relation
    # goes down in the id order: here every cover goes up
    p = cached_poset(6)
    line = range(len(p.nodes))
    rising = _relations(p, p.nodes, list(zip(line, line[1:])))
    monkeypatch.setattr(hopf, "cached_poset", lambda m: rising)
    fault = weakorder._closure_fault(rising)
    assert fault.endswith("does not go down in the id order")
    with pytest.raises(InvariantError) as raised:
        verify_interval_isomorphism(3, 3)
    assert str(raised.value) == fault


def test_shape_pairs_of_one_choice_each_read_no_interval(monkeypatch):
    # each factor shape of total <= 3 has one tableau, so no map is
    # compared and no base is read; at k = 1, l = 3 only the shape (2, 1)
    # has two, so one base and one target are read
    reads = []
    mask = hopf._interval_mask
    monkeypatch.setattr(hopf, "_interval_mask", lambda *args: reads.append(args) or mask(*args))
    for k, l in ((1, 1), (1, 2), (2, 1)):
        assert verify_interval_isomorphism(k, l).checked == 0
    assert reads == []
    report = verify_interval_isomorphism(1, 3)
    assert report.passed and report.checked == 1
    assert len(reads) == 2


def test_an_order_on_other_nodes_is_refused(monkeypatch):
    # the maps are read by lift id, which must be the node id
    broken = _missing_node(6, "1,2,3/4,5,6")
    monkeypatch.setattr(hopf, "cached_poset", lambda m: broken)
    message = "the size-6 order's nodes are not the lift's size-6 tableaux"
    with pytest.raises(InvariantError, match=message):
        verify_interval_isomorphism(3, 3)


# --- the isomorphism test on hand-made masks --------------------------------------------
# reach rows: 0 and 1 incomparable, 2 < 3

REACH = (0b0001, 0b0010, 0b1100, 0b1000)


def test_is_isomorphism_accepts_a_relabeled_chain():
    assert _is_isomorphism(REACH, 0b1100, {2: 2, 3: 3}, 0b1100)
    assert not _is_isomorphism(REACH, 0b1100, {2: 3, 3: 2}, 0b1100)


def test_is_isomorphism_needs_an_injective_map():
    # onto, and every up-set lands on an up-set, but two members collide
    assert not _is_isomorphism(REACH, 0b0011, {0: 3, 1: 3}, 0b1000)


def test_is_isomorphism_needs_the_order_reflected():
    # an antichain onto a chain preserves the order but does not reflect it
    assert not _is_isomorphism(REACH, 0b0011, {0: 2, 1: 3}, 0b1100)


def test_is_isomorphism_needs_exactly_the_target():
    assert not _is_isomorphism(REACH, 0b0011, {0: 0, 1: 1}, 0b0111)
