"""The product-interval isomorphism check, explicit maps tested by masks,
against the backtracking search in ``interval_oracle``.  On the real
orders both must count the same choices and pass.  On broken orders the
search's violations (no isomorphism exists) must all be violations of the
explicit map too; the map may fail where some other isomorphism exists."""

import pytest

import interval_oracle as oracle
import sytkit.hopf as hopf
from sytkit.hopf import _is_isomorphism, verify_interval_isomorphism
from sytkit.tableau import _inner_rows, _relabel_inner, shape_of, size_of
from sytkit.weakorder import cached_poset
from test_verify import _relations, _thinned


@pytest.mark.parametrize("n", range(2, 8))
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


def _contract_checked_relabel(rows, sub_new):
    """``_relabel_inner`` that first asserts its precondition: the tableau's
    inner tableau of the replacement's size has the replacement's shape."""
    assert shape_of(_inner_rows(rows, size_of(sub_new))) == shape_of(sub_new)
    return _relabel_inner(rows, sub_new)


def test_images_without_the_evacuated_inner_tableau_are_violations(monkeypatch):
    # with evacuation replaced by the identity, the images keep inner
    # tableau L, not eps R0: the check must say so, not relabel them anyway
    monkeypatch.setattr(hopf, "_relabel_inner", _contract_checked_relabel)
    monkeypatch.setattr(hopf, "_evacuate", lambda rows: rows)
    report = verify_interval_isomorphism(3, 3)
    assert report.checked == 7
    assert report.violations


def test_members_without_the_base_inner_tableau_are_violations(monkeypatch):
    # in a linear extension of the order the base intervals take in
    # tableaux whose inner tableau is not L0
    p = cached_poset(6)
    line = sorted(range(len(p.nodes)), key=lambda a: (p.below[a].bit_count(), a))
    total = _relations(p, p.nodes, list(zip(line, line[1:])))
    monkeypatch.setattr(hopf, "cached_poset", lambda m: total)
    monkeypatch.setattr(hopf, "_relabel_inner", _contract_checked_relabel)
    report = verify_interval_isomorphism(3, 3)
    assert report.checked == len(report.violations) == 7


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
