"""``knuthclass.knuth_class`` (reverse bumping) against the Knuth-move walk
in ``class_oracle``: the classes, the hook-eta report (against the word
listing of ``hook_eta_oracle`` on those classes) and the ``sytkit class``
output must agree exactly."""

import json

import pytest

import class_oracle as oracle
import hook_eta_oracle
from conftest import broken_lift, table_faults
import sytkit.cli as cli
import sytkit.weakorder as weakorder
from sytkit import verify
from sytkit.cli import EXIT_OK, main
from sytkit.knuthclass import KnuthClass, knuth_class
from sytkit.tableau import (
    all_standard_tableaux,
    format_tableau,
    insertion_tableau,
    is_hook,
    partitions,
    standard_tableaux,
)


def oracle_class(rows):
    return KnuthClass(rows, oracle.class_words(rows))


def hook_eta_tableaux(k):
    """The tableaux whose classes ``verify_hook_eta(k)`` reads: hooks with
    at least three rows and columns whose corners hold k and k - 1."""
    return [
        tab
        for shape in partitions(k)
        if is_hook(shape) and len(shape) >= 3 and shape[0] >= 3
        for tab in standard_tableaux(shape)
        if {tab[0][-1], tab[-1][0]} == {k, k - 1}
    ]


@pytest.mark.parametrize("n", range(1, 9))
def test_every_class_matches_the_oracle(n):
    for tab in all_standard_tableaux(n):
        assert knuth_class(tab).words == oracle.class_words(tab), format_tableau(tab)


def test_hook_eta_classes_match_the_oracle_k9():
    tabs = hook_eta_tableaux(9)
    assert len(tabs) == 124
    for tab in tabs:
        assert knuth_class(tab).words == oracle.class_words(tab), format_tableau(tab)


def test_hook_eta_prefix_ids_are_the_insertion_tableaux_k9():
    # the ids verify_hook_eta(9) compares, against the prefixes inserted
    tables = [weakorder._size(m).tables for m in range(1, 9)]
    index = weakorder.cached_poset(8).index
    count = 0
    for tab in hook_eta_tableaux(9):
        for w in knuth_class(tab).words:
            prefix = tuple(x - (x > w[-1]) for x in w[:-1])  # standardized
            assert weakorder._insertion_id(w[:-1], tables) == index[insertion_tableau(prefix)]
            count += 1
    assert count == 6832


def _counts(report):
    return report.checked, report.skipped, report.violations


def _oracle_words(k):
    """The Knuth-move classes of the hook-eta tableaux of size k, as a
    lookup for ``hook_eta_oracle``."""
    return {tab: oracle.class_words(tab) for tab in hook_eta_tableaux(k)}.__getitem__


@pytest.mark.parametrize("k", range(5, 10))
def test_hook_eta_report_is_the_same_on_oracle_classes(k):
    # the graph walk against listing the Knuth-move classes and inserting
    # every prefix
    assert _counts(verify.verify_hook_eta(k)) == hook_eta_oracle.hook_eta(k, _oracle_words(k))


def test_hook_eta_violations_are_the_same_on_oracle_classes(monkeypatch):
    # every single-entry change of the size-3 and size-4 column tables, at
    # k = 5 and 6: the walk and the word oracle insert the same prefixes
    # through the same tables, so they report the same violations, each
    # group's words listed in order
    faults = table_faults()
    assert len(faults) == 18 + 144
    words = {k: _oracle_words(k) for k in (5, 6)}
    flagged = {5: 0, 6: 0}
    for fault in faults:
        with monkeypatch.context() as patch:
            patch.setattr(verify, "_size", broken_lift(*fault))
            for k in (5, 6):
                walked = verify.verify_hook_eta(k)
                assert _counts(walked) == hook_eta_oracle.hook_eta(k, words[k]), (fault, k)
                assert all(v["words"] == sorted(v["words"]) for v in walked.violations)
                flagged[k] += bool(walked.violations)
    assert flagged == {5: 90, 6: 144}


def _class_outputs(capsys, tab):
    out = []
    for fmt in ("text", "json"):
        code = main(["class", format_tableau(tab), "--format", fmt])
        assert code == EXIT_OK
        out.append(capsys.readouterr().out)
    return out


def test_class_command_output_is_the_same_on_oracle_classes(capsys, monkeypatch):
    tabs = [tab for n in range(1, 7) for tab in all_standard_tableaux(n)]
    fast = [_class_outputs(capsys, tab) for tab in tabs]
    monkeypatch.setattr(cli, "knuth_class", oracle_class)
    assert fast == [_class_outputs(capsys, tab) for tab in tabs]
    assert json.loads(fast[-1][1])["tableau"] == format_tableau(tabs[-1])
