"""Hook-eta by listing words: a slow oracle for ``verify.verify_hook_eta``,
which reads one memo per call over the reverse-bump step table and lists
no word.

Each class is listed and grouped by last letter, and the prefix of every
word is inserted anew through the lift's column tables
(``weakorder._insertion_id``), read through ``verify._size`` so that a
test's broken table reaches the check and the oracle alike.  The class
listing is a parameter: ``knuth_class`` by default, the walk by Knuth
moves of ``class_oracle``, or the words of a broken step table.
"""

from __future__ import annotations

from sytkit import verify
from sytkit.knuthclass import knuth_class
from sytkit.permutation import format_word
from sytkit.tableau import format_tableau, is_hook, partitions, standard_tableaux
from sytkit.weakorder import _insertion_id


def hook_eta(k, class_words=lambda tab: knuth_class(tab).words):
    """(checked, skipped, violations) as ``verify_hook_eta(k)`` reports
    them, from the words ``class_words(tab)`` of each tableau's class."""
    tables = [verify._size(m).tables for m in range(1, k)]
    checked = skipped = 0
    violations = []
    for shape in partitions(k):
        if not is_hook(shape) or len(shape) < 3 or shape[0] < 3:
            continue
        for tab in standard_tableaux(shape):
            if {tab[0][-1], tab[-1][0]} != {k, k - 1}:
                skipped += 1
                continue
            checked += 1
            by_last = {}
            for word in class_words(tab):
                by_last.setdefault(word[-1], []).append(word)
            if len(by_last) == 1:
                (eta,) = by_last
                violations.append({"R": format_tableau(tab), "eta_top": eta, "eta_bottom": eta})
            for last in sorted(by_last):
                group = by_last[last]
                if len(group) < 2:
                    continue
                checked += 1
                if len({_insertion_id(w[:-1], tables) for w in group}) != 1:
                    violations.append(
                        {
                            "R": format_tableau(tab),
                            "last_letter": last,
                            "words": [format_word(w) for w in sorted(group)],
                        }
                    )
    return checked, skipped, violations
