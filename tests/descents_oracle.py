"""``verify.verify_descents_constant`` as it stood before the words were
walked through the lift's tables: a slow oracle that inserts every word
afresh and compares its left descents with its tableau's.  The loop is
copied here, with the public ``tableau.descent_set`` in place of the
unchecked kernel; it returns ``(checked, violations)`` rather than a
report.
"""

from __future__ import annotations

from sytkit.permutation import all_words, descents_left, format_word
from sytkit.tableau import descent_set, insertion_tableau


def descents_constant(n: int) -> tuple[int, list[dict]]:
    checked = 0
    violations = []
    for u in all_words(n):
        checked += 1
        if descents_left(u) != descent_set(insertion_tableau(u)):
            violations.append({"word": format_word(u)})
    return checked, violations
