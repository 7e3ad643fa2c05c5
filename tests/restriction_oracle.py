"""``verify.verify_restriction_insertion`` as it stood before each
restriction and each insertion was made once: a slow oracle that inserts
the word and every restricted word, and restricts the tableau, afresh for
every (word, segment).  The loop is copied here as written; it returns
``(checked, violations)`` rather than a report, and calls the restriction
through the module, ``tableau._restrict``, so that a test that replaces
it there breaks the oracle too.
"""

from __future__ import annotations

from sytkit import tableau
from sytkit.permutation import all_words, format_word, restrict_standardize
from sytkit.tableau import insertion_tableau


def restriction_insertion(n: int) -> tuple[int, list[dict]]:
    checked = 0
    violations = []
    for u in all_words(n):
        tab = insertion_tableau(u)
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                checked += 1
                if tableau._restrict(tab, i, j) != insertion_tableau(
                    restrict_standardize(u, i, j)
                ):
                    violations.append(
                        {"word": format_word(u), "segment": [i, j]}
                    )
    return checked, violations
