"""Two slow oracles for ``verify.verify_descents_constant``, each returning
``(checked, violations)`` rather than a report.

``descents_constant`` is the check as it stood before the words were
walked through the lift's tables: it inserts every word afresh and
compares its left descents with its tableau's, with the public
``tableau.descent_set`` in place of the unchecked kernel.

``suffix_walk`` is the check as it stood before the local lemma replaced
its walk: one depth-first walk over the words, built from the right,
each suffix's tableau named by one popcount rank and one lookup in the
lift's column tables, read through ``verify._size`` so that a test that
replaces it there breaks the walk too.  The word side: x sets the left
descent x - 1 when x - 1 is to its right, and x when x + 1 is not.  The
body is copied here as written.
"""

from __future__ import annotations

from itertools import permutations

from sytkit import verify
from sytkit.permutation import descents_left, format_word
from sytkit.tableau import _descents, descent_set, insertion_tableau


def descents_constant(n: int) -> tuple[int, list[dict]]:
    checked = 0
    violations = []
    for u in permutations(range(1, n + 1)):
        checked += 1
        if descents_left(u) != descent_set(insertion_tableau(u)):
            violations.append({"word": format_word(u)})
    return checked, violations


def suffix_walk(n: int) -> tuple[int, list[dict]]:
    nodes = verify._size(n).nodes
    tables = [verify._size(m).tables for m in range(1, n + 1)]  # by suffix length
    checked = 0
    broken = []
    masks = [sum(1 << d for d in _descents(t)) for t in nodes]
    full = (2 << n) - 2  # bit x for letter x
    inner = full >> 1 & ~1  # the descents 1..n - 1
    stack = [(0, 0, 0, ())]  # letters placed, their node, mask, suffix
    while stack:
        seen, t, mask, suffix = stack.pop()
        table = tables[seen.bit_count()]
        for x in range(1, n + 1):
            bit = 1 << x
            if seen & bit:
                continue
            u = table[(seen & bit - 1).bit_count()][t]
            m = mask | seen & bit >> 1 | bit & ~seen >> 1 & inner
            if seen | bit != full:
                stack.append((seen | bit, u, m, (x, *suffix)))
                continue
            checked += 1
            if m != masks[u]:
                broken.append((x, *suffix))
    return checked, [{"word": format_word(u)} for u in sorted(broken)]
