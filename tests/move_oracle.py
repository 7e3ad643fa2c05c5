"""Dual Knuth moves on tableaux by the word route: a slow oracle for
``tableau._dual_moves``, which exchanges two entries in place.

The route reads the row word, applies the dual Knuth rewrite on the value
triple {i, i+1, i+2} (``word_oracle.dual_knuth_move_word``: inverse,
window rewrite, inverse again) and row-inserts the result.  The descents
come from the word too, so nothing here shares code with the kernel.
:func:`connectivity` keeps the tableau walk of the connectivity check on
these moves.
"""

from __future__ import annotations

from sytkit.permutation import descents_left
from sytkit.tableau import (
    Rows,
    format_tableau,
    insertion_tableau,
    partitions,
    row_word,
    shape_of,
    standard_tableaux,
)
from sytkit.weakorder import canonical_key
from word_oracle import dual_knuth_move_word


def dual_moves(rows: Rows) -> list[tuple[int, Rows]]:
    """(triple start, moved tableau) for every single dual Knuth move, in
    the order of the triple start."""
    word = row_word(rows)
    des = descents_left(word)
    return [
        (i, insertion_tableau(dual_knuth_move_word(word, i)))
        for i in range(1, len(word) - 1)
        if (i in des) != ((i + 1) in des)
    ]


def connectivity(n: int) -> tuple[int, list[dict]]:
    """``verify.verify_dual_knuth_connectivity`` as it stood before it read
    the size-n move table: a walk over the tableaux of each shape with sets
    of tableaux and a canonical sort, here on the moves of
    :func:`dual_moves`.  Returns ``(checked, violations)``."""
    checked = 0
    violations = []
    for shape in partitions(n):
        tabs = standard_tableaux(shape)
        tab_set = set(tabs)
        seen = {tabs[0]}
        frontier = [tabs[0]]
        while frontier:
            tab = frontier.pop()
            for _, neighbor in dual_moves(tab):
                checked += 1
                if neighbor not in tab_set:  # which holds every tableau of the shape
                    same = shape_of(neighbor) == shape
                    violations.append(
                        {
                            "T": format_tableau(tab),
                            "moved": format_tableau(neighbor),
                            "reason": "left the tableau set" if same else "shape changed",
                        }
                    )
                elif neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        if seen != tab_set:
            stranded = sorted(tab_set - seen, key=canonical_key)
            violations.append(
                {
                    "shape": list(shape),
                    "unreached": [format_tableau(t) for t in stranded],
                    "reason": "shape class not connected",
                }
            )
    return checked, violations
