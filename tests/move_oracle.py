"""Dual Knuth moves on tableaux by the word route: a slow oracle for
``tableau._dual_moves``, which exchanges two entries in place.

The route reads the row word, applies the dual Knuth rewrite on the value
triple {i, i+1, i+2} (``permutation.dual_knuth_move_word``: inverse,
window rewrite, inverse again) and row-inserts the result.  The descents
come from the word too, so nothing here shares code with the kernel.
"""

from __future__ import annotations

from sytkit.permutation import descents_left, dual_knuth_move_word
from sytkit.tableau import Rows, insertion_tableau, row_word


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
