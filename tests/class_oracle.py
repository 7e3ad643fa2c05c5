"""Knuth classes by walking Knuth moves: a slow oracle for
``knuthclass.knuth_class``, which lists a class by reverse bumping.

The walk starts at the tableau's row word and applies every Knuth move
(``word_oracle.knuth_neighbors``) until no new word appears.  Knuth's
theorem makes the words reached exactly the words inserting to the
tableau; nothing here reverse-bumps or reads a recording tableau.
"""

from __future__ import annotations

from sytkit.permutation import Word
from sytkit.tableau import Rows, row_word
from word_oracle import knuth_neighbors


def class_words(rows: Rows) -> frozenset[Word]:
    """Every word one or more Knuth moves from the row word, and it."""
    start = row_word(rows)
    seen = {start}
    frontier = [start]
    while frontier:
        word = frontier.pop()
        for neighbor in knuth_neighbors(word):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return frozenset(seen)
