"""Knuth classes: all words sharing a given insertion tableau."""

from __future__ import annotations

from dataclasses import dataclass

from .permutation import Word, knuth_neighbors
from .tableau import Rows, check_standard, row_word


@dataclass(frozen=True)
class KnuthClass:
    tableau: Rows
    words: frozenset[Word]

    def __len__(self) -> int:
        return len(self.words)


def knuth_class(rows: Rows) -> KnuthClass:
    """The full class of the tableau, grown move by move from its row word.

    Walks the word graph outward instead of filtering all n! words, so a
    single class costs only its own size.
    """
    rows = check_standard(rows)
    start = row_word(rows)
    seen = {start}
    frontier = [start]
    while frontier:
        word = frontier.pop()
        for neighbor in knuth_neighbors(word):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return KnuthClass(rows, frozenset(seen))
