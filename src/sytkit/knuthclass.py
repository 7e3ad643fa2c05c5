"""Knuth classes: all words sharing a given insertion tableau.

A class is listed by reverse bumping, not by walking Knuth moves.  Row
inserting the last letter x of a word w = u·x into P(u) adds one cell, a
corner c of P(w), and reverse bumping P(w) at c gives back P(u) and the
letter x (Schensted 1961).  So with (P_c, x_c) the result of reverse
bumping P at its corner c,

    class(P) = ⋃_c { u·x_c : u ∈ class(P_c) },

and every such word does insert to P, since inserting x_c into P_c gives P.
This is the RSK bijection read one letter at a time from the end: the class
of P is {RSK⁻¹(P, Q) : Q standard of P's shape} (Knuth 1970), the corner c
being the cell of n in Q.  The recursion bottoms out at a one-cell tableau,
whose class is its one letter.  Sub-tableaux met twice are listed once per
call; nothing is cached between calls.
"""

from __future__ import annotations

from dataclasses import dataclass

from .permutation import MAX_N, InvariantError, Word
from .tableau import Rows, _reverse_bump, check_standard, format_tableau, size_of


@dataclass(frozen=True)
class KnuthClass:
    tableau: Rows
    words: frozenset[Word]

    def __len__(self) -> int:
        return len(self.words)


def knuth_class(rows: Rows) -> KnuthClass:
    """The full class of the tableau: every word whose insertion tableau it
    is, one per standard tableau of its shape.

    Tableaux with more than ``MAX_N`` cells are refused before any word is
    made (a 4x5 rectangle alone has 1,662,804 words).  Distinct recording
    tableaux give distinct words; that is checked, not assumed: a repeated
    word raises :class:`InvariantError`.
    """
    return _knuth_class(check_standard(rows))


def _knuth_class(rows: Rows) -> KnuthClass:
    """``knuth_class`` of a tableau already checked to be standard."""
    n = size_of(rows)
    if n > MAX_N:
        raise ValueError(f"tableau size {n} exceeds the supported maximum {MAX_N}")
    words = _class_words(rows, {})
    distinct = frozenset(words)
    if len(distinct) != len(words):
        raise InvariantError(
            f"reverse bumping repeated a word of class {format_tableau(rows)}"
        )
    return KnuthClass(rows, distinct)


def _class_words(rows: Rows, memo: dict[Rows, list[Word]]) -> list[Word]:
    """The class words of a tableau with distinct entries, by reverse
    bumping every corner; ``memo`` holds the sub-tableaux already listed."""
    words = memo.get(rows)
    if words is None:
        last = len(rows)
        if last == 1 and len(rows[0]) == 1:
            words = [rows[0]]
        else:
            words = []
            for r in range(1, last + 1):
                if r == last or len(rows[r - 1]) > len(rows[r]):
                    sub, x = _reverse_bump(rows, r)
                    tail = (x,)
                    words += [u + tail for u in _class_words(sub, memo)]
        memo[rows] = words
    return words
