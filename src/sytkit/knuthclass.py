"""Knuth classes: all words sharing a given insertion tableau.

A class is read off its reverse-bump graph, not walked by Knuth moves.
Row inserting the last letter x of a word w = u·x into P(u) adds one cell,
a corner c of P(w), and reverse bumping P(w) at c gives back P(u) and the
letter x (Schensted 1961).  So with (P_c, x_c) the result of reverse
bumping P at its corner c,

    class(P) = ⋃_c { u·x_c : u ∈ class(P_c) },

and every such word does insert to P, since inserting x_c into P_c gives P.
This is the RSK bijection read one letter at a time from the end: the class
of P is {RSK⁻¹(P, Q) : Q standard of P's shape} (Knuth 1970), the corner c
being the cell of n in Q.

:func:`_bump_graph` makes that recursion a graph: one node per sub-tableau
reached, one step per corner, down to the empty tableau.  Each path from
the tableau to the empty one spells one class word from its last letter,
so the graph is the class's suffix trie with equal subtrees merged.  The
class listing reads it from the empty end back.  One class walk,
``hopf._prefix_ids``, counts a root's class words by insertion tableau
without listing one: ``hopf.plactic_product`` runs it on the pair graph
of its two factors' graphs, and ``verify.verify_hook_eta`` on one graph
below several tableaux of one size, sub-tableaux they share made once,
from each root.  Hook-eta lists a failing group's words through
:func:`_class_words` of its corners' sub-tableaux.  Nothing is cached
between calls.
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
    words = _class_words(rows)
    distinct = frozenset(words)
    if len(distinct) != len(words):
        raise InvariantError(
            f"reverse bumping repeated a word of class {format_tableau(rows)}"
        )
    return KnuthClass(rows, distinct)


def _bump_graph(*roots: Rows) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """The reverse-bump graph below one or more distinct tableaux of one
    size, each with distinct entries.

    The roots are nodes 0, 1, ... in the order given, and the nodes come
    in depth order, one level per letter removed, so the empty tableau is
    the last node, the one end.  A sub-tableau reached from several roots
    is one node.  ``masks[a]`` holds node a's letters as bits;
    ``steps[a]`` holds one (child, exit letter) pair per corner of node a,
    top row first, the child being the sub-tableau left by reverse
    bumping that corner.
    """
    tabs = list(roots)
    ids = {rows: a for a, rows in enumerate(tabs)}
    masks = [sum(1 << x for row in rows for x in row) for rows in tabs]
    steps: list[list[tuple[int, int]]] = []
    # tabs grows as the loop runs: each level is found from the one before
    for a, tab in enumerate(tabs):
        out = []
        last = len(tab)
        for r in range(1, last + 1):
            if r == last or len(tab[r - 1]) > len(tab[r]):
                sub, x = _reverse_bump(tab, r)
                c = ids.get(sub)
                if c is None:
                    c = ids[sub] = len(tabs)
                    tabs.append(sub)
                    masks.append(masks[a] & ~(1 << x))
                out.append((c, x))
        steps.append(out)
    return masks, steps


def _class_words(rows: Rows) -> list[Word]:
    """The class words of a tableau with distinct entries, read off its
    :func:`_bump_graph` from the end back: a node's words are its
    children's words, each followed by the step's exit letter."""
    _, steps = _bump_graph(rows)
    words: list[list[Word]] = [[()]] * len(steps)  # all but the end set below
    for a in range(len(steps) - 2, -1, -1):
        out = []
        for c, x in steps[a]:
            tail = (x,)
            out += [u + tail for u in words[c]]
        words[a] = out
    return words[0]
