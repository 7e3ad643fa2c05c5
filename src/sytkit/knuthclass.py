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
``hopf._prefix_ids``, counts words by insertion tableau without listing
one, walking a pair of graphs in place: ``hopf.plactic_product`` runs it
on its two factors' graphs, for the shuffle words of their classes.
``verify.verify_hook_eta`` makes no graph: it reads the same recursion
off the step table below, one memo per call keyed by standardized row
code, and lists a failing group's words through :func:`_class_words` of
its corners' children.

No sub-tableau is made per node.  A node is keyed by one integer made of
its letter mask (bit x for letter x) and its standardized row code, the
``weakorder._row_code`` of the sub-tableau with its letters ranked 1..m.
Reverse bumping only compares letters, so it commutes with that ranking:
a node's steps are those of its standardized code, each exit letter's
rank turned back into a letter by the node's own letters.  The steps of
each standardized code are kept in one process-level table, ``_STEPS``:
one (child's standardized code, exit letter's rank) pair per corner, top
row first.  An entry is made by the one kernel ``tableau._reverse_bump``
the first time any graph or hook-eta reaches its code, and it is checked
then: the child must hold exactly the tableau's letters less the exit
letter, else :class:`InvariantError` is raised and no entry is kept
(:func:`_code_steps`).  Hook-eta reads its corner steps, and the steps
below its corner children's transposes, from the same table.  The table
is bounded as the lift's per-size tables are: one entry per standard
tableau of each size reached and one for the empty tableau, at most
3,736 for the sizes up to 9 and 13,232 up to the word cap
``permutation.CAPS["word"]`` = 10.  Nothing else is kept between calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .permutation import CAPS, InvariantError, Word, check_range
from .tableau import Rows, _reverse_bump, check_standard, format_tableau, size_of
from .weakorder import _row_code


@dataclass(frozen=True)
class KnuthClass:
    tableau: Rows
    words: frozenset[Word]

    def __len__(self) -> int:
        return len(self.words)


def knuth_class(rows: Rows) -> KnuthClass:
    """The full class of the tableau: every word whose insertion tableau it
    is, one per standard tableau of its shape.

    Tableaux with more than ``CAPS["word"]`` cells are refused before any
    word is made (a 4x5 rectangle alone has 1,662,804 words).  Distinct
    recording tableaux give distinct words; that is checked, not assumed: a
    repeated word raises :class:`InvariantError`.
    """
    return _knuth_class(check_standard(rows))


def _knuth_class(rows: Rows) -> KnuthClass:
    """``knuth_class`` of a tableau already checked to be standard."""
    check_range(size_of(rows), 1, CAPS["word"], "tableau size")
    words = _class_words(rows)
    distinct = frozenset(words)
    if len(distinct) != len(words):
        raise InvariantError(
            f"reverse bumping repeated a word of class {format_tableau(rows)}"
        )
    return KnuthClass(rows, distinct)


def _bump_graph(rows: Rows) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """The reverse-bump graph below a tableau with distinct entries.

    The tableau is node 0, and the nodes come in depth order, one level
    per letter removed, so the empty tableau is the last node, the one
    end.  ``masks[a]`` holds node a's letters as bits; ``steps[a]`` holds
    one (child, exit letter) pair per corner of node a, top row first, the
    child being the sub-tableau left by reverse bumping that corner.

    No sub-tableau is made.  A node is keyed by one integer, its
    standardized row code shifted above its mask, and its steps are read
    from ``_STEPS``, the entry made first when the code is new
    (:func:`_code_steps`, where each step is checked).  An entry's exit
    letter rank r is the node's r-th smallest letter, and its child's key
    is the child's code above the node's mask less that letter.  So the
    graph is the one reverse bumping the sub-tableaux themselves gives,
    node for node, in the same order.
    """
    mask = sum(1 << x for row in rows for x in row)
    masks = [mask]
    codes = [_standard_code(rows, mask)]
    shift = mask.bit_length()
    ids = {codes[0] << shift | mask: 0}
    # each node's letters in increasing order, the rank of a letter its index + 1
    letters = [sorted(x for row in rows for x in row)]
    steps: list[list[tuple[int, int]]] = []
    # codes grows as the loop runs: each level is found from the one before
    for a, code in enumerate(codes):
        entry = _STEPS.get(code)
        if entry is None:
            entry = _code_steps(code)
        mask, held = masks[a], letters[a]
        out = []
        for child, rank in entry:
            x = held[rank - 1]
            sub = mask ^ 1 << x
            key = child << shift | sub
            c = ids.get(key)
            if c is None:
                c = ids[key] = len(codes)
                codes.append(child)
                masks.append(sub)
                letters.append(held.copy())
                del letters[-1][rank - 1]
            out.append((c, x))
        steps.append(out)
    return masks, steps


def _standard_code(rows: Rows, mask: int) -> int:
    """The row code (``weakorder._row_code``) of the tableau with its
    letters, the bits of ``mask``, ranked 1..m."""
    code = 0
    for r, row in enumerate(rows, 1):
        for x in row:
            code += r << 4 * (mask & (1 << x) - 1).bit_count()
    return code


def _code_rows(code: int) -> Rows:
    """The standard tableau of a standardized row code."""
    rows: list[list[int]] = []
    x = 1
    while code:
        r = code & 15
        while len(rows) < r:
            rows.append([])
        rows[r - 1].append(x)
        code >>= 4
        x += 1
    return tuple(map(tuple, rows))


# standardized row code of a tableau -> one (child's standardized code, exit
# letter's rank) pair per corner, top row first, as :func:`_code_steps` makes
# it the first time the code is reached: at most one entry per standard
# tableau of each size reached and one for the empty tableau, 3,736 for the
# sizes <= 9 and 13,232 for the sizes <= 10
_STEPS: dict[int, tuple[tuple[int, int], ...]] = {}


def _code_steps(code: int) -> tuple[tuple[int, int], ...]:
    """The ``_STEPS`` entry of a standardized row code, made first when it
    is missing: the tableau reverse-bumped at each corner by the one kernel
    ``tableau._reverse_bump``.  Each step is checked as it is made: the
    child must hold exactly the tableau's letters less the exit letter,
    else :class:`InvariantError`.  The child's letters above the exit
    letter are lowered by one, which drops the exit letter's digit from
    the child's row code."""
    steps = _STEPS.get(code)
    if steps is not None:
        return steps
    rows = _code_rows(code)
    letters = list(range(1, size_of(rows) + 1))
    out = []
    last = len(rows)
    for r in range(1, last + 1):
        if r == last or len(rows[r - 1]) > len(rows[r]):
            sub, x = _reverse_bump(rows, r)
            held = [*chain.from_iterable(sub), x]
            held.sort()
            if held != letters:
                raise InvariantError(
                    f"a reverse-bump step of {format_tableau(rows)} does not "
                    f"take exactly its letter {x}"
                )
            child = _row_code(sub)
            low = (1 << 4 * (x - 1)) - 1
            out.append((child & low | child >> 4 * x << 4 * (x - 1), x))
    steps = _STEPS[code] = tuple(out)
    return steps


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
