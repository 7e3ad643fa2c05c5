"""Word-level primitives that the slow oracles and the weak-order tests
compare against: left inversion sets and weak covers, segment restriction
of a word, Knuth and dual Knuth rewriting moves, and the adjacent-swap
witnesses of a projected cover.

A word is a tuple holding each of 1..n exactly once (one-line notation).
Nothing in ``sytkit`` calls these: the library reaches the same facts
through the lift's column tables and the moves on tableaux.
"""

from __future__ import annotations

from sytkit.knuthclass import knuth_class
from sytkit.permutation import Word, check_int, check_word, inverse
from sytkit.tableau import insertion_tableau
from sytkit.weakorder import TableauPoset


def inversions_left(word: Word) -> frozenset[tuple[int, int]]:
    """Pairs (i, j) with i < j whose values appear out of order in the word."""
    pos = inverse(word)
    n = len(word)
    return frozenset(
        (i, j)
        for i in range(1, n)
        for j in range(i + 1, n + 1)
        if pos[i - 1] > pos[j - 1]
    )


def weak_covers(u: Word) -> list[Word]:
    """All words one adjacent-ascent swap above u (length goes up by one)."""
    out = []
    for p in range(len(u) - 1):
        if u[p] < u[p + 1]:
            out.append(u[:p] + (u[p + 1], u[p]) + u[p + 2:])
    return out


def restrict_standardize(u: Word, i: int, j: int) -> Word:
    """Subword of the letters in [i, j], shifted down to a word on 1..j-i+1."""
    u = check_word(u)
    if not (1 <= check_int(i, "i") < check_int(j, "j") <= len(u)):
        raise ValueError(f"bad segment [{i},{j}] for n={len(u)}")
    return tuple(x - i + 1 for x in u if i <= x <= j)


def _window_move(a: int, b: int, c: int) -> tuple[int, int, int] | None:
    """The unique Knuth rewrite on three adjacent letters, if one applies.

    The last two letters swap when the first lies strictly between them;
    the first two swap when the last lies strictly between the first two.
    """
    if min(b, c) < a < max(b, c):
        return (a, c, b)
    if min(a, b) < c < max(a, b):
        return (b, a, c)
    return None


def knuth_neighbors(u: Word) -> list[Word]:
    """All words one Knuth move away; v is a neighbor of u iff u is of v."""
    out = []
    for p in range(len(u) - 2):
        moved = _window_move(u[p], u[p + 1], u[p + 2])
        if moved is not None:
            out.append(u[:p] + moved + u[p + 3:])
    return out


def dual_knuth_move_word(u: Word, i: int) -> Word:
    """Apply the dual Knuth rewrite on the value triple {i, i+1, i+2}.

    Exchanges the positions of two of the three values; a unique move exists
    exactly when one of i, i+1 (but not both) is a left descent of u.
    """
    u = check_word(u)
    if not (1 <= check_int(i, "i") <= len(u) - 2):
        raise ValueError(f"triple start {i} out of range for n={len(u)}")
    ui = inverse(u)
    moved = _window_move(ui[i - 1], ui[i], ui[i + 1])
    if moved is None:
        raise ValueError(f"no dual Knuth move applies on the triple {{{i},{i + 1},{i + 2}}}")
    return inverse(ui[:i - 1] + moved + ui[i + 2:])


def cover_witness_words(p: TableauPoset, lower, upper) -> tuple[Word, Word]:
    """Adjacent-transposition witnesses for a projected edge: words sigma in
    the lower class and tau = sigma * s_j in the upper class.  Every cover
    of the poset has one."""
    a = p.node_id(lower)
    b = p.node_id(upper)
    target = p.nodes[b]
    for sigma in sorted(knuth_class(p.nodes[a]).words):
        for tau in weak_covers(sigma):
            if insertion_tableau(tau) == target:
                return sigma, tau
    raise ValueError("no adjacent-transposition witness: not a projected edge")
