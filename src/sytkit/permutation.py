"""One-line permutations: inversion sets, weak-order covers, Knuth and dual
Knuth rewriting moves, segment restriction, and shuffles.

A word is a tuple holding each of 1..n exactly once (one-line notation).
Everything in this module is a pure function of immutable values.
"""

from __future__ import annotations

from itertools import combinations
from itertools import permutations as _lex_permutations
from typing import Iterator

Word = tuple[int, ...]

MAX_N = 10  # desk-scale enumeration guard


class ParseError(ValueError):
    """Bad text literal; ``position`` is the 0-based offset of the failure."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InvariantError(RuntimeError):
    """An internal invariant broke: a fault in sytkit, never bad input.

    Not a ValueError, so it is never reported as a usage error, and raised
    explicitly, so ``python -O`` keeps the check.
    """


def check_int(x, name: str) -> int:
    """An integer argument of a public function, returned as it is; a
    bool, a float such as 2.0 or any other non-int raises ValueError."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return x


def _ints(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple, taken as they are: anything but an ``int`` (a
    bool, a float such as 2.0) raises ValueError naming ``what``."""
    v = tuple(values)
    for x in v:
        if type(x) is not int:
            raise ValueError(f"{what} must be integers, got {x!r}")
    return v


def check_word(word) -> Word:
    """Validate a permutation given as an iterable of ints (see :func:`_ints`)."""
    w = _ints(word, "word letters")
    n = len(w)
    if n < 1:
        raise ValueError("empty word")
    if n > MAX_N:
        raise ValueError(f"word size {n} exceeds the supported maximum {MAX_N}")
    if sorted(w) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {w}")
    return w


def parse_word(text: str) -> Word:
    """Parse "5,2,4,1,3", or for n <= 9 the compact digit form "52413"."""
    s = text.strip()
    if not s:
        raise ParseError("empty permutation literal", 0)
    values: list[int] = []
    if "," in s:
        pos = 0
        for token in s.split(","):
            if not token.strip().isdigit():
                raise ParseError(f"expected an integer, got {token!r}", pos)
            values.append(int(token))
            pos += len(token) + 1
    else:
        for p, ch in enumerate(s):
            if not ch.isdigit() or ch == "0":
                raise ParseError(f"unexpected character {ch!r}", p)
            values.append(int(ch))
    try:
        return check_word(values)
    except ValueError as exc:
        raise ParseError(str(exc), 0) from None


def format_word(word: Word) -> str:
    if len(word) <= 9:
        return "".join(str(x) for x in word)
    return ",".join(str(x) for x in word)


def inverse(word: Word) -> Word:
    inv = [0] * len(word)
    for pos, value in enumerate(word):
        inv[value - 1] = pos + 1
    return tuple(inv)


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


def coxeter_length(word: Word) -> int:
    return len(inversions_left(word))


def weak_leq(u: Word, w: Word) -> bool:
    """Right weak order, decided by containment of left inversion sets."""
    if len(u) != len(w):
        raise ValueError(f"size mismatch: {len(u)} vs {len(w)}")
    return inversions_left(u) <= inversions_left(w)


def weak_covers(u: Word) -> list[Word]:
    """All words one adjacent-ascent swap above u (length goes up by one)."""
    out = []
    for p in range(len(u) - 1):
        if u[p] < u[p + 1]:
            out.append(u[:p] + (u[p + 1], u[p]) + u[p + 2:])
    return out


def descents_left(u: Word) -> frozenset[int]:
    pos = inverse(u)
    return frozenset(i for i in range(1, len(u)) if pos[i - 1] > pos[i])


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


def dual_knuth_neighbors(u: Word) -> list[Word]:
    """Words whose inverses are one Knuth move from the inverse of u."""
    return [inverse(v) for v in knuth_neighbors(inverse(u))]


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


def transpose_word(u: Word) -> Word:
    return tuple(reversed(u))


def evac_word(u: Word) -> Word:
    n = len(u)
    return tuple(n + 1 - x for x in reversed(u))


def shifted(w: Word, k: int) -> Word:
    return tuple(x + k for x in w)


def interleavings(a: Word, b: Word) -> list[Word]:
    """All riffles of two words, each keeping its own letter order.

    The riffles come in the order of the places of ``a`` as
    ``combinations(range(len(a) + len(b)), len(a))`` lists them; each is
    ``b`` with the letters of ``a`` inserted at their places, left to right.
    """
    out = []
    for spots in combinations(range(len(a) + len(b)), len(a)):
        word = list(b)
        for p, x in zip(spots, a):
            word.insert(p, x)
        out.append(tuple(word))
    return out


def shuffle(u: Word, w: Word) -> list[Word]:
    """Shuffle product: interleave u with w pushed above u's alphabet.

    The second word may be given on 1..l (it is shifted up by len(u)) or
    already on the shifted alphabet len(u)+1 .. len(u)+l.
    """
    check_word(u)
    k, l = len(u), len(w)
    if k + l > MAX_N:
        raise ValueError(f"shuffle output size {k + l} exceeds {MAX_N}")
    w = _ints(w, "word letters")
    if sorted(w) == list(range(1, l + 1)):
        w = shifted(w, k)
    elif sorted(w) != list(range(k + 1, k + l + 1)):
        raise ValueError(f"second word must use 1..{l} or {k + 1}..{k + l}: {w}")
    return interleavings(u, w)


def all_words(n: int) -> Iterator[Word]:
    """All n! words, in lexicographic order."""
    if not (1 <= n <= MAX_N):
        raise ValueError(f"n must be in 1..{MAX_N}")
    return iter(_lex_permutations(range(1, n + 1)))
