"""One-line permutations: validation and text forms, the inverse, left
descents and the evacuation word, and the argument checks, size caps and
error types that the other modules share.

A word is a tuple holding each of 1..n exactly once (one-line notation).
Everything in this module is a pure function of immutable values.  The
weak order, Knuth moves and segment restriction on words are not here:
the library reaches them through tableaux and the lift's column tables,
and the tests keep the word-level forms as oracles.
"""

from __future__ import annotations

Word = tuple[int, ...]


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


# The one table of size caps, each the largest size its layer takes:
# "word" bounds words and Knuth classes, "lift" the lift's id tables and
# what reads only them (the plactic product too), and "order" the built
# orders and what reads them.  Every size refusal reads it through
# check_range.  The lift cannot go past 11: its ids are of typecode
# weakorder._ID_TYPECODE ("H", 16 bits), which holds 65536 ids, and size 11
# has 35696 standard tableaux, size 12 140152.
CAPS = {"word": 10, "lift": 9, "order": 9}


def check_range(x, lo: int, hi: int, name: str) -> int:
    """:func:`check_int`, then ValueError unless lo <= x <= hi."""
    if not lo <= check_int(x, name) <= hi:
        raise ValueError(f"{name} must be in {lo}..{hi}")
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
    check_range(n, 1, CAPS["word"], "word size")
    if sorted(w) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {w}")
    return w


def _is_decimal(text: str) -> bool:
    """Whether ``text`` is a nonempty run of the ASCII digits 0-9:
    ``str.isdigit`` also takes superscripts and other scripts' digits, and
    ``int`` reads the latter."""
    return text.isascii() and text.isdigit()


def parse_word(text: str) -> Word:
    """Parse "5,2,4,1,3", or for n <= 9 the compact digit form "52413"."""
    s = text.strip()
    if not s:
        raise ParseError("empty permutation literal", 0)
    values: list[int] = []
    if "," in s:
        pos = 0
        for token in s.split(","):
            if not _is_decimal(token.strip()):
                raise ParseError(f"expected an integer, got {token!r}", pos)
            values.append(int(token))
            pos += len(token) + 1
    else:
        for p, ch in enumerate(s):
            if ch not in "123456789":
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


def descents_left(u: Word) -> frozenset[int]:
    pos = inverse(u)
    return frozenset(i for i in range(1, len(u)) if pos[i - 1] > pos[i])


def evac_word(u: Word) -> Word:
    n = len(u)
    return tuple(n + 1 - x for x in reversed(u))
