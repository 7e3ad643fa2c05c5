"""The literal shuffle product: a slow oracle for ``hopf.plactic_product``.

Both factor classes are listed in sorted order, the class of the right
factor once per word of the left one, and every riffle is spelled out
letter by letter.  Each term's group of shuffle words is compared with the
term's whole Knuth class as a set; nothing is counted by the hook-length
formula and no riffle comes from an index table.
"""

from __future__ import annotations

from itertools import combinations

from sytkit.hopf import PlacticSum
from sytkit.knuthclass import knuth_class
from sytkit.permutation import InvariantError, Word
from sytkit.tableau import Rows, format_tableau, insertion_tableau, size_of
from sytkit.weakorder import canonical_key


def interleavings(a: Word, b: Word) -> list[Word]:
    """All riffles of two words, each keeping its own letter order, in the
    order of ``combinations`` over the places of ``a``."""
    n = len(a) + len(b)
    out = []
    for spots in combinations(range(n), len(a)):
        spot_set = set(spots)
        word = []
        ai = bi = 0
        for p in range(n):
            if p in spot_set:
                word.append(a[ai])
                ai += 1
            else:
                word.append(b[bi])
                bi += 1
        out.append(tuple(word))
    return out


def plactic_product(left: Rows, right: Rows) -> PlacticSum:
    """Shuffle every pair of class words, regroup by insertion tableau, and
    compare each group with the whole class of its tableau."""
    k = size_of(left)
    grouped: dict[Rows, set[Word]] = {}
    total = 0
    for u in sorted(knuth_class(left).words):
        for w in sorted(knuth_class(right).words):
            for word in interleavings(u, tuple(x + k for x in w)):
                total += 1
                grouped.setdefault(insertion_tableau(word), set()).add(word)
    if total != sum(len(words) for words in grouped.values()):
        raise InvariantError("shuffle words unexpectedly repeated")
    terms: dict[Rows, int] = {}
    for tab in sorted(grouped, key=canonical_key):
        if grouped[tab] != knuth_class(tab).words:
            raise InvariantError(
                f"shuffle words cover class {format_tableau(tab)} only partially"
            )
        terms[tab] = 1
    return PlacticSum(terms)
