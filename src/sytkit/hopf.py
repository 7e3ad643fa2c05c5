"""Shuffle product of insertion-tableau classes and its interval form.

The product of two classes is computed literally: every word of the first
class is shuffled with every (shifted) word of the second, and the
resulting words are regrouped by insertion tableau.  The regrouping must
decompose into whole classes, each exactly once; that fact is asserted, not
assumed.  The same support is also available as an order interval between
the row-wise and column-wise concatenations of the two tableaux.
"""

from __future__ import annotations

from dataclasses import dataclass

from .knuthclass import knuth_class
from .permutation import InvariantError, Word, interleavings, shifted
from .report import VerificationReport, stopwatch
from .tableau import (
    Rows,
    beside,
    check_standard,
    format_tableau,
    insertion_tableau,
    over,
    partitions,
    size_of,
    standard_tableaux,
)
from .weakorder import (
    Interval,
    TableauPoset,
    cached_poset,
    canonical_key,
    interval,
    is_isomorphic,
)

MAX_PRODUCT_SIZE = 9


@dataclass
class PlacticSum:
    """Formal sum of tableaux with positive integer multiplicities."""

    terms: dict[Rows, int]

    def support(self) -> tuple[Rows, ...]:
        return tuple(sorted(self.terms, key=canonical_key))

    def __len__(self) -> int:
        return len(self.terms)


def plactic_product(left: Rows, right: Rows) -> PlacticSum:
    """Shuffle every pair of class words and regroup by insertion tableau.

    Raises if the shuffle words fail to decompose into whole classes; they
    never do, and the interval description below relies on that.
    """
    left = check_standard(left)
    right = check_standard(right)
    k = size_of(left)
    if k + size_of(right) > MAX_PRODUCT_SIZE:
        raise ValueError(
            f"product size {k + size_of(right)} exceeds {MAX_PRODUCT_SIZE}"
        )
    grouped: dict[Rows, set[Word]] = {}
    total = 0
    for u in sorted(knuth_class(left).words):
        for w in sorted(knuth_class(right).words):
            for word in interleavings(u, shifted(w, k)):
                total += 1
                grouped.setdefault(insertion_tableau(word), set()).add(word)
    # distinct (u, w) pairs give distinct shuffle words (the sub-alphabets
    # split every word uniquely), so set sizes account for every word
    if total != sum(len(words) for words in grouped.values()):
        raise InvariantError("shuffle words unexpectedly repeated")
    terms: dict[Rows, int] = {}
    for tab in sorted(grouped, key=canonical_key):
        words = grouped[tab]
        cls = knuth_class(tab).words
        if words != cls:
            raise InvariantError(
                f"shuffle words cover class {format_tableau(tab)} only partially"
            )
        terms[tab] = 1
    return PlacticSum(terms)


def product_interval(left: Rows, right: Rows, p: TableauPoset) -> Interval:
    """The product read off the order: the interval between the row-wise
    and column-wise concatenations."""
    left = check_standard(left)
    right = check_standard(right)
    n = size_of(left) + size_of(right)
    if p.n != n:
        raise ValueError(f"poset is for size {p.n}, product needs {n}")
    return interval(p, beside(left, right), over(left, right))


def interval_product(left: Rows, right: Rows, p: TableauPoset) -> tuple[Rows, ...]:
    """Support of the product: the tableaux of :func:`product_interval`."""
    return product_interval(left, right, p).member_tableaux()


def verify_interval_isomorphism(k: int, l: int, jobs: int = 1) -> VerificationReport:
    """Product intervals depend only on the two shapes: for fixed shapes,
    every (left, right) choice gives an isomorphic interval.

    Each choice is compared against the first one of its shape pair, which
    covers all pairs by transitivity of isomorphism.
    """
    if k < 1 or l < 1 or k + l > 7:
        raise ValueError("need k, l >= 1 and k + l <= 7")
    p = cached_poset(k + l, jobs=jobs)
    checked = 0
    violations = []
    with stopwatch() as sw:
        for shape_left in partitions(k):
            for shape_right in partitions(l):
                base = None
                base_pair = None
                for left in standard_tableaux(shape_left):
                    for right in standard_tableaux(shape_right):
                        iv = product_interval(left, right, p)
                        if base is None:
                            base = iv
                            base_pair = (left, right)
                            continue
                        checked += 1
                        if not is_isomorphic(base, iv):
                            violations.append(
                                {
                                    "shape_left": list(shape_left),
                                    "shape_right": list(shape_right),
                                    "base": [
                                        format_tableau(base_pair[0]),
                                        format_tableau(base_pair[1]),
                                    ],
                                    "other": [
                                        format_tableau(left),
                                        format_tableau(right),
                                    ],
                                }
                            )
    return VerificationReport(
        "product-interval-isomorphism",
        {"k": k, "l": l},
        checked,
        violations,
        sw.ms,
    )
