"""Shuffle product of insertion-tableau classes and its interval form.

The product of two classes is computed literally: every word of the first
class is shuffled with every (shifted) word of the second, and the
resulting words are regrouped by insertion tableau.  The regrouping must
decompose into whole classes, each exactly once; that fact is asserted, not
assumed.  Each factor class is listed once, and each term's group is
checked against the hook-length count of its shape rather than against its
listed class: a group of words that all insert to T is a subset of the
class of T, so it is the whole class exactly when it has as many words.
The literal form, with every term's class listed, is the test oracle
``tests/product_oracle.py``.  The same support is also available as an
order interval between the row-wise and column-wise concatenations of the
two tableaux.

For fixed shapes, the intervals of all (left, right) choices are
isomorphic.  The check writes the isomorphism down instead of searching for
one: relabel the left factor's inner tableau, evacuate, relabel the other
factor's, evacuate back.  Every map is tested; a violation means that this
natural map is not an isomorphism, not that none exists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .knuthclass import _knuth_class
from .permutation import InvariantError, Word, interleavings, shifted
from .report import VerificationReport, stopwatch
from .tableau import (
    Rows,
    _beside,
    _evacuate,
    _hook_count,
    _inner_rows,
    _over,
    _relabel_inner,
    _standard_tableaux,
    check_standard,
    format_tableau,
    insertion_tableau,
    partitions,
    shape_of,
    size_of,
)
from .weakorder import (
    MAX_POSET_N,
    Interval,
    TableauPoset,
    _bits,
    cached_poset,
    canonical_key,
    interval,
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
    never do, and the interval description below relies on that.  Each
    factor is validated once, and the product's size is compared with
    ``MAX_PRODUCT_SIZE`` before either class is listed; each class is then
    listed once, from the checked factor.  A term's group is checked by a
    count, which is the same check as comparing it with the term's class:
    every word in the group of T was row-inserted to T, so the group is a
    subset of class(T), and class(T) has exactly f^shape(T) words, one per
    standard recording tableau (RSK).  A subset of that size is the whole
    class.
    """
    left, right = check_standard(left), check_standard(right)
    k = size_of(left)
    n = k + size_of(right)
    if n > MAX_PRODUCT_SIZE:
        raise ValueError(f"product size {n} exceeds {MAX_PRODUCT_SIZE}")
    rights = [shifted(w, k) for w in _knuth_class(right).words]
    grouped: dict[Rows, set[Word]] = {}
    total = 0
    for u in _knuth_class(left).words:
        for w in rights:
            for word in interleavings(u, w):
                total += 1
                grouped.setdefault(insertion_tableau(word), set()).add(word)
    # distinct (u, w) pairs give distinct shuffle words (the sub-alphabets
    # split every word uniquely), so set sizes account for every word
    if total != sum(len(words) for words in grouped.values()):
        raise InvariantError("shuffle words unexpectedly repeated")
    terms: dict[Rows, int] = {}
    for tab in sorted(grouped, key=canonical_key):
        if len(grouped[tab]) != _hook_count(shape_of(tab)):
            raise InvariantError(
                f"shuffle words cover class {format_tableau(tab)} only partially"
            )
        terms[tab] = 1
    return PlacticSum(terms)


def _factors(left: Rows, right: Rows, p: TableauPoset) -> tuple[Rows, Rows]:
    """The two factors, each checked once, for a product read off ``p``."""
    left = check_standard(left)
    right = check_standard(right)
    n = size_of(left) + size_of(right)
    if p.n != n:
        raise ValueError(f"poset is for size {p.n}, product needs {n}")
    return left, right


def product_interval(left: Rows, right: Rows, p: TableauPoset) -> Interval:
    """The product read off the order: the interval between the row-wise
    and column-wise concatenations."""
    left, right = _factors(left, right, p)
    return interval(p, p.index[_beside(left, right)], p.index[_over(left, right)])


def interval_product(left: Rows, right: Rows, p: TableauPoset) -> tuple[Rows, ...]:
    """Support of the product: the tableaux of :func:`product_interval`,
    read from its member mask without its induced covers."""
    left, right = _factors(left, right, p)
    return tuple(p.nodes[a] for a in _bits(_product_mask(p, left, right)))


def _product_mask(p: TableauPoset, left: Rows, right: Rows) -> int:
    """The members of :func:`product_interval` as a bit mask, from the
    unchecked concatenations of two standard tableaux."""
    bottom = p.index[_beside(left, right)]
    top = p.index[_over(left, right)]
    return p.reach[bottom] & p.below[top]


def _is_isomorphism(reach, base: int, image: dict[int, int], target: int) -> bool:
    """Whether ``image`` (each member of the mask ``base`` -> a node) is an
    order isomorphism onto the members of the mask ``target``: injective,
    onto exactly ``target``, and carrying each member's up-set in the base
    onto its image's up-set in the target, which both preserves and
    reflects the order."""
    if len(set(image.values())) != len(image):
        return False
    onto = 0
    for x in image.values():
        onto |= 1 << x
    if onto != target:
        return False
    return all(
        sum(1 << image[b] for b in _bits(reach[a] & base)) == reach[x] & target
        for a, x in image.items()
    )


def verify_interval_isomorphism(k: int, l: int, jobs: int = 1) -> VerificationReport:
    """Product intervals depend only on the two shapes: for fixed shapes,
    every (left, right) choice gives an interval isomorphic to that of the
    first choice (L0, R0) of its shape pair.

    With rho the relabeling of the cells of 1..|A| from an inner tableau A
    to B and eps evacuation, a base member T goes to
    eps(rho_{eps R0 -> eps R}(eps(rho_{L0 -> L}(T)))).  The L side is the
    inner-tableau translation; evacuation swaps the two factors, so the R
    side is one too.  Nothing about the map is assumed: every base member
    must have inner tableau L0, every evacuated image inner tableau eps R0,
    and the map must be an isomorphism onto the (L, R) interval
    (:func:`_is_isomorphism`).  A violation means that this map is not an
    isomorphism; the two intervals may still be isomorphic by another.
    """
    if k < 1 or l < 1 or k + l > MAX_POSET_N:
        raise ValueError(f"need k, l >= 1 and k + l <= {MAX_POSET_N}")
    p = cached_poset(k + l)
    checked = 0
    violations = []
    with stopwatch() as sw:
        for shape_left in partitions(k):
            lefts = _standard_tableaux(shape_left)
            for shape_right in partitions(l):
                rights = _standard_tableaux(shape_right)
                left0, right0 = lefts[0], rights[0]
                base = _product_mask(p, left0, right0)
                members = _bits(base)
                tabs = [p.nodes[a] for a in members]
                base_ok = all(_inner_rows(t, k) == left0 for t in tabs)
                evac_right0 = _evacuate(right0)
                for left in lefts:
                    # eps(rho_{L0 -> L}(T)) per member; None when some base
                    # member or image breaks the relabeling's precondition
                    halves = None
                    if base_ok:
                        halves = [_evacuate(_relabel_inner(t, left)) for t in tabs]
                        if any(_inner_rows(e, l) != evac_right0 for e in halves):
                            halves = None
                    for right in rights:
                        if (left, right) == (left0, right0):
                            continue
                        checked += 1
                        if halves is not None:
                            evac_right = _evacuate(right)
                            image = {
                                a: p.index[_evacuate(_relabel_inner(e, evac_right))]
                                for a, e in zip(members, halves)
                            }
                            target = _product_mask(p, left, right)
                            if _is_isomorphism(p.reach, base, image, target):
                                continue
                        violations.append(
                            {
                                "shape_left": list(shape_left),
                                "shape_right": list(shape_right),
                                "base": [format_tableau(left0), format_tableau(right0)],
                                "other": [format_tableau(left), format_tableau(right)],
                            }
                        )
    return VerificationReport(
        "product-interval-isomorphism",
        {"k": k, "l": l},
        checked,
        violations,
        sw.ms,
    )
