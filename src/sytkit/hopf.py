"""Shuffle product of insertion-tableau classes and its interval form.

The product of two classes is counted, not spelled out: no word of either
class or of their shuffle is made.  Each factor's class is its
reverse-bump graph (``knuthclass._bump_graph``), whose paths from the
tableau to the empty one spell the class words from the right.  Its nodes
are integer keys, not sub-tableaux: a letter mask with a standardized row
code, whose steps are read from the step table ``knuthclass._STEPS``,
where each standardized tableau is reverse-bumped and checked once per
process.  The two graphs are walked in place, no pair graph listed, by
the one class walk :func:`_prefix_ids`, which ``verify.verify_hook_eta``
also runs: a state is a pair of their nodes, the right factor's letters
raised above the left's, one letter is placed per level from the right,
and the insertion tableau of what is placed is named by one lookup in
the lift's column-insertion tables (``weakorder._size``), as P(x.w) is x
column-inserted into P(w) (Schensted 1961).  Equal states are merged
level by level and carry their word counts.  The counts must decompose
into whole classes, each exactly once; that fact is asserted, not
assumed.  The total is checked against the hook-length counts of the
two factors, each term's count against the hook-length count of its
shape: words that all insert to T are a subset of the class of T, so
they are the whole class exactly when there are as many.  Each term is
also checked to restrict to the two factors, which neither the graphs nor
the tables are trusted for: its letters above the left factor's are
row-inserted as one reading word (:func:`_upper_factor`), jeu de taquin
being a test oracle of that.  The literal form, which row-inserts every
shuffle word and lists every term's class, is the test oracle
``tests/product_oracle.py``.  The same support is also available as an
order interval between the row-wise and column-wise concatenations of
the two tableaux, whose ids are read from the factors' row codes
(:func:`_product_ends`), as interval isomorphism reads them.

For fixed shapes, the intervals of all (left, right) choices are
isomorphic.  The check writes the isomorphism down instead of searching for
one: relabel the left factor's inner tableau, evacuate, relabel the other
factor's, evacuate back.  Every map is tested; a violation means that this
natural map is not an isomorphism, not that none exists.  The maps are
read on the lift's ids, no tableau made per member: a relabeling is a
splice of row codes and one lookup in the lift's code map, evacuation one
read of an id table (both in ``weakorder._size``), and the ends of each
interval are spliced from the factors' codes.  The tableau forms
(``tableau._relabel_inner``, ``_evacuate``, ``_beside``, ``_over``) stay
the oracle of the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .knuthclass import _bump_graph
from .permutation import CAPS, InvariantError, check_range
from .report import VerificationReport, stopwatch
from .tableau import (
    Rows,
    _hook_count,
    _inner_rows,
    _insertion_tableau,
    _standard_tableaux,
    check_standard,
    format_tableau,
    partitions,
    shape_of,
    size_of,
)
from .weakorder import (
    Interval,
    TableauPoset,
    _bits,
    _check_lift_nodes,
    _interval_mask,
    _row_code,
    _size,
    cached_poset,
    canonical_key,
    interval,
)


@dataclass
class PlacticSum:
    """Formal sum of tableaux with positive integer multiplicities."""

    terms: dict[Rows, int]

    def support(self) -> tuple[Rows, ...]:
        return tuple(sorted(self.terms, key=canonical_key))

    def __len__(self) -> int:
        return len(self.terms)


def plactic_product(left: Rows, right: Rows) -> PlacticSum:
    """Count the shuffle words of the two classes by insertion tableau.

    Each factor is validated once, and the product's size is refused above
    the lift's cap ``CAPS["lift"]`` before either factor's reverse-bump graph
    (``knuthclass._bump_graph``) is made, its nodes numbered from integer
    keys and its steps read from the step table ``knuthclass._STEPS``.
    No word is made, of a class or of the shuffle, and no sub-tableau.
    The two checked graphs (:func:`_checked_graph`) are handed, each with
    its root 0, to the class walk :func:`_prefix_ids`, which walks them in
    place: a state is a pair (a, b) of their nodes, a left step moves a, a
    right step moves b with its exit letter raised by k, and no pair graph
    is listed.  The shuffle words of the product are the words the walk
    spells from the pair of roots to the pair of empty tableaux, and it
    counts them by insertion tableau, n levels from the right.  Every
    right letter is above every left one, so the rank of a right step
    counts every left letter placed, and the raised right letters keep
    their ranks among themselves.  The two alphabets are disjoint, so each
    pair of paths and interleaving spells one shuffle word and distinct
    ones spell distinct words: the counts are exact.

    Raises :class:`InvariantError` if the counted words fail to decompose
    into whole classes; they never do, and the interval description below
    relies on that.  The total, over the paths that end at the empty
    tableau of both graphs, must be the number of shuffles,
    f^shape(left) f^shape(right) C(n, k), from the hook-length formula and
    not from the graphs.  A term's count is then checked against the
    hook-length count of its shape, the same check as comparing its words
    with its class: every word counted to T inserts to T, so the words of
    T are a subset of class(T), and class(T) has exactly f^shape(T) words,
    one per standard recording tableau (RSK).  A subset of that size is
    the whole class.  Last, each term must restrict to the factors: its
    letters 1..k are ``left`` and its letters above k rectify to
    ``right``, checked by one row insertion of their reading word
    (:func:`_upper_factor`) rather than by the tables.  The terms of
    the product are exactly the tableaux that restrict so (Poirier and
    Reutenauer 1995): restriction to 1..k and to k + 1..n commutes with
    insertion.  So the terms kept are true terms whose hook counts add up
    to the total of all of them, hence all of them: a broken table or
    graph can make this raise, never return a wrong term.  Terms come in
    id order, which is canonical order.
    """
    left, right = check_standard(left), check_standard(right)
    k = size_of(left)
    n = check_range(k + size_of(right), 2, CAPS["lift"], "product size")
    tables = [_size(m).tables for m in range(1, n + 1)]
    words = _prefix_ids(_checked_graph(left), 0, _checked_graph(right), 0, tables)
    f_left, f_right = _hook_count(shape_of(left)), _hook_count(shape_of(right))
    expected = f_left * f_right * comb(n, k)
    if sum(words.values()) != expected:
        raise InvariantError(
            f"counted {sum(words.values())} shuffle words, not the "
            f"{f_left} * {f_right} * C({n}, {k}) = {expected} of the two classes"
        )
    nodes = _size(n).nodes
    terms: dict[Rows, int] = {}
    for t in sorted(words):
        tab = nodes[t]
        if words[t] != _hook_count(shape_of(tab)):
            raise InvariantError(
                f"shuffle words cover class {format_tableau(tab)} only partially"
            )
        if _inner_rows(tab, k) != left or _upper_factor(tab, k) != right:
            raise InvariantError(
                f"term {format_tableau(tab)} does not restrict to the two factors"
            )
        terms[tab] = 1
    return PlacticSum(terms)


def _upper_factor(rows: Rows, k: int) -> Rows:
    """The restriction of a standard tableau to its letters above k,
    standardized: the insertion tableau of the reading word of those
    letters, bottom row first, each lowered by k.  The rectification of a
    skew tableau is the insertion tableau of its reading word
    (Schützenberger 1972), so this is ``tableau._restrict(rows, k + 1, n)``
    with no slide."""
    return _insertion_tableau([x - k for row in reversed(rows) for x in row if x > k])


def _checked_graph(*roots: Rows) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """``knuthclass._bump_graph`` below the tableaux, each step checked to
    take exactly its exit letter from its node's letters, else
    :class:`InvariantError`: then a path of d steps has placed d letters.
    Each step table entry is checked once, when it is made; this check is
    the consumer's, on the graph it is handed.  The product reads the
    graph of each factor, and ``verify.verify_hook_eta`` one graph below
    all the corner children of one size."""
    masks, steps = _bump_graph(*roots)
    for mask, out in zip(masks, steps):
        for c, x in out:
            if masks[c] | 1 << x != mask or masks[c] == mask:
                raise InvariantError(
                    f"a reverse-bump step of {', '.join(map(format_tableau, roots))} "
                    f"does not take exactly its letter {x}"
                )
    return masks, steps


def _prefix_ids(left, a: int, right, b: int, tables) -> dict[int, int]:
    """The shuffle words of the classes of a left root a and a right root
    b, the right letters raised above the left's (by k, the left root's
    size, for standard roots): each word's insertion id among the nodes of
    its size, with the number of words inserting to it.  Each graph is a
    checked (masks, steps) reverse-bump graph (:func:`_checked_graph`),
    whose last node is the empty tableau.  The right graph of that node
    alone, ``([0], [[]])``, makes the words those of the left root's class.

    The two graphs are walked in place; no pair graph is listed.  The walk
    starts at the pair of roots, the empty suffix placed, and places one
    letter per level from the right.  A state is a pair of nodes, keyed
    a << s | b, s the bit length of the right graph's last node index, and
    the id of the suffix placed so far.  A left step moves a, a right step
    moves b, its exit letter raised.  Prepending the exit letter costs
    one popcount rank among the letters placed and one lookup in the
    tables of the new length, as in ``weakorder._insertion_id``,
    ``tables[j - 1]`` holding those of size j for j = 1..m, m the two
    roots' sizes added.  A left letter's rank counts the left letters
    placed below it (the left root's letters that a no longer holds); a
    right letter's is the j letters placed at level j less the right ones
    above it.  Equal states are merged and their counts added: their
    futures are the same.  Only paths that end at the last nodes of both
    graphs, the empty tableaux, are counted."""
    left_masks, left_steps = left
    right_masks, right_steps = right
    start_left, start_right = left_masks[a], right_masks[b]
    s = (len(right_steps) - 1).bit_length()
    low = (1 << s) - 1
    states: dict[int, dict[int, int]] = {a << s | b: {0: 1}}
    for j, size_tables in enumerate(tables):
        following: dict[int, dict[int, int]] = {}
        for key, counts in states.items():
            a, b = key >> s, key & low
            placed = start_left ^ left_masks[a]
            for c, y in left_steps[a]:
                table = size_tables[(placed & (1 << y) - 1).bit_count()]
                merged = following.setdefault(c << s | b, {})
                for t, count in counts.items():
                    t = table[t]
                    merged[t] = merged.get(t, 0) + count
            for c, y in right_steps[b]:
                table = size_tables[j - ((start_right ^ right_masks[b]) >> y).bit_count()]
                merged = following.setdefault(key ^ b | c, {})
                for t, count in counts.items():
                    t = table[t]
                    merged[t] = merged.get(t, 0) + count
        states = following
    return states.get((len(left_steps) - 1) << s | len(right_steps) - 1, {})


def _product_ends(left: Rows, right: Rows, p: TableauPoset) -> tuple[int, int]:
    """The ids in ``p`` of the row-wise and column-wise concatenations, the
    ends of the product's interval, each factor checked once.  They are
    read from the factors' row codes (:func:`_forms`, :func:`_ends`), no
    tableau made, so the order's nodes must be the lift's, else
    :class:`InvariantError`; a product above the order's cap
    ``CAPS["order"]`` is refused before the lift is read."""
    left = check_standard(left)
    right = check_standard(right)
    k = size_of(left)
    n = check_range(k + size_of(right), 2, CAPS["order"], "product size")
    if p.n != n:
        raise ValueError(f"poset is for size {p.n}, product needs {n}")
    _check_lift_nodes(p)
    (left_form,), (right_form,) = _forms(k, (left,)), _forms(n - k, (right,))
    return _ends(n, k, left_form, right_form)


def product_interval(left: Rows, right: Rows, p: TableauPoset) -> Interval:
    """The product read off the order: the interval between the row-wise
    and column-wise concatenations."""
    return interval(p, *_product_ends(left, right, p))


def interval_product(left: Rows, right: Rows, p: TableauPoset) -> tuple[Rows, ...]:
    """Support of the product: the tableaux of :func:`product_interval`,
    read from its member mask without its induced covers."""
    mask = _interval_mask(p, *_product_ends(left, right, p))
    return tuple(p.nodes[a] for a in _bits(mask))


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


def _forms(m: int, tabs) -> list[tuple[int, int, int]]:
    """Per standard tableau of size m: the row codes of it, of its
    transpose and of its evacuation, the last two read through the size-m
    record's id tables and code list (``weakorder._size``)."""
    size = _size(m)
    ids_of, codes = size.ids_of, size.codes
    evacuation, transposition = size.evacuation, size.transposition
    out = []
    for t in tabs:
        a = ids_of[_row_code(t)]
        out.append((codes[a], codes[transposition[a]], codes[evacuation[a]]))
    return out


def _ends(n: int, k: int, left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, int]:
    """The size-n ids of ``_beside`` and ``_over`` of L and R, from their
    :func:`_forms`: beside is the row code of L with that of R above its k
    digits, and over is the transpose of beside of the two transposes."""
    size = _size(n)
    turned = size.ids_of[left[1] | right[1] << 4 * k]
    return size.ids_of[left[0] | right[0] << 4 * k], size.transposition[turned]


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

    No tableau is made per member.  The order's ids must be the lift's,
    else :class:`InvariantError`; a relabeling then replaces the lowest
    digits of a member's row code (``weakorder._row_code``) with the code
    of the new inner tableau, one lookup in the lift's code map names the
    result, and evacuation is one read of the size-n id table, all of the
    size-n record (``weakorder._size``).  The ends of each interval come
    from :func:`_ends`.  The total k + l is at most the order's cap
    ``CAPS["order"]``.
    """
    n = check_range(k, 1, CAPS["order"] - 1, "k") + check_range(l, 1, CAPS["order"] - k, "l")
    p = cached_poset(n)
    _check_lift_nodes(p)
    checked = 0
    violations = []
    with stopwatch() as sw:
        size = _size(n)
        ids_of, codes, evacuation = size.ids_of, size.codes, size.evacuation
        reach = p.reach
        low_k, low_l = (1 << 4 * k) - 1, (1 << 4 * l) - 1
        sides = []  # (shape, its tableaux, their forms) per right shape
        for shape_right in partitions(l):
            rights = _standard_tableaux(shape_right)
            sides.append((shape_right, rights, _forms(l, rights)))
        for shape_left in partitions(k):
            lefts = _standard_tableaux(shape_left)
            left_forms = _forms(k, lefts)
            for shape_right, rights, right_forms in sides:
                if len(lefts) == len(rights) == 1:
                    continue  # the base is the only pair: nothing to compare
                left0, right0 = lefts[0], rights[0]
                base = _interval_mask(p, *_ends(n, k, left_forms[0], right_forms[0]))
                members = _bits(base)
                # the members' codes with the digits of 1..k cleared
                highs = [codes[a] & ~low_k for a in members]
                base_ok = all(codes[a] & low_k == left_forms[0][0] for a in members)
                evac_right0 = right_forms[0][2]
                for left, left_form in zip(lefts, left_forms):
                    # eps(rho_{L0 -> L}(T)) per member, its digits of 1..l
                    # cleared; None when some base member or image breaks
                    # the relabeling's precondition
                    halves = None
                    if base_ok:
                        evacuated = [codes[evacuation[ids_of[h | left_form[0]]]] for h in highs]
                        if all(e & low_l == evac_right0 for e in evacuated):
                            halves = [e & ~low_l for e in evacuated]
                    for right, right_form in zip(rights, right_forms):
                        if (left, right) == (left0, right0):
                            continue
                        checked += 1
                        if halves is not None:
                            evac_right = right_form[2]
                            image = {
                                a: evacuation[ids_of[e | evac_right]]
                                for a, e in zip(members, halves)
                            }
                            target = _interval_mask(p, *_ends(n, k, left_form, right_form))
                            if _is_isomorphism(reach, base, image, target):
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
