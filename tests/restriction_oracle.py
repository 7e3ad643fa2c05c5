"""Two slow oracles for ``verify.verify_restriction_insertion``, each
returning ``(checked, violations)`` rather than a report.

``restriction_insertion`` is the check as it stood before each
restriction and each insertion was made once: it inserts the word and
every restricted word, and restricts the tableau, afresh for every
(word, segment).  It calls the restriction through the module,
``tableau._restrict``, so that a test that replaces it there breaks the
oracle too.

``suffix_walk`` is the check as it stood before the local lemma replaced
its walk: one depth-first walk over the words, built from the right.
Each suffix carries the node id of its restriction to every segment, and
prepending x changes only the segments holding x, each by one popcount
rank and one lookup in the lift's column tables; the restriction side is
the one-step tables of ``verify._segment_images``.  The lift and the
images are read through ``verify`` so that a test that replaces them
there breaks the walk too.  The body is copied here as written, but for
the images, which are now read by lift id and need no order.
"""

from __future__ import annotations

from itertools import permutations

from sytkit import tableau, verify
from sytkit.permutation import format_word
from sytkit.tableau import insertion_tableau
from word_oracle import restrict_standardize


def restriction_insertion(n: int) -> tuple[int, list[dict]]:
    checked = 0
    violations = []
    for u in permutations(range(1, n + 1)):
        tab = insertion_tableau(u)
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                checked += 1
                if tableau._restrict(tab, i, j) != insertion_tableau(
                    restrict_standardize(u, i, j)
                ):
                    violations.append(
                        {"word": format_word(u), "segment": [i, j]}
                    )
    return checked, violations


def suffix_walk(n: int) -> tuple[int, list[dict]]:
    tables = [verify._size(m).tables for m in range(1, n + 1)]  # by restriction length
    segments = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    checked = 0
    broken = []
    images = verify._segment_images(n)
    expected = list(zip(*(images[s] for s in segments)))  # per node a
    # per letter x, the segments [i, j] holding it: (index, bits i..j,
    # bits i..x - 1), bit y standing for letter y
    holding = [
        [
            (s, (2 << j) - (1 << i), (1 << x) - (1 << i))
            for s, (i, j) in enumerate(segments)
            if i <= x <= j
        ]
        for x in range(n + 1)
    ]
    full = (2 << n) - 2
    whole = n - 2  # the segment [1, n]
    # letters placed, the suffix, its ids per segment; n = 1 has no segment
    stack = [(0, (), [0] * len(segments))] if segments else []
    while stack:
        seen, suffix, ids = stack.pop()
        for x in range(1, n + 1):
            bit = 1 << x
            if seen & bit:
                continue
            new = ids[:]
            for s, segment, lower in holding[x]:
                new[s] = tables[(seen & segment).bit_count()][(seen & lower).bit_count()][new[s]]
            if seen | bit != full:
                stack.append((seen | bit, (x, *suffix), new))
                continue
            checked += len(segments)
            new = tuple(new)
            image = expected[new[whole]]
            if new != image:
                broken += [((x, *suffix), s) for s, a in enumerate(new) if a != image[s]]
    return checked, [
        {"word": format_word(u), "segment": list(segments[s])} for u, s in sorted(broken)
    ]
