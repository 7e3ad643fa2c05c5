"""The product-interval isomorphism check as it stood before the explicit
maps: a slow oracle that builds every (left, right) interval through the
validating ``hopf.product_interval`` and compares it with the first one of
its shape pair by a generic backtracking search.

``is_isomorphic`` and ``_interval_signatures`` are copied here as written
from ``weakorder``, and the check loop from ``hopf``; the only changes are
that a signature counts the members below a member from their ``reach``
rows, as the poset keeps no down-sets, and that the loop takes the poset
instead of building it (so it has no size guard) and returns
``(checked, violations)`` rather than a report.  A violation here means
that no isomorphism exists, which is stronger than a violation of the
explicit-map check.
"""

from __future__ import annotations

from sytkit.hopf import product_interval
from sytkit.tableau import format_tableau, partitions, standard_tableaux
from sytkit.weakorder import Interval, TableauPoset


def _interval_signatures(iv: Interval) -> dict[int, tuple[int, int, int, int]]:
    up_deg = {m: 0 for m in iv.members}
    down_deg = {m: 0 for m in iv.members}
    for a, b in iv.covers:
        up_deg[a] += 1
        down_deg[b] += 1
    mask = 0
    for m in iv.members:
        mask |= 1 << m
    p = iv.poset
    return {
        m: (
            up_deg[m],
            down_deg[m],
            (p.reach[m] & mask).bit_count(),
            sum(p.reach[x] >> m & 1 for x in iv.members),
        )
        for m in iv.members
    }


def is_isomorphic(a: Interval, b: Interval) -> bool:
    """Order isomorphism test by backtracking with invariant pruning."""
    if len(a.members) != len(b.members):
        return False
    sig_a = _interval_signatures(a)
    sig_b = _interval_signatures(b)
    if sorted(sig_a.values()) != sorted(sig_b.values()):
        return False

    def local_leq(iv: Interval, x: int, y: int) -> bool:
        return iv.poset.leq_ids(x, y)

    # match rare signatures first to fail fast
    freq: dict[tuple, int] = {}
    for sig in sig_a.values():
        freq[sig] = freq.get(sig, 0) + 1
    order = sorted(a.members, key=lambda m: (freq[sig_a[m]], m))
    candidates = {
        m: [x for x in b.members if sig_b[x] == sig_a[m]] for m in order
    }
    assigned: dict[int, int] = {}
    used: set[int] = set()

    def extend(idx: int) -> bool:
        if idx == len(order):
            return True
        x = order[idx]
        for y in candidates[x]:
            if y in used:
                continue
            ok = True
            for px, py in assigned.items():
                if local_leq(a, x, px) != local_leq(b, y, py) or local_leq(
                    a, px, x
                ) != local_leq(b, py, y):
                    ok = False
                    break
            if ok:
                assigned[x] = y
                used.add(y)
                if extend(idx + 1):
                    return True
                del assigned[x]
                used.remove(y)
        return False

    return extend(0)


def interval_isomorphism(k: int, l: int, p: TableauPoset) -> tuple[int, list[dict]]:
    checked = 0
    violations = []
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
    return checked, violations
