"""The relation checks as they stood before the one-kernel rewrite: a slow
oracle for the mask tests behind ``verify`` and ``weakorder``.

Each check walks every strict relation a < b of the poset, one ``reach``
bit at a time, and tests the pair on its own.  The bodies are copied here
as written, so that differential tests compare the mask tests with an
independent copy rather than with themselves; the only change is that
each check takes the poset (and restriction its smaller posets) instead
of building it, and returns ``(checked, violations)`` rather than a
report, plus the failure list for the single-triple scan, whose dual
Knuth moves come from the word-route oracle ``move_oracle.dual_moves``
rather than from the exchange kernel ``tableau._dual_moves``.  Descent
sets are read off the row word (``permutation.descents_left``), not from
``tableau._rows_of``, which the code under test shares.
"""

from __future__ import annotations

from move_oracle import dual_moves
from sytkit.permutation import descents_left
from sytkit.tableau import (
    Rows,
    _restrict,
    dominance_leq,
    evacuate,
    format_tableau,
    row_word,
    shape_of,
    transpose,
)
from sytkit.weakorder import TableauPoset, _bits


def descent_set(rows: Rows) -> frozenset[int]:
    """Letters i with i+1 before i in the row word, i.e. in a lower row."""
    return descents_left(row_word(rows))


def antisymmetry(p: TableauPoset) -> tuple[int, list[dict]]:
    checked = 0
    violations = []
    for a in range(len(p.nodes)):
        for b in _bits(p.reach[a] & ~(1 << a)):
            checked += 1
            if p.reach[b] >> a & 1:
                if a < b:
                    violations.append(
                        {
                            "S": format_tableau(p.nodes[a]),
                            "T": format_tableau(p.nodes[b]),
                        }
                    )
    return checked, violations


def restriction_monotone(
    p: TableauPoset, small: dict[int, TableauPoset]
) -> tuple[int, list[dict]]:
    n = p.n
    checked = 0
    violations = []
    segments = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    restricted = []
    for node in p.nodes:
        per_segment = {}
        for i, j in segments:
            per_segment[(i, j)] = small[j - i + 1].index[_restrict(node, i, j)]
        restricted.append(per_segment)
    for a in range(len(p.nodes)):
        for b in _bits(p.reach[a] & ~(1 << a)):
            for i, j in segments:
                checked += 1
                q = small[j - i + 1]
                if not q.leq_ids(restricted[a][(i, j)], restricted[b][(i, j)]):
                    violations.append(
                        {
                            "S": format_tableau(p.nodes[a]),
                            "T": format_tableau(p.nodes[b]),
                            "segment": [i, j],
                        }
                    )
    return checked, violations


def evac_transpose_monotone(p: TableauPoset) -> tuple[int, list[dict]]:
    checked = 0
    violations = []
    evac_ids = [p.index[evacuate(t)] for t in p.nodes]
    trans_ids = [p.index[transpose(t)] for t in p.nodes]
    for a in range(len(p.nodes)):
        for b in _bits(p.reach[a] & ~(1 << a)):
            checked += 1
            if not p.leq_ids(evac_ids[a], evac_ids[b]):
                violations.append(
                    {
                        "map": "evacuation",
                        "S": format_tableau(p.nodes[a]),
                        "T": format_tableau(p.nodes[b]),
                    }
                )
            if not p.leq_ids(trans_ids[b], trans_ids[a]):
                violations.append(
                    {
                        "map": "transpose",
                        "S": format_tableau(p.nodes[a]),
                        "T": format_tableau(p.nodes[b]),
                    }
                )
    return checked, violations


def monotone_descent(p: TableauPoset) -> tuple[int, list[dict]]:
    masks = []
    for t in p.nodes:
        m = 0
        for i in descent_set(t):
            m |= 1 << i
        masks.append(m)
    checked = 0
    violations = []
    for a in range(len(p.nodes)):
        for b in _bits(p.reach[a] & ~(1 << a)):
            checked += 1
            if masks[a] & ~masks[b]:
                violations.append(
                    {
                        "S": format_tableau(p.nodes[a]),
                        "T": format_tableau(p.nodes[b]),
                        "des_S": sorted(descent_set(p.nodes[a])),
                        "des_T": sorted(descent_set(p.nodes[b])),
                    }
                )
    return checked, violations


def monotone_shape(p: TableauPoset) -> tuple[int, list[dict]]:
    shapes = [shape_of(t) for t in p.nodes]
    distinct = sorted(set(shapes))
    sid = [distinct.index(s) for s in shapes]
    dom = [[dominance_leq(s, t) for t in distinct] for s in distinct]
    down = all(dom[sid[b]][sid[a]] for a, b in p.covers)
    up = all(dom[sid[a]][sid[b]] for a, b in p.covers)
    if down:
        direction = "down"
    elif up:
        direction = "up"
    else:
        direction = "none"
    checked = len(p.covers)
    violations = []
    if direction == "none":
        for a, b in p.covers:
            if not dom[sid[b]][sid[a]]:
                violations.append(
                    {
                        "S": format_tableau(p.nodes[a]),
                        "T": format_tableau(p.nodes[b]),
                        "sh_S": list(shapes[a]),
                        "sh_T": list(shapes[b]),
                    }
                )
    else:
        for a in range(len(p.nodes)):
            for b in _bits(p.reach[a] & ~(1 << a)):
                checked += 1
                lo, hi = (b, a) if direction == "down" else (a, b)
                if not dom[sid[lo]][sid[hi]]:
                    violations.append(
                        {
                            "S": format_tableau(p.nodes[a]),
                            "T": format_tableau(p.nodes[b]),
                            "sh_S": list(shapes[a]),
                            "sh_T": list(shapes[b]),
                        }
                    )
    return checked, violations


def single_triple_failures(p: TableauPoset) -> tuple[int, list[dict]]:
    """Pairs checked and every failure found, in scan order."""
    checked = 0
    found: list[dict] = []
    descents = [descent_set(t) for t in p.nodes]
    moved = {
        (a, i): p.index[t]
        for a, node in enumerate(p.nodes)
        for i, t in dual_moves(node)
    }
    for (a, i), a_moved in moved.items():
        # both endpoints must sit on the same side of the map's domain
        # split, i.e. share which of i, i+1 descends
        for b in _bits(p.reach[a] & ~(1 << a)):
            if (b, i) not in moved:
                continue
            if (i in descents[a]) != (i in descents[b]):
                continue
            checked += 1
            if not p.leq_ids(a_moved, moved[(b, i)]):
                found.append(
                    {
                        "triple": [i, i + 1, i + 2],
                        "S": format_tableau(p.nodes[a]),
                        "T": format_tableau(p.nodes[b]),
                        "S_relabeled": format_tableau(p.nodes[a_moved]),
                        "T_relabeled": format_tableau(p.nodes[moved[(b, i)]]),
                    }
                )
    return checked, found
