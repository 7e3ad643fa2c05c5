"""Closure and reduction of a relation as ``weakorder._poset`` made them
before the one-pass build over the id order: a slow oracle that assumes
nothing of the numbering and lets cycles through.

``closure`` is Tarjan's iterative strongly-connected-component pass as it
stood in ``weakorder``; ``close_and_reduce`` closes the edges and their
reverse with it and keeps an edge as a cover iff nothing lies strictly
between its ends (the gap test).  The broken orders of ``test_verify``,
some with cycles, are closed here too.

``transpose`` is the one place the tests make down-sets: the posets keep
none, so an oracle that reads ``below[b]`` (bit a iff a <= b) takes it
from there.  ``gap_covers`` is the gap test on a node subset, the
definition of its induced covers.
"""

from __future__ import annotations


def closure(succ: list[list[int]]) -> list[int]:
    """Reflexive-transitive closure as bitmasks: bit b of row a iff b is
    reachable from a.

    Tarjan's iterative strongly-connected-component pass emits components
    sinks first; each component's row is its members' bits OR the rows of
    its successors, all of which are final by then (Purdom 1970).  A
    component with several members makes them reach each other.
    """
    count = len(succ)
    reach = [0] * count
    order = [-1] * count  # discovery index
    low = [0] * count
    on_stack = [False] * count
    stack: list[int] = []
    seen = 0
    for root in range(count):
        if order[root] >= 0:
            continue
        order[root] = low[root] = seen
        seen += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, 0)]
        while work:
            v, i = work[-1]
            if i < len(succ[v]):
                work[-1] = (v, i + 1)
                w = succ[v][i]
                if order[w] < 0:
                    order[w] = low[w] = seen
                    seen += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, 0))
                elif on_stack[w] and order[w] < low[v]:
                    low[v] = order[w]
                continue
            work.pop()
            if work and low[v] < low[work[-1][0]]:
                low[work[-1][0]] = low[v]
            if low[v] == order[v]:
                members = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    members.append(w)
                    if w == v:
                        break
                row = 0
                for w in members:
                    row |= 1 << w
                for w in members:
                    for x in succ[w]:
                        row |= reach[x]  # 0 for x inside this component
                for w in members:
                    reach[w] = row
    return reach


def transpose(reach) -> tuple[int, ...]:
    """``reach`` transposed bit by bit: bit a of row b iff bit b of row a.
    Nothing is assumed of ``reach``."""
    below = [0] * len(reach)
    for a, row in enumerate(reach):
        while row:
            low = row & -row
            below[low.bit_length() - 1] |= 1 << a
            row ^= low
    return tuple(below)


def gap_covers(reach, below, members) -> tuple[tuple[int, int], ...]:
    """The sorted pairs a != b of ``members`` (each counted once) with a <=
    b and no member c != a, b with a <= c <= b."""
    members = sorted(set(members))
    mask = 0
    for m in members:
        mask |= 1 << m
    return tuple(
        (a, b)
        for a in members
        for b in members
        if a != b
        and reach[a] >> b & 1
        and not reach[a] & below[b] & mask & ~((1 << a) | (1 << b))
    )


def close_and_reduce(succ: list[list[int]]) -> tuple[list[int], list[int], list[tuple[int, int]]]:
    """``reach``, ``below`` and the sorted covers of the order that the
    edges a -> b for b in ``succ[a]`` generate, one list per node; repeats
    and loops a -> a are allowed.  The lists are not changed."""
    count = len(succ)
    edges = sorted({(a, b) for a, links in enumerate(succ) for b in links if a != b})
    pred: list[list[int]] = [[] for _ in range(count)]
    for a, b in edges:
        pred[b].append(a)
    reach = closure(succ)
    below = closure(pred)  # the closure of the reversed edges is the transpose
    # every cover is among the edges, so testing those for a bypass is a
    # full transitive reduction
    covers = []
    for a, b in edges:
        if not reach[a] & below[b] & ~((1 << a) | (1 << b)):
            covers.append((a, b))
    return reach, below, covers
