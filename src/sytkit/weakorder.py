"""The weak order on standard Young tableaux of a fixed size, as an
explicit poset.

Nodes are all tableaux with n cells in a canonical order (shape first, then
row word).  One depth-first walk over the n! words in lexicographic order
row-inserts one letter per level (the last one read-only) and records
each word's class (node id) by rank; the classes of a prefix's completions
depend only on the prefix's insertion tableau, so recurring blocks are
computed once.  Raw
comparabilities are the adjacent-ascent swaps of words, read off that
rank-indexed array through Lehmer codes.  Reachability is their
reflexive-transitive closure, stored per node as an integer bitmask and
computed over strongly connected components in topological order (Purdom
1970), and the cover relation is recovered by transitive reduction.  A
cycle among the projected edges would make its members reach each other,
so antisymmetry of the closure stays a checked fact (see sytkit.verify),
not an assumption.
"""

from __future__ import annotations

import os
import sys
from array import array
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from math import factorial

from .report import VerificationReport, stopwatch
from .tableau import (
    Rows,
    _descents,
    all_standard_tableaux,
    check_standard,
    dominance_leq,
    format_tableau,
    row_word,
    shape_of,
)

MAX_POSET_N = 9

NodeRef = Rows | int  # tableaux or node ids are accepted interchangeably


def canonical_key(rows: Rows) -> tuple:
    return (shape_of(rows), row_word(rows))


@dataclass
class TableauPoset:
    """Built once, then immutable but for ``_cache``; safe to share
    between threads.

    ``reach[a]`` has bit b set iff a <= b (reflexively); ``below`` is the
    transpose.  ``covers`` is the transitive reduction, sorted.  ``_cache``
    keeps what checks derive from the order, made on first use (the
    translation sweep's layout, see sytkit.verify); two threads making the
    same entry at once store equal values.  It is not an init field, so a
    poset made by ``dataclasses.replace`` starts with an empty one.
    """

    n: int
    nodes: tuple[Rows, ...]
    covers: tuple[tuple[int, int], ...]
    reach: tuple[int, ...]
    below: tuple[int, ...]
    index: dict[Rows, int] = field(repr=False)
    _cache: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.nodes)

    def node_id(self, node: NodeRef) -> int:
        if isinstance(node, int):
            if not 0 <= node < len(self.nodes):
                raise ValueError(f"node id {node} out of range")
            return node
        key = check_standard(node)
        try:
            return self.index[key]
        except KeyError:
            raise ValueError(
                f"not a node of the size-{self.n} poset: {format_tableau(key)}"
            ) from None

    def leq_ids(self, a: int, b: int) -> bool:
        return bool(self.reach[a] >> b & 1)

    def strict_relations(self) -> int:
        """The number of pairs a < b with a != b."""
        return sum(row.bit_count() for row in self.reach) - len(self.nodes)


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _unpreserved(rows, image, up) -> list[tuple[int, int]]:
    """The pairs (a, b), b a bit of ``rows[a]`` other than a, in (a, b)
    order, whose ``image[b]`` is not a bit of ``up[image[a]]``.  The fibres
    of the targets in ``up[u]`` are ORed into one pull mask, so each node is
    one ``row & ~pull`` test.  Nothing is assumed of ``rows`` or ``up``."""
    fibre: dict[int, int] = {}  # target -> the nodes it is the image of
    for b, t in enumerate(image):
        fibre[t] = fibre.get(t, 0) | 1 << b
    pull: dict[int, int] = {}
    broken = []
    for a, row in enumerate(rows):
        u = image[a]
        if u not in pull:  # the fibres are disjoint, so their sum is their OR
            pull[u] = sum(fibre.get(t, 0) for t in _bits(up[u]))
        broken += [(a, b) for b in _bits(row & ~pull[u] & ~(1 << a))]
    return broken


def _row_code(rows) -> int:
    """4 bits per letter x at bit 4(x-1): its row, counted from 1; 0 when
    the letter is absent.  Determines a standard tableau on any letter set."""
    code = 0
    for r, row in enumerate(rows, 1):
        for x in row:
            code += r << 4 * (x - 1)
    return code


def _walk(grid, rest, code, ids_of, memo) -> array:
    """Node ids of grid <- w for every word w on the letters ``rest`` (sorted),
    in lexicographic order of w.  ``grid`` is row-inserted into and restored.

    With two letters left, the first of each order is inserted for real and
    the last is placed read-only: walking down the rows, each letter it
    bumps only moves the row code one row on, so no row is changed, undone
    or recursed into.  The block depends only on the insertion tableau so
    far, so blocks of 6 and 24 words are memoized by ``code``, the
    tableau's row code: smaller blocks cost less to redo than to store,
    larger ones rarely recur.
    """
    if not rest:  # reached only for words of at most two letters
        return array("H", (ids_of[code],))
    keep = 3 <= len(rest) <= 4
    if keep:
        block = memo.get(code)
        if block is not None:
            return block
    block = array("H")
    for i, x in enumerate(rest):
        path = []
        moved = code + (1 << 4 * (x - 1))
        r = 0
        while True:  # row insertion, remembering where each letter bumped
            if r == len(grid):
                grid.append([x])
                break
            row = grid[r]
            if x > row[-1]:
                row.append(x)
                break
            pos = bisect_left(row, x)
            x, row[pos] = row[pos], x
            path.append(pos)
            moved += 1 << 4 * (x - 1)
            r += 1
        if len(rest) == 2:  # place the other letter read-only
            y = rest[1 - i]
            moved += 1 << 4 * (y - 1)
            for row in grid:
                if y > row[-1]:
                    break
                y = row[bisect_left(row, y)]
                moved += 1 << 4 * (y - 1)
            block.append(ids_of[moved])
        else:
            block += _walk(grid, rest[:i] + rest[i + 1:], moved, ids_of, memo)
        row = grid[r]  # undo: take the new cell off, bump letters back up
        x = row.pop()
        if not row:
            grid.pop()
        for r in range(r - 1, -1, -1):
            row = grid[r]
            pos = path[r]
            x, row[pos] = row[pos], x
    if keep:
        memo[code] = block
    return block


def _class_ids(job: tuple[int, tuple[int, ...], dict[int, int]]) -> array:
    """Node id of every size-n word whose first letter is in ``firsts``, by
    lexicographic rank; the words of one first letter are (n-1)! ranks.
    ``ids_of`` maps each node's row code to its id."""
    n, firsts, ids_of = job
    letters = tuple(range(1, n + 1))
    memo: dict[int, array] = {}
    ids = array("H")
    for first in firsts:
        rest = tuple(x for x in letters if x != first)
        ids += _walk([[first]], rest, 1 << 4 * (first - 1), ids_of, memo)
    return ids


# halves of a 32-bit unsigned int: (lower node) << 16 | (upper node)
_HIGH, _LOW = (1, 0) if sys.byteorder == "little" else (0, 1)


def _add_pairs(codes: set[int], lower: array, upper: array) -> None:
    """Add lower[i] << 16 | upper[i] to ``codes`` for every i, without
    making a Python object per pair that is already present."""
    buf = bytearray(4 * len(lower))
    halves = memoryview(buf).cast("H")
    halves[_HIGH::2] = lower
    halves[_LOW::2] = upper
    codes.update(memoryview(buf).cast("I"))


def _projected_edges(n: int, ids: array) -> list[int]:
    """Sorted distinct a << 16 | b for a = class of u != b = class of u s_p,
    over every word u and ascent p of u.

    With Lehmer code c of u, p is an ascent iff c_p <= c_(p+1), and the
    swap changes only those two digits, to c_(p+1)+1 and c_p.  Fixing p,
    c_p and c_(p+1) leaves a grid of ranks: every prefix (stride (n-p)!)
    times every suffix ((n-2-p)! consecutive ranks), all moved by the same
    offset.  One slice per row or per column of the grid, whichever is
    fewer, pairs them up.
    """
    total = len(ids)
    codes: set[int] = set()
    for p in range(n - 1):
        stride, digit, run = factorial(n - p), factorial(n - 1 - p), factorial(n - 2 - p)
        for cp in range(n - 1 - p):
            for cq in range(cp, n - 1 - p):
                start = cp * digit + cq * run
                shift = (cq + 1 - cp) * digit + (cp - cq) * run
                if run * stride >= total:  # no more prefixes than suffixes
                    for s in range(start, total, stride):
                        _add_pairs(codes, ids[s:s + run], ids[s + shift:s + shift + run])
                else:
                    for s in range(start, start + run):
                        _add_pairs(codes, ids[s::stride], ids[s + shift::stride])
    return [code for code in sorted(codes) if code >> 16 != code & 0xFFFF]


def _closure(succ: list[list[int]]) -> list[int]:
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


def build_poset(n: int, jobs: int = 1) -> TableauPoset:
    """Project every adjacent-ascent cover of words and close transitively.

    Deterministic for any worker count: workers split the words by first
    letter and their blocks of ranks are concatenated in order, and nodes
    are canonically sorted up front.  At most ``min(jobs, cores, n)``
    worker processes start.
    """
    if not (1 <= n <= MAX_POSET_N):
        raise ValueError(f"n must be in 1..{MAX_POSET_N}")
    nodes = tuple(sorted(all_standard_tableaux(n), key=canonical_key))
    index = {t: i for i, t in enumerate(nodes)}
    ids_of = {_row_code(t): i for i, t in enumerate(nodes)}
    letters = tuple(range(1, n + 1))
    workers = min(jobs, os.cpu_count() or 1, n)
    if workers <= 1:
        ids = _class_ids((n, letters, ids_of))
    else:
        parts = [(n, letters[n * w // workers:n * (w + 1) // workers], ids_of)
                 for w in range(workers)]
        ids = array("H")
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for block in pool.map(_class_ids, parts):
                ids += block
    edges = _projected_edges(n, ids)
    del ids

    count = len(nodes)
    succ: list[list[int]] = [[] for _ in range(count)]
    pred: list[list[int]] = [[] for _ in range(count)]
    for code in edges:
        a, b = divmod(code, 1 << 16)
        succ[a].append(b)
        pred[b].append(a)
    reach = _closure(succ)
    below = _closure(pred)  # the closure of the reversed edges is the transpose

    # every cover is among the projected edges, so testing those for a
    # bypass is a full transitive reduction
    covers = []
    for code in edges:
        a, b = divmod(code, 1 << 16)
        gap = reach[a] & below[b] & ~((1 << a) | (1 << b))
        if gap == 0:
            covers.append((a, b))

    return TableauPoset(
        n=n,
        nodes=nodes,
        covers=tuple(covers),
        reach=tuple(reach),
        below=tuple(below),
        index=index,
    )


_POSET_CACHE: dict[int, TableauPoset] = {}


def cached_poset(n: int, jobs: int = 1) -> TableauPoset:
    if n not in _POSET_CACHE:
        _POSET_CACHE[n] = build_poset(n, jobs=jobs)
    return _POSET_CACHE[n]


def leq(p: TableauPoset, s: NodeRef, t: NodeRef) -> bool:
    return p.leq_ids(p.node_id(s), p.node_id(t))


@dataclass
class Interval:
    """Order interval with its induced cover relation."""

    poset: TableauPoset
    bottom: int
    top: int
    members: tuple[int, ...]
    covers: tuple[tuple[int, int], ...]

    def member_tableaux(self) -> tuple[Rows, ...]:
        return tuple(self.poset.nodes[i] for i in self.members)


def induced_covers(
    p: TableauPoset, member_ids: tuple[int, ...] | list[int]
) -> tuple[tuple[int, int], ...]:
    """Hasse edges of the order induced on a node subset.

    Computed within the subset (an induced cover need not be a cover of the
    whole poset).
    """
    members = sorted(p.node_id(m) for m in member_ids)
    mask = 0
    for m in members:
        mask |= 1 << m
    out = []
    for a in members:
        for b in _bits(p.reach[a] & mask & ~(1 << a)):
            gap = p.reach[a] & p.below[b] & mask & ~((1 << a) | (1 << b))
            if gap == 0:
                out.append((a, b))
    return tuple(sorted(out))


def interval(p: TableauPoset, bottom: NodeRef, top: NodeRef) -> Interval:
    lo = p.node_id(bottom)
    hi = p.node_id(top)
    members = tuple(_bits(p.reach[lo] & p.below[hi]))
    return Interval(p, lo, hi, members, induced_covers(p, members))


# ---------------------------------------------------------------------------
# monotone-map checks

def check_monotone_descent(p: TableauPoset) -> VerificationReport:
    """Along every order relation, descent sets only gain elements."""
    descents = [_descents(t) for t in p.nodes]
    masks = [sum(1 << i for i in des) for des in descents]
    with stopwatch() as sw:
        # the descent masks ordered by inclusion: bit t of up[m] iff m <= t
        up = {m: sum(1 << t for t in set(masks) if not m & ~t) for m in set(masks)}
        checked = p.strict_relations()
        violations = [
            {
                "S": format_tableau(p.nodes[a]),
                "T": format_tableau(p.nodes[b]),
                "des_S": sorted(descents[a]),
                "des_T": sorted(descents[b]),
            }
            for a, b in _unpreserved(p.reach, masks, up)
        ]
    return VerificationReport(
        "monotone-descent-map", {"n": p.n}, checked, violations, sw.ms
    )


def check_monotone_shape(p: TableauPoset) -> VerificationReport:
    """Shapes change monotonically in dominance along the order.

    The direction is detected on the cover relation first, then asserted on
    every comparable pair; the report names the direction that holds.
    """
    shapes = [shape_of(t) for t in p.nodes]
    with stopwatch() as sw:
        # dominance between every two node shapes, each pair compared once;
        # dom[sid[a]][sid[b]] says whether the shape of a is below that of b
        distinct = sorted(set(shapes))
        sid = [distinct.index(s) for s in shapes]
        dom = [[dominance_leq(s, t) for t in distinct] for s in distinct]
        down = all(dom[sid[b]][sid[a]] for a, b in p.covers)
        up = all(dom[sid[a]][sid[b]] for a, b in p.covers)
        direction = "down" if down else "up" if up else "none"
        checked = len(p.covers)
        if direction == "none":
            broken = [(a, b) for a, b in p.covers if not dom[sid[b]][sid[a]]]
        else:
            # ahead[s][t]: shape t may lie above shape s in the direction
            ahead = dom if direction == "up" else list(zip(*dom))
            checked += p.strict_relations()
            masks = [sum(1 << t for t, ok in enumerate(row) if ok) for row in ahead]
            broken = _unpreserved(p.reach, sid, masks)
        violations = [
            {
                "S": format_tableau(p.nodes[a]),
                "T": format_tableau(p.nodes[b]),
                "sh_S": list(shapes[a]),
                "sh_T": list(shapes[b]),
            }
            for a, b in broken
        ]
    label = {
        "down": "shape moves down in dominance as tableaux move up",
        "up": "shape moves up in dominance as tableaux move up",
        "none": "no direction holds on the covers",
    }[direction]
    return VerificationReport(
        "monotone-shape-map",
        {"n": p.n},
        checked,
        violations,
        sw.ms,
        details={"direction": direction, "meaning": label},
    )


# ---------------------------------------------------------------------------
# exports

def to_dot(p: TableauPoset) -> str:
    """Hasse diagram in DOT, nodes labeled by tableau text form."""
    lines = [f"digraph weak_order_syt_{p.n} {{", "  rankdir=BT;"]
    for i, t in enumerate(p.nodes):
        lines.append(f'  n{i} [label="{format_tableau(t)}"];')
    for a, b in p.covers:
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def poset_to_json(p: TableauPoset) -> dict:
    return {
        "n": p.n,
        "nodes": [format_tableau(t) for t in p.nodes],
        "covers": [list(edge) for edge in p.covers],
    }
