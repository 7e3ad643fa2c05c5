"""The word walk and edge projection of ``weakorder.build_poset`` as they
stood before the edges were lifted through column-insertion tables: a slow
oracle for ``weakorder._lift_edges``.

One depth-first walk over the n! words in lexicographic order row-inserts
one letter per level (the last one read-only) and records each word's class
(node id) by rank; the classes of a prefix's completions depend only on the
prefix's insertion tableau, so recurring blocks are computed once.  The
adjacent-ascent swaps are read off that rank-indexed array through Lehmer
codes.  ``walk_oracle`` is the slower walk this one is tested against.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from math import factorial

from sytkit.tableau import all_standard_tableaux
from sytkit.weakorder import _row_code, canonical_key


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


def class_ids(n: int, ids_of: dict[int, int]) -> array:
    """Node id of every size-n word, by lexicographic rank.  ``ids_of``
    maps each node's row code to its id."""
    letters = tuple(range(1, n + 1))
    memo: dict[int, array] = {}
    ids = array("H")
    for first in letters:
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


def projected_edges(n: int, ids: array) -> list[int]:
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


def lift_edges(n: int):
    """What ``weakorder._lift_edges`` returns, by walking every word: the
    size-n nodes and per node its distinct projected successors, in
    descending order."""
    nodes = tuple(sorted(all_standard_tableaux(n), key=canonical_key))
    ids = class_ids(n, {_row_code(t): i for i, t in enumerate(nodes)})
    succ: list[list[int]] = [[] for _ in nodes]
    for code in reversed(projected_edges(n, ids)):
        succ[code >> 16].append(code & 0xFFFF)
    return nodes, succ
