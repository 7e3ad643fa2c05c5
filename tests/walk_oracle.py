"""The word walk of ``projection_oracle`` as it stood before the last
letter was placed read-only: a slow oracle for ``projection_oracle._walk``.

It row-inserts every letter for real, down to words of no letters left,
and undoes each insertion on the way back.  The body is copied here as
written, so that differential tests compare the walk with an independent
copy rather than with itself; ``class_ids`` is ``projection_oracle.class_ids``
over this walk.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left


def _walk(grid, rest, code, ids_of, memo) -> array:
    if not rest:
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
    """Node id of every size-n word, by lexicographic rank."""
    letters = tuple(range(1, n + 1))
    memo: dict[int, array] = {}
    ids = array("H")
    for first in letters:
        rest = tuple(x for x in letters if x != first)
        ids += _walk([[first]], rest, 1 << 4 * (first - 1), ids_of, memo)
    return ids
