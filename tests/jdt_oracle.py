"""The jeu de taquin code as it stood before the slide kernel: a slow
oracle for the kernel behind ``jdt_slide``, ``rectify`` and ``restrict``.

Every slide builds and validates a new ``SkewTableau`` and snapshots the
grid after every swap; rectification goes through one such slide per inner
cell.  Kept as written, so that differential tests compare the fast code
with an independent copy rather than with itself.
"""

from __future__ import annotations

from sytkit.permutation import InvariantError
from sytkit.tableau import (
    Cell,
    Rows,
    SkewTableau,
    addable_cells,
    check_standard,
    inner_corners,
    size_of,
)


def _snapshot(grid: list[list[int | None]]) -> tuple[tuple[int | None, ...], ...]:
    return tuple(tuple(row) for row in grid)


def jdt_slide_trace(
    t: SkewTableau, hole: Cell, direction: str
) -> tuple[SkewTableau, tuple[tuple[Cell, tuple], ...]]:
    """Like :func:`jdt_slide` but also returns every intermediate state.

    The trace lists (hole position, grid) pairs, one for the starting hole
    and one after each swap; the grid keeps the pre-slide outer shape with
    None at the current hole.
    """
    grid = [list(row) for row in t.rows]
    outer = list(t.outer)
    inner = list(t._inner_padded())
    r, c = hole
    trace: list[tuple[Cell, tuple]] = []

    if direction == "forward":
        if hole not in inner_corners(t):
            raise ValueError(f"{hole} is not a removable inner cell of {t.inner}")
        start_row = r
        trace.append(((r, c), _snapshot(grid)))
        while True:
            right_val = grid[r - 1][c] if c < outer[r - 1] else None
            below_val = (
                grid[r][c - 1] if r < len(outer) and outer[r] >= c else None
            )
            if right_val is None and below_val is None:
                break
            if right_val is None or (below_val is not None and below_val < right_val):
                grid[r - 1][c - 1] = below_val
                grid[r][c - 1] = None
                r += 1
            else:
                grid[r - 1][c - 1] = right_val
                grid[r - 1][c] = None
                c += 1
            trace.append(((r, c), _snapshot(grid)))
        # the hole exits the diagram; it sits at the end of its row
        if c != outer[r - 1]:
            raise InvariantError(f"forward slide stopped at {(r, c)}, inside row {r}")
        grid[r - 1].pop()
        outer[r - 1] -= 1
        inner[start_row - 1] -= 1
        if outer[r - 1] == 0:
            if r != len(outer):
                raise InvariantError(f"forward slide emptied row {r}, not the last row")
            grid.pop()
            outer.pop()
            inner.pop()
    elif direction == "backward":
        if hole not in addable_cells(t.outer):
            raise ValueError(f"{hole} is not an addable outer cell of {t.outer}")
        if r > len(outer):
            grid.append([None])
            outer.append(1)
            inner.append(0)
        else:
            grid[r - 1].append(None)
            outer[r - 1] += 1
        trace.append(((r, c), _snapshot(grid)))
        while True:
            above_val = (
                grid[r - 2][c - 1] if r >= 2 and len(grid[r - 2]) >= c else None
            )
            left_val = grid[r - 1][c - 2] if c >= 2 else None
            if above_val is None and left_val is None:
                break
            if left_val is None or (above_val is not None and above_val > left_val):
                grid[r - 1][c - 1] = above_val
                grid[r - 2][c - 1] = None
                r -= 1
            else:
                grid[r - 1][c - 1] = left_val
                grid[r - 1][c - 2] = None
                c -= 1
            trace.append(((r, c), _snapshot(grid)))
        # the hole joins the inner region
        if inner[r - 1] != c - 1:
            raise InvariantError(
                f"backward slide stopped at {(r, c)}, not next to the inner shape"
            )
        inner[r - 1] = c
    else:
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")

    while inner and inner[-1] == 0:
        inner.pop()
    result = SkewTableau(_snapshot(grid))
    return result, tuple(trace)


def jdt_slide(t: SkewTableau, hole: Cell, direction: str) -> SkewTableau:
    """One jeu de taquin slide.

    forward: the hole starts at a removable inner cell and repeatedly swaps
    with the smaller of its right and below neighbors, shrinking both shapes.
    backward: the hole starts at an addable outer cell and swaps with the
    larger of its left and above neighbors, growing both shapes.
    """
    result, _ = jdt_slide_trace(t, hole, direction)
    return result


def rectify(t: SkewTableau) -> tuple[tuple[int, ...], ...]:
    """Slide the inner region away and return plain rows.

    Uses the topmost removable inner cell at every step; the outcome is
    independent of that choice (asserted by tests, not assumed here).
    """
    cur = t
    while cur.inner:
        cur = jdt_slide(cur, inner_corners(cur)[0], "forward")
    return tuple(tuple(x for x in row) for row in cur.rows)


def restrict(rows: Rows, i: int, j: int) -> Rows:
    """Keep the letters in [i, j], rectify, and shift down to 1..j-i+1."""
    rows = check_standard(rows)
    n = size_of(rows)
    if not (1 <= i < j <= n):
        raise ValueError(f"bad segment [{i},{j}] for n={n}")
    skew_rows = []
    for row in rows:
        cut = sum(1 for x in row if x < i)
        kept = tuple(x for x in row if i <= x <= j)
        if cut or kept:
            skew_rows.append((None,) * cut + kept)
    rect = rectify(SkewTableau.from_rows(tuple(skew_rows)))
    return tuple(tuple(x - (i - 1) for x in row) for row in rect)
