"""Standard and skew Young tableaux.

Row insertion and its inverse, jeu de taquin slides and rectification,
segment restriction, transposition and evacuation, descent sets, dual Knuth
moves, inner-tableau relabeling, and the row/column concatenations that
bound shuffle products.  Public functions validate their input; the
underscored kernels trust theirs and serve sweeps over known-standard
tableaux.  Every slide, behind ``jdt_slide``, ``rectify`` and ``restrict``
alike, runs in the one kernel ``_slide``, and every reverse row insertion,
behind ``reverse_insert`` and the step table of the reverse-bump graph
``knuthclass._bump_graph`` (class listing, shuffle product and hook-eta),
in ``_reverse_bump``.  A dual Knuth move exchanges two entries in place
(``_dual_moves``), by the rule of ``_move_exchanges``, which the move
tables of sytkit.verify apply to row codes; the row-word route is a test
oracle.  A skew tableau is built from its rows alone; its outer and inner
shapes are read off them, so they cannot disagree with the rows.  A
slide's result is the one exception: it is built unchecked from the
kernel's grid and inner shape (``SkewTableau._trusted``), the input
having been validated when it was built and each slide's end checked by
the kernel, which raises ``InvariantError``, not ``ValueError``.

A tableau is a tuple of strictly increasing rows holding 1..n.  Cells are
addressed 1-based as (row, col), rows counted from the top, columns from
the left.  Text form: rows joined by "/", entries by ",", e.g. "1,3/2,4/5".
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial
from operator import ge, lt

from .permutation import (
    InvariantError,
    ParseError,
    Word,
    _ints,
    _is_decimal,
    check_int,
    check_word,
    evac_word,
)

Rows = tuple[tuple[int, ...], ...]
Shape = tuple[int, ...]
Cell = tuple[int, int]


# ---------------------------------------------------------------------------
# shapes

def check_partition(parts) -> Shape:
    p = _ints(parts, "partition parts")
    if any(x < 1 for x in p):
        raise ValueError(f"partition parts must be positive: {p}")
    if any(a < b for a, b in zip(p, p[1:])):
        raise ValueError(f"partition parts must be weakly decreasing: {p}")
    return p


@lru_cache(maxsize=None)
def _partitions(n: int) -> tuple[Shape, ...]:
    def gen(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(sorted(gen(n, n)))


def partitions(n: int) -> tuple[Shape, ...]:
    """All partitions of n, sorted lexicographically."""
    if check_int(n, "n") < 0:
        raise ValueError("n must be nonnegative")
    return _partitions(n)


def removable_cells(shape: Shape) -> list[Cell]:
    """Cells whose removal keeps the shape a partition, top row first."""
    return [
        (r + 1, shape[r])
        for r in range(len(shape))
        if r + 1 == len(shape) or shape[r] > shape[r + 1]
    ]


def addable_cells(shape: Shape) -> list[Cell]:
    """Cells whose addition keeps the shape a partition, top row first."""
    if not shape:
        return [(1, 1)]
    out = [(1, shape[0] + 1)]
    for r in range(1, len(shape)):
        if shape[r] < shape[r - 1]:
            out.append((r + 1, shape[r] + 1))
    out.append((len(shape) + 1, 1))
    return out


def is_hook(shape) -> bool:
    """True for shapes (a, 1, 1, ..., 1), including single rows and columns."""
    return _is_hook(check_partition(shape))


def _is_hook(shape: Shape) -> bool:
    """``is_hook`` of a shape already known to be a partition."""
    return all(x == 1 for x in shape[1:])


def dominance_leq(a, b) -> bool:
    """Prefix sums of a never exceed those of b; both partition the same n."""
    a = check_partition(a)
    b = check_partition(b)
    if sum(a) != sum(b):
        raise ValueError("dominance compares partitions of the same number")
    return _dominance_leq(a, b)


def _dominance_leq(a: Shape, b: Shape) -> bool:
    """``dominance_leq`` of two partitions of the same number."""
    ta = tb = 0
    for r in range(max(len(a), len(b))):
        ta += a[r] if r < len(a) else 0
        tb += b[r] if r < len(b) else 0
        if ta > tb:
            return False
    return True


# ---------------------------------------------------------------------------
# standard tableaux

def shape_of(rows: Rows) -> Shape:
    return tuple(len(r) for r in rows)


def size_of(rows: Rows) -> int:
    return sum(len(r) for r in rows)


def check_standard(rows) -> Rows:
    t, entries = _check_rows(rows)
    n = len(entries)
    if sorted(entries) != list(range(1, n + 1)):
        raise ValueError(f"entries must be exactly 1..{n}")
    _check_increasing(t)
    return t


def check_tableau(rows) -> Rows:
    """Validate a tableau on any letters: distinct positive integers,
    strictly increasing along rows and down columns."""
    t, entries = _check_rows(rows)
    entries.sort()
    if entries[0] < 1:
        raise ValueError("entries must be positive")
    if not all(map(lt, entries, entries[1:])):
        raise ValueError("entries must be distinct")
    _check_increasing(t)
    return t


def _check_rows(rows) -> tuple[Rows, list[int]]:
    """Integer rows, none empty, whose lengths form a partition, and their
    entries flattened row by row.  Entries are taken as they are: anything
    but an ``int`` (a bool, a float such as 2.0) raises ValueError."""
    try:
        t = tuple(map(tuple, rows))
    except TypeError:
        raise ValueError(f"a tableau is a sequence of rows, got {rows!r}") from None
    entries = [x for row in t for x in row]
    if not {*map(type, entries)} <= {int}:
        bad = next(x for x in entries if type(x) is not int)
        raise ValueError(f"tableau entries must be integers, got {bad!r}")
    if not t or not all(t):
        raise ValueError("tableau must have nonempty rows")
    lengths = [*map(len, t)]
    if not all(map(ge, lengths, lengths[1:])):
        raise ValueError(f"partition parts must be weakly decreasing: {tuple(lengths)}")
    return t, entries


def _check_increasing(t: Rows) -> None:
    for row in t:
        if not all(map(lt, row, row[1:])):
            raise ValueError(f"row not increasing: {row}")
    for upper, lower in zip(t, t[1:]):
        if not all(map(lt, upper, lower)):
            c = next(c for c, (a, b) in enumerate(zip(upper, lower)) if a >= b)
            raise ValueError(f"column {c + 1} not increasing")


def corners(rows: Rows) -> list[Cell]:
    """Removable cells of the tableau's shape, top row first."""
    return removable_cells(shape_of(rows))


@lru_cache(maxsize=None)
def _standard_tableaux(shape: Shape) -> tuple[Rows, ...]:
    if not shape:
        return ((),)
    n = sum(shape)
    out = []
    for r, _ in removable_cells(shape):
        smaller = list(shape)
        smaller[r - 1] -= 1
        if smaller[r - 1] == 0:
            smaller.pop()
        for t in _standard_tableaux(tuple(smaller)):
            grid = list(t)
            if r - 1 < len(grid):
                grid[r - 1] = grid[r - 1] + (n,)
            else:
                grid.append((n,))
            out.append(tuple(grid))
    return tuple(out)


@lru_cache(maxsize=None)
def _hook_count(shape: Shape) -> int:
    """Number of standard tableaux of a partition shape, f^shape, by the
    hook-length formula (Frame, Robinson and Thrall 1954): n! over the
    product of the hook lengths.  No tableau is listed."""
    hooks = 1
    for r, length in enumerate(shape):
        for c in range(length):
            below = sum(1 for rest in shape[r + 1:] if rest > c)
            hooks *= length - c + below
    return factorial(sum(shape)) // hooks


def standard_tableaux(shape) -> tuple[Rows, ...]:
    """All standard fillings of the given partition shape."""
    return _standard_tableaux(check_partition(shape))


def all_standard_tableaux(n: int) -> tuple[Rows, ...]:
    if check_int(n, "n") < 1:
        raise ValueError("n must be positive")
    out: list[Rows] = []
    for shape in partitions(n):
        out.extend(standard_tableaux(shape))
    return tuple(out)


# ---------------------------------------------------------------------------
# text and JSON forms

def format_tableau(rows: Rows) -> str:
    return "/".join(",".join(str(x) for x in row) for row in rows)


def _scan_grid(text: str, allow_gaps: bool) -> tuple[tuple[int | None, ...], ...]:
    s = text.strip()
    if not s:
        raise ParseError("empty tableau literal", 0)
    rows: list[tuple[int | None, ...]] = []
    row: list[int | None] = []
    token = ""
    token_pos = 0
    for p, ch in enumerate(s + "/"):
        if ch in ",/":
            t = token.strip()
            if allow_gaps and t == ".":
                row.append(None)
            elif _is_decimal(t):
                row.append(int(t))
            else:
                what = "a cell entry or '.'" if allow_gaps else "an integer"
                raise ParseError(f"expected {what}, got {t!r}", token_pos)
            token = ""
            token_pos = p + 1
            if ch == "/":
                rows.append(tuple(row))
                row = []
        else:
            token += ch
    return tuple(rows)


def parse_tableau(text: str) -> Rows:
    grid = _scan_grid(text, allow_gaps=False)
    try:
        return check_standard(grid)
    except ValueError as exc:
        raise ParseError(str(exc), 0) from None


def tableau_to_json(rows: Rows) -> dict:
    return {"rows": [list(row) for row in rows]}


def tableau_from_json(obj: dict) -> Rows:
    return check_standard(tuple(tuple(row) for row in obj["rows"]))


# ---------------------------------------------------------------------------
# row insertion and its inverse

def rsk(word: Word) -> tuple[Rows, Rows]:
    """Row-insert the word; return its insertion and recording tableaux."""
    word = check_word(word)
    insert_rows: list[list[int]] = []
    record_rows: list[list[int]] = []
    for step, x in enumerate(word, 1):
        r = 0
        while True:
            if r == len(insert_rows):
                insert_rows.append([x])
                record_rows.append([step])
                break
            row = insert_rows[r]
            if x > row[-1]:
                row.append(x)
                record_rows[r].append(step)
                break
            pos = bisect_right(row, x)
            x, row[pos] = row[pos], x
            r += 1
    return tuple(map(tuple, insert_rows)), tuple(map(tuple, record_rows))


def insertion_tableau(word: Word) -> Rows:
    """Insertion tableau only, of a permutation checked by ``check_word``."""
    return _insertion_tableau(check_word(word))


def _insertion_tableau(word: Word) -> Rows:
    """:func:`insertion_tableau` of any word of distinct letters, unchecked."""
    insert_rows: list[list[int]] = []
    for x in word:
        r = 0
        while True:
            if r == len(insert_rows):
                insert_rows.append([x])
                break
            row = insert_rows[r]
            if x > row[-1]:
                row.append(x)
                break
            pos = bisect_right(row, x)
            x, row[pos] = row[pos], x
            r += 1
    return tuple(map(tuple, insert_rows))


def insert(rows: Rows, x: int) -> Rows:
    """Row-insert the letter x, a positive integer not already present.

    The tableau may hold any distinct positive letters
    (:func:`check_tableau`), or be the empty tableau ``()`` that
    :func:`reverse_insert` leaves of a one-cell tableau.
    """
    rows = check_tableau(rows) if rows else ()
    if isinstance(x, bool) or not isinstance(x, int) or x < 1:
        raise ValueError(f"letter must be a positive integer, got {x!r}")
    if any(x in row for row in rows):
        raise ValueError(f"letter {x} is already in the tableau")
    return _insertion_tableau(row_word(rows) + (x,))


def reverse_insert(rows: Rows, corner: Cell) -> tuple[Rows, int]:
    """Reverse row insertion through a removable cell.

    Returns the shrunken tableau and the letter that exits at the top; row
    inserting that letter back reproduces the input.  The tableau may hold
    any distinct positive letters (:func:`check_tableau`), such as an
    earlier result.
    """
    rows = check_tableau(rows)
    if isinstance(corner, tuple):
        for x in corner:  # (1.0, 1) == (1, 1), so the membership test passes it
            check_int(x, "a cell coordinate")
    if corner not in corners(rows):
        raise ValueError(f"{corner} is not a removable cell of {shape_of(rows)}")
    return _reverse_bump(rows, corner[0])


def _reverse_bump(rows: Rows, r: int) -> tuple[Rows, int]:
    """Reverse-bump the last entry of row r (1-based), which must end at a
    corner; the rows below r are shared with the input, not copied."""
    i = r - 1
    row = rows[i]
    x = row[-1]
    out = list(rows)
    if len(row) == 1:
        out.pop()  # a one-cell corner row is the last row
    else:
        out[i] = row[:-1]
    for above in range(i - 1, -1, -1):
        row = rows[above]
        pos = bisect_left(row, x) - 1  # rightmost entry below x
        out[above] = row[:pos] + (x,) + row[pos + 1:]
        x = row[pos]
    return tuple(out), x


def row_word(rows: Rows) -> Word:
    """Rows read left to right, bottom row first; inserts back to the tableau."""
    out: tuple[int, ...] = ()
    for row in reversed(rows):
        out += tuple(row)
    return out


# ---------------------------------------------------------------------------
# skew tableaux and jeu de taquin

@dataclass(frozen=True)
class SkewTableau:
    """Partial filling of the cells between two nested shapes, given by its
    rows alone: None in the cut-out cells, then distinct positive integers
    increasing along rows and down columns.  ``outer`` (the row lengths)
    and ``inner`` (the leading gaps, trailing zeros trimmed) are read off
    the rows."""

    outer: Shape = field(init=False)
    inner: Shape = field(init=False)
    rows: tuple[tuple[int | None, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.rows)
        gaps = [0] * len(rows)
        for r, row in enumerate(rows):
            while gaps[r] < len(row) and row[gaps[r]] is None:
                gaps[r] += 1
        depth = max((r + 1 for r, g in enumerate(gaps) if g), default=0)
        inner = tuple(gaps[:depth])
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "outer", check_partition(len(row) for row in rows))
        object.__setattr__(self, "inner", inner)
        if any(x < 1 for x in inner) or any(a < b for a, b in zip(inner, inner[1:])):
            raise ValueError(f"inner shape must be a partition: {inner}")
        entries = []
        for r, (row, g) in enumerate(zip(rows, gaps)):
            for val in row[g:]:
                if val is None:
                    raise ValueError(f"gap pattern of row {r + 1} disagrees with the inner shape")
                if type(val) is not int or val < 1:  # bool is not an entry either
                    raise ValueError(f"entry {val!r} is not a positive integer")
                entries.append(val)
        if len(set(entries)) != len(entries):
            raise ValueError("entries must be distinct")
        for row, g in zip(rows, gaps):
            if any(a >= b for a, b in zip(row[g:], row[g + 1:])):
                raise ValueError(f"row not increasing: {row}")
        for upper, lower in zip(rows, rows[1:]):
            for c, (hi, lo) in enumerate(zip(upper, lower)):
                if lo is not None and hi is not None and hi >= lo:
                    raise ValueError(f"column {c + 1} not increasing")

    def _inner_padded(self) -> tuple[int, ...]:
        return self.inner + (0,) * (len(self.outer) - len(self.inner))

    @classmethod
    def from_rows(cls, rows) -> "SkewTableau":
        return cls(rows)

    @classmethod
    def _trusted(cls, grid, inner) -> "SkewTableau":
        """The skew tableau of a slide kernel's grid (see :func:`_slide`),
        built without validation: ``rows`` are the grid's, ``outer`` their
        lengths, and ``inner`` the kernel's padded inner shape with its
        trailing zeros trimmed."""
        rows = tuple(map(tuple, grid))
        while inner and not inner[-1]:
            inner.pop()
        t = object.__new__(cls)
        object.__setattr__(t, "outer", tuple(map(len, rows)))
        object.__setattr__(t, "inner", tuple(inner))
        object.__setattr__(t, "rows", rows)
        return t

    @classmethod
    def from_tableau(cls, rows: Rows) -> "SkewTableau":
        return cls(check_standard(rows))


def format_skew(t: SkewTableau) -> str:
    return "/".join(
        ",".join("." if x is None else str(x) for x in row) for row in t.rows
    )


def parse_skew(text: str) -> SkewTableau:
    grid = _scan_grid(text, allow_gaps=True)
    try:
        return SkewTableau.from_rows(grid)
    except ValueError as exc:
        raise ParseError(str(exc), 0) from None


def skew_to_json(t: SkewTableau) -> dict:
    return {
        "outer": list(t.outer),
        "inner": list(t.inner),
        "rows": [list(row) for row in t.rows],
    }


def skew_from_json(obj: dict) -> SkewTableau:
    return SkewTableau.from_rows(tuple(tuple(row) for row in obj["rows"]))


def inner_corners(t: SkewTableau) -> list[Cell]:
    """Removable cells of the inner shape: valid forward-slide holes."""
    return removable_cells(t.inner) if t.inner else []


def _slide(grid, inner, hole, forward, trace=None):
    """One jeu de taquin slide from ``hole``, in place and unchecked.

    ``grid`` holds the rows as lists, None in cut-out cells; ``inner`` is the
    inner shape padded with zeros to one entry per row.  The hole must be a
    removable inner cell (forward) or an addable outer cell (backward).  A
    ``trace`` list receives the pairs described at :func:`jdt_slide_trace`.
    """
    r, c = hole
    if forward:
        start_row = r
        while True:
            if trace is not None:
                trace.append(((r, c), tuple(map(tuple, grid))))
            right_val = grid[r - 1][c] if c < len(grid[r - 1]) else None
            below_val = grid[r][c - 1] if r < len(grid) and len(grid[r]) >= c else None
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
        # the hole exits the diagram; it sits at the end of its row
        if c != len(grid[r - 1]):
            raise InvariantError(f"forward slide stopped at {(r, c)}, inside row {r}")
        grid[r - 1].pop()
        inner[start_row - 1] -= 1
        if not grid[r - 1]:
            if r != len(grid):
                raise InvariantError(f"forward slide emptied row {r}, not the last row")
            grid.pop()
            inner.pop()
    else:
        if r > len(grid):
            grid.append([None])
            inner.append(0)
        else:
            grid[r - 1].append(None)
        while True:
            if trace is not None:
                trace.append(((r, c), tuple(map(tuple, grid))))
            above_val = grid[r - 2][c - 1] if r >= 2 and len(grid[r - 2]) >= c else None
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
        # the hole joins the inner region
        if inner[r - 1] != c - 1:
            raise InvariantError(
                f"backward slide stopped at {(r, c)}, not next to the inner shape"
            )
        inner[r - 1] = c


def _checked_slide(t: SkewTableau, hole: Cell, direction: str, trace) -> SkewTableau:
    """Validate the hole and direction, slide once, and build the result
    from the kernel's grid and inner shape (``SkewTableau._trusted``): the
    input was validated when it was built, and the kernel checks where
    each slide ends, so the result is not validated again."""
    if isinstance(hole, tuple):
        for x in hole:  # (1.0, 1) == (1, 1), so the membership tests pass it
            check_int(x, "a cell coordinate")
    if direction == "forward":
        if hole not in inner_corners(t):
            raise ValueError(f"{hole} is not a removable inner cell of {t.inner}")
    elif direction == "backward":
        if hole not in addable_cells(t.outer):
            raise ValueError(f"{hole} is not an addable outer cell of {t.outer}")
    else:
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    grid = [list(row) for row in t.rows]
    inner = list(t._inner_padded())
    _slide(grid, inner, hole, direction == "forward", trace)
    return SkewTableau._trusted(grid, inner)


def jdt_slide_trace(
    t: SkewTableau, hole: Cell, direction: str
) -> tuple[SkewTableau, tuple[tuple[Cell, tuple], ...]]:
    """Like :func:`jdt_slide` but also returns every intermediate state.

    The trace lists (hole position, grid) pairs, one for the starting hole
    and one after each swap; the grid keeps the pre-slide outer shape with
    None at the current hole.
    """
    trace: list[tuple[Cell, tuple]] = []
    result = _checked_slide(t, hole, direction, trace)
    return result, tuple(trace)


def jdt_slide(t: SkewTableau, hole: Cell, direction: str) -> SkewTableau:
    """One jeu de taquin slide.

    forward: the hole starts at a removable inner cell and repeatedly swaps
    with the smaller of its right and below neighbors, shrinking both shapes.
    backward: the hole starts at an addable outer cell and swaps with the
    larger of its left and above neighbors, growing both shapes.
    """
    return _checked_slide(t, hole, direction, None)


def _rectify(grid, inner) -> Rows:
    """Forward slides on a kernel grid (see :func:`_slide`) until the inner
    shape is empty, each at the topmost removable inner cell."""
    while inner and inner[0]:
        r = 1
        while r < len(inner) and inner[r] == inner[r - 1]:
            r += 1
        _slide(grid, inner, (r, inner[r - 1]), True)
    return tuple(map(tuple, grid))


def rectify(t: SkewTableau) -> tuple[tuple[int, ...], ...]:
    """Slide the inner region away and return plain rows.

    Uses the topmost removable inner cell at every step; the outcome is
    independent of that choice (asserted by tests, not assumed here).
    """
    return _rectify([list(row) for row in t.rows], list(t._inner_padded()))


# ---------------------------------------------------------------------------
# restriction, symmetries, descents

def restrict(rows: Rows, i: int, j: int) -> Rows:
    """Keep the letters in [i, j], rectify, and shift down to 1..j-i+1."""
    rows = check_standard(rows)
    n = size_of(rows)
    if not (1 <= check_int(i, "i") < check_int(j, "j") <= n):
        raise ValueError(f"bad segment [{i},{j}] for n={n}")
    return _restrict(rows, i, j)


def _restrict(rows: Rows, i: int, j: int) -> Rows:
    """:func:`restrict` of a standard tableau to a valid segment, unchecked.
    The letters below i become the inner shape, the kept ones are shifted
    down before jeu de taquin (the shift keeps their order)."""
    grid = []
    inner = []
    for row in rows:
        cut = bisect_left(row, i)
        end = bisect_right(row, j)
        if not end:
            break  # every row below holds only letters above j
        grid.append([None] * cut + [x - i + 1 for x in row[cut:end]])
        inner.append(cut)
    return _rectify(grid, inner)


def inner_tableau(rows: Rows, k: int) -> Rows:
    """The sub-tableau on the cells holding 1..k (no slides needed: those
    cells always form a normal shape sitting at the top left)."""
    rows = check_standard(rows)
    if not (1 <= check_int(k, "k") <= size_of(rows)):
        raise ValueError(f"bad inner size {k} for n={size_of(rows)}")
    return _inner_rows(rows, k)


def _inner_rows(rows: Rows, k: int) -> Rows:
    """:func:`inner_tableau` of a standard tableau, unchecked."""
    out = []
    for row in rows:
        m = bisect_right(row, k)
        if m:
            out.append(row[:m])
    return tuple(out)


def transpose(rows: Rows) -> Rows:
    return _transpose(check_standard(rows))


def _transpose(rows: Rows) -> Rows:
    """:func:`transpose` of a standard tableau, unchecked."""
    return tuple(tuple(row[c] for row in rows if len(row) > c) for c in range(len(rows[0])))


def evacuate(rows: Rows) -> Rows:
    """Reverse-complement a reading word of the tableau and re-insert."""
    return _evacuate(check_standard(rows))


def _evacuate(rows: Rows) -> Rows:
    """:func:`evacuate` of a standard tableau, unchecked."""
    return _insertion_tableau(evac_word(row_word(rows)))


def descent_set(rows: Rows) -> frozenset[int]:
    """Letters i whose successor i+1 sits in a strictly lower row."""
    return _descents(check_standard(rows))


def _rows_of(rows: Rows) -> list[int]:
    """The row, counted from 0, of each letter of a standard tableau."""
    row_of = [0] * (size_of(rows) + 1)
    for r, row in enumerate(rows):
        for x in row:
            row_of[x] = r
    return row_of


def _descents(rows: Rows) -> frozenset[int]:
    """:func:`descent_set` of a standard tableau, unchecked."""
    r = _rows_of(rows)
    return frozenset(i for i in range(1, len(r) - 1) if r[i + 1] > r[i])


def dual_knuth_move(rows: Rows, i: int) -> Rows:
    """Act on the tableau by the dual Knuth rewrite on the triple {i, i+1, i+2}.

    Defined when exactly one of i, i+1 is a descent; exchanges two of the
    entries i, i+1, i+2 in place, preserving the shape and swapping which of
    i, i+1 is a descent.
    """
    rows = check_standard(rows)
    n = size_of(rows)
    if not (1 <= check_int(i, "i") <= n - 2):
        raise ValueError(f"triple start {i} out of range for n={n}")
    for start, moved in _dual_moves(rows):
        if start == i:
            return moved
    raise ValueError(f"exactly one of {i}, {i + 1} must be a descent")


def _move_exchanges(r) -> list[tuple[int, int]]:
    """(triple start i, x) for every single dual Knuth move of a standard
    tableau given by the rows of its letters: ``r[y]`` is the row of letter
    y for y = 1..n, counted from any base (``r[0]`` is not read).  The move
    at i exchanges the letters x and x + 1.  It exists when exactly one of
    i, i+1 is a descent; it exchanges i+1 and i+2 if r(i) >= r(i+2) exactly
    when i is a descent, else i and i+1, two letters in different rows
    (Haiman, Dual equivalence, 1992)."""
    out = []
    for i in range(1, len(r) - 2):
        falls = r[i + 1] > r[i]
        if falls == (r[i + 2] > r[i + 1]):
            continue
        out.append((i, i + 1 if (r[i] >= r[i + 2]) == falls else i))
    return out


def _dual_moves(rows: Rows) -> list[tuple[int, Rows]]:
    """(triple start, moved tableau) for every single dual Knuth move of a
    standard tableau, unchecked: the exchanges of :func:`_move_exchanges`,
    made in place."""
    r = _rows_of(rows)
    out = []
    for i, x in _move_exchanges(r):
        moved = list(rows)
        for old, new in ((x, x + 1), (x + 1, x)):
            row = rows[r[old]]
            c = bisect_left(row, old)
            moved[r[old]] = row[:c] + (new,) + row[c + 1:]
        out.append((i, tuple(moved)))
    return out


def inner_translate(rows: Rows, sub_old: Rows, sub_new: Rows) -> Rows:
    """Relabel the cells holding 1..k from one inner tableau to a same-shape
    replacement; entries above k stay put."""
    rows = check_standard(rows)
    sub_old = check_standard(sub_old)
    sub_new = check_standard(sub_new)
    if shape_of(sub_old) != shape_of(sub_new):
        raise ValueError("replacement tableau has a different shape")
    k = size_of(sub_old)
    if k > size_of(rows):
        raise ValueError("inner tableau larger than the tableau itself")
    if _inner_rows(rows, k) != sub_old:
        raise ValueError("tableau does not restrict to the given inner tableau")
    return _relabel_inner(rows, sub_new)


def _relabel_inner(rows: Rows, sub_new: Rows) -> Rows:
    """The relabeling kernel behind :func:`inner_translate`, unchecked:
    the leading cells of each row become the rows of ``sub_new``, which
    must have the shape of the tableau's inner tableau of its size.  The
    result is then standard."""
    out = list(rows)
    for r, head in enumerate(sub_new):
        out[r] = head + rows[r][len(head):]
    return tuple(out)


# ---------------------------------------------------------------------------
# row/column concatenations

def beside(left: Rows, right: Rows) -> Rows:
    """Append the rows of the shifted second tableau to the first's rows."""
    return _beside(check_standard(left), check_standard(right))


def _beside(left: Rows, right: Rows) -> Rows:
    """:func:`beside` of two standard tableaux, unchecked."""
    k = size_of(left)
    out = []
    for r in range(max(len(left), len(right))):
        a = left[r] if r < len(left) else ()
        b = tuple(x + k for x in right[r]) if r < len(right) else ()
        out.append(a + b)
    return tuple(out)


def over(first: Rows, second: Rows) -> Rows:
    """Stack the shifted second tableau's columns under the first's columns."""
    return _over(check_standard(first), check_standard(second))


def _over(first: Rows, second: Rows) -> Rows:
    """:func:`over` of two standard tableaux, unchecked."""
    return _transpose(_beside(_transpose(first), _transpose(second)))
