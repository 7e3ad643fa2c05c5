"""Correctness gates for the benchmark, written without the library.

Every answer the benchmark times is checked here, outside the timed call,
against small reference implementations of the textbook definitions: row
insertion with recording, reverse insertion, the hook length formula, and
segment restriction of words.  The batteries are checked against golden
reports recorded from the library (see record_golden.py).

Each query check returns None when the answer is right and a short message
when it is not.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from math import comb, factorial


# ---------------------------------------------------------------------------
# reference implementations

def rsk(word):
    """Insertion and recording tableaux of a word of distinct letters."""
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for step, x in enumerate(word, 1):
        r = 0
        while True:
            if r == len(p_rows):
                p_rows.append([x])
                q_rows.append([step])
                break
            row = p_rows[r]
            if x > row[-1]:
                row.append(x)
                q_rows[r].append(step)
                break
            pos = bisect_right(row, x)
            x, row[pos] = row[pos], x
            r += 1
    return tuple(map(tuple, p_rows)), tuple(map(tuple, q_rows))


def insertion(word):
    return rsk(word)[0]


def reverse_rsk(p_rows, q_rows):
    """The word whose insertion and recording tableaux are the given pair."""
    p = [list(row) for row in p_rows]
    where = {v: r for r, row in enumerate(q_rows) for v in row}
    out = []
    for step in range(len(where), 0, -1):
        r = where[step]
        x = p[r].pop()
        for above in range(r - 1, -1, -1):
            row = p[above]
            pos = bisect_left(row, x) - 1
            row[pos], x = x, row[pos]
        out.append(x)
        if not p[-1]:
            p.pop()
    return tuple(reversed(out))


def shape(rows):
    return tuple(len(row) for row in rows)


def is_standard(rows) -> bool:
    if not rows or any(not row for row in rows):
        return False
    lengths = shape(rows)
    if any(a < b for a, b in zip(lengths, lengths[1:])):
        return False
    entries = sorted(x for row in rows for x in row)
    if entries != list(range(1, len(entries) + 1)):
        return False
    if any(a >= b for row in rows for a, b in zip(row, row[1:])):
        return False
    return all(
        upper[c] < lower[c]
        for upper, lower in zip(rows, rows[1:])
        for c in range(len(lower))
    )


def hook_count(lam) -> int:
    """Number of standard tableaux of the shape, by the hook length formula."""
    conj = [sum(1 for part in lam if part > c) for c in range(lam[0])] if lam else []
    hooks = 1
    for r, part in enumerate(lam):
        for c in range(part):
            hooks *= (part - c - 1) + (conj[c] - r - 1) + 1
    return factorial(sum(lam)) // hooks


def row_word(rows):
    return tuple(x for row in reversed(rows) for x in row)


def restrict_word(word, i, j):
    return tuple(x - i + 1 for x in word if i <= x <= j)


def transpose(rows):
    return tuple(
        tuple(row[c] for row in rows if len(row) > c) for c in range(len(rows[0]))
    )


def evacuate(rows):
    """Insertion tableau of the reversed complemented reading word."""
    n = sum(shape(rows))
    return insertion(tuple(n + 1 - x for x in reversed(row_word(rows))))


def inner_corners(skew_rows):
    """Cells (row, column), from 1, that a forward slide may start from:
    the gaps with no gap to their right or below."""
    gaps = [sum(x is None for x in row) for row in skew_rows]
    return [(r + 1, g) for r, g in enumerate(gaps)
            if g and (r + 1 == len(gaps) or gaps[r + 1] < g)]


def addable_cells(skew_rows):
    """Cells just outside the outer shape where a backward slide may start."""
    lengths = shape(skew_rows)
    return [(r + 1, part + 1) for r, part in enumerate(lengths)
            if r == 0 or lengths[r - 1] > part] + [(len(lengths) + 1, 1)]


def jdt(skew_rows, hole, direction):
    """One jeu de taquin slide on rows with None for the cut-out cells."""
    grid = [list(row) for row in skew_rows]
    r, c = hole[0] - 1, hole[1] - 1  # from 0 here
    if direction == "forward":
        while True:
            right = grid[r][c + 1] if c + 1 < len(grid[r]) else None
            below = grid[r + 1][c] if r + 1 < len(grid) and c < len(grid[r + 1]) else None
            if right is None and below is None:
                break
            if right is None or (below is not None and below < right):
                grid[r][c], r = below, r + 1
            else:
                grid[r][c], c = right, c + 1
        grid[r].pop()
        if not grid[r]:
            grid.pop()
    else:
        if r == len(grid):
            grid.append([])
        grid[r].append(None)
        while True:
            above = grid[r - 1][c] if r > 0 else None
            left = grid[r][c - 1] if c > 0 else None
            if above is None and left is None:
                break
            if left is None or (above is not None and above > left):
                grid[r][c], r = above, r - 1
            else:
                grid[r][c], c = left, c - 1
        grid[r][c] = None
    return tuple(map(tuple, grid))


# ---------------------------------------------------------------------------
# query checks

def check_rsk(word, answer):
    p_rows, q_rows = answer
    if not (is_standard(p_rows) and is_standard(q_rows)):
        return "rsk returned a non-standard tableau"
    if shape(p_rows) != shape(q_rows):
        return "insertion and recording shapes differ"
    if reverse_rsk(p_rows, q_rows) != tuple(word):
        return "reverse insertion does not give the word back"
    return None


def check_knuth_class(rows, answer):
    words = answer.words
    if len(words) != hook_count(shape(rows)):
        return f"class has {len(words)} words, expected {hook_count(shape(rows))}"
    if any(insertion(w) != rows for w in words):
        return "a class word inserts to another tableau"
    return None


def check_product(left, right, terms, members):
    """plactic_product terms against the interval_product members."""
    if set(terms) != set(members) or len(members) != len(set(members)):
        return "product support differs from the interval members"
    if any(mult != 1 for mult in terms.values()):
        return "a product term has multiplicity other than 1"
    k, n = sum(shape(left)), sum(shape(left)) + sum(shape(right))
    words = hook_count(shape(left)) * hook_count(shape(right)) * comb(n, k)
    if sum(hook_count(shape(t)) for t in members) != words:
        return "product support does not account for every shuffle word"
    return None


def check_restrict(rows, i, j, answer):
    if answer != insertion(restrict_word(row_word(rows), i, j)):
        return "restrict differs from inserting the restricted word"
    return None


def check_equal(expected, answer, what):
    return None if answer == expected else f"{what} differs from the reference"


def check_jdt(skew_rows, hole, direction, answer_rows):
    return check_equal(jdt(skew_rows, hole, direction), answer_rows, f"{direction} jdt")


def check_rectify(skew_rows, answer):
    reading = tuple(x for row in reversed(skew_rows) for x in row if x is not None)
    return check_equal(insertion(reading), answer, "rectify")


# ---------------------------------------------------------------------------
# battery check

def report_record(report) -> dict:
    """The deterministic part of a report: what the golden copy holds."""
    out = report.to_json(include_elapsed=False)
    out.setdefault("skipped", 0)
    out.setdefault("details", {})
    return out


def _key(record) -> str:
    return record["check"] + " " + json.dumps(record["range"], sort_keys=True)


def _mismatch(record: dict, want: dict) -> str | None:
    for field in ("checked", "skipped", "violations"):
        if record[field] != want[field]:
            return f"{field} {record[field]!r} != {want[field]!r}"
    for name, value in want["details"].items():
        if record["details"].get(name) != value:
            return f"details.{name} differs"
    return None


def compare_battery(records: list[dict], golden: list[dict]) -> list[str]:
    """Problems with a battery's reports, at most one line per report;
    empty when it matches.  Check, range, checked, skipped and violations
    must be equal.  Details recorded in the golden copy must be present and
    equal; details added later (timings, say) are allowed.  A report may
    occur more than once (antisymmetry runs alone and inside the structural
    bundle); it must then occur as often as in the golden copy."""
    expected: dict[str, list[dict]] = {}
    for want in golden:
        expected.setdefault(_key(want), []).append(want)
    problems = []
    for record in records:
        key = _key(record)
        if not expected.get(key):
            problems.append(f"unexpected report {key}")
            continue
        reason = _mismatch(record, expected[key].pop(0))
        if reason:
            problems.append(f"{key}: {reason}")
    problems.extend(f"missing report {key}" for key, left in expected.items() for _ in left)
    return problems
