"""The tableau validators as they stood before the one-pass rewrite: a test
oracle for ``tableau.check_standard`` and ``tableau.check_tableau``.

Each row is checked for integer entries as it comes, the shape goes
through the partition check, and rows and columns are compared pair by
pair, so each message is raised where the first offending entry, row or
column is found.  The library's validators must raise the same messages
in the same precedence.
"""

from __future__ import annotations


def _ints(values, what: str) -> tuple[int, ...]:
    v = tuple(values)
    for x in v:
        if type(x) is not int:
            raise ValueError(f"{what} must be integers, got {x!r}")
    return v


def _check_partition(parts) -> tuple[int, ...]:
    p = _ints(parts, "partition parts")
    if any(x < 1 for x in p):
        raise ValueError(f"partition parts must be positive: {p}")
    if any(a < b for a, b in zip(p, p[1:])):
        raise ValueError(f"partition parts must be weakly decreasing: {p}")
    return p


def _check_rows(rows):
    try:
        t = tuple(map(tuple, rows))
    except TypeError:
        raise ValueError(f"a tableau is a sequence of rows, got {rows!r}") from None
    for row in t:
        _ints(row, "tableau entries")
    if not t or any(not row for row in t):
        raise ValueError("tableau must have nonempty rows")
    _check_partition(tuple(len(r) for r in t))
    return t


def _check_increasing(t) -> None:
    for row in t:
        if any(a >= b for a, b in zip(row, row[1:])):
            raise ValueError(f"row not increasing: {row}")
    for r in range(len(t) - 1):
        for c in range(len(t[r + 1])):
            if t[r][c] >= t[r + 1][c]:
                raise ValueError(f"column {c + 1} not increasing")


def check_standard(rows):
    t = _check_rows(rows)
    n = sum(len(r) for r in t)
    if sorted(x for row in t for x in row) != list(range(1, n + 1)):
        raise ValueError(f"entries must be exactly 1..{n}")
    _check_increasing(t)
    return t


def check_tableau(rows):
    t = _check_rows(rows)
    entries = [x for row in t for x in row]
    if min(entries) < 1:
        raise ValueError("entries must be positive")
    if len(set(entries)) != len(entries):
        raise ValueError("entries must be distinct")
    _check_increasing(t)
    return t
