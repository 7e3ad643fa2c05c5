"""The column tables of the lift as ``weakorder._column_tables`` made them
before they were lifted from the size below: a real column insertion per
entry, walking the columns of a size k - 1 node with ``bisect_left``.

``column_tables`` takes the nodes of size k - 1 as tableaux, so it reads
nothing the lift made; ``tests/test_weakorder.py`` compares every entry of
the lift's ``tables`` and ``added`` with it.
"""

from __future__ import annotations

from bisect import bisect_left

from sytkit.tableau import transpose


def columns(rows) -> tuple[bytes, ...]:
    """The columns of a tableau, each a bytes string of its letters from
    the top; none for the empty one."""
    return tuple(map(bytes, transpose(rows))) if rows else ()


def column_tables(nodes, codes: list[int], ids_of: dict[int, int], k: int):
    """``(tables, added)``: ``tables[x - 1][t]`` is the size-k node id of x
    column-inserted into ``nodes[t]``, a size k - 1 tableau whose row code
    is ``codes[t]``, its letters >= x raised by one; ``added[x - 1][t]`` is
    the row that insertion adds.  ``ids_of`` maps each size-k row code to
    its id; a raised code missing from it raises KeyError.

    A raised letter z + 1 bumps the first entry >= z + 1 as an unraised one,
    so the columns are searched as they are and only the row code is
    raised, each bump moving one letter's row in it.  An empty column past
    the node's is where the last bump lands when no column takes it.
    """
    padded = [(columns(t) + (b"",), code) for t, code in zip(nodes, codes)]
    tables, added = [], []
    for x in range(1, k + 1):
        keep = (1 << 4 * (x - 1)) - 1
        table, rows = [], []
        for cols, code in padded:
            code = code & keep | (code & ~keep) << 4
            v = x
            for col in cols:
                pos = bisect_left(col, v)
                code += pos + 1 << 4 * (v - 1)
                if pos == len(col):
                    break
                v = col[pos] + 1  # the bumped letter, raised, leaves row pos + 1
                code -= pos + 1 << 4 * (v - 1)
            table.append(ids_of[code])
            rows.append(pos + 1)
        tables.append(table)
        added.append(rows)
    return tables, added
