"""The inner-tableau translation sweep as it stood before the run-based
rewrite: a slow oracle for ``verify._translation_sweep``.

It works pair by pair: per (k, inner tableau, dual Knuth move) it relabels
every member through ``_relabel_inner`` and looks the result up by its
rows; cover mode reads each group's Hasse edges from ``induced_covers``
on full-poset bitmasks, order mode tests one ``reach`` bit per pair.  The
sweep and its helpers are copied here as written, so that differential
tests compare the fast sweep with an independent copy rather than with
itself; the only changes are that the sweep takes the poset instead of
building it, takes its dual Knuth moves from the word-route oracle
``move_oracle.dual_moves``, so that it also cross-checks the exchange
kernel ``tableau._dual_moves``, and takes the down-sets that
``induced_covers`` reads from ``closure_oracle.transpose``, as the poset
keeps none.

``local_covers`` is the per-run transitive reduction that the run-based
sweep used before it read each run's cover rows off the poset's covers;
it is kept as the oracle for those rows.

``sweep_layout`` is the run-based sweep's layout as it stood before it read
node ids from the lift's per-size tables: it remakes each node's row
sequence from its rows, cuts the runs with one scan per k, names each
run by its inner tableau, sorts the runs by canonical key and takes every
run's moves from ``tableau._dual_moves``.  It is the oracle for
``verify._SweepLayout``: the same numbering, runs, rows, moves and
records, and the same ``InvariantError`` messages on broken orders.  It
judges every run as its level is made: its counts are the popcounts of
its cover and order rows, shifted out of the run's up-sets (0 for a run
with no move, as the layout counts only runs that have one), and its
failing moves those whose image run's cover rows miss a bit of its own,
every row compared.

The oracle keeps its own closure as the reference for the layout's rows:
where ``verify._SweepLayout`` reads each run's relations from the poset's
``reach``, ``sweep_layout`` closes every run at k = 3 again from its
covers, in one pass (``ups``, with the run's cover rows ``run_covers``,
bits of offsets from the run's ``start``; at n <= 3 each node is a run of
its own).  ``rows`` shifts a run's order or cover rows out of them, and
``covers`` gives the cover rows in the layout's form, bits of offsets from
each position.
"""

from __future__ import annotations

from functools import lru_cache

from closure_oracle import transpose
from move_oracle import dual_moves
from sytkit.permutation import InvariantError
from sytkit.tableau import (
    Rows,
    _dual_moves,
    _inner_rows,
    _rows_of,
    format_tableau,
    is_hook,
    shape_of,
)
from sytkit.weakorder import TableauPoset, _bits, _closure_fault, canonical_key


def _relabel_inner(rows: Rows, sub_new: Rows) -> Rows:
    out = list(rows)
    for r, head in enumerate(sub_new):
        out[r] = head + rows[r][len(head):]
    return tuple(out)


def local_covers(ups: list[int]) -> list[int]:
    """Transitive reduction of the strict up-sets of a partial order: b
    covers a unless some c other than a and b has a < c < b.  Every
    non-cover lies above a member still standing, so only those members
    need their up-sets removed."""
    covers = []
    for up in ups:
        row = up
        rest = up
        while rest:
            low = rest & -rest
            row &= ~ups[low.bit_length() - 1]
            rest = row & ~((low << 1) - 1)
        covers.append(row)
    return covers


def induced_covers(
    p: TableauPoset, member_ids: tuple[int, ...] | list[int], below: tuple[int, ...]
) -> tuple[tuple[int, int], ...]:
    members = sorted(p.node_id(m) for m in member_ids)
    mask = 0
    for m in members:
        mask |= 1 << m
    out = []
    for a in members:
        for b in _bits(p.reach[a] & mask & ~(1 << a)):
            gap = p.reach[a] & below[b] & mask & ~((1 << a) | (1 << b))
            if gap == 0:
                out.append((a, b))
    return tuple(sorted(out))


def _inner_groups(p: TableauPoset, k: int) -> dict[Rows, list[int]]:
    """Node ids grouped by the sub-tableau on the letters 1..k."""
    groups: dict[Rows, list[int]] = {}
    for node_id, node in enumerate(p.nodes):
        groups.setdefault(_inner_rows(node, k), []).append(node_id)
    return groups


def _in_family(shape: tuple[int, ...], family: str | None) -> bool:
    if family is None:
        return True
    if family == "two_row":
        return len(shape) == 2
    if family == "two_col":
        return shape[0] == 2
    if family == "hook":
        return is_hook(shape)
    raise ValueError(f"unknown family {family!r}")


def translation_sweep(
    p: TableauPoset, mode: str, family: str | None
) -> tuple[int, list[dict]]:
    n = p.n
    nodes, index, reach = p.nodes, p.index, p.reach
    below = transpose(reach) if mode == "cover" else None
    checked = 0
    violations: list[dict] = []
    for k in range(3, n):  # a triple must fit inside the inner tableau
        groups = _inner_groups(p, k)
        # cover mode reads each group's induced covers, computed once per k
        group_covers = lru_cache(maxsize=None)(lambda s: induced_covers(p, groups[s], below))
        for sub in sorted(groups, key=canonical_key):
            if not _in_family(shape_of(sub), family):
                continue
            moves = dual_moves(sub)
            if not moves:
                continue
            members = groups[sub]
            if mode == "cover":
                pairs = group_covers(sub)
                count = len(pairs)
            else:  # per member, the members above it (no tuple per pair)
                mask = 0
                for m in members:
                    mask |= 1 << m
                ups = [(a, _bits(reach[a] & mask & ~(1 << a))) for a in members]
                count = sum(len(bs) for _, bs in ups)
            if not count:
                continue
            for i, moved_sub in moves:
                relabeled = {
                    m: index[_relabel_inner(nodes[m], moved_sub)] for m in members
                }
                checked += count
                if mode == "cover":
                    # the relabeling maps onto the moved group: checked, not assumed
                    if sorted(relabeled.values()) != groups[moved_sub]:
                        raise InvariantError(
                            f"relabeling {format_tableau(sub)} -> "
                            f"{format_tableau(moved_sub)} is not onto its group"
                        )
                    target = set(group_covers(moved_sub))
                    broken = [
                        (a, b) for a, b in pairs
                        if (relabeled[a], relabeled[b]) not in target
                    ]
                else:
                    broken = [
                        (a, b) for a, bs in ups for b in bs
                        if not reach[relabeled[a]] >> relabeled[b] & 1
                    ]
                for a, b in broken:
                    violations.append(
                        {
                            "n": n,
                            "k": k,
                            "triple": [i, i + 1, i + 2],
                            "R": format_tableau(sub),
                            "R_moved": format_tableau(moved_sub),
                            "S": format_tableau(nodes[a]),
                            "T": format_tableau(nodes[b]),
                            "S_relabeled": format_tableau(nodes[relabeled[a]]),
                            "T_relabeled": format_tableau(nodes[relabeled[b]]),
                            "relation": mode,
                        }
                    )
    return checked, violations


def _seq_code(rows: Rows) -> int:
    """The row sequence (row of 1, ..., row of n) of a standard tableau in
    4-bit digits, letter 1 highest: integer order is lexicographic order,
    and the code of the inner tableau on 1..k is ``code >> 4 * (n - k)``."""
    code = 0
    for r in _rows_of(rows)[1:]:
        code = code << 4 | r
    return code


def _runs(seq: list[int], cut: int) -> list[tuple[int, int]]:
    """The maximal runs [lo, hi) of positions whose codes agree above the
    lowest ``cut`` bits."""
    runs = []
    lo = 0
    for x in range(1, len(seq) + 1):
        if x == len(seq) or seq[x] >> cut != seq[lo] >> cut:
            runs.append((lo, x))
            lo = x
    return runs


class sweep_layout:
    """The sweep layout of ``p``, made from its tableaux: ``order``,
    ``covers`` and ``levels``, every run's record judged, and ``rows``, as
    in ``verify._SweepLayout``; with each run's closure at k = 3,
    ``start``, ``ups`` and ``run_covers``."""

    def __init__(self, p: TableauPoset) -> None:
        fault = _closure_fault(p)
        if fault is not None:
            raise InvariantError(fault)
        n, nodes = p.n, p.nodes
        codes = [_seq_code(t) for t in nodes]
        order = sorted(range(len(nodes)), key=codes.__getitem__)  # position -> id
        position = [0] * len(nodes)
        for x, a in enumerate(order):
            position[a] = x
        succ: list[list[int]] = [[] for _ in nodes]
        for a, b in p.covers:
            if position[a] > position[b]:
                raise InvariantError(
                    f"cover {format_tableau(nodes[a])} < {format_tableau(nodes[b])} "
                    f"goes down in the row-sequence numbering"
                )
            succ[position[a]].append(position[b])
        seq = [codes[a] for a in order]
        self.order = order
        self.start: list[int] = []
        self.ups: list[int] = []
        self.run_covers: list[int] = []
        for lo, hi in _runs(seq, 4 * max(n - 3, 0)):
            ups, covers = [0] * (hi - lo), [0] * (hi - lo)
            for x in range(hi - 1, lo - 1, -1):
                cover = above = 0
                for y in succ[x]:
                    if y < hi:
                        cover |= 1 << (y - lo)
                        above |= ups[y - lo]
                ups[x - lo] = cover | above
                covers[x - lo] = cover
            self.start += [lo] * (hi - lo)
            self.ups += ups
            self.run_covers += covers
        self.covers = [mask >> (x - lo) for x, (lo, mask) in enumerate(zip(self.start, self.run_covers))]
        self.levels = [self._level(nodes, seq, n, k) for k in range(3, n)]

    def rows(self, mode: str, lo: int, hi: int) -> list[int]:
        """The order (mode "order") or cover rows of the run [lo, hi),
        shifted out of its run's closure at k = 3."""
        masks = self.run_covers if mode == "cover" else self.ups
        shift, full = lo - self.start[lo], (1 << (hi - lo)) - 1
        return [mask >> shift & full for mask in masks[lo:hi]]

    def _judgment(self, level: list[tuple], s: int) -> tuple:
        """Run s's record: its (shape, lo, hi, moves) with its cover count,
        relation count and failing moves."""
        _, lo, hi, moves = level[s]
        if not moves:
            return (*level[s], 0, 0, ())
        covers = self.rows("cover", lo, hi)
        relations = self.rows("order", lo, hi)
        failing = []
        for i, t in moves:
            image = self.rows("cover", level[t][1], level[t][2])
            if any(row & ~moved for row, moved in zip(covers, image)):
                failing.append((i, t))
        count = sum(bin(row).count("1") for row in covers)
        return (*level[s], count, sum(bin(row).count("1") for row in relations), tuple(failing))

    def _level(self, nodes, seq: list[int], n: int, k: int) -> list[tuple]:
        cut = 4 * (n - k)
        runs = sorted(
            ((_inner_rows(nodes[self.order[lo]], k), lo, hi) for lo, hi in _runs(seq, cut)),
            key=lambda run: canonical_key(run[0]),
        )
        where = {sub: t for t, (sub, _, _) in enumerate(runs)}
        shapes = [shape_of(sub) for sub, _, _ in runs]
        tails = [[code & ((1 << cut) - 1) for code in seq[lo:hi]] for _, lo, hi in runs]
        level = []
        for s, (sub, lo, hi) in enumerate(runs):
            moves = []
            for i, moved_sub in _dual_moves(sub):
                t = where.get(moved_sub)
                if t is None or shapes[t] != shapes[s] or tails[t] != tails[s]:
                    raise InvariantError(
                        f"relabeling {format_tableau(sub)} -> "
                        f"{format_tableau(moved_sub)} is not onto its group"
                    )
                moves.append((i, t))
            level.append((shapes[s], lo, hi, tuple(moves)))
        return [self._judgment(level, s) for s in range(len(level))]
