"""Exhaustive desk-scale checks of the order-theoretic statements.

The headline sweep relabels a shared inner tableau along a single dual
Knuth move and asserts that covers (or all order relations) between
tableaux with that inner tableau are preserved.  The known size-6 failure
of the *single-triple* relabeling acting on whole tableaux is reproduced as
its own check.  The remaining checks bundle the structural facts the other
modules rely on: segment restriction, descent and shape monotonicity,
evacuation/transposition symmetry, dual Knuth connectivity, antisymmetry.

The translation sweep numbers the nodes by row sequence (the row of 1, the
row of 2, ..., the row of n).  Tableaux with the same inner tableau on
1..k share a prefix of that sequence, so for every k each group is one
contiguous run of positions, and a relabeling, which keeps the rows of the
letters above k, maps the x-th member of a run to the x-th member of the
moved run.  The covers are closed again inside each run at k = 3, in one
pass, and each group's relations are read with one shift per member.
What the sweep relies on is checked, not assumed, or ``InvariantError``
is raised.  The order's premises come from ``weakorder._closure_fault``,
the one test of them, shared with the relation checks: every cover goes
down in the id order, ``reach`` is the closure of the covers, and the
covers are reduced.  The layout checks only its
own: every cover goes strictly up in the row-sequence numbering, and each
moved inner tableau keeps the shape and its run the same suffixes.  So an
order with a cycle raises here: the closure of covers that all go down in
the id order has none.
``verify_antisymmetry`` is the check that reports cycles as violations.
As every cover goes up, every chain between two members of a run stays
inside it: each run is convex, so its induced covers are the poset's
covers with both ends in it, read off them with no reduction per run.

The numbering, the closure, the runs and the moves are one layout per
poset: made, and checked, on the poset's first sweep and kept on it
(``TableauPoset._cache``), so the sweeps of every mode and family share
them.  The layout remakes no tableau (see :class:`_SweepLayout`).
Each (run, move) is judged once per poset, the first time a sweep reads
the run: the run's cover and relation counts, and whether the move
carries every cover of the run onto a cover of its image run, whole runs
first.  Each run is convex and its relations are the closure of its
covers, so a move that keeps every cover keeps every relation.  A sweep,
in either mode and for any family, applies its family filter and adds a
count per move, and compares rows only for the moves judged failing:
their broken covers in cover mode, their relations in order mode.

One table per size applies a dual Knuth move, the lift's ``moves``
(``weakorder._move_table``): per node (triple start, moved id), made on
the row codes and checked as it is made.  The layouts of every larger
poset, the single-triple scan and dual Knuth connectivity (one search per
shape over the ids) read it, and a move off the node set raises
``InvariantError`` in each.

The relation checks (restriction, evacuation, transposition, the descent
and shape maps, the single-triple scan) ask whether a map carries every
strict relation a < b into a target order.  The order is the closure of
its covers, so a map into a transitive target keeps every relation once
it keeps every cover: ``weakorder._unpreserved_covers`` tests the covers
first, when ``reach`` is checked to be their closure, and falls through
to the mask kernel ``weakorder._unpreserved`` (one test per node, nothing
assumed) when that check or a cover fails, so broken pairs are listed
the same way.  Each check names why its target is transitive.
Transposition reverses the order, so its covers are tested through
``reach`` too, and so is every relation in its fall-through.  The
single-triple scan, where failures are expected, calls the kernel
directly; antisymmetry reads ``reach`` alone, each row tested for an id
above its node's.  ``checked`` still counts every strict relation, each a
chain of tested covers.

Restriction images are composed from two one-step tables per size, hi
(drop the largest letter) and lo (drop 1 and rectify), as jeu de taquin
confluence allows, both by lift id (``weakorder._one_steps``).  hi clears
the top digit of a row code; lo goes through evacuation, as dropping 1
and rectifying is dropping the largest letter conjugated by evacuation
(the tests check both against ``tableau._restrict``).  Evacuation and
transposition are the lift's id tables (``weakorder._symmetry_tables``).
No check walks the n! words: each statement about every word follows, by
induction on its length, from one lemma per size m, size m - 1 node t and
letter x on the lift's column tables C_m (``weakorder._size(m).tables``),
as P(x.w) is x column-inserted into P(w) (Schensted), C_m[x][t] once w is
standardized, and every tableau is P of some word.

The hook-eta check lists no class word either.  Per k it reads every
hook tableau's two corner steps from the step table ``knuthclass._STEPS``,
makes one reverse-bump graph (``hopf._checked_graph``) below their
standardized children, walks it once per distinct child through the same
column tables, and adds up the walks of each tableau's corners that share
an exit letter (see :func:`verify_hook_eta`).
The walk is ``hopf._prefix_ids``, the one class walk, which
``hopf.plactic_product`` runs on its two factors' graphs in place.

Reports are deterministic: sweeps run in a fixed canonical order and every
witness is a self-contained dict of text forms.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Iterator
from math import factorial
from operator import xor
from typing import NamedTuple

from .hopf import _checked_graph, _prefix_ids, verify_interval_isomorphism
from .knuthclass import _class_words, _code_rows, _code_steps
from .permutation import CAPS, InvariantError, Word, check_int, check_range, descents_left, format_word
from .report import VerificationReport, stopwatch
from .tableau import (
    Rows,
    _descents,
    _hook_count,
    _inner_rows,
    _is_hook,
    _standard_tableaux,
    format_tableau,
    partitions,
    row_word,
    shape_of,
)
from .weakorder import (
    TableauPoset,
    _bits,
    _check_lift_nodes,
    _closure_fault,
    _insertion_id,
    _row_code,
    _size,
    _unpreserved,
    _unpreserved_covers,
    cached_poset,
    check_monotone_descent,
    check_monotone_shape,
)

FAMILIES = ("two_row", "two_col", "hook")
MODES = ("cover", "order")


def _in_family(shape: tuple[int, ...], family: str | None) -> bool:
    if family is None:
        return True
    if family == "two_row":
        return len(shape) == 2
    if family == "two_col":
        return shape[0] == 2
    if family == "hook":
        return _is_hook(shape)  # a poset node's shape is a partition
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def _spans(starts: list[int], end: int) -> list[tuple[int, int]]:
    """The runs [lo, hi) that begin at ``starts`` and end at the next one,
    the last at ``end``."""
    return list(zip(starts, starts[1:] + [end]))


# each byte's two 4-bit digits exchanged
_NIBBLES_SWAPPED = bytes((b & 15) << 4 | b >> 4 for b in range(256))


class _SweepLayout:
    """What every translation sweep of one poset shares, made on its first
    sweep: the row-sequence numbering, checked to number every cover
    strictly upwards; per k, the runs in canonical order of their inner
    tableaux, each with its shape and its dual Knuth moves, every move
    checked to be onto its image run; and each run's judgment, made the
    first time a sweep reads the run.  The order's premises are read from
    ``weakorder._closure_fault`` first (see the module docstring).

    No tableau is remade.  Each node's ``weakorder._row_code`` (the row of
    letter x in the 4-bit digit x - 1) is read from the lift's size-n code
    list (``weakorder._size(n).codes``), which is in id order, when the
    nodes are the lift's, and made from ``p.nodes`` otherwise; the
    numbering sorts the codes with their digits reversed, letter 1 first.
    Positions x - 1 and x then share the inner tableau on 1..k exactly
    when their codes agree on the lowest k digits, so one pass over those
    shared lengths cuts the runs at every k.  A run's inner tableau is its
    code's lowest k digits, named by its size-k id in the code map that the
    lift keeps (``weakorder._size(k).ids_of``); ids are in canonical order,
    and the moves are read from the size-k record's ``moves``.

    Every run lies inside one run at k = 3, so only each position's strict
    up-set and covers inside that run are kept (``ups`` and ``covers``,
    bits of offsets from the run's ``start``), and a run's order and cover
    rows are shifted out of them.

    A run's judgment (:meth:`judge`) is its cover count, its relation
    count and the moves whose relabeling does not carry every one of its
    covers onto a cover.  A sweep adds a count per move and compares rows
    only for those moves, in either mode: the run is convex and its
    relations are the closure of its covers, so a relabeling that keeps
    every cover keeps every relation."""

    def __init__(self, p: TableauPoset) -> None:
        # the order's premises, checked once per poset
        fault = _closure_fault(p)
        if fault is not None:
            raise InvariantError(fault)
        n, nodes = p.n, p.nodes
        # an order on other nodes (made by hand, in tests) is coded node by node
        size = _size(n)
        codes = size.codes if nodes == size.nodes else [_row_code(t) for t in nodes]
        width = (n + 1) // 2

        def letter_1_first(a: int) -> int:
            # the digits of a's code reversed: each byte's digits swapped, the
            # bytes read backwards (n odd adds a 0 digit last to every code)
            return int.from_bytes(codes[a].to_bytes(width, "little").translate(_NIBBLES_SWAPPED), "big")

        order = sorted(range(len(nodes)), key=letter_1_first)  # position -> id
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
        # shared[x]: the letters 1.. whose rows positions x - 1 and x share,
        # the lowest digit in which their codes differ (-1 at x = 0); the
        # runs at k start where fewer than k are shared
        shared = [-1] + [((d & -d).bit_length() - 1) >> 2 for d in map(xor, seq, seq[1:])]
        starts = {k: [x for x, m in enumerate(shared) if m < k] for k in range(3, n)}
        self.order = order
        self.start: list[int] = []
        self.ups: list[int] = []
        self.covers: list[int] = []
        for lo, hi in _spans(starts[3], len(seq)) if n > 3 else ():
            # covers go up, so a path between two members of a run stays
            # inside it: each run is closed from its own covers
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
            self.covers += covers
        # levels[k - 3]: (shape, lo, hi, moves) per run, moves (i, the index
        # of the moved run in the level)
        self.levels = [
            self._level(nodes, seq, k, _spans(starts[k], len(seq))) for k in range(3, n)
        ]
        # per level k, once run s is judged: counts[k - 3][2s] and [2s + 1],
        # its covers and strict relations (-1 before), and failing[k - 3][s],
        # its failing moves when it has any; no object per run is kept
        self.counts = [array("q", [-1]) * (2 * len(level)) for level in self.levels]
        self.failing: list[dict[int, tuple[tuple[int, int], ...]]] = [{} for _ in self.levels]

    def _level(self, nodes, seq: list[int], k: int, spans) -> list[tuple]:
        size = _size(k)
        subs, ids_of, table = size.nodes, size.ids_of, size.moves
        digits = (1 << 4 * k) - 1
        runs = []  # (size-k id, lo, hi)
        for lo, hi in spans:
            t = ids_of.get(seq[lo] & digits)
            if t is None:
                raise InvariantError(
                    f"inner tableau {format_tableau(_inner_rows(nodes[self.order[lo]], k))} "
                    f"of a run is not a size-{k} node"
                )
            runs.append((t, lo, hi))
        runs.sort()  # canonical order
        where = {t: s for s, (t, _, _) in enumerate(runs)}
        shapes = [shape_of(subs[t]) for t, _, _ in runs]
        # the rows of the letters above k, member by member
        high = [code >> 4 * k for code in seq]
        tails = [high[lo:hi] for _, lo, hi in runs]
        level = []
        for s, (t, lo, hi) in enumerate(runs):
            moves = []
            for i, moved in table[t]:
                # the relabeling maps the run onto the moved run: checked, not assumed
                u = where.get(moved)
                if u is None or shapes[u] != shapes[s] or tails[u] != tails[s]:
                    raise InvariantError(
                        f"relabeling {format_tableau(subs[t])} -> "
                        f"{format_tableau(subs[moved])} is not onto its group"
                    )
                moves.append((i, u))
            level.append((shapes[s], lo, hi, tuple(moves)))
        return level

    def rows(self, mode: str, lo: int, hi: int) -> list[int]:
        """The order (mode "order") or cover rows of the run [lo, hi)."""
        masks = self.covers if mode == "cover" else self.ups
        shift, full = lo - self.start[lo], (1 << (hi - lo)) - 1
        return [mask >> shift & full for mask in masks[lo:hi]]

    def judge(self, k: int, s: int) -> tuple[int, int, tuple[tuple[int, int], ...]]:
        """The judgment of run s of level k, made and kept when missing:
        (its covers, its strict relations, the moves (i, t) of its level's
        ``moves`` whose image run misses one of its covers).  Every run of
        s's shape in the level is judged with it: ids sort by shape first,
        so they are one block of the level, and a move keeps the shape, so
        the block holds every image run and each run's cover rows are made
        once.  The relations are read off ``ups`` unshifted: a member's bits
        there all lie past the run's start, so one mask below the run's end
        keeps those inside it."""
        level, counts, failing = self.levels[k - 3], self.counts[k - 3], self.failing[k - 3]
        if counts[2 * s] < 0:
            shape = level[s][0]
            first, end = s, s + 1
            while first and level[first - 1][0] == shape:
                first -= 1
            while end < len(level) and level[end][0] == shape:
                end += 1
            rows = {}
            for t in range(first, end):
                _, lo, hi, _ = level[t]
                rows[t] = source = self.rows("cover", lo, hi)
                inside, relations = (1 << (hi - self.start[lo])) - 1, 0
                for up in self.ups[lo:hi]:
                    relations += (up & inside).bit_count()
                counts[2 * t], counts[2 * t + 1] = sum(map(int.bit_count, source)), relations
            for t in range(first, end):
                source = rows[t]
                broken = tuple(
                    (i, u) for i, u in level[t][3]
                    if rows[u] != source and any(row & ~image for row, image in zip(source, rows[u]))
                )
                if broken:
                    failing[t] = broken
        return counts[2 * s], counts[2 * s + 1], failing.get(s, ())


def _sweep_layout(p: TableauPoset) -> _SweepLayout:
    """The poset's sweep layout, made on its first sweep and kept on it."""
    if "sweep" not in p._cache:
        p._cache["sweep"] = _SweepLayout(p)
    return p._cache["sweep"]


def _translation_sweep(
    p: TableauPoset, mode: str, family: str | None
) -> tuple[int, list[dict]]:
    """Check every (k, inner tableau, dual Knuth move) of the poset, run
    by run in the row-sequence numbering (see the module docstring): each
    run's count, covers or strict relations, once per move, and rows only
    for the moves its judgment lists (:meth:`_SweepLayout.judge`).  In
    order mode such a move may still keep every relation."""
    layout = _sweep_layout(p)
    n, nodes, order = p.n, p.nodes, layout.order
    which = 0 if mode == "cover" else 1  # of a run's two counts
    checked = 0
    violations: list[dict] = []
    for k, level in enumerate(layout.levels, 3):  # a triple must fit inside
        counts, failing = layout.counts[k - 3], layout.failing[k - 3]
        for s, (shape, lo, hi, moves) in enumerate(level):
            if not _in_family(shape, family) or not moves:
                continue
            if counts[2 * s] < 0:
                layout.judge(k, s)
            count = counts[2 * s + which]
            if not count:
                continue
            checked += count * len(moves)
            for i, t in failing.get(s, ()):
                _, lo2, hi2, _ = level[t]
                source, target = layout.rows(mode, lo, hi), layout.rows(mode, lo2, hi2)
                broken = [
                    (order[lo + x], order[lo + y], order[lo2 + x], order[lo2 + y])
                    for x, (row, image) in enumerate(zip(source, target))
                    for y in _bits(row & ~image)
                ]
                broken.sort()  # by the node ids of the pair
                sub = _inner_rows(nodes[order[lo]], k)
                moved_sub = _inner_rows(nodes[order[lo2]], k)
                for a, b, a2, b2 in broken:
                    violations.append(
                        {
                            "n": n,
                            "k": k,
                            "triple": [i, i + 1, i + 2],
                            "R": format_tableau(sub),
                            "R_moved": format_tableau(moved_sub),
                            "S": format_tableau(nodes[a]),
                            "T": format_tableau(nodes[b]),
                            "S_relabeled": format_tableau(nodes[a2]),
                            "T_relabeled": format_tableau(nodes[b2]),
                            "relation": mode,
                        }
                    )
    return checked, violations


def _translation_report(
    check: str, n: int, mode: str, family: str | None
) -> VerificationReport:
    """The mode guard, sweep and report shared by both translation checks,
    each of which guards its n first."""
    if mode not in MODES:
        raise ValueError(f"mode must be {' or '.join(map(repr, MODES))}, got {mode!r}")
    p = cached_poset(n)
    with stopwatch() as sw:
        checked, violations = _translation_sweep(p, mode, family)
    scope = {"n": n, "mode": mode}
    if family is not None:
        scope["family"] = family
    return VerificationReport(check, scope, checked, violations, sw.ms)


def verify_inner_tableau_translation(
    n: int, mode: str = "cover", jobs: int = 1
) -> VerificationReport:
    """Relabeling a shared inner tableau along one dual Knuth move must
    preserve induced covers (mode "cover") or all order relations between
    same-inner-tableau nodes (mode "order")."""
    _check_scale("inner-translation", n)
    return _translation_report("inner-tableau-translation", n, mode, None)


def verify_special_cases(
    n: int, family: str, mode: str = "cover", jobs: int = 1
) -> VerificationReport:
    """The translation sweep restricted to two-row, two-column, or hook
    inner tableaux (proved cases; must come back clean)."""
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    _check_scale("special-cases", n)
    return _translation_report("inner-tableau-translation-special-cases", n, mode, family)


# the known size-6 witness: relabeling along the triple {3,4,5} breaks the
# order between these two tableaux
_WITNESS = {
    "triple": [3, 4, 5],
    "S": "1,2,4/3,5,6",
    "T": "1,2,4/3,6/5",
    "S_relabeled": "1,2,3/4,5,6",
    "T_relabeled": "1,2,5/3,6/4",
}


def verify_inner_translation_fails(jobs: int = 1) -> VerificationReport:
    """The *single-triple* relabeling acting on whole tableaux does NOT
    preserve the order; reproduce the known size-6 witness by scanning all
    comparable pairs on which some triple acts.

    The check passes when the expected witness is found; the witness rides
    in the report details.
    """
    p = cached_poset(6)
    _check_lift_nodes(p)  # the moves are read by size-6 id, which must be the node id
    size = _size(6)
    with stopwatch() as sw:
        descents = [_descents(t) for t in p.nodes]
        moves = [dict(m) for m in size.moves]
        checked = 0
        broken = []
        for i in range(1, p.n - 1):
            domain = sum(1 << a for a, m in enumerate(moves) if i in m)
            falls = sum(1 << a for a, des in enumerate(descents) if i in des)
            # the move at i, and the identity off its domain, whose rows are empty
            image = [m.get(i, a) for a, m in enumerate(moves)]
            # both endpoints must lie in the map's domain and on the same side
            # of its split, i.e. share which of i, i+1 descends
            rows = [
                row & ~(1 << a) & domain & (falls if i in descents[a] else ~falls)
                if i in moves[a] else 0
                for a, row in enumerate(p.reach)
            ]
            checked += sum(row.bit_count() for row in rows)
            broken += [(a, i, b) for a, b in _unpreserved(rows, image, p.reach)]
        found = [
            {
                "triple": [i, i + 1, i + 2],
                "S": format_tableau(p.nodes[a]),
                "T": format_tableau(p.nodes[b]),
                "S_relabeled": format_tableau(p.nodes[moves[a][i]]),
                "T_relabeled": format_tableau(p.nodes[moves[b][i]]),
            }
            for a, i, b in sorted(broken)
        ]
        violations = []
        if _WITNESS not in found:
            violations.append({"missing_expected_witness": _WITNESS})
    return VerificationReport(
        "inner-translation-single-triple-failure",
        {"n": 6},
        checked,
        violations,
        sw.ms,
        details={
            "witness": _WITNESS,
            "failures_found": len(found),
            "statement": "order is NOT preserved by single-triple relabeling, as expected",
        },
    )


def verify_hook_eta(k: int) -> VerificationReport:
    """Hook tableaux with at least three rows and columns whose two corner
    cells hold k and k-1: the two reverse-insertion exit letters differ,
    and class words sharing a last letter share their prefix insertion
    tableau.  Hooks whose corners hold other labels are outside the
    hypothesis and are counted as skipped.

    Each such tableau T is reverse-bumped at its two corners, top row
    first, read from the step table ``knuthclass._STEPS`` under T's row
    code (``knuthclass._code_steps``), each step checked to take exactly
    its exit letter when its entry was made.  The exit letter is the last
    letter of the words through the corner, so the exit letters differ
    exactly when the words end in two letters, and the prefixes of those
    words are the class of the corner's child (Schensted 1961).  The table
    gives each child standardized, as its row code with its letters above
    the exit letter lowered by one: that keeps every rank among its
    letters, and so every prefix's insertion id.  One reverse-bump graph,
    its nodes integer keys and its steps read from the same table, is made
    per k below all the distinct children (``hopf._checked_graph``), and
    each child's class is walked once from its root by the class walk
    ``hopf._prefix_ids``, the one that also counts ``plactic_product``,
    the shared graph on the left and the one-node graph of the empty
    tableau on the right (a state's key is then its left node), every
    prefix inserted from the right through the lift's
    column-insertion tables, as ``weakorder._insertion_id`` does, with
    equal states merged: no word is listed unless a group fails, and no id
    is read off the graph.  The prefixes of T's words with last letter x
    are those of the walks of its corners that exit x, counts added.  The
    graph is checked, not trusted: each step must take exactly its exit
    letter, and T's paths must number its hook-length count, the size of
    its class (RSK), else ``InvariantError`` is raised.  A failing group
    lists its words as the class words of each corner's standardized child
    (``knuthclass._class_words``), their letters from x up raised by one,
    followed by the exit letter x, over the corners that exit x: by
    Schensted these are T's class words that end in x, and no size bound
    applies to them."""
    _check_scale("hook-eta", k, "k")
    # per size m < k, the tables of a letter column-inserted into the size
    # m - 1 nodes, lifted once per process
    tables = [_size(m).tables for m in range(1, k)]
    checked = 0
    skipped = 0
    violations: list[dict] = []
    with stopwatch() as sw:
        # per tableau checked, its hook-length count and per corner (exit
        # letter, root of its standardized child, the child's row code)
        hooks = []
        roots: dict[int, int] = {}  # standardized child's row code -> root
        for shape in partitions(k):
            if not _is_hook(shape) or len(shape) < 3 or shape[0] < 3:
                continue
            size = _hook_count(shape)  # of each class of this shape (RSK)
            for tab in _standard_tableaux(shape):
                labels = {tab[0][-1], tab[-1][0]}
                if labels != {k, k - 1}:
                    skipped += 1
                    continue
                checked += 1
                # a hook's two corners, each step checked as its entry was made
                corners = [
                    (x, roots.setdefault(child, len(roots)), child)
                    for child, x in _code_steps(_row_code(tab))
                ]
                hooks.append((tab, size, sorted(corners)))
        graph = _checked_graph(*map(_code_rows, roots))
        # walked beside the one-node graph of the empty tableau: each
        # walk's words are those of one root's class
        walks = [_prefix_ids(graph, a, ([0], [[]]), 0, tables) for a in range(len(roots))]
        for tab, size, corners in hooks:
            # last letter -> {prefix id: number of words}, for the last
            # letters some word ends in
            by_last: dict[int, dict[int, int]] = {}
            for last, a, _ in corners:
                if walks[a]:
                    ids = by_last.setdefault(last, {})
                    for t, count in walks[a].items():
                        ids[t] = ids.get(t, 0) + count
            words = sum(sum(ids.values()) for ids in by_last.values())
            if words != size:
                raise InvariantError(
                    f"the reverse-bump graph of {format_tableau(tab)} spells "
                    f"{words} words, not the {size} of its shape"
                )
            # the last letters are the exit letters of the two corners,
            # one each: one letter means they agree
            if len(by_last) == 1:
                (eta,) = by_last
                violations.append(
                    {"R": format_tableau(tab), "eta_top": eta, "eta_bottom": eta}
                )
            for last, ids in by_last.items():
                if sum(ids.values()) < 2:
                    continue
                checked += 1
                if len(ids) != 1:
                    group = [
                        tuple(y + (y >= last) for y in u) + (last,)
                        for x, _, child in corners
                        if x == last
                        for u in _class_words(_code_rows(child))
                    ]
                    violations.append(
                        {
                            "R": format_tableau(tab),
                            "last_letter": last,
                            "words": [format_word(w) for w in sorted(group)],
                        }
                    )
    return VerificationReport(
        "hook-eta", {"k": k}, checked, violations, sw.ms, skipped=skipped
    )


# ---------------------------------------------------------------------------
# structural bundle

def verify_antisymmetry(n: int, jobs: int = 1) -> VerificationReport:
    """No two distinct tableaux reach each other in the closure, read from
    ``reach`` alone: a node's row may hold no id above its own, one length
    test per node, and only a row that does is read bit by bit, each higher
    bit b a violation when b reaches the node back.  ``checked`` counts the
    strict relations, as one test per pair would."""
    p = cached_poset(n)
    reach = p.reach
    with stopwatch() as sw:
        checked = p.strict_relations()
        violations = [
            {"S": format_tableau(p.nodes[a]), "T": format_tableau(p.nodes[b])}
            for a, up in enumerate(reach)
            if up.bit_length() > a + 1
            for b in _bits(up & ~((2 << a) - 1))  # each pair once, a < b
            if reach[b] >> a & 1
        ]
    return VerificationReport("antisymmetry", {"n": n}, checked, violations, sw.ms)


def _witness(nodes, tables, fault, failing: Callable[[Word], list[dict]]) -> list[dict]:
    """What ``failing`` lists for the n-letter word of a lemma's failing
    instance ``fault`` = (m, t, x, ...), else the instance ([] for None):
    x and t's row word, letters >= x raised (C_m[x][t] if the tables insert
    the row word to t, checked), after n, ..., m + 1, each the largest so
    far, which hi undoes, or for a lo step raised by n - m after 1..n - m."""
    if fault is None:
        return []
    n, (m, t, x, *step) = len(tables), fault
    rows, found = row_word(nodes[m - 2][t]), []
    if _insertion_id(rows, tables) == t:
        low = n - m if step == [1] else 0
        before = range(1, low + 1) if low else range(n, m, -1)
        found = failing((*before, x + low, *(y + (y >= x) + low for y in rows)))
    return found or [{"m": m, "T": format_tableau(nodes[m - 2][t]), "x": x}]


def _descent_lemma(nodes, tables) -> tuple[int, tuple[int, int, int] | None]:
    """The instances (m, t, x) tested, in order, up to the first failing
    one, and that one or None.  Descent sets are masks, bit i for i."""
    tested, below = 0, [0]  # the one size-1 node has no descent
    for m in range(2, len(tables) + 1):
        masks = [sum(1 << i for i in _descents(u)) for u in nodes[m - 1]]
        for t, d in enumerate(below):
            for x in range(1, m + 1):
                tested += 1
                moved = d & (1 << x - 1) - 1 | d >> x << x + 1 | (1 << x - 1) & ~1
                if masks[tables[m - 1][x - 1][t]] != moved:
                    return tested, (m, t, x)
        below = masks
    return tested, None


def verify_descents_constant(n: int) -> VerificationReport:
    """Left descents of a word equal the descent set of its insertion
    tableau, hence are constant on each class.

    By induction on the word length (see the module docstring): x.w has
    the descents i < x - 1 of w, those i >= x raised by one, and x - 1 when
    x > 1, so it is enough that Des(C_m[x][t]) is that image of Des(t) for
    every m = 2..n, size m - 1 node t and letter x (:func:`_descent_lemma`).
    ``checked`` counts the n! words so established."""
    check_range(n, 1, CAPS["lift"], "n")
    nodes, tables = zip(*((s.nodes, s.tables) for s in map(_size, range(1, n + 1))))

    def failing(word: Word) -> list[dict]:
        same = descents_left(word) == _descents(nodes[-1][_insertion_id(word, tables)])
        return [] if same else [{"word": format_word(word)}]

    with stopwatch() as sw:
        violations = _witness(nodes, tables, _descent_lemma(nodes, tables)[1], failing)
    check = "descent-sets-constant-on-classes"
    return VerificationReport(check, {"n": n}, factorial(n), violations, sw.ms)


def _segment_images(n: int) -> dict[tuple[int, int], list[int]]:
    """Per segment [i, j] of 1..n, the size j - i + 1 lift id of every
    size-n lift node restricted to it: i - 1 drops of the lowest letter,
    then n - j drops of the largest, one lookup each in the ``lo`` and
    ``hi`` tables of the lift's size records.  By the confluence of jeu de
    taquin this is ``_restrict`` on the segment (the differential tests
    compare them on every tableau and segment for n <= 9)."""
    images = {}
    low = list(range(len(_size(n).nodes)))  # restricted to [i, n]
    for i in range(1, n):
        image = low
        for j in range(n, i, -1):
            images[i, j] = image
            m = j - i + 1
            if m > 2:
                image = list(map(_size(m).hi.__getitem__, image))
        m = n - i + 1
        if m > 2:
            low = list(map(_size(m).lo.__getitem__, low))
    return images


def _restriction_lemma(tables) -> tuple[int, tuple[int, int, int, int] | None]:
    """The instances (m, t, x, step) tested (step 0 hi, 1 lo), in order, up
    to the first failing one, and that one or None."""
    tested = 0
    for m in range(3, len(tables) + 1):
        size, below, smaller = _size(m), _size(m - 1), tables[m - 2]
        hi, lo = below.hi, below.lo
        for t in range(len(hi)):
            for x in range(1, m + 1):
                u = tables[m - 1][x - 1][t]
                tested += 2
                if size.hi[u] != (t if x == m else smaller[x - 1][hi[t]]):
                    return tested - 1, (m, t, x, 0)
                if size.lo[u] != (t if x == 1 else smaller[x - 2][lo[t]]):
                    return tested, (m, t, x, 1)
    return tested, None


def verify_restriction_insertion(n: int) -> VerificationReport:
    """Restricting a word to a letter segment commutes with insertion.

    A restriction is lo steps, then hi steps, on words as on tableaux, so
    by induction on the word length (see the module docstring) it is
    enough that both commute with insertion for m = 3..n (at m = 2 they
    give the one size-1 tableau).  x.w loses m as x.hi(w), and 1 as
    (x - 1).lo(w) standardized, so for u = C_m[x][t], hi(u) must be t if
    x = m, else C_(m-1)[x][hi(t)], and lo(u) t if x = 1, else
    C_(m-1)[x - 1][lo(t)] (:func:`_restriction_lemma`).  ``checked``
    counts the n! n(n - 1)/2 (word, segment) pairs so established."""
    check_range(n, 1, CAPS["lift"], "n")
    nodes, tables = zip(*((s.nodes, s.tables) for s in map(_size, range(1, n + 1))))
    segments = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]

    def failing(word: Word) -> list[dict]:
        images, whole = _segment_images(n), _insertion_id(word, tables)
        return [
            {"word": format_word(word), "segment": [i, j]}
            for i, j in segments
            if images[i, j][whole] != _insertion_id([y - i + 1 for y in word if i <= y <= j], tables)
        ]

    with stopwatch() as sw:
        violations = _witness(nodes, tables, _restriction_lemma(tables)[1], failing)
    check, checked = "restriction-commutes-with-insertion", factorial(n) * len(segments)
    return VerificationReport(check, {"n": n}, checked, violations, sw.ms)


def verify_restriction_monotone(n: int) -> VerificationReport:
    """Order relations survive restriction to every letter segment.  The
    images are read by lift id (:func:`_segment_images`), so every order
    read must be on the lift's nodes."""
    p = cached_poset(n)
    small = {m: cached_poset(m) for m in range(2, n + 1)}
    for q in small.values():
        _check_lift_nodes(q)
    with stopwatch() as sw:
        segments = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        images = _segment_images(n)
        broken = []
        for s, (i, j) in enumerate(segments):
            q = small[j - i + 1]
            # q's reach is transitive when it is the closure of q's covers
            transitive = _closure_fault(q) is None
            broken += [
                (a, b, s)
                for a, b in _unpreserved_covers(p, images[i, j], q.reach, transitive)
            ]
        checked = p.strict_relations() * len(segments)
        violations = [
            {
                "S": format_tableau(p.nodes[a]),
                "T": format_tableau(p.nodes[b]),
                "segment": list(segments[s]),
            }
            for a, b, s in sorted(broken)
        ]
    return VerificationReport(
        "restriction-monotone", {"n": n}, checked, violations, sw.ms
    )


def verify_evac_transpose_monotone(n: int) -> VerificationReport:
    """Evacuation preserves the order; transposition reverses it.  Both
    maps are the lift's id tables (the size record's ``evacuation`` and
    ``transposition``), so the order must be on the lift's nodes."""
    p = cached_poset(n)
    _check_lift_nodes(p)
    with stopwatch() as sw:
        evacuation, transpose = _size(n).evacuation, _size(n).transposition
        # reach is transitive when it is the closure of the covers, which is
        # what the covers-first test checks of p itself
        broken = [(a, b, 0) for a, b in _unpreserved_covers(p, evacuation, p.reach, True)]
        # reversing: a < b must give T(b) <= T(a), bit T(a) of reach[T(b)],
        # tested on the covers first, then on every relation when that fails
        if _closure_fault(p) is not None or not all(
            p.reach[transpose[b]] >> transpose[a] & 1 for a, b in p.covers
        ):
            broken += [
                (a, b, 1)
                for a, row in enumerate(p.reach)
                for b in _bits(row & ~(1 << a))
                if not p.reach[transpose[b]] >> transpose[a] & 1
            ]
        checked = p.strict_relations()
        violations = [
            {
                "map": ("evacuation", "transpose")[m],
                "S": format_tableau(p.nodes[a]),
                "T": format_tableau(p.nodes[b]),
            }
            for a, b, m in sorted(broken)
        ]
    return VerificationReport(
        "evacuation-transpose-monotone", {"n": n}, checked, violations, sw.ms
    )


def verify_dual_knuth_connectivity(n: int) -> VerificationReport:
    """Single dual Knuth moves preserve the shape and connect every two
    tableaux of the same shape: one bitmask search per shape over the
    size-n record's ``moves``.  Ids sort by shape first, so each
    shape is one run of ids, cut where the shape changes, and a shape split
    in two shows up as violations."""
    check_range(n, 1, CAPS["lift"], "n")
    size = _size(n)
    nodes = size.nodes
    checked = 0
    violations = []
    with stopwatch() as sw:
        table = size.moves
        shapes = [shape_of(t) for t in nodes]
        starts = [a for a, shape in enumerate(shapes) if not a or shape != shapes[a - 1]]
        for lo, hi in _spans(starts, len(nodes)):
            seen, frontier = 1, [lo]  # bit a - lo of seen: member a is reached
            while frontier:
                a = frontier.pop()
                for _, b in table[a]:
                    checked += 1
                    if not lo <= b < hi:
                        t, moved = format_tableau(nodes[a]), format_tableau(nodes[b])
                        violations.append({"T": t, "moved": moved, "reason": "shape changed"})
                    elif not seen >> (b - lo) & 1:
                        seen |= 1 << (b - lo)
                        frontier.append(b)
            unreached = ~seen & (1 << (hi - lo)) - 1
            if unreached:
                stranded = [format_tableau(nodes[lo + x]) for x in _bits(unreached)]
                reason = "shape class not connected"
                violations.append({"shape": list(shapes[lo]), "unreached": stranded, "reason": reason})
    return VerificationReport(
        "dual-knuth-connectivity", {"n": n}, checked, violations, sw.ms
    )


def verify_structural(n: int, jobs: int = 1) -> list[VerificationReport]:
    """One report per bundled structural statement (six in total), none walking the n! words."""
    _check_scale("structural", n)
    return [
        verify_restriction_monotone(n),
        verify_descents_constant(n),
        verify_restriction_insertion(n),
        verify_evac_transpose_monotone(n),
        verify_dual_knuth_connectivity(n),
        verify_antisymmetry(n),
    ]


# ---------------------------------------------------------------------------
# the check table: `sytkit verify <name>` and the verification battery

def _monotone(n: int) -> list[VerificationReport]:
    p = cached_poset(n)
    return [check_monotone_descent(p), check_monotone_shape(p)]


def _interval_isomorphism(n: int, k: int | None = None) -> list[VerificationReport]:
    k = n // 2 if k is None else check_range(k, 1, n - 1, "k")
    return [verify_interval_isomorphism(k, n - k)]


class Check(NamedTuple):
    """One row of the check table."""

    run: Callable[..., list[VerificationReport]]
    lo: int
    hi: int
    top: int
    stretch_top: int
    options: Callable[[range], Iterator[dict]] = lambda sizes: ({"n": n} for n in sizes)


# The check table, one row per `sytkit verify <name>` in battery order.
# ``run`` takes the options of `sytkit verify`: n always, and k, mode or
# family only where its signature names them (family is then required).
# ``lo`` and ``hi`` are the n it accepts (the hook length k for hook-eta,
# the total k + l for interval-isomorphism); the CLI refuses any other
# through _check_scale before it runs, and the public verify_* functions
# guard their own.  Each hi lies inside the cap (permutation.CAPS) of what
# its check reads: the order's, and for hook-eta the lift's at k - 1.
# ``top`` and ``stretch_top`` are the battery's highest n at the default
# and the stretch scale, and ``options`` the battery's option sets for a
# range of n, in run order.
CHECKS: dict[str, Check] = {
    "antisymmetry": Check(lambda n: [verify_antisymmetry(n)], 1, CAPS["order"], 7, 9),
    "inner-translation": Check(
        lambda n, mode="cover": [verify_inner_tableau_translation(n, mode)],
        2, CAPS["order"], 7, 9,
        lambda sizes: ({"n": n, "mode": mode} for n in sizes for mode in MODES),
    ),
    # the known witness is at n = 6, the one n the scan takes
    "inner-translation-fails": Check(lambda n: [verify_inner_translation_fails()], 6, 6, 6, 6),
    "special-cases": Check(
        lambda n, family, mode="cover": [verify_special_cases(n, family, mode)],
        2, 8, 7, 8,
        lambda sizes: ({"n": n, "family": family} for family in FAMILIES for n in sizes),
    ),
    "hook-eta": Check(lambda n: [verify_hook_eta(n)], 5, 9, 7, 9),
    "structural": Check(verify_structural, 2, CAPS["order"], 6, 6),
    "monotone": Check(_monotone, 1, CAPS["order"], 7, 7),
    "interval-isomorphism": Check(
        _interval_isomorphism, 2, CAPS["order"], 6, 6,
        lambda sizes: ({"n": total, "k": k} for total in sizes for k in range(1, total)),
    ),
}


def _check_scale(check: str, n: int, name: str = "n") -> None:
    """Refuse an n (called ``name`` in the message) outside the check's row
    of CHECKS; a bool or a float is no n."""
    row = CHECKS[check]
    if row.lo == row.hi != check_int(n, name):
        raise ValueError(f"{check} takes {name} = {row.lo} only")
    check_range(n, row.lo, row.hi, name)


def battery(stretch: bool = False) -> Iterator[tuple[str, dict]]:
    """The verification battery as (check, options) pairs in run order:
    each row's option sets from its lowest n, but not below 2 (one tableau
    has no relation to check), to its top at the default or at the stretch
    scale."""
    for check, row in CHECKS.items():
        top = row.stretch_top if stretch else row.top
        for options in row.options(range(max(row.lo, 2), top + 1)):
            yield check, options
