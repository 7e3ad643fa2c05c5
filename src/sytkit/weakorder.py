"""The weak order on standard Young tableaux of a fixed size, as an
explicit poset.

Nodes are all tableaux with n cells in a canonical order (shape first, then
row word).  Raw comparabilities are the adjacent-ascent swaps of words,
projected to their classes (node ids).  No word is walked: by Schensted's
theorem the class of x.w is x column-inserted into the class of w, so one
table per size k and first letter x maps the size k - 1 classes to size k.
The size-n edges are the covers of the size n - 1 order mapped through
those tables, plus the swaps of the first two letters: the covers generate
the same order as all the swaps of size n - 1, and each table maps a chain
to a chain.  Each size's nodes are grown from the size below, k appended
at each corner it can fill, with their row codes and parents
(:func:`_grown`); its tables are lifted from those of the size below
with no column, by the bumping lemma of :func:`_column_tables`.  All the
lift keeps of a size, made once per process, is one record
(:class:`_Size`, read through :func:`_size`): its nodes, row codes, code
map, parents, tables and the rows they add, but no edge, and the id
tables made on first read: evacuation, transposition, the one-step
restrictions, the dual Knuth moves and the order of :func:`cached_poset`.
The sweep layout of sytkit.verify names its runs through the code maps,
and the hook-eta check, the plactic product and the lemmas of
sytkit.verify insert words through the tables, as :func:`_insertion_id`
does.

Every projected edge a -> b goes down in the id order (a > b), which is
checked for every node: the id order is then a linear extension, so the
order has no cycle and antisymmetry is a fact checked during the build.
Reachability, stored per node as an integer bitmask, and the cover
relation come out of one pass in increasing id order over the nodes'
successor lists, each sorted descending: the transitive reduction of a
graph numbered by a linear extension (Aho, Garey and Ullman 1972).  No
edge is packed into a 16-bit code; the tables are arrays of
``_ID_TYPECODE``, 16-bit ids.
No down-set is made: every reader reads ``reach`` and the covers only,
intervals and products too, as every relation goes down in the id order
(:func:`_interval_mask`).

The monotone-map checks here and in sytkit.verify test a map on the covers
first (:func:`_unpreserved_covers`).  The premise is checked, not assumed:
every cover goes down in the id order, each ``reach`` row is its node plus
the rows of its covers, and no cover passes through another
(:func:`_closure_fault`), so every relation is a chain of covers.
The target must be transitive; each caller names why.  When either
fails, every relation is tested by the mask kernel :func:`_unpreserved`.

The seven functions that perfbench calls with ``jobs=1``
(:func:`cached_poset`, ``hopf.verify_interval_isomorphism`` and five
checks of sytkit.verify) still take that keyword and ignore it, as every
build is serial; it goes once perfbench stops passing it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import groupby

from .permutation import CAPS, InvariantError, check_int, check_range
from .report import VerificationReport, stopwatch
from .tableau import (
    Rows,
    _dominance_leq,
    _move_exchanges,
    check_standard,
    format_tableau,
    row_word,
    shape_of,
)

NodeRef = Rows | int  # tableaux or node ids are accepted interchangeably


def canonical_key(rows: Rows) -> tuple:
    return (shape_of(rows), row_word(rows))


@dataclass
class TableauPoset:
    """Built once, then immutable but for ``_cache``; safe to share
    between threads.

    ``reach[a]`` has bit b set iff a <= b (reflexively).  ``covers`` is
    the transitive reduction, sorted: a checked fact, with the closure, by
    :func:`_closure_fault`.  ``_cache`` keeps what is derived from the
    order, made on first use (the closure check of :func:`_closure_fault`
    and the translation sweep's layout of sytkit.verify); two threads
    making the same entry at once store equal values.  It is not an init
    field, so a poset made by ``dataclasses.replace`` starts with an empty
    one.

    The lift's size records (``_SIZES``), tables and orders, are as safe:
    two threads making the same size or field store equal values for it,
    and no table is ever mutated or dropped.
    """

    n: int
    nodes: tuple[Rows, ...]
    covers: tuple[tuple[int, int], ...]
    reach: tuple[int, ...]
    index: dict[Rows, int] = field(repr=False)
    _cache: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.nodes)

    def node_id(self, node: NodeRef) -> int:
        if isinstance(node, int):
            if not 0 <= check_int(node, "node id") < len(self.nodes):
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
    one ``row & ~pull`` test.  Nothing is assumed of ``rows`` or ``up``: this
    is the kernel the covers-first test of :func:`_unpreserved_covers` falls
    through to, and the one for maps expected to fail."""
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


def _closure_fault(p: TableauPoset) -> str | None:
    """None when ``reach`` is the reflexive-transitive closure of
    ``p.covers`` and the covers are reduced; else the message of what fails
    first.

    Checked as every cover (a, b) going down in the id order (a > b) and
    ``reach[a]`` being a plus the ``reach`` rows of its covers: by
    induction from id 0 upwards, each row is then its node's closure,
    whatever the rows are, and no cover of a may lie strictly above another
    (Aho, Garey and Ullman 1972).  Made once per poset and kept in
    ``p._cache``.
    """
    if "closure" not in p._cache:
        p._cache["closure"] = _find_closure_fault(p)
    return p._cache["closure"]


def _find_closure_fault(p: TableauPoset) -> str | None:
    nodes = p.nodes
    succ: list[list[int]] = [[] for _ in nodes]
    for a, b in p.covers:
        if a <= b:
            return (
                f"cover {format_tableau(nodes[a])} < {format_tableau(nodes[b])} "
                f"does not go down in the id order"
            )
        succ[a].append(b)
    for a, links in enumerate(succ):
        ends = through = 0
        for b in links:  # reach[b] is proved closed already, so it holds b
            ends |= 1 << b
            through |= p.reach[b] ^ 1 << b  # strictly above b
        if 1 << a | ends | through != p.reach[a]:
            return f"closure of the covers disagrees with reach at {format_tableau(nodes[a])}"
        if through & ends:
            c = (through & ends).bit_length() - 1
            return (
                f"covers are not reduced: cover {format_tableau(nodes[a])} < "
                f"{format_tableau(nodes[c])} passes through another"
            )
    return None


def _unpreserved_covers(p: TableauPoset, image, up, transitive: bool) -> list[tuple[int, int]]:
    """:func:`_unpreserved` of ``p.reach``, tested on the covers first.

    When ``reach`` is the closure of the covers (:func:`_closure_fault`),
    every strict relation a < b is a chain of covers, so a map into a
    transitive ``up`` that keeps every cover keeps every relation: then no
    pair is broken and no relation is tested.  Otherwise, or when some
    cover's image misses ``up``, every relation is tested, and the broken
    pairs come back in the same order.  The caller says whether ``up`` is
    transitive; a check's ``checked`` still counts every strict relation,
    each being a chain of tested covers.
    """
    if transitive and _closure_fault(p) is None and all(
        up[image[a]] >> image[b] & 1 for a, b in p.covers
    ):
        return []
    return _unpreserved(p.reach, image, up)


def _row_code(rows) -> int:
    """4 bits per letter x at bit 4(x-1): its row, counted from 1; 0 when
    the letter is absent.  Determines a standard tableau on any letter set."""
    code = 0
    for r, row in enumerate(rows, 1):
        for x in row:
            code += r << 4 * (x - 1)
    return code


def _lift_nodes(p: TableauPoset) -> bool:
    """Whether the order's nodes are the lift's size-n nodes, in id order
    (else an order on other nodes, made by hand in tests).  An order built
    here holds the lift's nodes themselves, so the tuples are compared only
    when they are not the same object."""
    nodes = _size(p.n).nodes
    return p.nodes is nodes or p.nodes == nodes


def _node_codes(p: TableauPoset) -> list[int]:
    """Each node's :func:`_row_code` in id order: the lift's size-n code
    list itself when the nodes are the lift's, else made node by node."""
    if _lift_nodes(p):
        return _size(p.n).codes
    return [_row_code(t) for t in p.nodes]


def _descent_masks(codes: list[int], n: int) -> list[int]:
    """The descent set of each size-n row code as a mask: bit i set when
    letter i + 1 lies in a lower row than letter i, digit i of the code
    against digit i - 1."""
    masks = [0] * len(codes)
    for i in range(1, n):
        shift, bit = 4 * i, 1 << i
        masks = [m | bit if c >> shift & 15 > c >> shift - 4 & 15 else m for m, c in zip(masks, codes)]
    return masks


def _superset_rows(masks: list[int], n: int) -> list[int]:
    """Per mask value m < 2**n, the distinct ``masks`` t that hold m
    (m <= t by inclusion) as the bits of ``rows[m]``.  A superset sum:
    each t seeds its own row, then for each bit i = 1..n - 1 every m
    without it takes in the row of m with it.  Bit 0 is never a descent,
    so the masks are even and only even m are summed."""
    size = 1 << n
    rows = [0] * size
    for t in set(masks):
        rows[t] = 1 << t
    for i in range(1, n):
        bit = 1 << i
        for m in range(0, size, 2):
            if not m & bit:
                rows[m] |= rows[m | bit]
    return rows


def _column_tables(
    below: _Size, ids_of: dict[int, int], k: int
) -> tuple[list[array], list[array]]:
    """``tables[x - 1][t]``: the size-k node id of x column-inserted into
    node t of the size k - 1 record ``below``, its letters >= x raised by
    one; ``added[x - 1][t]``: the row that insertion adds to t.  ``ids_of``
    maps each size-k row code to its id.

    Lifted from the tables of ``below`` by the bumping lemma, with no
    column: t's largest letter k - 1 ends row r at the foot of column c,
    and t less it is t's parent s.  Raised to k it is the largest letter,
    so x's bumping path through t is its path through s, but where that
    path ends by appending at row r of column c, it bumps k instead, to the
    foot of column c + 1, at row (length of column c + 1) + 1.  So
    C_k[x][t] is C_(k-1)[x][s] plus k in row r, or in that row when
    C_(k-1)[x] adds row r to s; x = k makes a new bottom row.  The entries
    are met x by x and t by t, x = k last, and the first derived code that
    names no size-k node raises :class:`InvariantError`.
    """
    shift = 4 * (k - 1)
    nodes, codes = below.nodes, below.codes
    # per node t: its parent s, the row r of its largest letter and the row
    # k is bumped to, the first as long as row r, both also at k's digit
    spots = []
    for t, s, code in zip(nodes, below.parents, codes):
        r = bumped = code >> shift - 4
        while bumped > 1 and len(t[bumped - 2]) == len(t[r - 1]):
            bumped -= 1
        spots.append((s, r, r << shift, bumped, bumped << shift))
    tables, added = [], []
    for x in range(1, k + 1):
        if x < k:
            table, adds = below.tables[x - 1], below.added[x - 1]
            made = [codes[u] for u in table]
            rows = [bumped if adds[s] == r else adds[s] for s, r, _, bumped, _ in spots]
            found = [made[s] | (up if adds[s] == r else stay) for s, r, stay, _, up in spots]
        else:
            rows = [len(t) + 1 for t in nodes]
            found = [code | row << shift for code, row in zip(codes, rows)]
        try:
            tables.append(array(_ID_TYPECODE, [ids_of[code] for code in found]))
        except KeyError:
            t = next(t for t, code in enumerate(found) if code not in ids_of)
            at = format_tableau(nodes[t]) if nodes[t] else "()"
            raise InvariantError(
                f"{x} column-inserted into the size-{k - 1} node {at} is not a size-{k} node"
            ) from None
        added.append(array("B", rows))
    return tables, added


def _grown(
    prev: tuple[Rows, ...], prev_codes: list[int], k: int
) -> tuple[tuple[Rows, ...], list[int], array]:
    """The size-k tableaux in canonical order, their row codes and their
    parents' ids in id order: each size k - 1 node t of ``prev`` with k
    appended to each row that can take it, its code t's (``prev_codes`` is
    in id order) plus the row of k in digit k - 1, its parent t.  Each
    standard tableau arises once, from the tableau left when its corner k
    is removed.  For one shape, comparing the rows bottom first compares
    the row words, so the sort key is canonical; each shape of ``prev`` is
    one block of ids, and k appended to one row keeps a block's order, so
    the children of each (parent shape, row) are emitted as one sorted run
    and the sort only merges runs."""
    shift = 4 * (k - 1)
    grown = []
    for shape, ids in groupby(range(len(prev)), lambda t: tuple(map(len, prev[t]))):
        block = [(t, prev[t][::-1], prev_codes[t]) for t in ids]
        depth = len(shape)
        child = shape + (1,)
        grown += [(child, ((k,),) + rows, code | depth + 1 << shift, t) for t, rows, code in block]
        for r in range(depth):
            if r and shape[r - 1] == shape[r]:
                continue  # the row above is no longer: k would sit below no entry
            j, child = depth - 1 - r, shape[:r] + (shape[r] + 1,) + shape[r + 1:]
            grown += [
                (child, rows[:j] + (rows[j] + (k,),) + rows[j + 1:], code | r + 1 << shift, t)
                for t, rows, code in block
            ]
    grown.sort()
    _, rows, codes, parents = zip(*grown)
    return tuple([r[::-1] for r in rows]), list(codes), array(_ID_TYPECODE, parents)


_ID_TYPECODE = "H"  # of every id table of the lift, which refuses a size it cannot number


@dataclass(eq=False)
class _Size:
    """The lift's record of size k, made with the size by :func:`_lift`:
    ``nodes`` canonically sorted, ``codes`` their row codes in id order,
    ``ids_of`` the map from row code to id, ``parents`` each node's parent
    id (the node less its letter k), and ``tables`` and ``added``, the
    tables C_k[x] and the rows their insertions add (:func:`_column_tables`),
    from which the next size's are lifted.  The other fields are made on
    first read, each by its maker, which checks what it makes:
    ``evacuation`` and ``transposition`` (:func:`_symmetry_tables`), ``hi``
    and ``lo`` (:func:`_one_steps`, from size 2), ``moves``
    (:func:`_move_table`), ``shapes`` (each node's shape, in id order),
    ``descents`` (each node's descent set as a mask, in id order, read off
    the row codes by :func:`_descent_masks`) and ``order``
    (:func:`build_poset`)."""

    k: int
    nodes: tuple[Rows, ...]
    codes: list[int]
    ids_of: dict[int, int]
    parents: array
    tables: list[array]
    added: list[array]

    def __getattr__(self, name: str):
        # reached only for a field not made yet
        if name in ("evacuation", "transposition"):
            self.evacuation, self.transposition = _symmetry_tables(self)
        elif name in ("hi", "lo"):
            self.hi, self.lo = _one_steps(self)
        elif name == "moves":
            self.moves = _move_table(self)
        elif name == "shapes":
            self.shapes = [shape_of(t) for t in self.nodes]
        elif name == "descents":
            self.descents = _descent_masks(self.codes, self.k)
        elif name == "order":
            self.order = build_poset(self.k)
        else:
            raise AttributeError(name)
        return self.__dict__[name]


# the empty tableau, which size 1 grows from: with no parent, only x = 1 is
# inserted into it, as a new row, so nothing but its nodes and codes is read
_EMPTY = _Size(0, ((),), [0], {0: 0}, array(_ID_TYPECODE), [], [])

_SIZES: dict[int, _Size] = {}


def _reset_sizes() -> None:
    """Drop every size's record: each is made afresh on its next read."""
    _SIZES.clear()


def _size(k: int) -> _Size:
    """The size-k record, lifted first when it is missing; a size outside
    1..``CAPS["lift"]`` is refused there with InvariantError, as every
    public caller refuses it first."""
    if k not in _SIZES:
        if not 1 <= k <= CAPS["lift"]:
            raise InvariantError(f"the lift holds sizes 1..{CAPS['lift']}, not {k}")
        _lift(k)
    return _SIZES[k]


def _lift(k: int) -> None:
    """Make the missing records up to size k, one size at a time from the
    largest made: nodes, row codes and parents grown (:func:`_grown`), and
    tables lifted from those of the size below (:func:`_column_tables`).
    A size with more nodes than ``_ID_TYPECODE`` holds ids raises
    InvariantError; the records made before it are kept."""
    top = k - 1
    while top and top not in _SIZES:
        top -= 1
    below = _SIZES[top] if top else _EMPTY
    for size in range(top + 1, k + 1):
        nodes, codes, parents = _grown(below.nodes, below.codes, size)
        if len(nodes) > (limit := 1 << 8 * array(_ID_TYPECODE).itemsize):
            raise InvariantError(f"size {size} has {len(nodes)} nodes, more than the {limit} ids "
                                 f"of typecode {_ID_TYPECODE!r}")
        ids_of = {code: t for t, code in enumerate(codes)}
        tables, added = _column_tables(below, ids_of, size)
        below = _SIZES[size] = _Size(size, nodes, codes, ids_of, parents, tables, added)


def _check_lift_nodes(p: TableauPoset) -> None:
    """Refuse an order whose nodes are not the lift's of its size
    (:func:`_lift_nodes`), with :class:`InvariantError`: the id tables of
    the lift then name its nodes."""
    if not _lift_nodes(p):
        n = p.n
        raise InvariantError(f"the size-{n} order's nodes are not the lift's size-{n} tableaux")


def _symmetry_tables(size: _Size) -> tuple[array, array]:
    """Evacuation and transposition as id tables on the size-k nodes, made
    from the size k - 1 ones; no tableau is made.

    Transposition: the largest letter k ends its row r, so it sits in
    column ``len(t[r - 1])``, which becomes its row in the transpose, and
    the rest is the size k - 1 transpose of t with k dropped (its row code
    with digit k - 1 cleared).  Evacuation: T = P(x.w) is x
    column-inserted into P(w) (the tables C_k[x] of
    :func:`_column_tables`), and eps(T) = P(eps(w).(k + 1 - x)) by
    Schützenberger, the row insertion of k + 1 - x into eps(w) with its
    letters >= k + 1 - x raised; row insertion is column insertion
    conjugated by transposition.  So eps_k[C_k[x][t]] is
    Tr_k[C_k[k + 1 - x][Tr_(k-1)[eps_(k-1)[t]]]] for every size k - 1 node
    t and letter x, which reaches every node.

    Checked when made, else :class:`InvariantError`: both tables are
    involutions on every node, evacuation keeps the shape and
    transposition conjugates it."""
    k, nodes, tables, ids_of = size.k, size.nodes, size.tables, size.ids_of
    count = len(nodes)
    if k == 1:
        evacuation, transposition = [0], [0]
    else:
        below = _size(k - 1)
        prev_evacuation, prev_transposition = below.evacuation, below.transposition
        prev_ids, prev_codes = below.ids_of, below.codes
        shift = 4 * (k - 1)
        keep = (1 << shift) - 1
        transposition = []
        for code, t in zip(size.codes, nodes):
            rest = prev_codes[prev_transposition[prev_ids[code & keep]]]
            column = len(t[(code >> shift) - 1])  # of the letter k
            # a code missing from the map leaves the id ``count``, caught below
            transposition.append(ids_of.get(rest | column << shift, count))
        turned = [prev_transposition[e] for e in prev_evacuation]
        evacuation = [count] * count
        for x in range(1, k + 1):
            row = tables[k - x]
            for u, s in zip(tables[x - 1], turned):
                evacuation[u] = transposition[row[s]]
    _check_symmetries(size, evacuation, transposition)
    return array(_ID_TYPECODE, evacuation), array(_ID_TYPECODE, transposition)


def _check_symmetries(size: _Size, evacuation: list[int], transposition: list[int]):
    """Raise :class:`InvariantError` unless both tables are involutions on
    the record's nodes, evacuation keeps each node's shape and
    transposition gives the conjugate shape (the record's ``shapes``)."""
    nodes, shapes = size.nodes, size.shapes
    conjugate = {s: tuple(sum(part > c for part in s) for c in range(s[0])) for s in set(shapes)}
    for name, table, image in (
        ("evacuation", evacuation, lambda s: s),
        ("transposition", transposition, conjugate.__getitem__),
    ):
        for a, b in enumerate(table):
            if b >= len(nodes) or table[b] != a:
                at = format_tableau(nodes[a])
                raise InvariantError(f"the {name} table is not an involution at {at}")
            if shapes[b] != image(shapes[a]):
                at = format_tableau(nodes[a])
                raise InvariantError(f"the {name} table moves the shape of {at}")


def _one_steps(size: _Size) -> tuple[list[int], list[int]]:
    """The one-step restrictions of the size-k nodes (k >= 2) as size
    k - 1 ids, no tableau made: hi (k dropped) is the row code with digit
    k - 1 cleared, named in the size k - 1 code map; lo (1 dropped and the
    rest rectified) is E_(k-1)[hi[E_k[t]]], E the evacuation tables, as
    evacuation turns dropping the largest letter into dropping 1 and
    rectifying (Schützenberger)."""
    below = _size(size.k - 1)
    smaller, keep = below.ids_of, (1 << 4 * (size.k - 1)) - 1
    hi = [smaller[code & keep] for code in size.codes]
    evacuation, smaller_evacuation = size.evacuation, below.evacuation
    return hi, [smaller_evacuation[hi[e]] for e in evacuation]


def _move_table(size: _Size) -> list[tuple[tuple[int, int], ...]]:
    """Per size-k node id, its dual Knuth moves as (i, moved id), i the
    first letter of the triple, no tableau made.  The rule of
    ``tableau._move_exchanges`` at the triple i reads only the rows of i,
    i + 1 and i + 2, the node's row-code digits i - 1..i + 1: that 12-bit
    window is the rule's pattern, and the rule is read once per distinct
    pattern (on the window's three rows, its answers then shifted by
    i - 1), not once per node.  The move exchanges the code's digits
    x - 1 and x (the rows of x and x + 1), and one lookup in the code map
    names the result.  Each move is checked, else :class:`InvariantError`:
    it is onto another node, it exchanges two letters of its triple, and
    the moved node's move on that triple leads back, as a dual Knuth move
    is an involution."""
    k, nodes, ids_of = size.k, size.nodes, size.ids_of
    windows = [(4 * base, base) for base in range(k - 2)]  # 4 * (i - 1), i - 1 per triple i
    rule: dict[int, list[tuple[int, int, int]]] = {}  # pattern -> the rule's answers on it
    table = []
    for t, code in enumerate(size.codes):
        moves = []
        for shift, base in windows:
            pattern = code >> shift & 0xFFF
            try:
                answers = rule[pattern]
            except KeyError:
                answers = rule[pattern] = _window_exchanges(pattern)
            for i, x, mask in answers:
                u = ids_of.get(code ^ mask << shift) if mask else None
                if u is None:  # named, or refused, by the move on its own
                    u = _checked_move(size, t, i + base, x + base)
                moves.append((i + base, u))
        table.append(tuple(moves))
    # a move exchanges two digits of its window, so the moved node's window
    # is the pattern with them exchanged, and the move leads back wherever
    # the rule answers the same there; else each move is followed back
    if any(
        not mask or rule.get(pattern ^ mask) != answers
        for pattern, answers in rule.items()
        for _, _, mask in answers
    ):
        for t, moves in enumerate(table):
            for i, u in moves:
                if (i, t) not in table[u]:  # one move per triple, so u's at i is not t
                    raise InvariantError(
                        f"dual Knuth move on the triple {i},{i + 1},{i + 2} of "
                        f"{format_tableau(nodes[t])} is onto {format_tableau(nodes[u])}, "
                        f"whose move on it does not lead back"
                    )
    return table


def _window_exchanges(pattern: int) -> list[tuple[int, int, int]]:
    """The rule's answers on one 12-bit window of three row digits, each
    (i, x) with the xor that exchanges the window's digits x - 1 and x, or
    0 when that exchange is not between two of the triple's letters in
    different rows, which :func:`_checked_move` then judges."""
    out = []
    for i, x in _move_exchanges([0, pattern & 15, pattern >> 4 & 15, pattern >> 8]):
        mask = 0
        if i <= x <= i + 1 and 1 <= x <= 2:
            swap = (pattern >> 4 * (x - 1) ^ pattern >> 4 * x) & 15
            mask = swap << 4 * (x - 1) | swap << 4 * x
        out.append((i, x, mask))
    return out


def _checked_move(size: _Size, t: int, i: int, x: int) -> int:
    """The id that node t's move on the triple i, exchanging x and x + 1,
    is onto; else :class:`InvariantError`: the move is not onto another
    node, or it exchanges letters outside its triple."""
    code, u = size.codes[t], None
    if x >= 1:  # else the shifts would be negative
        swap = (code >> 4 * (x - 1) ^ code >> 4 * x) & 15
        u = size.ids_of.get(code ^ (swap << 4 * (x - 1) | swap << 4 * x))
    if u is None or u == t or not i <= x <= i + 1:
        move = f"dual Knuth move on the triple {i},{i + 1},{i + 2} of {format_tableau(size.nodes[t])}"
        if x >= 1 and (u is None or u == t):
            raise InvariantError(f"{move} is not onto another size-{size.k} node")
        raise InvariantError(f"{move} exchanges {x} and {x + 1}, not two of its letters")
    return u


def _lift_edges(n: int) -> tuple[tuple[Rows, ...], list[list[int]]]:
    """The size-n nodes, canonically sorted, and per node a the list of
    its successors b, in no order and with repeats and a itself allowed,
    whose reflexive-transitive closure is the weak order: the closure of
    a = class of u -> b = class of u s_p, over every word u and ascent p
    of u.

    By Schensted's theorem the class of x.w is x column-inserted into the
    class of w (Fulton, *Young Tableaux*, appendix A), one lookup in the
    table C_n[x] of :func:`_column_tables` once w is standardized.  So the
    ascent swaps behind the first letter are the size n - 1 swaps mapped
    through every C_n[x], and a swap of the first two letters x < y pairs
    C_n[x][C_(n-1)[y-1][t]] with C_n[y][C_(n-1)[x][t]] for every size n - 2
    node t.  The size n - 1 swaps are taken as the covers of
    ``cached_poset(n - 1)``: they lie among those swaps, as the transitive
    reduction lies inside every edge set that generates the closure (Aho,
    Garey and Ullman 1972), and each swap is a chain of them, which each
    C_n[x], a map, takes to a chain.  So the closure is the same, from
    fewer edges (14994 distinct in place of 22844 at n = 9).  Repeats and
    loops are left for :func:`_poset`, which passes over them.
    """
    nodes, tables = _size(n).nodes, _size(n).tables
    covers = cached_poset(n - 1).covers if n > 1 else ()
    before = _size(n - 1).tables if n > 1 else []
    succ: list[list[int]] = [[] for _ in nodes]
    for table in tables:
        for a, b in covers:
            succ[table[a]].append(table[b])
    for x in range(1, n):
        low, up = tables[x - 1], before[x - 1]
        for y in range(x + 1, n + 1):
            high, down = tables[y - 1], before[y - 2]
            for a, b in zip(down, up):
                succ[low[a]].append(high[b])
    return nodes, succ


def _insertion_id(word, tables) -> int:
    """The id among the size-m nodes of the insertion tableau of ``word``,
    a word of m distinct positive letters, standardized; ``tables[j - 1]``
    holds the size-j tables of the lift (``_size(j).tables``) for j = 1..m.

    By Schensted's theorem P(x.w) is x column-inserted into P(w), so the
    word is inserted from the right: each letter is standardized among the
    letters after it by one popcount rank, then inserted by one lookup in
    ``tables[j - 1][rank]`` (see :func:`_column_tables`).  Unchecked."""
    t = seen = 0
    for table, x in zip(tables, word[::-1]):
        bit = 1 << x
        t = table[(seen & bit - 1).bit_count()][t]
        seen |= bit
    return t


def build_poset(n: int) -> TableauPoset:
    """Lift the covers of the size n - 1 order, ``cached_poset(n - 1)``,
    and the swaps of the first two letters to size n (see
    :func:`_lift_edges`), then close and reduce them in one pass over the
    id order (see :func:`_poset`).  So the smaller orders are built first,
    each once per process.  Serial and deterministic: the whole build of
    n = 9 takes less than starting a process pool would.
    """
    check_range(n, 1, CAPS["order"], "n")
    return _poset(n, *_lift_edges(n))


def _poset(n: int, nodes: tuple[Rows, ...], succ: list[list[int]]) -> TableauPoset:
    """The poset whose order is the reflexive-transitive closure of the
    edges a -> b for b in ``succ[a]``, one list per node of ``nodes``.

    Each list is sorted in place, descending.  Every edge must go down in
    the id order (a > b), which holds when each list's first id is below
    its node, or ``InvariantError`` is raised; so is an id off the nodes.
    Then node a's successors all have smaller ids, and their rows are final
    when a's row is made.  Visited from the highest id down, a successor
    reached through another one is visited after it, so it is a bit of the
    row by then, as are a repeat and a itself; every other successor is a
    cover.
    """
    count = len(nodes)
    if len(succ) != count:
        raise InvariantError(f"projected edges from {len(succ)} node ids, not the {count} nodes")
    reach: list[int] = []
    covers = []
    for a, links in enumerate(succ):
        links.sort(reverse=True)
        if links and (links[0] > a or links[-1] < 0):
            raise _edge_fault(nodes, a, links)
        row = 1 << a
        kept = []
        for b in links:
            if not row >> b & 1:
                kept.append(b)
                row |= reach[b]
        reach.append(row)
        covers += [(a, b) for b in reversed(kept)]

    return TableauPoset(
        n=n,
        nodes=nodes,
        covers=tuple(covers),
        reach=tuple(reach),
        index={t: i for i, t in enumerate(nodes)},
    )


def _edge_fault(nodes: tuple[Rows, ...], a: int, links: list[int]) -> InvariantError:
    """What :func:`_poset` raises for node a's successors ``links``, sorted
    descending, when one is off the nodes or goes up in the id order."""
    at = format_tableau(nodes[a])
    for off in links[0], links[-1]:
        if not 0 <= off < len(nodes):
            return InvariantError(f"projected edge from {at} to node id {off}, off the nodes")
    b = min(b for b in links if b > a)
    return InvariantError(
        f"projected edge {at} < {format_tableau(nodes[b])} goes up in the id order"
    )


def cached_poset(n: int, jobs: int = 1) -> TableauPoset:
    # checked before the size is lifted: True and 3.0 would name sizes 1 and 3
    check_range(n, 1, CAPS["order"], "n")
    return _size(n).order


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
    whole poset), from ``reach`` alone: b covers a unless a member lies
    strictly between them.  A node given more than once counts once.
    """
    members = sorted({p.node_id(m) for m in member_ids})
    mask = 0
    for m in members:
        mask |= 1 << m
    out = []
    for a in members:
        up = p.reach[a] & mask & ~(1 << a)
        through = 0  # strictly above some member of up
        for c in _bits(up):
            through |= p.reach[c] & ~(1 << c)
        out += [(a, b) for b in _bits(up & ~through)]
    return tuple(out)


def _interval_mask(p: TableauPoset, lo: int, hi: int) -> int:
    """The members x of [lo, hi] (lo <= x <= hi) as a bit mask: the bits
    of ``reach[lo]`` whose rows hold hi, read from the highest id down to
    hi, as every relation goes down in the id order once
    :func:`_closure_fault` finds nothing (else :class:`InvariantError`
    with its message).  A row without hi drops its bits from the rest:
    nothing above x lies below hi when x does not."""
    fault = _closure_fault(p)
    if fault is not None:
        raise InvariantError(fault)
    reach, top = p.reach, 1 << hi
    rest = reach[lo] >> hi << hi
    mask = 0
    while rest:
        x = rest.bit_length() - 1
        row = reach[x]  # holds x, as the closure check proved
        if row & top:
            mask |= 1 << x
            rest ^= 1 << x
        else:
            rest &= ~row
    return mask


def interval(p: TableauPoset, bottom: NodeRef, top: NodeRef) -> Interval:
    lo = p.node_id(bottom)
    hi = p.node_id(top)
    members = tuple(_bits(_interval_mask(p, lo, hi)))
    return Interval(p, lo, hi, members, induced_covers(p, members))


# ---------------------------------------------------------------------------
# monotone-map checks

def check_monotone_descent(p: TableauPoset) -> VerificationReport:
    """Along every order relation, descent sets only gain elements.

    The descent masks are the lift's ``descents`` when the nodes are the
    lift's, else read off each node's row code (:func:`_node_codes`)."""
    masks = _size(p.n).descents if _lift_nodes(p) else _descent_masks(_node_codes(p), p.n)
    with stopwatch() as sw:
        # the descent masks ordered by inclusion: bit t of up[m] iff m <= t
        up = _superset_rows(masks, p.n)
        checked = p.strict_relations()
        violations = [
            {
                "S": format_tableau(p.nodes[a]),
                "T": format_tableau(p.nodes[b]),
                "des_S": _bits(masks[a]),
                "des_T": _bits(masks[b]),
            }
            # inclusion is transitive
            for a, b in _unpreserved_covers(p, masks, up, True)
        ]
    return VerificationReport(
        "monotone-descent-map", {"n": p.n}, checked, violations, sw.ms
    )


def check_monotone_shape(p: TableauPoset) -> VerificationReport:
    """Shapes change monotonically in dominance along the order.

    The direction is detected on the cover relation first, then asserted on
    every comparable pair through :func:`_unpreserved_covers`: at once
    when the order's premises hold, pair by pair otherwise.  The report
    names the direction that holds.
    """
    shapes = _size(p.n).shapes if _lift_nodes(p) else [shape_of(t) for t in p.nodes]
    with stopwatch() as sw:
        # dominance between every two node shapes, each pair compared once;
        # dom[sid[a]][sid[b]] says whether the shape of a is below that of b
        distinct = sorted(set(shapes))
        sid = list(map({s: i for i, s in enumerate(distinct)}.__getitem__, shapes))
        # node shapes are partitions of n, so none is validated again
        dom = [[_dominance_leq(s, t) for t in distinct] for s in distinct]
        down = all(dom[sid[b]][sid[a]] for a, b in p.covers)
        up = all(dom[sid[a]][sid[b]] for a, b in p.covers)
        direction = "down" if down else "up" if up else "none"
        checked = len(p.covers)
        if direction == "none":
            broken = [(a, b) for a, b in p.covers if not dom[sid[b]][sid[a]]]
        else:
            checked += p.strict_relations()
            # ahead[s][t]: shape t may lie above shape s in the direction
            ahead = dom if direction == "up" else list(zip(*dom))
            masks = [sum(1 << t for t, ok in enumerate(row) if ok) for row in ahead]
            # dominance is a partial order
            broken = _unpreserved_covers(p, sid, masks, True)
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
