"""The 16-slot table DP over nested ``Entry`` records, kept as a test oracle.

A table here is a 16-tuple of ``Entry | None`` indexed by the state
``a * 8 + b * 4 + c * 2 + d``, and each union entry holds its two child
entries. ``ftmd.dp`` replaced it with tables of entry ids into flat per-run
arrays; tests check that both return the same finite states, weights and
vertex sets, and that ``solve`` picks the same optimal set on ties.

Nothing here comes from ``ftmd.dp``: the union applies the flag rules of
the ``ftmd.dp`` module docstring pair by pair, and the tie order is written
out, so an edit to the solver's generated rules or scan order shows up as
a mismatch.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from ftmd.cotree import Complement, Cotree, Leaf, iter_nodes
from ftmd.graph import Weight


def _flags(i: int) -> tuple[int, int, int, int]:
    return (i >> 3 & 1, i >> 2 & 1, i >> 1 & 1, i & 1)


def _index(a: int, b: int, c: int, d: int) -> int:
    return a * 8 + b * 4 + c * 2 + d


_CHOSEN = _index(0, 1, 1, 0)
_LEFT_OUT = _index(1, 0, 0, 1)
# Left-side states with a 0-vertex first, then the rest, each ascending.
_TIE_ORDER = (8, 9, 10, 11, 0, 1, 2, 3, 4, 5, 6, 7)


class Entry(NamedTuple):
    """One feasible table entry: total weight plus a reconstruction record.

    A chosen leaf holds its vertex id in ``left`` and ``None`` in ``right``;
    the empty set is the shared ``_NOTHING``; a union entry holds one entry
    of each side in ``left`` and ``right``. Complementation reuses entries.
    """

    weight: Weight
    left: Entry | int | None
    right: Entry | None


_NOTHING = Entry(0, None, None)

Table = tuple  # 16 slots of Entry | None, indexed by _index(a, b, c, d)


def dp_leaf(vertex: int, weight: Weight) -> Table:
    """Table of a one-leaf subtree: the vertex chosen or left out."""
    table: list[Entry | None] = [None] * 16
    table[_CHOSEN] = Entry(weight, vertex, None)
    table[_LEFT_OUT] = _NOTHING
    return tuple(table)


def _union_state(i: int, s1: int, j: int, s2: int) -> int | None:
    """The union state of side states ``i`` and ``j`` whose sides have size
    classes ``s1`` and ``s2``, or ``None`` when the union leaves some vertex
    pair separated fewer than twice."""
    a1, b1, c1, d1 = _flags(i)
    a2, b2, c2, d2 = _flags(j)
    # A 0-vertex on one side excludes 0- and 1-vertices on the other.
    if a1 and (a2 or b2) or a2 and (a1 or b1):
        return None
    a, b = a1 | a2, b1 | b2
    if a and b:
        return None

    def seen_across(c: int, d: int, other: int) -> tuple[int, int]:
        # Unchanged beside an empty side, d becomes c beside one chosen
        # vertex, both dropped beside two or more.
        return ((c, d), (d, 0), (0, 0))[other]

    c1, d1 = seen_across(c1, d1, s2)
    c2, d2 = seen_across(c2, d2, s1)
    return _index(a, b, c1 | c2, d1 | d2)


def _size_class(i: int, leaf: bool) -> int:
    """``min(|R|, 2)`` of state ``i``'s set: a leaf chooses itself or
    nothing, and a larger subtree always chooses two or more."""
    if not leaf:
        return 2
    return 1 if i == _CHOSEN else 0


def dp_union(t1: Table, t2: Table) -> Table:
    """Table for the disjoint union of two subtrees.

    A table comes from a single leaf exactly when it holds ``_NOTHING``:
    larger subtrees need at least two chosen vertices. That decides the
    size classes. Candidates are scanned in ``_TIE_ORDER`` on the left and
    ascending on the right; the first of equally cheap ones is kept.
    """
    leaf1, leaf2 = t1[_LEFT_OUT] is _NOTHING, t2[_LEFT_OUT] is _NOTHING
    right = [(j, e2) for j, e2 in enumerate(t2) if e2 is not None]
    table: list[Entry | None] = [None] * 16
    for i in _TIE_ORDER:
        e1 = t1[i]
        if e1 is None:
            continue
        for j, e2 in right:
            k = _union_state(i, _size_class(i, leaf1), j, _size_class(j, leaf2))
            if k is None:
                continue
            weight = e1.weight + e2.weight
            best = table[k]
            if best is None or weight < best.weight:
                table[k] = Entry(weight, e1, e2)
    return tuple(table)


def dp_complement(table: Table) -> Table:
    """Complement a subtree's table: permute it by reversing indices.

    Entries keep their weights and reconstruction records; applying this
    twice restores the table.
    """
    return tuple([table[_index(*reversed(_flags(i)))] for i in range(16)])


def dp_run(
    t: Cotree,
    weights: Sequence[Weight],
    trace: list[tuple[Cotree, Table]] | None = None,
) -> Table:
    """Evaluate the dynamic program bottom-up over the cotree.

    Constant table work per node. When ``trace`` is a list, every node's
    table is appended to it in post-order.
    """
    values: list[Table] = []
    for node in iter_nodes(t):
        if isinstance(node, Leaf):
            value = dp_leaf(node.vertex, weights[node.vertex])
        elif isinstance(node, Complement):
            value = dp_complement(values.pop())
        else:
            right = values.pop()
            value = dp_union(values.pop(), right)
        values.append(value)
        if trace is not None:
            trace.append((node, value))
    return values[0]


def entry_vertices(entry: Entry) -> frozenset[int]:
    """Materialize the vertex set behind an entry; linear in the output."""
    out: list[int] = []
    stack = [entry]
    while stack:
        e = stack.pop()
        if e.right is not None:
            stack.append(e.left)
            stack.append(e.right)
        elif e.left is not None:
            out.append(e.left)
    return frozenset(out)


def finite_states(table: Table) -> dict[tuple[int, int, int, int], Entry]:
    """Finite table entries keyed by their flag tuple."""
    return {_flags(i): e for i, e in enumerate(table) if e is not None}


def extract_connected_min(table: Table) -> tuple[Weight, frozenset[int]]:
    """Cheapest finite entry of a root table, with its vertex set.

    Ties go to the lexicographically smallest flag tuple.
    """
    best = None
    for e in table:
        if e is not None and (best is None or e.weight < best.weight):
            best = e
    if best is None:
        raise RuntimeError("state table has no feasible entry")
    return best.weight, entry_vertices(best)
