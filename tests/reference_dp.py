"""The 16-slot table DP over nested ``Entry`` records, kept as a test oracle.

A table here is a 16-tuple of ``Entry | None`` indexed by ``state_index``,
and each union entry holds its two child entries. ``ftmd.dp`` replaced it
with tables of entry ids into flat per-run arrays; tests check that both
return the same finite states, weights and vertex sets, and that ``solve``
picks the same optimal set on ties.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from ftmd.cotree import Complement, Cotree, Leaf, iter_nodes
from ftmd.dp import _CHOSEN, _LEFT_OUT, _LEFT_SCAN, _REVERSED, _UNION_RULES
from ftmd.dp import state_tuple
from ftmd.graph import Weight


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

Table = tuple  # 16 slots of Entry | None, indexed by state_index


def dp_leaf(vertex: int, weight: Weight) -> Table:
    """Table of a one-leaf subtree: the vertex chosen or left out."""
    table: list[Entry | None] = [None] * 16
    table[_CHOSEN] = Entry(weight, vertex, None)
    table[_LEFT_OUT] = _NOTHING
    return tuple(table)


def dp_union(t1: Table, t2: Table) -> Table:
    """Table for the disjoint union of two subtrees.

    A table comes from a single leaf exactly when it holds ``_NOTHING``:
    larger subtrees need at least two chosen vertices. That decides the
    size classes, and with them which generated rule applies.
    """
    rule = _UNION_RULES[t1[_LEFT_OUT] is _NOTHING][t2[_LEFT_OUT] is _NOTHING]
    right = [(j, e2) for j, e2 in enumerate(t2) if e2 is not None]
    table: list[Entry | None] = [None] * 16
    for i in _LEFT_SCAN:
        e1 = t1[i]
        if e1 is None:
            continue
        row = rule[i]
        for j, e2 in right:
            k = row[j]
            if k < 0:
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
    return tuple([table[i] for i in _REVERSED])


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
    return {state_tuple(i): e for i, e in enumerate(table) if e is not None}


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
