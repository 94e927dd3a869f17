"""Minimum-weight fault-tolerant resolving sets on cographs.

The solver runs a 16-state dynamic program bottom-up over the cotree. For a
subtree realizing graph ``H``, entry ``(a, b, c, d)`` of its state table
holds a cheapest vertex set ``R`` that separates every vertex pair of ``H``
at least twice in the neighbourhood sense (``resolving.is_2nr``) and whose
existence flags match the index:

  ``a``: some vertex has no member of ``R`` in its closed neighbourhood
  ``b``: some vertex has exactly one member of ``R`` in its closed
         neighbourhood
  ``c``: some vertex is adjacent to all but one member of ``R``
  ``d``: some vertex is adjacent to every member of ``R``

``a``/``b`` count the vertex itself when it belongs to ``R`` (closed
neighbourhood); ``c``/``d`` do not (open neighbourhood). This split makes
complementation exact: complementing the graph turns 0-vertices into
vertices adjacent to all of ``R`` and 1-vertices into vertices adjacent to
all but one member, so the whole table is just permuted by reversing the
index. Entries with ``a = b = 1`` are permanently infeasible: a vertex
with no chosen neighbour and a vertex with one chosen neighbour are
separated at most once.

A leaf ``v`` has a table with two entries: choosing ``v`` gives state
(0,1,1,0) at weight ``w_v``, leaving it out gives (1,0,0,1) at weight 0.
Both indices read the same reversed, so a complemented leaf keeps its table.

A single rule combines the tables of a union node's two sides. Besides the
flags it needs each side's size class ``s = min(|R|, 2)``: a leaf's two
states have ``s = 1`` and ``s = 0``, and every entry of a subtree with two
or more leaves has ``s = 2``, because a pair of vertices is separated twice
only by two chosen vertices. In the union:

  - ``a`` and ``b`` are the OR of the two sides;
  - a pair with one vertex on each side is separated exactly by the chosen
    vertices in their two closed neighbourhoods, so a 0-vertex on one side
    excludes 0- and 1-vertices on the other;
  - a side's ``c`` and ``d`` survive unchanged when the other side has
    ``s = 0``, its ``d`` becomes ``c`` when the other side has ``s = 1``,
    and both are dropped when the other side has ``s = 2``.

Tables are flat. Every entry one ``dp_run`` creates lives in its
``EntryPool``, three parallel arrays indexed by entry id: the entry's total
weight and two back-pointers (the ids of the two side entries it combines,
or the vertex of a chosen leaf). A ``Table`` is the tuple of a subtree's
finite states in ascending order plus the tuple of their entry ids; at
most six of the 16 states are ever finite. Which pairs of side states a
union combines, and into which state, depends only on the two finite-state
sets and on whether each side is a single leaf. Only 20 state sets are
reachable, so these feasible pairs are worked out once per combination and
memoised, and a union loops over them alone. A complement applies a
memoised reversal to the ids. The solution is read off the cheapest root
entry by following back-pointers.

On a connected cograph the twice-separated sets are exactly the
fault-tolerant resolving sets, so the cheapest finite entry at the root is
the weighted fault-tolerant metric dimension. Disconnected graphs are
solved per component; isolated vertices all join the solution when there
are at least two of them, and a single isolated vertex never does.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple, Sequence

from .cotree import COMPLEMENTED, UNION, Cotree, Leaf, build_cotree, flat
from .cotree import EmptyGraphError, iter_nodes, leaf_labels, root_components
from .graph import Graph, Weight, check_weights
from .resolving import weak_pair


def state_index(a: int, b: int, c: int, d: int) -> int:
    return a * 8 + b * 4 + c * 2 + d


def state_tuple(i: int) -> tuple[int, int, int, int]:
    return (i >> 3 & 1, i >> 2 & 1, i >> 1 & 1, i & 1)


# Reversing the four flag bits, applied when a subtree is complemented.
_REVERSED = tuple(state_index(*reversed(state_tuple(i))) for i in range(16))

_CHOSEN = state_index(0, 1, 1, 0)
_LEFT_OUT = state_index(1, 0, 0, 1)


def _union_state(i: int, s1: int, j: int, s2: int) -> int:
    """State of a union of side-1 state ``i`` and side-2 state ``j`` with
    size classes ``s1`` and ``s2``; -1 when the union is infeasible."""
    a1, b1, c1, d1 = state_tuple(i)
    a2, b2, c2, d2 = state_tuple(j)
    a, b = a1 | a2, b1 | b2
    # Two 0-vertices, or a 0- and a 1-vertex, are separated at most once.
    if a1 and a2 or a and b:
        return -1
    # Each side's (c, d) as the other side's size class 0, 1 or 2 leaves them.
    c1, d1 = ((c1, d1), (d1, 0), (0, 0))[s2]
    c2, d2 = ((c2, d2), (d2, 0), (0, 0))[s1]
    return state_index(a, b, c1 | c2, d1 | d2)


def _union_rule(leaf1: bool, leaf2: bool) -> tuple[tuple[int, ...], ...]:
    """``rule[i][j]`` for two sides that are (or are not) single leaves."""

    def size(i: int, leaf: bool) -> int:
        return (1 if i == _CHOSEN else 0) if leaf else 2

    return tuple(
        tuple(_union_state(i, size(i, leaf1), j, size(j, leaf2)) for j in range(16))
        for i in range(16)
    )


# Indexed by whether the left side, then the right side, is a single leaf.
_UNION_RULES = tuple(
    tuple(_union_rule(leaf1, leaf2) for leaf2 in (False, True))
    for leaf1 in (False, True)
)

# Ties between equally cheap pairs go to the first pair in this scan: the
# left side's states with a 0-vertex first, then ascending indices on both
# sides. This fixes which of several optimal sets is returned.
_LEFT_SCAN = tuple(range(8, 12)) + tuple(range(8))

# Entry 0 of every pool is the empty set: only a single leaf's table holds
# it, because every entry of a larger subtree chooses two or more vertices.
_EMPTY = 0
_LEAF_STATES = (_CHOSEN, _LEFT_OUT)


class EntryPool(NamedTuple):
    """The entries of one ``dp_run``, indexed by entry id.

    ``weight[e]`` is the total weight of entry ``e``. A union entry holds
    the ids of one entry of each side in ``left[e]`` and ``right[e]``; a
    chosen leaf holds its vertex in ``left[e]`` and -1 in ``right[e]``; the
    empty set ``_EMPTY`` holds -1 in both.
    """

    weight: list[Weight]
    left: array
    right: array


class Table(NamedTuple):
    """A subtree's finite states in ascending order, the id of each state's
    entry, and the pool that holds the entries."""

    states: tuple[int, ...]
    ids: tuple[int, ...]
    pool: EntryPool


class TableEntry(NamedTuple):
    """One finite entry of a table, as ``finite_states`` hands it out."""

    pool: EntryPool
    id: int

    @property
    def weight(self) -> Weight:
        return self.pool.weight[self.id]


Plan = tuple[tuple[int, ...], tuple[tuple[tuple[int, int], ...], ...]]


# Plans are pure functions of their arguments, memoised on first use. Only
# 20 finite-state sets are reachable from leaf tables, so the caches hold at
# most a few hundred entries.
@cache
def _union_plan(
    states1: tuple[int, ...], leaf1: bool, states2: tuple[int, ...], leaf2: bool
) -> Plan:
    """The feasible pairs of two tables' finite states, grouped by the
    union state they give.

    Returns the union's finite states in ascending order and, for each, the
    positions ``(p1, p2)`` of its candidate pairs in ``states1`` and
    ``states2`` in ``_LEFT_SCAN`` order, so that the first of equally
    cheap candidates wins.
    """
    rule = _UNION_RULES[leaf1][leaf2]
    candidates: dict[int, list[tuple[int, int]]] = {}
    for i in _LEFT_SCAN:
        if i not in states1:
            continue
        p1 = states1.index(i)
        for p2, j in enumerate(states2):
            k = rule[i][j]
            if k >= 0:
                candidates.setdefault(k, []).append((p1, p2))
    states = tuple(sorted(candidates))
    return states, tuple(tuple(candidates[k]) for k in states)


@cache
def _complement_plan(states: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The reversed states in ascending order and, for each, the position in
    ``states`` of the state it came from."""
    reversed_states = tuple(sorted(_REVERSED[i] for i in states))
    return reversed_states, tuple(states.index(_REVERSED[k]) for k in reversed_states)


def dp_run(
    t: Cotree,
    weights: Sequence[Weight],
    trace: list[tuple[Cotree, Table]] | None = None,
) -> Table:
    """Evaluate the dynamic program bottom-up over the cotree.

    One pass over the tree's post-order kinds: a leaf adds one entry to the
    pool, a union one per finite state of its table, a complement none.
    When ``trace`` is a list, every node's table is appended to it in
    post-order, with a view of the node. Raises ``ValueError`` when leaf
    labels repeat or fall outside ``range(len(weights))``.
    """
    kinds, labels = flat(t)
    if len(set(labels)) < len(labels):
        raise ValueError("cotree leaf labels repeat")
    if min(labels) < 0 or max(labels) >= len(weights):
        raise ValueError(f"cotree leaf labels must lie in 0 .. {len(weights) - 1}")
    pool = EntryPool([0], array("i", [-1]), array("i", [-1]))
    weight, left, right = pool
    nodes = None if trace is None else iter_nodes(t)
    values: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    leaf = 0
    for kind in kinds:
        if kind & UNION:
            states2, ids2 = values.pop()
            states1, ids1 = values.pop()
            states, groups = _union_plan(states1, _EMPTY in ids1, states2, _EMPTY in ids2)
            ids = []
            for group in groups:
                best = None
                for p1, p2 in group:
                    e1 = ids1[p1]
                    e2 = ids2[p2]
                    w = weight[e1] + weight[e2]
                    if best is None or w < best:
                        best, l, r = w, e1, e2
                ids.append(len(weight))
                weight.append(best)
                left.append(l)
                right.append(r)
            value = (states, tuple(ids))
        else:
            v = labels[leaf]
            leaf += 1
            value = (_LEAF_STATES, (len(weight), _EMPTY))
            weight.append(weights[v])
            left.append(v)
            right.append(-1)
        if nodes is not None:
            trace.append((next(nodes), Table(*value, pool)))
        if kind & COMPLEMENTED:
            states, ids = value
            states, order = _complement_plan(states)
            value = (states, tuple([ids[p] for p in order]))
            if nodes is not None:
                trace.append((next(nodes), Table(*value, pool)))
        values.append(value)
    return Table(*values[0], pool)


def entry_vertices(entry: TableEntry) -> frozenset[int]:
    """Materialize the vertex set behind an entry by following its
    back-pointers; linear in the output."""
    left, right = entry.pool.left, entry.pool.right
    out: list[int] = []
    stack = [entry.id]
    while stack:
        e = stack.pop()
        if right[e] >= 0:
            stack.append(left[e])
            stack.append(right[e])
        elif left[e] >= 0:
            out.append(left[e])
    return frozenset(out)


def finite_states(table: Table) -> dict[tuple[int, int, int, int], TableEntry]:
    """Finite table entries keyed by their flag tuple (for tests and display)."""
    return {
        state_tuple(i): TableEntry(table.pool, e) for i, e in zip(table.states, table.ids)
    }


def extract_connected_min(table: Table) -> tuple[Weight, frozenset[int]]:
    """Cheapest finite entry of a root table, with its vertex set.

    Ties go to the lexicographically smallest flag tuple.
    """
    weight = table.pool.weight
    best = -1
    for e in table.ids:
        if best < 0 or weight[e] < weight[best]:
            best = e
    if best < 0:
        raise RuntimeError("state table has no feasible entry")
    return weight[best], entry_vertices(TableEntry(table.pool, best))


@dataclass(frozen=True)
class ComponentOutcome:
    """How one connected component contributed to the solution.

    ``kind`` is ``"solved"`` for components handled by the dynamic program,
    or ``"isolated-included"`` / ``"isolated-excluded"`` for single-vertex
    components.
    """

    vertices: tuple[int, ...]
    chosen: tuple[int, ...]
    weight: Weight
    kind: str


@dataclass(frozen=True)
class Solution:
    """Total weight, chosen vertex set, the per-component breakdown and the
    cotree of the whole graph that the solver ran on."""

    weight: Weight
    vertices: tuple[int, ...]
    components: tuple[ComponentOutcome, ...]
    tree: Cotree = field(repr=False)

    def verify(self, g: Graph) -> bool:
        """Re-check the certificate: the chosen set is fault-tolerant for ``g``.

        Runs ``resolving.weak_pair``, which uses neither the cotree nor the
        tables: O(n^2) operations on n-bit masks for a cograph, and exact on
        any graph.
        """
        return weak_pair(g, self.vertices) is None


def solve(g: Graph, weights: Sequence[Weight] | None = None) -> Solution:
    """Minimum-weight fault-tolerant resolving set of a vertex-weighted cograph.

    One cotree is built for the whole graph. The subtrees under its root's
    union chain, left to right, are the connected components in ascending
    order of their smallest vertex; the leaves among them are the isolated
    vertices. Components with at least two vertices are solved
    independently by the dynamic program. All isolated vertices are
    included when there are at least two of them; a single isolated vertex
    is excluded (the other components already separate it twice, and with
    no other vertices the condition is vacuous). Raises ``NotCographError``
    if the graph is not a cograph and ``EmptyGraphError`` for the empty
    graph.

    Weights are summed and compared in their own arithmetic. ``int`` and
    ``fractions.Fraction`` weights (the CLI reads decimals as fractions)
    are exact; callers who pass floats get float arithmetic, where the
    summation order can change the last digits and, at large magnitudes,
    which of two nearly equal sets is cheaper.
    """
    if g.n == 0:
        raise EmptyGraphError("the empty graph has no solution")
    w = check_weights(g, weights)
    tree = build_cotree(g)
    parts = root_components(tree)
    include_isolated = sum(isinstance(part, Leaf) for part in parts) >= 2

    outcomes = []
    for part in parts:
        if isinstance(part, Leaf):
            v = part.vertex
            if include_isolated:
                outcomes.append(ComponentOutcome((v,), (v,), w[v], "isolated-included"))
            else:
                outcomes.append(ComponentOutcome((v,), (), 0, "isolated-excluded"))
            continue
        weight, chosen = extract_connected_min(dp_run(part, w))
        members = tuple(sorted(leaf_labels(part)))
        outcomes.append(ComponentOutcome(members, tuple(sorted(chosen)), weight, "solved"))

    total: Weight = sum(o.weight for o in outcomes)
    vertices = tuple(sorted(v for o in outcomes for v in o.chosen))
    return Solution(total, vertices, tuple(outcomes), tree)
