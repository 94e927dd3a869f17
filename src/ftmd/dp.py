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
all but one member, so every entry keeps its set and weight and only its
state's index is reversed. Entries with ``a = b = 1`` are permanently
infeasible: a vertex with no chosen neighbour and a vertex with one chosen
neighbour are separated at most once.

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

Tables are flat. Every entry one ``dp_run`` creates has an id into two
parallel arrays of back-pointers, ``left`` and ``right``: the ids of the
two side entries a union entry combines, or the vertex of a chosen leaf.
Entry 0 is the empty set and entries 1 .. k are the tree's k leaves, left
to right, filled in bulk from the leaf labels, so a leaf adds no entry.
Weights travel with the tables: each live table is one list
``[shape, id, weight, id, weight, ...]``, and a finished ``Table`` keeps its
finite states, their entry ids and their total weights as tuples in the
same order, beside the two arrays. At most six of the 16 states are ever
finite.

Which pairs of side states a union combines, and into which state, depends
only on the two tables' finite states and on whether each side is a single
leaf. A shape is a small integer id for one table's finite states in the
order the table keeps them, with a single leaf's table as shape 0. A union
lists its states in ascending order. A complement keeps the order and
reverses each state, so it only relabels the shape: each shape is
registered together with its reversed twin, and a complement node costs
one list lookup and allocates nothing. 20 shapes are reachable, the leaf's
included. The plan of a union of two shapes (the union's shape, and per
union state its candidate pairs in tie order) is worked out on first use
and kept in lists indexed by shape id, so a union node costs two list
lookups and a loop over its candidates; a state with one candidate skips
the comparison. The solution is read off the cheapest root entry by
following back-pointers.

On a connected cograph the twice-separated sets are exactly the
fault-tolerant resolving sets, so the cheapest finite entry at the root is
the weighted fault-tolerant metric dimension. Disconnected graphs are
solved per component; isolated vertices all join the solution when there
are at least two of them, and a single isolated vertex never does.
"""

from __future__ import annotations

from _thread import allocate_lock
from array import array
from typing import NamedTuple, Sequence

from .cotree import COMPLEMENTED, UNION, Cotree, Leaf, build_cotree, check_labels, flat
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


# Ties between equally cheap pairs go to the first pair in this scan: the
# left side's states with a 0-vertex first, then ascending indices on both
# sides. This fixes which of several optimal sets is returned.
_LEFT_SCAN = tuple(range(8, 12)) + tuple(range(8))

# Entry 0 of every run is the empty set: only a single leaf's table holds
# it, because every entry of a larger subtree chooses two or more vertices.
# Entries 1 .. k are the k leaves of the tree, left to right, each chosen.
_EMPTY = 0
_LEAF_STATES = (_CHOSEN, _LEFT_OUT)
_LEAF_SHAPE = 0


class Table(NamedTuple):
    """A subtree's finite states in its shape's order, each state's entry id
    and total weight, and the back-pointer arrays of the run, indexed by
    entry id.

    A union entry ``e`` holds the ids of one entry of each side in
    ``left[e]`` and ``right[e]``; a chosen leaf holds its vertex in
    ``left[e]`` and -1 in ``right[e]``; the empty set ``_EMPTY`` holds -1
    in both.
    """

    states: tuple[int, ...]
    ids: tuple[int, ...]
    weights: tuple[Weight, ...]
    left: array
    right: array


class TableEntry(NamedTuple):
    """One finite entry of a table, as ``finite_states`` hands it out."""

    id: int
    weight: Weight
    left: array
    right: array


# A shape is a table's finite states in the table's order, with a single
# leaf's table apart: shape ``_LEAF_SHAPE``, its own complement. Each new
# tuple gets the next id together with its reversed twin, and
# ``_complement_shapes`` links the two; 19 more shapes are reachable. The
# plan of a union of two shapes is filled in on first use, in lists indexed
# by shape id; the lock only guards that growth.
_shape_states: list[tuple[int, ...]] = [_LEAF_STATES]
_shape_ids: dict[tuple[int, ...], int] = {}
_complement_shapes: list[int] = [_LEAF_SHAPE]
_union_plans: list[list[tuple | None]] = [[None]]
_plans_lock = allocate_lock()


def _shape_of(states: tuple[int, ...]) -> int:
    """The id of a larger subtree's ordered finite states; call with the
    lock held."""
    shape = _shape_ids.get(states)
    if shape is None:
        shape = len(_shape_states)
        twin = tuple(_REVERSED[i] for i in states)
        new = [states] if twin == states else [states, twin]
        for s, ordered in enumerate(new, shape):
            _shape_ids[ordered] = s
        _shape_states.extend(new)
        # Twins are each other's complement; a tuple that reads the same
        # reversed is its own.
        _complement_shapes.extend(reversed(range(shape, len(_shape_states))))
        for row in _union_plans:
            row.extend([None] * len(new))
        _union_plans.extend([None] * len(_shape_states) for _ in new)
    return shape


def _union_plan(shape1: int, shape2: int) -> tuple:
    """The union of two shapes: its shape and, for each of its finite states
    in ascending order, the candidate pairs that give it.

    A live table is one list ``[shape, id, weight, id, weight, ...]`` in
    the order of its shape's states. A group of candidates is
    ``(x, y, rest)``: the positions of the first pair's ids in the two
    lists, and the remaining pairs' positions. Pairs are listed by state,
    side 1 in ``_LEFT_SCAN`` order and side 2 ascending, whatever the
    positions, so that the first of equally cheap candidates wins. Filling
    a plan twice gives the same plan.
    """
    with _plans_lock:
        states1, states2 = _shape_states[shape1], _shape_states[shape2]
        leaf1, leaf2 = shape1 == _LEAF_SHAPE, shape2 == _LEAF_SHAPE
        candidates: dict[int, list[tuple[int, int]]] = {}
        for i in _LEFT_SCAN:
            if i not in states1:
                continue
            for j in sorted(states2):
                k = _union_state(i, _size_class(i, leaf1), j, _size_class(j, leaf2))
                if k >= 0:
                    pair = (1 + 2 * states1.index(i), 1 + 2 * states2.index(j))
                    candidates.setdefault(k, []).append(pair)
        states = tuple(sorted(candidates))
        groups = tuple((*candidates[k][0], tuple(candidates[k][1:])) for k in states)
        plan = _union_plans[shape1][shape2] = (_shape_of(states), groups)
    return plan


def _size_class(i: int, leaf: bool) -> int:
    """``min(|R|, 2)`` for state ``i``'s set: a single leaf chooses itself
    or nothing, and a larger subtree always chooses two or more."""
    return (1 if i == _CHOSEN else 0) if leaf else 2


def _table(live: list, left: array, right: array) -> Table:
    states = _shape_states[live[0]]
    return Table(states, tuple(live[1::2]), tuple(live[2::2]), left, right)


def dp_run(
    t: Cotree,
    weights: Sequence[Weight],
    trace: list[tuple[Cotree, Table]] | None = None,
) -> Table:
    """Evaluate the dynamic program bottom-up over the cotree.

    One pass over the tree's post-order kinds: a leaf pushes its live
    table, a union adds one entry per finite state of its table, a
    complement only relabels its table's shape. When ``trace`` is a list,
    every node's table is appended to it in post-order, with a view of the
    node. Raises ``ValueError`` when leaf labels repeat or fall outside
    ``range(len(weights))``.
    """
    check_labels(t, len(weights))
    kinds, labels = flat(t)
    left = array("i", [-1])
    left += labels
    right = array("i", [-1]) * len(left)
    add_left, add_right = left.append, right.append
    union_plans, complement_shapes = _union_plans, _complement_shapes
    leaf_weights = map(weights.__getitem__, labels)
    nodes = None if trace is None else iter_nodes(t)
    stack: list[list] = []
    push, pop = stack.append, stack.pop
    leaf = _EMPTY  # the last leaf entry
    entry = len(left)  # the next union entry
    for kind in kinds:
        if kind & UNION:
            t2 = pop()
            t1 = pop()
            plan = union_plans[t1[0]][t2[0]] or _union_plan(t1[0], t2[0])
            live = [plan[0]]
            for x, y, rest in plan[1]:
                best = t1[x + 1] + t2[y + 1]
                e1 = t1[x]
                e2 = t2[y]
                for x, y in rest:
                    w = t1[x + 1] + t2[y + 1]
                    if w < best:
                        best = w
                        e1 = t1[x]
                        e2 = t2[y]
                add_left(e1)
                add_right(e2)
                live += (entry, best)
                entry += 1
        else:
            leaf += 1
            live = [_LEAF_SHAPE, leaf, next(leaf_weights), _EMPTY, 0]
        if nodes is not None:
            trace.append((next(nodes), _table(live, left, right)))
        if kind & COMPLEMENTED:
            live[0] = complement_shapes[live[0]]
            if nodes is not None:
                trace.append((next(nodes), _table(live, left, right)))
        push(live)
    return _table(stack[0], left, right)


def entry_vertices(entry: TableEntry) -> frozenset[int]:
    """Materialize the vertex set behind an entry by following its
    back-pointers; linear in the output. Leaf entries are read where they
    are met, never pushed."""
    left, right = entry.left, entry.right
    e = entry.id
    if right[e] < 0:  # a chosen leaf or the empty set
        return frozenset([left[e]] if e != _EMPTY else [])
    out: list[int] = []
    stack = [e]
    while stack:
        e = stack.pop()
        for side in (left[e], right[e]):
            if right[side] >= 0:
                stack.append(side)
            elif side != _EMPTY:
                out.append(left[side])
    return frozenset(out)


def finite_states(table: Table) -> dict[tuple[int, int, int, int], TableEntry]:
    """Finite table entries keyed by their flag tuple, in ascending order
    (for tests and display)."""
    return {
        state_tuple(i): TableEntry(e, w, table.left, table.right)
        for i, e, w in sorted(zip(table.states, table.ids, table.weights))
    }


def extract_connected_min(table: Table) -> tuple[Weight, frozenset[int]]:
    """Cheapest finite entry of a root table, with its vertex set.

    Ties go to the lexicographically smallest flag tuple.
    """
    best = min(zip(table.weights, table.states, table.ids), default=None)
    if best is None:
        raise RuntimeError("state table has no feasible entry")
    weight, _, e = best
    return weight, entry_vertices(TableEntry(e, weight, table.left, table.right))


class ComponentOutcome(NamedTuple):
    """How one connected component contributed to the solution.

    ``kind`` is ``"solved"`` for components handled by the dynamic program,
    or ``"isolated-included"`` / ``"isolated-excluded"`` for single-vertex
    components.
    """

    vertices: tuple[int, ...]
    chosen: tuple[int, ...]
    weight: Weight
    kind: str


class Solution(NamedTuple):
    """Total weight, chosen vertex set, the per-component breakdown and the
    cotree of the whole graph that the solver ran on (left out of ``repr``)."""

    weight: Weight
    vertices: tuple[int, ...]
    components: tuple[ComponentOutcome, ...]
    tree: Cotree

    def __repr__(self) -> str:
        return (
            f"Solution(weight={self.weight!r}, vertices={self.vertices!r}, "
            f"components={self.components!r})"
        )

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
