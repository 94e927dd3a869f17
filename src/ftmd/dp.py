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
reverses each state, so it only relabels the shape. The shapes are a
constant table, built at import from the ten ascending tuples that unions
yield, each followed by its reversed twin, and a complement node costs one
list lookup and allocates nothing. 20 shapes are reachable, the leaf's
included. The plan of a union of two shapes (the union's shape, and per
union state its candidate pairs in tie order) is worked out on first use
into its cell of a fixed grid indexed by the two shape ids. Cells fill
without a lock: filling one twice stores the same plan. So a union node
costs two list lookups and a loop over its candidates; a state with one
candidate skips the comparison, and a plan with one state and one candidate
skips the loop. An untraced run first drops the leaves' complement flags
and folds the kinds with ``cotree.fold_leaves``, the encoding that
``format_cotree`` reads too, so that a union of two leaves, whose table has
one entry with both leaves chosen, and a union with a leaf as its right
child each take one step of the loop. The solution is read off the
cheapest root entry: one sweep down the entry ids marks the entries under
it, as every union entry's two entries have smaller ids, and the marked
leaves are the chosen vertices.

On a connected cograph the twice-separated sets are exactly the
fault-tolerant resolving sets, so the cheapest finite entry at the root is
the weighted fault-tolerant metric dimension. ``solve_cotree`` solves a
disconnected graph per component; isolated vertices all join the solution
when there are at least two of them, and a single isolated vertex never
does. ``solve`` builds the cotree of a graph and hands it to
``solve_cotree``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import compress
from typing import NamedTuple, Sequence

from .cotree import COMPLEMENTED, LEAF, LEAF_PAIR, LEAF_RIGHT, UNION, Cotree, build_cotree
from .cotree import flat_checked, fold_leaves, iter_nodes, leaf_labels, root_components
from .graph import Graph, Weight, check_weights
from .resolving import certify


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

    def __repr__(self) -> str:
        return f"Table(states={self.states}, ids={self.ids}, weights={self.weights})"


class TableEntry(NamedTuple):
    """One finite entry of a table, as ``finite_states`` hands it out."""

    id: int
    weight: Weight
    left: array
    right: array

    def __repr__(self) -> str:
        return f"TableEntry(id={self.id}, weight={self.weight!r})"


# A shape is a table's finite states in the table's order, with a single
# leaf's table apart: shape ``_LEAF_SHAPE``, its own complement. A union
# lists its states in ascending order, and from the leaf's table on unions
# yield exactly the ten tuples below. Each is followed by its reversed twin,
# the same table complemented, unless it reads the same reversed
# (``dict.fromkeys`` keeps one), and ``_complement_shapes`` links the two.
# Only unions look shapes up by their states, so the leaf's tuple is not in
# ``_shape_ids``. A cell of ``_union_plans`` is None until the plan of its
# two shapes is first used. A solve fills few of the 400 plans: of the
# seed-1 benchmark instances, 4 for the deep-chain one, 24 for the first
# verify-mid one and 270 for the first cotree-input one. Filling all 400
# costs 6.4 to 6.9 ms per process (4.8 to 8.3 ms in three later processes,
# 2-vCPU Xeon), which deep-chain and verify-mid would pay for plans they
# almost never use, so the grid stays lazy.
_shape_states: list[tuple[int, ...]] = [_LEAF_STATES] + [
    shape
    for states in (
        (4,), (4, 10), (0,), (4, 6, 10), (4, 8),
        (0, 4), (4, 6, 9, 10), (4, 8, 10), (0, 4, 8), (4, 6, 8, 9, 10),
    )
    for shape in dict.fromkeys((states, tuple(_REVERSED[i] for i in states)))
]
_shape_ids = {states: shape for shape, states in enumerate(_shape_states)}
_complement_shapes = [_shape_ids[tuple(_REVERSED[i] for i in s)] for s in _shape_states]
del _shape_ids[_LEAF_STATES]
_union_plans: list[list] = [[None] * len(_shape_states) for _ in _shape_states]


def _union_plan(shape1: int, shape2: int) -> tuple:
    """The union of two shapes: its shape, for each of its finite states in
    ascending order the candidate pairs that give it, and the positions of
    the one pair when there is one state with one candidate, else None.

    A live table is one list ``[shape, id, weight, id, weight, ...]`` in
    the order of its shape's states. A group of candidates is
    ``(x, y, rest)``: the positions of the first pair's ids in the two
    lists, and the remaining pairs' positions. Pairs are listed by state,
    side 1 in ``_LEFT_SCAN`` order and side 2 ascending, whatever the
    positions, so that the first of equally cheap candidates wins. Threads
    need no lock: filling a plan twice gives the same plan, and storing it
    is one list store.
    """
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
    single = groups[0][:2] if len(groups) == 1 and not groups[0][2] else None
    plan = _union_plans[shape1][shape2] = (_shape_ids[states], groups, single)
    return plan


# ``dp_run`` reads the kinds folded by ``cotree.fold_leaves``, once leaf
# flags are dropped: a single leaf's table reads the same complemented.
_UNFLAGGED_LEAVES = bytes([LEAF, UNION, LEAF, UNION | COMPLEMENTED]) + bytes(range(4, 256))
_ANY_UNION = UNION | LEAF_RIGHT
# A union of two leaves has one finite state, with both leaves chosen: its
# shape, and its complement's, by code.
_PAIR_SHAPES = [0] * 8
_PAIR_SHAPES[LEAF_PAIR] = _shape_ids[(_union_state(_CHOSEN, 1, _CHOSEN, 1),)]
_PAIR_SHAPES[LEAF_PAIR | COMPLEMENTED] = _complement_shapes[_PAIR_SHAPES[LEAF_PAIR]]


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
    ``range(len(weights))``, as ``cotree.flat_checked`` checks them: not
    again on a tree, or a part of one, whose labels have passed against as
    many weights, so a solve checks its labels once.

    Without a trace the kinds lose their leaf flags and are folded by
    ``cotree.fold_leaves``, so that a union of two leaves is one step,
    which adds its one entry straight away, and a union whose right child
    is a leaf is one step too, which makes the leaf's table itself. A union
    whose plan has one state with one candidate adds that entry without the
    candidate loop. Both paths create the same entries in the same order.

    The root table's cheapest entry is the fault-tolerant optimum only for
    a connected tree. On a disconnected tree it is the cheapest set that
    separates every pair twice in the neighbourhood sense, which can cost
    more; ``solve_cotree`` solves such a tree per component.
    """
    kinds, labels = flat_checked(t, len(weights))
    left = array("i", [-1])
    left += labels
    right = array("i", [-1]) * len(left)
    add_left, add_right = left.append, right.append
    union_plans, complement_shapes = _union_plans, _complement_shapes
    leaf_weights = map(weights.__getitem__, labels)
    if trace is None:
        nodes = None
        kinds = fold_leaves(kinds.translate(_UNFLAGGED_LEAVES))
    else:
        nodes = iter_nodes(t)
    stack: list[list] = []
    push, pop = stack.append, stack.pop
    leaf = _EMPTY  # the last leaf entry
    entry = len(left)  # the next union entry
    for kind in kinds:
        if kind & LEAF_PAIR:
            add_left(leaf + 1)
            leaf += 2
            add_right(leaf)
            push([_PAIR_SHAPES[kind], entry, next(leaf_weights) + next(leaf_weights)])
            entry += 1
            continue
        if kind & _ANY_UNION:
            if kind & UNION:
                t2 = pop()
            else:
                leaf += 1
                t2 = [_LEAF_SHAPE, leaf, next(leaf_weights), _EMPTY, 0]
            t1 = pop()
            shape, groups, single = union_plans[t1[0]][t2[0]] or _union_plan(t1[0], t2[0])
            if single:
                x, y = single
                add_left(t1[x])
                add_right(t2[y])
                live = [shape, entry, t1[x + 1] + t2[y + 1]]
                entry += 1
            else:
                live = [shape]
                for x, y, rest in groups:
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
    back-pointers.

    Entries 1 .. k are the run's leaves and every union entry's two entries
    have smaller ids, so one sweep from the entry down to k + 1 marks every
    entry under it, and the chosen vertices are the labels of the marked
    leaves. The sweep is linear in the entries the run made up to this one.
    """
    left, right = entry.left, entry.right
    # The empty set and the leaves hold -1 in ``right``, each union entry
    # an id: that test is false from k + 1 on, which is all bisect needs.
    leaves = bisect_left(right, 0) - 1
    marks = bytearray(len(left))
    marks[entry.id] = 1
    for e in range(entry.id, leaves, -1):
        if marks[e]:
            marks[left[e]] = marks[right[e]] = 1
    return frozenset(compress(memoryview(left)[1 : leaves + 1], memoryview(marks)[1 : leaves + 1]))


def finite_states(table: Table) -> dict[tuple[int, int, int, int], TableEntry]:
    """Finite table entries keyed by their flag tuple, in ascending order
    (for tests and display)."""
    return {
        state_tuple(i): TableEntry(e, w, table.left, table.right)
        for i, e, w in sorted(zip(table.states, table.ids, table.weights))
    }


def extract_connected_min(table: Table) -> tuple[Weight, frozenset[int]]:
    """Cheapest finite entry of a root table, with its vertex set.

    Ties go to the lexicographically smallest flag tuple. This is the
    weighted fault-tolerant metric dimension only when the table's tree is
    connected; on a disconnected tree it is the stricter twice-separated
    optimum, so use ``solve_cotree`` there.
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

        ``resolving.certify(self.tree, g, self.vertices) is None``: the
        verdict of ``ftmd solve --verify`` and ``ftmd check GRAPH ft``,
        which uses the cotree but not the tables, in O(n + m). Returns False
        when the tree does not realise ``g``, even if the set would be
        fault-tolerant for ``g``.
        """
        return certify(self.tree, g, self.vertices) is None


def solve(g: Graph, weights: Sequence[Weight] | None = None) -> Solution:
    """Minimum-weight fault-tolerant resolving set of a vertex-weighted cograph.

    Builds one cotree for the whole graph and solves it with
    ``solve_cotree``, which checks the weights. Raises ``NotCographError``
    if the graph is not a cograph and ``EmptyGraphError`` for the empty
    graph, both before the weights are looked at.
    """
    return solve_cotree(build_cotree(g), weights)


def solve_cotree(tree: Cotree, weights: Sequence[Weight] | None = None) -> Solution:
    """Minimum-weight fault-tolerant resolving set of the cograph that
    ``tree`` realizes, whose n leaf labels must be exactly ``0 .. n-1``.

    The subtrees under the root's union chain, left to right, are the
    connected components; for a tree from ``build_cotree`` they come in
    ascending order of their smallest vertex. A component with one leaf is
    an isolated vertex. Components with at least two vertices are solved
    independently by the dynamic program. All isolated vertices are
    included when there are at least two of them; a single isolated vertex
    is excluded (the other components already separate it twice, and with
    no other vertices the condition is vacuous). Raises ``ValueError`` when
    the labels are not ``0 .. n-1`` or the weights are not n valid weights.
    The labels are checked once per solve, on the whole tree, with
    ``cotree.flat_checked``, which records the pass on the tree: neither
    ``dp_run`` on each component nor a later ``certify`` checks them again.

    Weights are summed and compared in their own arithmetic. ``int`` and
    ``fractions.Fraction`` weights (the CLI reads decimals as fractions)
    are exact; callers who pass floats get float arithmetic, where the
    summation order can change the last digits and, at large magnitudes,
    which of two nearly equal sets is cheaper.
    """
    w = check_weights(tree.leaves, weights)
    flat_checked(tree, len(w))
    parts = root_components(tree)
    include_isolated = sum(part.leaves == 1 for part in parts) >= 2

    outcomes = []
    for part in parts:
        members = tuple(sorted(leaf_labels(part)))
        if len(members) > 1:
            weight, chosen = extract_connected_min(dp_run(part, w))
            outcomes.append(ComponentOutcome(members, tuple(sorted(chosen)), weight, "solved"))
        elif include_isolated:
            outcomes.append(ComponentOutcome(members, members, w[members[0]], "isolated-included"))
        else:
            outcomes.append(ComponentOutcome(members, (), 0, "isolated-excluded"))

    total: Weight = sum(o.weight for o in outcomes)
    vertices = tuple(sorted(v for o in outcomes for v in o.chosen))
    return Solution(total, vertices, tuple(outcomes), tree)
