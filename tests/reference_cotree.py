"""The recursive cograph recogniser and realizer, kept as test oracles.

``build_cotree`` splits a graph into connected components, or complements a
connected one and splits that, building induced subgraphs at every level;
``realize`` builds a graph per cotree node. Both cost about n^3.2 on deep
cotrees, so ``ftmd.cotree`` replaced them; tests check that the old and the
new functions return the same trees and graphs. ``find_induced_p4`` is the
brute-force non-cograph certificate that recognition is checked against.

``random_cotree`` and ``format_cotree`` are the generator and the writer
that ``ftmd.cotree`` replaced with faster ones: the generator drew each split
with ``Random.randint``, and the writer walked the tree top down, left to
right, over the leaf counts of ``_leaf_counts``. Tests check that the new
ones give the same trees and the same text.

``parse_cotree`` is the token loop that ``ftmd.parse_cotree`` ran on text
its byte checks refused, parsing the whole text again: one step per token,
testing the "multiple top-level" rule after each. ``ftmd.parse_cotree``
now reads only a refused slice token by token, feeding the same loop as
the byte-checked slices; tests check that it gives this function's tree or
message on any text.
"""

import random
from array import array
from itertools import combinations

from ftmd.cotree import (
    COMPLEMENTED,
    LEAF,
    UNION,
    Complement,
    Cotree,
    EmptyGraphError,
    Leaf,
    NotCographError,
    _from_arrays,
    _leaf_counts,
    _slices,
    complement_node,
    flat,
    iter_nodes,
    union_node,
)
from ftmd.graph import Graph, connected_components, disjoint_union
from strategies import complement, induced_subgraph

# Witness extraction enumerates 4-subsets of the failing subgraph; beyond
# this size the error is raised without a witness.
_WITNESS_SEARCH_LIMIT = 64


def find_induced_p4(g: Graph) -> tuple[int, int, int, int] | None:
    """Brute-force search for an induced 4-vertex path, in path order."""
    for quad in combinations(range(g.n), 4):
        quad_set = frozenset(quad)
        degs = {v: len(g.adj[v] & quad_set) for v in quad}
        if sorted(degs.values()) != [1, 1, 2, 2]:
            continue
        # Degree multiset (1,1,2,2) on four vertices forces a path.
        start = next(v for v in quad if degs[v] == 1)
        path = [start]
        prev = None
        while len(path) < 4:
            cur = path[-1]
            nxt = next(x for x in g.adj[cur] & quad_set if x != prev)
            prev = cur
            path.append(nxt)
        return tuple(path)
    return None


def build_cotree(g: Graph) -> Cotree:
    """Decompose a graph into a normalized cotree.

    A single vertex is a leaf. A disconnected graph is the left-deep union
    chain of its components, taken in ascending order of smallest vertex id.
    A connected graph with two or more vertices is the complement of the
    cotree of its complement graph; if that complement is also connected the
    graph is not a cograph.
    """
    if g.n == 0:
        raise EmptyGraphError("cannot build a cotree for the empty graph")

    # Plan entries are created parents-first, so assembling in reverse order
    # sees every child before its parent.
    plan: list[tuple] = []
    tasks: list[tuple[Graph, list[int], int]] = []

    def new_task(graph: Graph, ids: list[int]) -> int:
        slot = len(plan)
        plan.append(())
        tasks.append((graph, ids, slot))
        return slot

    root_slot = new_task(g, list(range(g.n)))
    while tasks:
        graph, ids, slot = tasks.pop()
        if graph.n == 1:
            plan[slot] = ("leaf", ids[0])
            continue
        components = connected_components(graph)
        if len(components) > 1:
            child_slots = []
            for comp in components:
                sub, old_to_new = induced_subgraph(graph, comp)
                sub_ids = [0] * len(comp)
                for old, new in old_to_new.items():
                    sub_ids[new] = ids[old]
                child_slots.append(new_task(sub, sub_ids))
            plan[slot] = ("union", child_slots)
        else:
            comp_graph = complement(graph)
            if len(connected_components(comp_graph)) == 1:
                witness = None
                if graph.n <= _WITNESS_SEARCH_LIMIT:
                    local = find_induced_p4(graph)
                    if local is not None:
                        witness = tuple(ids[v] for v in local)
                raise NotCographError(witness)
            plan[slot] = ("comp", new_task(comp_graph, ids))

    built: list[Cotree | None] = [None] * len(plan)
    for i in range(len(plan) - 1, -1, -1):
        kind = plan[i][0]
        if kind == "leaf":
            built[i] = Leaf(plan[i][1])
        elif kind == "comp":
            built[i] = complement_node(built[plan[i][1]])
        else:
            children = [built[j] for j in plan[i][1]]
            acc = children[0]
            for nxt in children[1:]:
                acc = union_node(acc, nxt)
            built[i] = acc
    result = built[root_slot]
    assert result is not None
    return result


def realize(t: Cotree) -> Graph:
    """Graph described by the cotree.

    A leaf is a single vertex, a union node the disjoint union of its
    children, a complement node the graph complement of its child. Leaf
    labels must form exactly ``0 .. n-1``; vertex ``v`` of the result is the
    leaf labelled ``v``.
    """
    values: list[tuple[Graph, list[int]]] = []
    for node in iter_nodes(t):
        if isinstance(node, Leaf):
            values.append((Graph(1, (frozenset(),)), [node.vertex]))
        elif isinstance(node, Complement):
            graph, labels = values.pop()
            values.append((complement(graph), labels))
        else:
            g2, l2 = values.pop()
            g1, l1 = values.pop()
            values.append((disjoint_union(g1, g2), l1 + l2))
    graph, labels = values[0]
    n = graph.n
    if sorted(labels) != list(range(n)):
        raise ValueError("cotree leaves must be labelled 0 .. n-1 exactly once")
    adj: list[frozenset[int]] = [frozenset()] * n
    for i in range(n):
        adj[labels[i]] = frozenset(labels[j] for j in graph.adj[i])
    return Graph(n, tuple(adj))


def random_cotree(n: int, seed: int) -> Cotree:
    """``ftmd.random_cotree`` as it drew its splits with ``randint``."""
    if n < 1:
        raise ValueError("a cotree needs at least one leaf")
    rng = random.Random(seed)
    randint, draw = rng.randint, rng.random
    kinds = bytearray()
    todo = [n]
    while todo:
        size = todo.pop()
        if size < 0:
            kinds.append(-size)
            continue
        while size > 1:
            split = randint(1, size - 1)
            todo.append(-(UNION | COMPLEMENTED) if draw() < 0.5 else -UNION)
            todo.append(size - split)
            size = split
        kinds.append(LEAF)
    return _from_arrays(kinds, array("i", range(n)))


def format_cotree(t: Cotree) -> str:
    """``ftmd.format_cotree`` as it wrote the tree top down, left to right."""
    kinds, labels = flat(t)
    sizes = _leaf_counts(kinds)
    parts: list[str] = []
    leaf = 0
    stack = [len(kinds) - 1]  # node positions, and -1 for a ")"
    while stack:
        pos = stack.pop()
        if pos < 0:
            parts.append(")")
            continue
        kind = kinds[pos]
        if kind & COMPLEMENTED:
            parts.append("(C")
            stack.append(-1)
        if kind & UNION:
            parts.append("(U")
            stack += (-1, pos - 1, pos - 2 * sizes[pos - 1])
        else:
            parts.append(f"L{labels[leaf]}")
            leaf += 1
    return " ".join(parts).replace(" )", ")")


def parse_cotree(text: str) -> Cotree:
    """``ftmd.parse_cotree`` as it read text token by token. An opener
    is one token, ``(U`` or ``(C``, unless space follows the ``(``; then
    the operator is the next token of the same slice, since the next slice
    starts with a ``)``, which is no operator either."""
    kinds = bytearray()
    labels = array("i")
    stack: list[int] = []
    done = 0
    for piece in _slices(text):
        tokens = iter(piece.replace("(", " (").replace(")", " ) ").split())
        for tok in tokens:
            if tok == ")":
                if not stack:
                    raise ValueError("unbalanced ')'")
                opened = stack.pop()
                if opened >= 0:
                    if done - opened != 2:
                        raise ValueError("U takes exactly two subtrees")
                    kinds.append(UNION)
                    done -= 1
                else:
                    if done - ~opened != 1:
                        raise ValueError("C takes exactly one subtree")
                    kinds[-1] ^= COMPLEMENTED
            elif tok[0] == "(":
                if tok == "(":
                    tok += next(tokens, "")
                if tok == "(U":
                    stack.append(done)
                elif tok == "(C":
                    stack.append(~done)
                else:
                    raise ValueError("expected U or C after '('")
                continue
            elif tok == "U" or tok == "C":
                raise ValueError(f"operator {tok!r} outside parentheses")
            else:
                digits = tok[1:]
                if tok[0] != "L" or not (digits.isascii() and digits.isdecimal()):
                    raise ValueError(f"bad token {tok!r}")
                try:
                    labels.append(int(digits))
                except (OverflowError, ValueError):  # ValueError: int()'s digit limit
                    raise ValueError(f"leaf label {tok!r} out of range") from None
                kinds.append(LEAF)
                done += 1
            if done > 1 and not stack:
                raise ValueError("multiple top-level cotree terms")
    if stack:
        raise ValueError("unbalanced '('")
    if not kinds:  # a text with any token has a kind or an error by now
        raise ValueError("empty cotree text")
    return _from_arrays(kinds, labels)
