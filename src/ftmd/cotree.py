"""Cotrees: recognition, realization, random generation, serialization.

A cotree is a leaf / binary-union / unary-complement expression tree whose
leaves carry the vertex ids of the graph it realizes. Trees are normalized:
a complement node never sits directly under another complement node.

All traversals here are iterative; union chains (one per connected
component) and threshold-like graphs produce trees whose depth grows
linearly with the vertex count, which would overflow the recursion limit.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .graph import (
    Graph,
    complement,
    connected_components,
    disjoint_union,
    induced_subgraph,
)

# Witness extraction enumerates 4-subsets of the failing subgraph; beyond
# this size the error is raised without a witness.
_WITNESS_SEARCH_LIMIT = 64


class EmptyGraphError(ValueError):
    """Raised for operations that need at least one vertex."""


class NotCographError(Exception):
    """The input graph admits no union/complement decomposition.

    ``witness`` is an induced 4-vertex path in original vertex ids when one
    was extracted, else ``None``.
    """

    def __init__(self, witness: tuple[int, int, int, int] | None = None):
        self.witness = witness
        detail = ""
        if witness is not None:
            detail = ": induced 4-vertex path " + "-".join(map(str, witness))
        super().__init__(f"not a cograph{detail}")


@dataclass(frozen=True)
class Leaf:
    vertex: int


@dataclass(frozen=True)
class Union:
    left: "Cotree"
    right: "Cotree"
    leaves: int


@dataclass(frozen=True)
class Complement:
    child: "Cotree"
    leaves: int


Cotree = Leaf | Union | Complement


def leaf_count(t: Cotree) -> int:
    return 1 if isinstance(t, Leaf) else t.leaves


def union_node(left: Cotree, right: Cotree) -> Union:
    return Union(left, right, leaf_count(left) + leaf_count(right))


def complement_node(child: Cotree) -> Cotree:
    """Complement wrapper; collapses a double complement."""
    if isinstance(child, Complement):
        return child.child
    return Complement(child, leaf_count(child))


def iter_nodes(t: Cotree) -> Iterator[Cotree]:
    """All nodes in post-order (children before parents)."""
    stack: list[tuple[Cotree, bool]] = [(t, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            yield node
            continue
        stack.append((node, True))
        if isinstance(node, Union):
            stack.append((node.right, False))
            stack.append((node.left, False))
        elif isinstance(node, Complement):
            stack.append((node.child, False))


def node_count(t: Cotree) -> int:
    return sum(1 for _ in iter_nodes(t))


def leaf_labels(t: Cotree) -> list[int]:
    """Leaf vertex ids in left-to-right order."""
    out: list[int] = []
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            out.append(node.vertex)
        elif isinstance(node, Union):
            stack.append(node.right)
            stack.append(node.left)
        else:
            stack.append(node.child)
    return out


def root_components(t: Cotree) -> list[Cotree]:
    """Subtrees under the root's union chain, left to right.

    For a cotree from ``build_cotree`` these are the connected components in
    ascending order of their smallest vertex; the leaves among them are the
    isolated vertices.
    """
    out: list[Cotree] = []
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Union):
            stack.append(node.right)
            stack.append(node.left)
        else:
            out.append(node)
    return out


def is_normalized(t: Cotree) -> bool:
    """No complement node directly under another complement node."""
    for node in iter_nodes(t):
        if isinstance(node, Complement) and isinstance(node.child, Complement):
            return False
    return True


def relabel(t: Cotree, mapping: dict[int, int]) -> Cotree:
    """Copy of ``t`` with every leaf id passed through ``mapping``."""
    values: list[Cotree] = []
    for node in iter_nodes(t):
        if isinstance(node, Leaf):
            values.append(Leaf(mapping[node.vertex]))
        elif isinstance(node, Complement):
            values.append(complement_node(values.pop()))
        else:
            right = values.pop()
            left = values.pop()
            values.append(union_node(left, right))
    return values[0]


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


def random_cotree(n: int, seed: int) -> Cotree:
    """Deterministic random normalized cotree with ``n`` leaves.

    The shape is drawn by splitting the leaf count uniformly at every union
    node; each union node is independently wrapped in a complement with
    probability one half. Leaves are labelled 0 .. n-1 left to right.
    """
    if n < 1:
        raise ValueError("a cotree needs at least one leaf")
    rng = random.Random(seed)
    next_id = 0
    values: list[Cotree] = []
    todo: list[tuple[str, int]] = [("make", n)]
    while todo:
        op, arg = todo.pop()
        if op == "make":
            if arg == 1:
                values.append(Leaf(next_id))
                next_id += 1
            else:
                split = rng.randint(1, arg - 1)
                wrap = rng.random() < 0.5
                todo.append(("combine", int(wrap)))
                todo.append(("make", arg - split))
                todo.append(("make", split))
        else:
            right = values.pop()
            left = values.pop()
            node: Cotree = union_node(left, right)
            if arg:
                node = complement_node(node)
            values.append(node)
    return values[0]


_LEAF_TOKEN = re.compile(r"L(\d+)")


def format_cotree(t: Cotree) -> str:
    """S-expression serialization: ``L<id>`` | ``(U <t> <t>)`` | ``(C <t>)``."""
    close = object()
    parts: list[str] = []
    stack: list[object] = [t]
    while stack:
        item = stack.pop()
        if item is close:
            parts.append(")")
        elif isinstance(item, Leaf):
            parts.append(f"L{item.vertex}")
        elif isinstance(item, Union):
            parts.append("(U")
            stack.extend([close, item.right, item.left])
        else:
            parts.append("(C")
            stack.extend([close, item.child])
    out = ""
    for p in parts:
        out += p if (not out or p == ")") else " " + p
    return out


def parse_cotree(text: str) -> Cotree:
    """Parse the s-expression grammar; the result is normalized."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise ValueError("empty cotree text")
    stack: list[tuple[str, list[Cotree]]] = []
    root: Cotree | None = None

    def attach(node: Cotree) -> None:
        nonlocal root
        if stack:
            stack[-1][1].append(node)
        elif root is None:
            root = node
        else:
            raise ValueError("multiple top-level cotree terms")

    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok == "(":
            i += 1
            if i >= len(tokens) or tokens[i] not in ("U", "C"):
                raise ValueError("expected U or C after '('")
            stack.append((tokens[i], []))
        elif tok == ")":
            if not stack:
                raise ValueError("unbalanced ')'")
            op, kids = stack.pop()
            if op == "U":
                if len(kids) != 2:
                    raise ValueError("U takes exactly two subtrees")
                attach(union_node(kids[0], kids[1]))
            else:
                if len(kids) != 1:
                    raise ValueError("C takes exactly one subtree")
                attach(complement_node(kids[0]))
        elif tok in ("U", "C"):
            raise ValueError(f"operator {tok!r} outside parentheses")
        else:
            m = _LEAF_TOKEN.fullmatch(tok)
            if m is None:
                raise ValueError(f"bad token {tok!r}")
            attach(Leaf(int(m.group(1))))
        i += 1
    if stack:
        raise ValueError("unbalanced '('")
    if root is None:
        raise ValueError("empty cotree text")
    return root
