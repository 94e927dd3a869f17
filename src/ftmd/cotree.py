"""Cotrees: recognition, realization, random generation, serialization.

A cotree is a leaf / binary-union / unary-complement expression tree whose
leaves carry the vertex ids of the graph it realizes. Trees are normalized:
a complement node never sits directly under another complement node.

``build_cotree`` recognises a cograph by twin reduction: it merges vertices
with equal open or closed neighbourhoods until one is left, in O(n + m)
expected time, and rewrites the merges into one canonical tree. ``realize``
goes the other way in O(n + m), reading adjacency off the complement parity
above each union node. ``find_induced_p4`` is the brute-force
non-cograph certificate.

All traversals here are iterative; union chains (one per connected
component) and threshold-like graphs produce trees whose depth grows
linearly with the vertex count, which would overflow the recursion limit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .graph import Graph

# A rejected graph leaves a twin-free remainder; up to this many vertices,
# enumerating its 4-subsets for an induced path takes at most a few seconds.
# Beyond it the error is raised without a witness.
_WITNESS_SEARCH_LIMIT = 64
# Twin kinds: false twins share N(v), true twins share N[v].
_FALSE, _TRUE = 0, 1
# Seed of the vertex codes, fixed so that merge order and witnesses repeat.
_CODE_SEED = 0x5EED


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


class _Node:
    """Equality, hashing, ``repr`` and pickling without recursion.

    The dataclass-generated methods and the default pickling recurse, which
    overflows the stack on deep trees such as the threshold chains.
    Equality and hashing compare the post-order node stream; a node pickles
    (and copies) as its s-expression, so it comes back normalized, and its
    leaf ids must be non-negative integers, as ``parse_cotree`` requires.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, _Node):
            return NotImplemented
        return _signature(self) == _signature(other)

    def __hash__(self) -> int:
        return hash(_signature(self))

    def __repr__(self) -> str:
        """The dataclass ``repr``, built with an explicit stack."""
        parts: list[str] = []
        stack: list[object] = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
            elif isinstance(item, Leaf):
                parts.append(f"Leaf(vertex={item.vertex!r})")
            elif isinstance(item, Union):
                parts.append("Union(left=")
                stack += [f", leaves={item.leaves!r})", item.right, ", right=", item.left]
            else:
                parts.append("Complement(child=")
                stack += [f", leaves={item.leaves!r})", item.child]
        return "".join(parts)

    def __reduce__(self) -> tuple:
        return parse_cotree, (format_cotree(self),)


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Leaf(_Node):
    vertex: int


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Union(_Node):
    left: "Cotree"
    right: "Cotree"
    leaves: int


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Complement(_Node):
    child: "Cotree"
    leaves: int


Cotree = Leaf | Union | Complement


def _signature(t: Cotree) -> tuple:
    """Each node's kind with its vertex (leaf) or leaf count, in post-order.

    Every kind has a fixed number of children, so this determines the tree.
    """
    return tuple(
        (Leaf, node.vertex) if isinstance(node, Leaf) else (type(node), node.leaves)
        for node in iter_nodes(t)
    )


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

    Two leaves are adjacent exactly when an odd number of complement nodes
    lie above their lowest common union node. A subtree's leaves are a
    contiguous slice of ``leaf_labels(t)``, so each such union node joins its
    two slices in bulk; the cost is O(n + m).
    """
    labels = leaf_labels(t)
    n = len(labels)
    if sorted(labels) != list(range(n)):
        raise ValueError("cotree leaves must be labelled 0 .. n-1 exactly once")
    adj: list[set[int]] = [set() for _ in range(n)]
    # (node, index of its first leaf in labels, complement parity above it)
    stack: list[tuple[Cotree, int, bool]] = [(t, 0, False)]
    while stack:
        node, start, odd = stack.pop()
        if isinstance(node, Complement):
            stack.append((node.child, start, not odd))
        elif isinstance(node, Union):
            mid = start + leaf_count(node.left)
            if odd:
                left = labels[start:mid]
                right = labels[mid : start + node.leaves]
                for u in left:
                    adj[u].update(right)
                for v in right:
                    adj[v].update(left)
            stack.append((node.left, start, odd))
            stack.append((node.right, mid, odd))
    return Graph(n, tuple(map(frozenset, adj)))


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
    """Decompose a graph into a normalized cotree by twin reduction.

    Every cograph with two or more vertices has a pair of twins: false twins
    share their open neighbourhood and merge under a union node, true twins
    share their closed neighbourhood and merge under a join (the complement
    of a union). Merging one twin into the other leaves a cograph, so the graph
    is a cograph exactly when repeated merges leave one vertex.

    The result is canonical, the tree the component/co-component
    decomposition gives: a single vertex is a leaf; a disconnected graph is
    the left-deep union chain of its components, in ascending order of
    smallest vertex id; a connected graph with two or more vertices is the
    complement of the cotree of its complement graph.

    Every live vertex stands for the module merged into it and carries the
    sum of its members' random codes, so a neighbourhood's code sum never
    changes when two of its members merge. Twin candidates therefore come
    out of hash buckets, and each is checked exactly before it merges: a
    collision costs time, never correctness. Each check and each merge costs
    O(degree) of the vertex it removes, so the reduction takes O(n + m)
    expected time; sorting each node's children adds O(n log n).

    A graph is rejected when no twins are left among two or more live
    vertices. Those vertices induce a graph with no twins, which contains an
    induced 4-vertex path; while there are at most ``_WITNESS_SEARCH_LIMIT``
    of them, ``NotCographError.witness`` is one such path in original ids.
    """
    n = g.n
    if n == 0:
        raise EmptyGraphError("cannot build a cotree for the empty graph")
    rng = random.Random(_CODE_SEED)
    code = [rng.getrandbits(64) for _ in range(n)]
    adj: list[set[int]] = [set(s) for s in g.adj]
    live = [True] * n
    # Code sum over the live neighbours; a true-twin key adds the own code.
    open_sum = [sum(map(code.__getitem__, s)) for s in adj]
    buckets: tuple[dict[int, list[int]], dict[int, list[int]]] = ({}, {})
    for v in range(n):
        buckets[_FALSE].setdefault(open_sum[v], []).append(v)
        buckets[_TRUE].setdefault(open_sum[v] + code[v], []).append(v)
    todo = [
        (kind, k)
        for kind in (_FALSE, _TRUE)
        for k, vs in buckets[kind].items()
        if len(vs) > 1
    ]
    # Merge node n + i puts the subtrees merges[i][1] under one node of kind
    # merges[i][0]; top[v] is the subtree of live vertex v's module.
    merges: list[tuple[int, list[int]]] = []
    top = list(range(n))

    def key(kind: int, v: int) -> int:
        return open_sum[v] + code[v] if kind == _TRUE else open_sum[v]

    def twins(kind: int, a: int, b: int) -> bool:
        if kind == _FALSE:
            return adj[a] == adj[b]
        if b not in adj[a]:
            return False
        adj[a].discard(b)
        adj[b].discard(a)
        if adj[a] == adj[b]:
            return True
        adj[a].add(b)
        adj[b].add(a)
        return False

    while todo:
        kind, k = todo.pop()
        # Entries go stale when their vertex is absorbed or its key changes.
        members = [v for v in buckets[kind][k] if live[v] and key(kind, v) == k]
        kept: list[int] = []
        while len(members) > 1:
            a, rest, group = members[0], [], [top[members[0]]]
            for b in members[1:]:
                if b == a or not live[b]:
                    continue
                if not twins(kind, a, b):
                    rest.append(b)  # a hash collision
                    continue
                # Absorb b into a: no other vertex's key changes, and a's
                # key of this kind stays.
                for w in adj[b]:
                    adj[w].discard(b)
                adj[b].clear()
                live[b] = False
                if kind == _TRUE:
                    open_sum[a] -= code[b]
                code[a] += code[b]
                group.append(top[b])
            if len(group) > 1:
                merges.append((kind, group))
                top[a] = n + len(merges) - 1
                other = 1 - kind
                k_other = key(other, a)
                bucket = buckets[other].setdefault(k_other, [])
                bucket.append(a)
                if len(bucket) > 1:
                    todo.append((other, k_other))
            kept.append(a)
            members = rest
        buckets[kind][k] = kept + members

    remaining = [v for v in range(n) if live[v]]
    if len(remaining) > 1:
        witness = None
        if len(remaining) <= _WITNESS_SEARCH_LIMIT:
            # adj now holds the subgraph induced by the remaining vertices;
            # it has no twins, so it is no cograph and has an induced P4.
            local = {v: i for i, v in enumerate(remaining)}
            sub = Graph(
                len(remaining),
                tuple(frozenset(map(local.__getitem__, adj[v])) for v in remaining),
            )
            witness = tuple(remaining[i] for i in find_induced_p4(sub))
        raise NotCographError(witness)
    return _canonical_tree(n, merges, top[remaining[0]])


def _canonical_tree(n: int, merges: list[tuple[int, list[int]]], root: int) -> Cotree:
    """Rewrite a merge tree as the canonical cotree.

    Node ids below ``n`` are leaves; id ``n + i`` is ``merges[i]``. Nested
    merges of one kind form one module node, whose children are listed in
    ascending order of their smallest leaf: left-deep for a union, and for a
    join the complement of the union of its children's complements, where a
    complemented leaf stays the leaf.
    """
    children: dict[int, list[int]] = {}
    order: list[int] = []  # module nodes, parents first
    stack = [root]
    while stack:
        x = stack.pop()
        if x < n:
            continue
        order.append(x)
        kind = merges[x - n][0]
        kids: list[int] = []
        frontier = [x]
        while frontier:
            y = frontier.pop()
            if y >= n and merges[y - n][0] == kind:
                frontier += merges[y - n][1]
            else:
                kids.append(y)
        children[x] = kids
        stack += kids

    smallest = list(range(n)) + [0] * len(merges)
    built: dict[int, Cotree] = {}
    for x in reversed(order):
        kids = children.pop(x)
        kids.sort(key=smallest.__getitem__)
        smallest[x] = smallest[kids[0]]
        parts = [Leaf(c) if c < n else built.pop(c) for c in kids]
        join = merges[x - n][0] == _TRUE
        if join:
            parts = [p if isinstance(p, Leaf) else complement_node(p) for p in parts]
        acc, size = parts[0], leaf_count(parts[0])
        for part in parts[1:]:
            size += leaf_count(part)
            acc = Union(acc, part, size)
        built[x] = Complement(acc, size) if join else acc
    return Leaf(root) if root < n else built[root]


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
    """Parse the s-expression grammar; the result is normalized.

    One pass over the tokens: finished subtrees wait on a value stack, and
    each open parenthesis records its operator and the stack height below
    it, so a closing parenthesis knows how many subtrees it received.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise ValueError("empty cotree text")
    values: list[Cotree] = []
    ops: list[str] = []
    heights: list[int] = []
    it = iter(tokens)
    for tok in it:
        if tok == "(":
            op = next(it, None)
            if op != "U" and op != "C":
                raise ValueError("expected U or C after '('")
            ops.append(op)
            heights.append(len(values))
            continue
        if tok == ")":
            if not ops:
                raise ValueError("unbalanced ')'")
            received = len(values) - heights.pop()
            if ops.pop() == "U":
                if received != 2:
                    raise ValueError("U takes exactly two subtrees")
                right = values.pop()
                node = union_node(values.pop(), right)
            else:
                if received != 1:
                    raise ValueError("C takes exactly one subtree")
                node = complement_node(values.pop())
        elif tok == "U" or tok == "C":
            raise ValueError(f"operator {tok!r} outside parentheses")
        else:
            digits = tok[1:]
            if tok[0] != "L" or not digits.isdecimal():
                raise ValueError(f"bad token {tok!r}")
            node = Leaf(int(digits))
        if not ops and values:
            raise ValueError("multiple top-level cotree terms")
        values.append(node)
    if ops:
        raise ValueError("unbalanced '('")
    return values[0]
