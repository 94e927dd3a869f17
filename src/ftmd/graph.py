"""Undirected simple graphs over dense integer vertex ids.

Graphs are immutable after construction and safe to share across threads.
Distances use a distinguished ``None`` for unreachable vertices, never a
large numeric sentinel, so equality tests between distance values stay
meaningful on disconnected graphs.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, NamedTuple, Sequence

Weight = int | float


class _GraphFields(NamedTuple):
    n: int
    adj: tuple[frozenset[int], ...]


class Graph(_GraphFields):
    """Simple undirected graph on vertices ``0 .. n-1``.

    ``adj[v]`` is the open neighbourhood of ``v``. The constructor rejects
    self-loops, out-of-range ids and asymmetric adjacency; ``_replace`` and
    ``_make`` go through it too. Builders whose adjacency is valid by
    construction (``from_edges``, ``disjoint_union``, ``cotree.realize``,
    ``cli.read_edge_list``) skip those O(n + m) checks via ``_unchecked``.
    """

    __slots__ = ()

    def __new__(cls, n: int, adj: tuple[frozenset[int], ...]) -> Graph:
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(adj) != n:
            raise ValueError("adjacency length does not match vertex count")
        for u, nbrs in enumerate(adj):
            if u in nbrs:
                raise ValueError(f"self-loop at vertex {u}")
            for v in nbrs:
                if not 0 <= v < n:
                    raise ValueError(f"neighbour {v} of {u} out of range")
                if u not in adj[v]:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        return tuple.__new__(cls, (n, adj))

    @classmethod
    def _make(cls, iterable: Iterable) -> Graph:
        return cls(*iterable)

    @classmethod
    def _unchecked(cls, n: int, adj: tuple[frozenset[int], ...]) -> Graph:
        """A graph from adjacency that its builder already made valid: ids
        in range, no loops, symmetric."""
        return tuple.__new__(cls, (n, adj))

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted ``(u, v)`` pairs with ``u < v``."""
        return sorted((u, v) for u in range(self.n) for v in self.adj[u] if u < v)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={sum(map(len, self.adj)) // 2})"


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; validates ids and forbids loops."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        adj[u].add(v)
        adj[v].add(u)
    return Graph._unchecked(n, tuple(map(frozenset, adj)))


def check_weights(n: int, weights: Sequence[Weight] | None) -> list[Weight]:
    """One weight per vertex of an n-vertex graph as a list; ``None`` stands
    for unit weights.

    Raises ``ValueError`` when the count differs from ``n`` or a weight is
    a ``bool``, NaN, infinite, negative or not comparable with numbers.
    """
    if weights is None:
        return [1] * n
    w = list(weights)
    if len(w) != n:
        raise ValueError(f"expected {n} weights, got {len(w)}")
    for v, x in enumerate(w):
        if isinstance(x, bool):
            raise ValueError(f"boolean weight {x} at vertex {v}")
        try:
            if x != x or x in (math.inf, -math.inf):
                raise ValueError(f"non-finite weight {x} at vertex {v}")
            if x < 0:
                raise ValueError(f"negative weight {x} at vertex {v}")
        except TypeError:  # a string or None does not compare with 0
            raise ValueError(f"weight {x!r} at vertex {v} is not a number") from None
    return w


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union; the vertices of ``g2`` are shifted up by ``g1.n``."""
    shift = g1.n
    adj = list(g1.adj) + [frozenset(v + shift for v in s) for s in g2.adj]
    return Graph._unchecked(g1.n + g2.n, tuple(adj))


def bfs_distances(g: Graph, source: int) -> tuple[int | None, ...]:
    """Exact shortest-path distances from ``source`` to every vertex, in
    vertex order; ``None`` marks an unreachable vertex."""
    if not 0 <= source < g.n:
        raise ValueError(f"source {source} out of range for n={g.n}")
    dist: list[int | None] = [None] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in g.adj[u]:
            if dist[v] is None:
                dist[v] = du + 1
                queue.append(v)
    return tuple(dist)


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Maximal connected vertex sets, ascending by smallest member."""
    seen = [False] * g.n
    components = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in g.adj[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    queue.append(v)
        components.append(frozenset(comp))
    return components

