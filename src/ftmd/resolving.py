"""Definitional checkers for resolving-set variants.

These are deliberately direct implementations of the definitions (BFS
distances, neighbourhood symmetric differences). The solver never calls
them; tests and the brute-force oracle use them as ground truth.
"""

from __future__ import annotations

from typing import Iterable

from .graph import Graph, bfs_distances

VertexSet = Iterable[int]


def h(g: Graph, r: VertexSet, u: int, v: int) -> int:
    """Number of chosen vertices in ``N(u) symdiff N(v)`` together with u, v."""
    if u == v:
        raise ValueError("h is defined for distinct vertices only")
    chosen = frozenset(r)
    return len(((g.adj[u] ^ g.adj[v]) | {u, v}) & chosen)


def _distance_rows(g: Graph, r: frozenset[int]) -> dict[int, tuple[int | None, ...]]:
    return {w: bfs_distances(g, w).dist for w in sorted(r)}


def first_unresolved_pair(g: Graph, r: VertexSet, k: int = 1) -> tuple[int, int] | None:
    """First pair (ascending) distinguished by fewer than ``k`` chosen vertices."""
    rows = list(_distance_rows(g, frozenset(r)).values())
    for u in range(g.n):
        for v in range(u + 1, g.n):
            found = 0
            for dist in rows:
                if dist[u] != dist[v]:
                    found += 1
                    if found >= k:
                        break
            if found < k:
                return (u, v)
    return None


def is_resolving(g: Graph, r: VertexSet) -> bool:
    """Every vertex pair has a chosen vertex at different distances from the two."""
    return first_unresolved_pair(g, r, 1) is None


def is_k_resolving(g: Graph, r: VertexSet, k: int) -> bool:
    """Every vertex pair is resolved by at least ``k`` distinct chosen vertices."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return first_unresolved_pair(g, r, k) is None


def is_fault_tolerant(g: Graph, r: VertexSet) -> bool:
    """The set resolves, and still resolves after any single deletion.

    Implemented by the deletion definition; ``is_k_resolving(g, r, 2)`` is
    an equivalent formulation and the test suite checks the two agree.
    """
    chosen = frozenset(r)
    rows = _distance_rows(g, chosen)
    members = sorted(chosen)

    def resolves(active: list[int]) -> bool:
        active_rows = [rows[w] for w in active]
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if not any(dist[u] != dist[v] for dist in active_rows):
                    return False
        return True

    if not resolves(members):
        return False
    return all(resolves([w for w in members if w != x]) for x in members)


def first_low_h_pair(g: Graph, r: VertexSet) -> tuple[int, int] | None:
    """First pair (ascending) with ``h`` below two, or ``None``."""
    chosen = frozenset(r)
    for u in range(g.n):
        au = g.adj[u]
        for v in range(u + 1, g.n):
            if len(((au ^ g.adj[v]) | {u, v}) & chosen) < 2:
                return (u, v)
    return None


def is_2nr(g: Graph, r: VertexSet) -> bool:
    """2-neighbourhood-resolving: ``h(u, v) >= 2`` for every pair."""
    return first_low_h_pair(g, r) is None
