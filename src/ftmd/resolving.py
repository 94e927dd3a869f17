"""Checkers for resolving-set variants.

``weak_pair`` is the structural fault-tolerance certificate behind
``Solution.verify`` and ``ftmd solve --verify``: adjacency bitsets and the
diameter bound of connected cographs make it O(n^2) operations on masks
as wide as a component. The other checkers are deliberately direct
implementations of the definitions (BFS distances, neighbourhood symmetric
differences); tests and the brute-force oracle use them as the ground truth
that ``weak_pair`` is tested against.
"""

from __future__ import annotations

from typing import Iterable

from .graph import Graph, bfs_distances, connected_components

VertexSet = Iterable[int]


def h(g: Graph, r: VertexSet, u: int, v: int) -> int:
    """Number of chosen vertices in ``N(u) symdiff N(v)`` together with u, v."""
    if u == v:
        raise ValueError("h is defined for distinct vertices only")
    chosen = frozenset(r)
    return len(((g.adj[u] ^ g.adj[v]) | {u, v}) & chosen)


def _distance_rows(g: Graph, r: frozenset[int]) -> dict[int, tuple[int | None, ...]]:
    return {w: bfs_distances(g, w) for w in sorted(r)}


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


def _mask(positions: Iterable[int], width: int) -> int:
    """Bitset of positions below ``width``, built as binary digits in
    O(width + positions) time; a sum of powers of two would add a mask as
    wide as the component once per position."""
    digits = bytearray(b"0") * width
    for p in positions:
        digits[~p] = 49  # "1"; the last digit is bit 0
    return int(digits, 2)


def weak_pair(g: Graph, r: VertexSet) -> tuple[int, int] | None:
    """A pair separated by fewer than two members of ``r``, or ``None`` when
    ``r`` is fault-tolerant for ``g``.

    Works on adjacency bitsets (``int`` masks), one bit per vertex of the
    component:

    - across components, ``x`` separates ``u`` and ``v`` exactly when it
      lies in the component of ``u`` or of ``v``, so only the two
      components holding the fewest members need a look;
    - inside a component of diameter at most 2, distances are 0, 1 or 2, so
      ``x`` separates ``u`` and ``v`` exactly when
      ``x in {u, v} | (N(u) ^ N(v))``. Two members separate each other, so
      only pairs with an endpoint outside ``r`` are scanned.

    Connected cographs have diameter at most 2, so on a cograph this takes
    O(n^2) operations on masks no wider than a component: at most one per
    edge to check the diameter and one per scanned pair. The bound is
    checked, not assumed: when some component is wider, the answer is
    ``first_unresolved_pair(g, r, 2)``, so the result is exact on any graph.
    """
    members = frozenset(r)
    if members and not 0 <= min(members) <= max(members) < g.n:
        raise ValueError(f"chosen vertex out of range for n={g.n}")
    components = connected_components(g)
    if len(components) > 1:
        load = sorted((len(c & members), min(c)) for c in components)
        (c1, v1), (c2, v2) = load[:2]
        if c1 + c2 < 2:
            return (min(v1, v2), max(v1, v2))
    # Bit i stands for the i-th vertex of the mask's own component, so the
    # masks take O(sum of squared component sizes) bits, not O(n^2).
    pos = {v: i for comp in components for i, v in enumerate(comp)}
    width = {v: len(comp) for comp in components for v in comp}
    adj = [_mask(map(pos.__getitem__, g.adj[v]), width[v]) for v in range(g.n)]
    for comp in components:
        full = (1 << len(comp)) - 1
        for u in comp:
            # Vertices within distance 2 of u, until they cover the component.
            reach = adj[u] | (1 << pos[u])
            for w in g.adj[u]:
                if reach == full:
                    break
                reach |= adj[w]
            if reach != full:
                return first_unresolved_pair(g, members, 2)
    own = [1 << pos[v] if v in members else 0 for v in range(g.n)]
    for comp in components:
        chosen = sum(map(own.__getitem__, comp))
        hits = {v: adj[v] & chosen for v in comp}
        for u in comp:
            if own[u]:
                continue
            hu = hits[u]
            for v in comp:
                if v != u and ((hu ^ hits[v]) | own[v]).bit_count() < 2:
                    return (min(u, v), max(u, v))
    return None
