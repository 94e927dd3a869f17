"""The bitset fault-tolerance checker, kept as a test oracle.

``weak_pair`` works on a graph, not a cotree: adjacency bitsets per
connected component, the diameter bound of connected cographs, and a scan
of all O(n^2) vertex pairs, falling back to the BFS definition
(``first_unresolved_pair``) on components of diameter above 2, so it is
exact on any graph. ``ftmd.resolving.cotree_weak_pair`` replaced it behind
``Solution.verify`` and ``ftmd solve --verify``; tests check that the two
agree on cographs, and that this one stays exact on graphs of any kind.
"""

from __future__ import annotations

from typing import Iterable

from ftmd.graph import Graph, connected_components
from ftmd.resolving import VertexSet, first_unresolved_pair


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
