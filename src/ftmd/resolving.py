"""Checkers for resolving-set variants.

``certify`` is the one fault-tolerance verdict behind ``Solution.verify``,
``ftmd solve --verify`` and ``ftmd check GRAPH ft`` on a cograph:
``cotree.realises`` checks that a cotree realizes the graph, then
``cotree_weak_pair``, one bottom-up pass over the cotree, checks the set;
O(n + m) in all. The other checkers are deliberately direct
implementations of the definitions (BFS distances, neighbourhood symmetric
differences) on any graph; tests and the brute-force oracle use them as the
ground truth that the certificate is tested against, and ``ftmd check``
uses them to name the first failing pair and on graphs that are not
cographs.
"""

from __future__ import annotations

from typing import Iterable

from .cotree import COMPLEMENTED, UNION, Cotree, check_labels, flat, realises, root_components
from .graph import Graph, bfs_distances

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


def cotree_weak_pair(tree: Cotree, r: VertexSet) -> tuple[int, int] | None:
    """A pair separated by fewer than two members of ``r``, or ``None`` when
    ``r`` is fault-tolerant for the graph that ``tree`` realizes; linear in
    the tree.

    Members at different distances from ``u`` and ``v`` separate them:

    - across components, a member separates ``u`` and ``v`` exactly when it
      lies in the component of one of them, so the two components that
      hold the fewest members must hold two between them;
    - inside a component, a connected cograph of diameter at most 2, ``x``
      separates them exactly when ``x in {u, v} | (N[u] ^ N[v])``, a set
      that complements leave alone. Below a union node of a component, with
      ``u`` on one side and ``v`` on the other, that is
      ``(R & N[u]) | (R & N[v])`` in the union's own graph; pairs with a
      lower common ancestor are settled below it, where the rest of the
      graph sees both alike.

    So each node of a component carries ``(c, x, o, y, s)`` for the graph
    its subtree realizes: ``c``, the least ``|R & N[v]|`` over its vertices,
    reached at ``x``; ``o``, the least ``|R - N(v)|``, reached at ``y``; and
    ``s = |R|``. A chosen leaf is ``(1, v, 1, v, 1)``, a left-out leaf
    ``(0, v, 0, v, 0)``, and a complement swaps ``(c, x)`` with ``(o, y)``.
    A union fails with ``(x1, x2)`` when ``c1 + c2 < 2``, else keeps the
    smaller of ``(c1, x1)`` and ``(c2, x2)``, the smaller of
    ``(o1 + s2, y1)`` and ``(o2 + s1, y2)``, and ``s1 + s2``.

    With ``cotree.realises`` this certifies an answer for a graph: if the
    tree realizes ``g`` and this returns ``None``, ``r`` is fault-tolerant
    for ``g``, whichever way the tree was found. Raises ``ValueError`` when
    a member or a leaf label is outside ``0 .. n-1`` or labels repeat.
    """
    n = tree.leaves
    members = frozenset(r)
    if members and not 0 <= min(members) <= max(members) < n:
        raise ValueError(f"chosen vertex out of range for n={n}")
    check_labels(flat(tree)[1], n)
    load = []
    for part in root_components(tree):
        kinds, labels = flat(part)
        stack, leaves = [], iter(labels)
        for kind in kinds:
            if kind & UNION:
                (c2, x2, o2, y2, s2), (c1, x1, o1, y1, s1) = stack.pop(), stack.pop()
                if c1 + c2 < 2:
                    return (min(x1, x2), max(x1, x2))
                node = min((c1, x1), (c2, x2)) + min((o1 + s2, y1), (o2 + s1, y2)) + (s1 + s2,)
            else:
                v = next(leaves)
                node = (1, v, 1, v, 1) if v in members else (0, v, 0, v, 0)
            if kind & COMPLEMENTED:
                node = node[2:4] + node[:2] + node[4:]
            stack.append(node)
        load.append((stack[0][4], stack[0][1]))
    load.sort()
    if len(load) > 1 and load[0][0] + load[1][0] < 2:
        return tuple(sorted((load[0][1], load[1][1])))
    return None


def certify(tree: Cotree, g: Graph, r: VertexSet) -> str | None:
    """``None`` when ``tree`` realizes ``g`` and ``r`` is fault-tolerant for
    ``g``, else the reason: ``cotree.realises``' reason why the tree is not
    ``g``'s, or ``pair u v separated fewer than twice`` from
    ``cotree_weak_pair``. O(n + m); raises ``ValueError`` as those two do.
    """
    reason = realises(tree, g)
    if reason is None and (pair := cotree_weak_pair(tree, r)):
        reason = f"pair {pair[0]} {pair[1]} separated fewer than twice"
    return reason
