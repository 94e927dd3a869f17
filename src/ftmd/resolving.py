"""Checkers for resolving-set variants.

``MODES`` names the three checks: ``resolving`` (every pair separated by a
chosen vertex), ``ft`` (fault-tolerant: by two) and ``2nr`` (every pair
separated twice in the neighbourhood sense). ``cotree_weak_pair`` is one
bottom-up pass over a cotree that names the least pair at which a set fails
a mode in the graph the cotree realizes; ``ftmd check`` answers with it on
every cograph, after ``cotree.realises`` has checked the tree, in O(n + m).
``certify`` runs the same two for the one fault-tolerance verdict behind
``Solution.verify`` and ``ftmd solve --verify``, and names the same least
failing pair as ``ftmd check GRAPH ft``. The other checkers are
deliberately direct implementations of the definitions (BFS distances,
neighbourhood symmetric differences) on any graph: ``first_unresolved_pair``
names the least pair separated fewer than k times, ``is_fault_tolerant`` is
the paper's definition over it with k = 1 (the set resolves, and so does
the set less any one member), and ``first_failing_pair`` names a mode's
least failing pair. Every checker but ``h`` raises ``ValueError`` for a
chosen vertex outside ``0 .. n-1``. Tests and the brute-force oracle use
these checkers as the ground truth that the cotree pass is tested against,
and ``ftmd check`` uses them on graphs that are not cographs.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable

from .cotree import COMPLEMENTED, UNION, Cotree, flat, flat_checked, realises, root_components
from .graph import Graph, bfs_distances

VertexSet = Iterable[int]
MODES = ("resolving", "ft", "2nr")
# A node kind of ``cotree_weak_pair``'s walk only: a whole component taken
# as one vertex.
_LONE = 4


def h(g: Graph, r: VertexSet, u: int, v: int) -> int:
    """Number of chosen vertices in ``N(u) symdiff N(v)`` together with u, v."""
    if u == v:
        raise ValueError("h is defined for distinct vertices only")
    return len(((g.adj[u] ^ g.adj[v]) | {u, v}).intersection(r))


def _members(r: VertexSet, n: int) -> frozenset[int]:
    """``r`` as a set; ``ValueError`` when a member is outside ``0 .. n-1``."""
    if (members := frozenset(r)) and not 0 <= min(members) <= max(members) < n:
        raise ValueError(f"chosen vertex out of range for n={n}")
    return members


def first_unresolved_pair(g: Graph, r: VertexSet, k: int = 1) -> tuple[int, int] | None:
    """First pair (ascending) distinguished by fewer than ``k`` chosen vertices."""
    rows = [bfs_distances(g, w) for w in _members(r, g.n)]
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


def is_fault_tolerant(g: Graph, r: VertexSet) -> bool:
    """The paper's definition: ``r`` resolves ``g``, and so does ``r - {x}``
    for every member x, each by ``first_unresolved_pair`` with k = 1.

    ``first_unresolved_pair(g, r, 2) is None`` is an equivalent formulation
    and the test suite checks the two agree.
    """
    chosen = frozenset(r)
    subsets = chain((chosen,), (chosen - {x} for x in chosen))
    return all(first_unresolved_pair(g, subset, 1) is None for subset in subsets)


def first_low_h_pair(g: Graph, r: VertexSet) -> tuple[int, int] | None:
    """First pair (ascending) with ``h`` below two, or ``None``."""
    chosen = _members(r, g.n)
    for u in range(g.n):
        au = g.adj[u]
        for v in range(u + 1, g.n):
            if len(((au ^ g.adj[v]) | {u, v}) & chosen) < 2:
                return (u, v)
    return None


def is_2nr(g: Graph, r: VertexSet) -> bool:
    """2-neighbourhood-resolving: ``h(u, v) >= 2`` for every pair."""
    return first_low_h_pair(g, r) is None


def first_failing_pair(g: Graph, r: VertexSet, mode: str) -> tuple[int, int] | None:
    """The least pair at which ``r`` fails ``mode``, by the definition:
    ``first_unresolved_pair`` with k = 1 for ``resolving`` and k = 2 for
    ``ft``, the index of the mode in ``MODES`` plus one, or
    ``first_low_h_pair`` for ``2nr``. ``ValueError`` for a mode not in
    ``MODES``.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "2nr":
        return first_low_h_pair(g, r)
    return first_unresolved_pair(g, r, MODES.index(mode) + 1)


def cotree_weak_pair(tree: Cotree, r: VertexSet, mode="ft") -> tuple[int, int] | None:
    """The least pair ``(u, v)``, ``u < v``, at which ``r`` fails ``mode``
    in the graph that ``tree`` realizes, or ``None``; one bottom-up pass,
    linear in the tree. Each mode of ``MODES`` answers as
    ``first_failing_pair(g, r, mode)`` does.

    Each pair has one lowest union node above it, and every vertex outside
    that node's subtree sees both ends alike. With ``u`` on one side and
    ``v`` on the other, the members that count for the pair are
    ``(R & N[u]) | (R & N[v])`` in the union's own graph, a set that
    complements leave alone: ``h`` counts it at every union, and so do
    distances inside a component, a connected cograph of diameter at most 2.
    So the pair fails when ``c(u) + c(v) < 2``, with ``c(x) = |R & N[x]|``;
    in mode ``resolving`` a member counts twice, as one is enough there.
    Across components a member is at different distances from ``u`` and
    ``v`` exactly when it lies in the component of one of them, so in modes
    ``resolving`` and ``ft`` each component meets the others as one vertex,
    its least, whose ``c`` counts all the component's members.

    Each node carries ``(x0, x1, y0, y1, s)`` for the graph its subtree
    realizes: ``xj``, the least vertex with ``c`` equal to ``j``; ``yj``,
    the least with ``|R - N(v)|``, its ``c`` in the complement, equal to
    ``j``; ``n`` where there is none; and ``s``, the count of ``R`` capped at
    2. A lone vertex with count ``c`` is both ``xc`` and ``yc``. A
    complement swaps the ``x`` and ``y`` pairs. A union keeps the lesser
    ``x`` of each count, shifts each side's ``y`` counts by the other side's
    ``s``, and adds the ``s``; its least failing pair is one side's ``x0``
    with the lesser ``x`` of the other side, or one side's ``x1`` with the
    other side's ``x0``.

    With ``cotree.realises`` this certifies an answer for a graph, whichever
    way the tree was found. Raises ``ValueError`` for another mode, or when
    a member or a leaf label is outside ``0 .. n-1`` or labels repeat.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    n = tree.leaves
    members = _members(r, n)
    flat_checked(tree, n)
    unit = 2 if mode == "resolving" else 1
    # Below the first component, an empty graph that fails nothing.
    best, stack = (n, n), [(n, n, n, n, 0)]
    for part in root_components(tree):
        kinds, labels = flat(part)
        leaves = iter(labels)
        # After its nodes, a component becomes one vertex in modes resolving
        # and ft, then joins the components before it.
        for kind in chain(kinds, (UNION,) if mode == "2nr" else (_LONE, UNION)):
            if kind & UNION:
                # x pairs in a and b, y pairs in c and d, counts s and t.
                (b0, b1, d0, d1, t), (a0, a1, c0, c1, s) = stack.pop(), stack.pop()
                if a0 < n and min(b0, b1) < n or a1 < n > b0:
                    for u, v in ((a0, min(b0, b1)), (a1, b0)):
                        if max(u, v) < n and (pair := (min(u, v), max(u, v))) < best:
                            best = pair
                # Conditionals, not min(), below: twice as fast in this loop.
                c0, c1 = (c0, c1) if t == 0 else (n, c0) if t == 1 else (n, n)
                d0, d1 = (d0, d1) if s == 0 else (n, d0) if s == 1 else (n, n)
                x0, x1 = a0 if a0 < b0 else b0, a1 if a1 < b1 else b1
                y0, y1 = c0 if c0 < d0 else d0, c1 if c1 < d1 else d1
                s = s + t if s + t < 2 else 2
                stack.append((y0, y1, x0, x1, s) if kind & COMPLEMENTED else (x0, x1, y0, y1, s))
            else:
                if kind == _LONE:
                    v, c = min(labels), stack.pop()[4]
                else:
                    c = unit if (v := next(leaves)) in members else 0
                stack.append((v if c == 0 else n, v if c == 1 else n) * 2 + (c,))
    return None if best[0] == n else best


def certify(tree: Cotree, g: Graph, r: VertexSet) -> str | None:
    """``None`` when ``tree`` realizes ``g`` and ``r`` is fault-tolerant for
    ``g``, else the reason: ``cotree.realises``' reason why the tree is not
    ``g``'s, or ``pair u v separated fewer than twice`` with the least
    failing pair, ``cotree_weak_pair(tree, r, "ft")``, the pair that
    ``ftmd check GRAPH ft`` names. O(n + m); raises ``ValueError`` as those
    two do.
    """
    reason = realises(tree, g)
    if reason is None and (pair := cotree_weak_pair(tree, r, mode="ft")):
        reason = f"pair {pair[0]} {pair[1]} separated fewer than twice"
    return reason
