"""Answer checks, run outside the clock.

Graphs are held as adjacency bitsets (``adj[v]`` is an int whose bit ``u``
is set when ``u`` and ``v`` are adjacent). The fault-tolerance certificate
uses the structure of cographs: a connected cograph has diameter at most 2,
so inside a component ``x`` separates ``u`` and ``v`` iff
``x in {u, v} | (N(u) ^ N(v))``, and across components ``x`` separates them
iff it lies in the component of ``u`` or of ``v``. A set is fault-tolerant
iff every pair is separated by at least two members. This costs O(n^2)
word operations, where the definitional check in ``ftmd.resolving`` is
about n^3.6.

The optimal weight is recomputed by ``dp_run`` on the components of the
generating cotree, which skips parsing and recognition.
"""

from __future__ import annotations

from typing import Sequence

from ftmd import cotree, dp


def read_edge_file(path: str) -> tuple[int, list[int]]:
    """Vertex count and adjacency bitsets of an edge-list file."""
    with open(path, encoding="ascii") as handle:
        rows = [line.split() for line in handle if line.strip() and line[0] != "#"]
    n = int(rows[0][0])
    adj = [0] * n
    for u, v in rows[1:]:
        u, v = int(u), int(v)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return n, adj


def sexpr_adjacency(text: str, n: int) -> list[int] | None:
    """Adjacency bitsets of a cotree s-expression, or ``None`` if its leaves
    are not exactly ``0 .. n-1``.

    A complement node toggles every pair inside its subtree; a union node
    adds nothing. Independent of ``ftmd.cotree``.
    """
    adj = [0] * n
    stack: list[list] = [["root", 0]]  # [operator, leaf bitset] per open term
    seen = 0
    try:
        for tok in text.replace("(", " ").replace(")", " ) ").split():
            if tok in ("U", "C"):
                stack.append([tok, 0])
            elif tok == ")":
                op, leaves = stack.pop()
                if op == "C":
                    for v in _bits(leaves):
                        adj[v] ^= leaves ^ (1 << v)
                stack[-1][1] |= leaves
            else:
                v = int(tok[1:])
                if not 0 <= v < n or seen >> v & 1:
                    return None
                seen |= 1 << v
                stack[-1][1] |= 1 << v
    except (ValueError, IndexError):
        return None
    if len(stack) != 1 or seen != (1 << n) - 1:
        return None
    return adj


def _bits(x: int):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def components(n: int, adj: Sequence[int]) -> list[int]:
    """Component id of every vertex, numbered in order of smallest member."""
    comp = [-1] * n
    count = 0
    for start in range(n):
        if comp[start] >= 0:
            continue
        seen = frontier = 1 << start
        while frontier:
            reach = 0
            for v in _bits(frontier):
                reach |= adj[v]
            frontier = reach & ~seen
            seen |= frontier
        for v in _bits(seen):
            comp[v] = count
        count += 1
    return comp


def first_unseparated_pair(
    n: int, adj: Sequence[int], chosen: Sequence[int]
) -> tuple[int, int] | None:
    """A pair separated by fewer than two chosen vertices, or ``None``.

    ``None`` means the set is fault-tolerant. Valid for cographs only.
    """
    r = 0
    for v in chosen:
        r |= 1 << v
    comp = components(n, adj)
    members: dict[int, list[int]] = {}
    for v in range(n):
        members.setdefault(comp[v], []).append(v)
    if len(members) > 1:
        load = sorted(
            (sum(r >> v & 1 for v in vs), vs[0]) for vs in members.values()
        )
        (c1, v1), (c2, v2) = load[0], load[1]
        if c1 + c2 < 2:
            return (min(v1, v2), max(v1, v2))
    hits = [adj[v] & r for v in range(n)]
    own = [r & (1 << v) for v in range(n)]
    for vs in members.values():
        for i, u in enumerate(vs):
            hu, ou = hits[u], own[u]
            for v in vs[i + 1 :]:
                if ((hu ^ hits[v]) | ou | own[v]).bit_count() < 2:
                    return (u, v)
    return None


def top_components(tree: cotree.Cotree) -> list[cotree.Cotree]:
    """Subtrees below the root's union chain: one per connected component."""
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, cotree.Union):
            stack += [node.right, node.left]
        else:
            out.append(node)
    return out


def expected_weight(tree: cotree.Cotree, weights: Sequence[int]) -> int:
    """Optimal weight from ``dp_run`` on each component of the generating cotree.

    Isolated vertices all join the solution when there are at least two of
    them; a single one never does.
    """
    total = 0
    isolated = []
    for part in top_components(tree):
        if isinstance(part, cotree.Leaf):
            isolated.append(weights[part.vertex])
        else:
            total += dp.extract_connected_min(dp.dp_run(part, weights))[0]
    if len(isolated) >= 2:
        total += sum(isolated)
    return total


def parse_answer(out: str, lines: int) -> tuple[int, list[int], list[str]]:
    """Weight, vertex list and all lines of a solver's standard output."""
    rows = out.split("\n")
    if rows[-1] != "" or len(rows) != lines + 1:
        raise ValueError(f"expected {lines} output lines")
    weight = int(rows[0])
    vertices = [int(x) for x in rows[1].split()]
    return weight, vertices, rows


def check_set(
    weight: int, vertices: list[int], weights: Sequence[int], expected: int
) -> str | None:
    """Consistency of a returned set with its weight and the optimum."""
    n = len(weights)
    if any(not 0 <= v < n for v in vertices) or vertices != sorted(set(vertices)):
        return "vertex list not sorted, distinct and in range"
    if sum(weights[v] for v in vertices) != weight:
        return "reported weight is not the weight of the set"
    if weight != expected:
        return f"weight {weight} is not the optimum {expected}"
    return None


def check_graph_answer(
    out: str,
    adj: Sequence[int],
    weights: Sequence[int],
    expected: int,
    with_cotree: bool,
) -> str | None:
    """Reason the edge-list solver's output is wrong, or ``None``."""
    try:
        weight, vertices, rows = parse_answer(out, 3 if with_cotree else 2)
    except ValueError as err:
        return f"unreadable answer: {err}"
    reason = check_set(weight, vertices, weights, expected)
    if reason:
        return reason
    pair = first_unseparated_pair(len(adj), adj, vertices)
    if pair is not None:
        return f"pair {pair} separated fewer than twice"
    if with_cotree and sexpr_adjacency(rows[2], len(adj)) != list(adj):
        return "printed cotree does not realize the input graph"
    return None


def check_cotree_answer(
    out: str,
    weights: Sequence[int],
    expected: int,
    adj: Sequence[int] | None = None,
) -> str | None:
    """Reason the cotree solver's output is wrong, or ``None``.

    The certificate runs only when the adjacency ``adj`` is given, which is
    feasible for small instances only.
    """
    try:
        weight, vertices, _ = parse_answer(out, 2)
    except ValueError as err:
        return f"unreadable answer: {err}"
    reason = check_set(weight, vertices, weights, expected)
    if reason is None and adj is not None:
        pair = first_unseparated_pair(len(adj), adj, vertices)
        if pair is not None:
            reason = f"pair {pair} separated fewer than twice"
    return reason
