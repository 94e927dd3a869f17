"""Brute-force ground truth by subset enumeration.

Independent of the cotree solver: feasibility of a subset is decided from
per-pair separator bitmasks derived directly from BFS distances (resolving
variants) or neighbourhood symmetric differences (the ``h`` based variant).
Enumeration is sequential and deterministic; the witness is the
lexicographically smallest optimal set.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .graph import Graph, Weight, bfs_distances, check_weights

MAX_VERTICES = 20


class OracleResult(NamedTuple):
    """Best weight, the lexicographically smallest witness, and how many
    subsets attain the best weight."""

    weight: Weight
    witness: tuple[int, ...]
    optimal_count: int


def _guard(g: Graph) -> None:
    if g.n > MAX_VERTICES:
        raise ValueError(
            f"oracle enumeration is limited to {MAX_VERTICES} vertices, got {g.n}"
        )


def _resolver_masks(g: Graph) -> list[int]:
    """For each pair, the bitmask of vertices at different distances to the two."""
    rows = [bfs_distances(g, x) for x in range(g.n)]
    masks = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            m = 0
            for x in range(g.n):
                if rows[x][u] != rows[x][v]:
                    m |= 1 << x
            masks.append(m)
    return masks


def _h_support_masks(g: Graph) -> list[int]:
    """For each pair, the bitmask of ``N(u) symdiff N(v)`` together with u, v."""
    masks = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            m = 1 << u | 1 << v
            for x in g.adj[u] ^ g.adj[v]:
                m |= 1 << x
            masks.append(m)
    return masks


def _min_weight_subset(
    n: int, weights: Sequence[Weight], masks: list[int], need: int
) -> OracleResult:
    # Restrictive pairs first so infeasible subsets die early.
    masks = sorted(masks, key=lambda m: m.bit_count())
    subset_weight: list[Weight] = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        subset_weight[s] = subset_weight[s ^ low] + weights[low.bit_length() - 1]

    best_weight: Weight | None = None
    best_witness: tuple[int, ...] = ()
    count = 0
    for s in range(1 << n):
        wt = subset_weight[s]
        # Strictly heavier subsets cannot change the result; equal-weight
        # ones still matter for the witness and the optimum count.
        if best_weight is not None and wt > best_weight:
            continue
        if not all((s & m).bit_count() >= need for m in masks):
            continue
        witness = tuple(v for v in range(n) if s >> v & 1)
        if best_weight is None or wt < best_weight:
            best_weight, best_witness, count = wt, witness, 1
        else:
            count += 1
            if witness < best_witness:
                best_witness = witness
    assert best_weight is not None  # the full vertex set is always feasible
    return OracleResult(best_weight, best_witness, count)


def oracle_min_ft(g: Graph, weights: Sequence[Weight] | None = None) -> OracleResult:
    """Exhaustive minimum-weight fault-tolerant resolving set (n <= 20)."""
    _guard(g)
    return _min_weight_subset(g.n, check_weights(g.n, weights), _resolver_masks(g), 2)


def oracle_min_2nr(g: Graph, weights: Sequence[Weight] | None = None) -> OracleResult:
    """Exhaustive minimum-weight 2-neighbourhood-resolving set (n <= 20)."""
    _guard(g)
    return _min_weight_subset(g.n, check_weights(g.n, weights), _h_support_masks(g), 2)


def oracle_min_resolving(
    g: Graph, weights: Sequence[Weight] | None = None
) -> OracleResult:
    """Exhaustive minimum-weight resolving set (n <= 20)."""
    _guard(g)
    return _min_weight_subset(g.n, check_weights(g.n, weights), _resolver_masks(g), 1)
