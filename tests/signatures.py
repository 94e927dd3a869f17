"""Reference flags for the cotree dynamic program, computed from the graph.

Tests compare the solver's state tables against these definitions.
"""

from dataclasses import dataclass

from ftmd.graph import Graph
from ftmd.resolving import VertexSet


@dataclass(frozen=True)
class KVertexProfile:
    """Closed-neighbourhood hit counts ``|N[v] & R|`` and existence flags.

    The four flags are computed independently from the counts, so for small
    sets they may overlap (with ``|R| = 2`` a 1-vertex is also an
    ``(|R|-1)``-vertex).
    """

    counts: tuple[int, ...]
    has0: bool
    has1: bool
    has_r_minus_1: bool
    has_r: bool


def k_vertex_profile(g: Graph, r: VertexSet) -> KVertexProfile:
    chosen = frozenset(r)
    size = len(chosen)
    counts = tuple(
        len(g.adj[v] & chosen) + (1 if v in chosen else 0) for v in range(g.n)
    )
    return KVertexProfile(
        counts,
        0 in counts,
        1 in counts,
        (size - 1) in counts,
        size in counts,
    )


def state_signature(g: Graph, r: VertexSet) -> tuple[int, int, int, int]:
    """The four existence flags tracked by the cotree dynamic program.

    ``a``: some vertex has no chosen vertex in its closed neighbourhood.
    ``b``: some vertex has exactly one chosen vertex in its closed
    neighbourhood. ``c``: some vertex is adjacent to all but one chosen
    vertex. ``d``: some vertex is adjacent to every chosen vertex.

    ``a``/``b`` count the vertex itself when chosen (closed neighbourhood);
    ``c``/``d`` do not (open neighbourhood). Under this split, complementing
    the graph maps the signature ``(a, b, c, d)`` to ``(d, c, b, a)`` exactly,
    which is the permutation the solver applies at complement nodes.
    """
    chosen = frozenset(r)
    size = len(chosen)
    a = b = c = d = 0
    for v in range(g.n):
        open_hits = len(g.adj[v] & chosen)
        closed_hits = open_hits + (1 if v in chosen else 0)
        if closed_hits == 0:
            a = 1
        if closed_hits == 1:
            b = 1
        if open_hits == size - 1:
            c = 1
        if open_hits == size:
            d = 1
    return (a, b, c, d)
