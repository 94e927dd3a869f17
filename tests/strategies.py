"""Hypothesis strategies and small shared helpers for the test suite."""

import re
from itertools import combinations

import hypothesis.strategies as st

from ftmd import (
    Complement,
    Leaf,
    complement_node,
    format_cotree,
    from_edges,
    parse_cotree,
    random_cotree,
    realize,
    union_node,
)
from ftmd.graph import Graph, connected_components
from ftmd.cotree import iter_nodes


@st.composite
def graphs(draw, min_n=1, max_n=8):
    """Arbitrary simple graphs (not necessarily cographs)."""
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    if pairs:
        edges = draw(st.sets(st.sampled_from(pairs)))
    else:
        edges = set()
    return from_edges(n, edges)


@st.composite
def graphs_with_subset(draw, min_n=1, max_n=8):
    g = draw(graphs(min_n, max_n))
    r = draw(st.sets(st.integers(0, g.n - 1)))
    return g, frozenset(r)


@st.composite
def cotrees(draw, min_n=1, max_n=10):
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_cotree(n, seed)


@st.composite
def cographs(draw, min_n=1, max_n=10):
    return realize(draw(cotrees(min_n, max_n)))


@st.composite
def cographs_with_subset(draw, min_n=1, max_n=10):
    g = draw(cographs(min_n, max_n))
    r = draw(st.sets(st.integers(0, g.n - 1)))
    return g, frozenset(r)


@st.composite
def connected_cographs(draw, min_n=1, max_n=10):
    g = draw(cographs(min_n, max_n))
    # The complement of a disconnected graph is connected, and cographs are
    # closed under complement.
    if len(connected_components(g)) > 1:
        g = complement(g)
    return g


def enumerate_cotrees(max_leaves):
    """Every normalized cotree shape with <= max_leaves leaves, with every
    union node optionally complement-wrapped; leaves labelled left to right."""

    def shapes(leaves):
        if leaves == 1:
            yield ("leaf",)
            return
        for k in range(1, leaves):
            for ls in shapes(k):
                for rs in shapes(leaves - k):
                    u = ("U", ls, rs)
                    yield u
                    yield ("C", u)

    def materialize(shape, counter):
        if shape[0] == "leaf":
            v = counter[0]
            counter[0] += 1
            return Leaf(v)
        if shape[0] == "U":
            left = materialize(shape[1], counter)
            right = materialize(shape[2], counter)
            return union_node(left, right)
        return complement_node(materialize(shape[1], counter))

    for leaves in range(1, max_leaves + 1):
        for shape in shapes(leaves):
            yield materialize(shape, [0])


def threshold_chain(n):
    """Canonical cotree of the threshold graph that adds vertex v isolated for
    even v and dominating for odd v."""
    t = Leaf(0)
    for v in range(1, n):
        if v % 2:
            co = t if isinstance(t, Leaf) else complement_node(t)
            t = complement_node(union_node(co, Leaf(v)))
        else:
            t = union_node(t, Leaf(v))
    return t


def component_with_forced_0_vertex():
    """Connected cograph whose unique minimum fault-tolerant set leaves one
    vertex with no chosen closed neighbour. Two disjoint copies separate
    fault tolerance from 2-neighbourhood resolution."""
    # Vertices: 0 pendant-like, 1 hub joined to a 4-cycle 2-3-4-5.
    edges = [(0, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (3, 4), (4, 5), (2, 5)]
    return from_edges(6, edges)


def complement(g):
    """Graph with exactly the non-edges of ``g``; an involution."""
    full = frozenset(range(g.n))
    return Graph(g.n, tuple(full - g.adj[v] - {v} for v in range(g.n)))


def induced_subgraph(g, s):
    """Subgraph induced by ``s``, reindexed to ``0 .. |s|-1``.

    Returns the subgraph and the old-to-new id map; new ids follow the
    ascending order of the old ones.
    """
    members = sorted(set(s))
    for v in members:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    old_to_new = {old: new for new, old in enumerate(members)}
    keep = frozenset(members)
    adj = tuple(
        frozenset(old_to_new[x] for x in (g.adj[old] & keep)) for old in members
    )
    return Graph(len(members), adj), old_to_new


def graph_key(g):
    """Canonical key for labelled-graph deduplication."""
    return (g.n, tuple(g.edges()))


def relabel(t, mapping):
    """Copy of ``t`` with every leaf id passed through ``mapping``."""
    text = re.sub(r"L(\d+)", lambda m: f"L{mapping[int(m[1])]}", format_cotree(t))
    return parse_cotree(text)


def is_normalized(t):
    """No complement node directly under another complement node."""
    return not any(
        isinstance(node, Complement) and isinstance(node.child, Complement)
        for node in iter_nodes(t)
    )
