import random
from itertools import combinations

import pytest
from hypothesis import given

from ftmd import Graph, from_edges, random_cotree, realize
from ftmd.cli import read_edge_list
from ftmd.graph import bfs_distances, connected_components, disjoint_union
from strategies import cographs, complement, graphs, induced_subgraph


def test_constructor_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph(2, (frozenset({0, 1}), frozenset({0})))


def test_constructor_rejects_asymmetry():
    with pytest.raises(ValueError):
        Graph(2, (frozenset({1}), frozenset()))


def test_constructor_rejects_out_of_range():
    with pytest.raises(ValueError):
        Graph(2, (frozenset({5}), frozenset()))
    with pytest.raises(ValueError, match="vertex count must be non-negative"):
        Graph(-1, ())


def test_graph_is_immutable_and_copies_are_validated():
    g = from_edges(2, [(0, 1)])
    with pytest.raises(AttributeError):
        g.n = 3
    assert g == from_edges(2, [(0, 1)]) and hash(g) == hash(from_edges(2, [(0, 1)]))
    assert g._replace(adj=(frozenset(), frozenset())) == from_edges(2, [])
    with pytest.raises(ValueError):
        g._replace(adj=(frozenset({1}), frozenset()))
    with pytest.raises(ValueError):
        Graph._make((3, g.adj))


def test_from_edges_rejects_loops_and_range():
    with pytest.raises(ValueError):
        from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        from_edges(3, [(0, 3)])


def test_edges_roundtrip():
    g = from_edges(4, [(0, 1), (2, 3), (0, 3)])
    assert g.edges() == [(0, 1), (0, 3), (2, 3)]
    assert len(g.adj[0]) == 2
    assert repr(g) == "Graph(n=4, m=3)"


def test_complement_of_k2_is_two_isolated_vertices():
    g = complement(from_edges(2, [(0, 1)]))
    assert g.edges() == []


def test_complement_of_empty_graph_is_complete():
    g = complement(from_edges(3, []))
    assert g.edges() == [(0, 1), (0, 2), (1, 2)]


@given(graphs())
def test_complement_is_involution(g):
    assert complement(complement(g)) == g


@given(graphs())
def test_complement_output_is_valid(g):
    # Construction re-validates symmetry and absence of loops.
    gc = complement(g)
    assert gc.n == g.n
    for u, v in combinations(range(g.n), 2):
        assert ((u, v) in set(gc.edges())) != ((u, v) in set(g.edges()))


def test_bfs_on_path():
    g = from_edges(3, [(0, 1), (1, 2)])
    assert bfs_distances(g, 0) == (0, 1, 2)


def test_bfs_unreachable_is_none():
    g = from_edges(3, [(0, 1)])
    assert bfs_distances(g, 0) == (0, 1, None)


def test_bfs_source_out_of_range():
    with pytest.raises(ValueError):
        bfs_distances(from_edges(2, []), 2)


def _floyd_warshall(g):
    inf = float("inf")
    dist = [[inf] * g.n for _ in range(g.n)]
    for v in range(g.n):
        dist[v][v] = 0
    for u, v in g.edges():
        dist[u][v] = dist[v][u] = 1
    for k in range(g.n):
        for i in range(g.n):
            for j in range(g.n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return dist


@given(graphs())
def test_bfs_agrees_with_floyd_warshall(g):
    reference = _floyd_warshall(g)
    for s in range(g.n):
        row = bfs_distances(g, s)
        for v in range(g.n):
            expected = reference[s][v]
            assert row[v] == (None if expected == float("inf") else expected)


@given(cographs(min_n=2))
def test_connected_cograph_has_diameter_at_most_two(g):
    if len(connected_components(g)) != 1:
        return
    for s in range(g.n):
        finite = [d for d in bfs_distances(g, s) if d is not None]
        assert max(finite) <= 2


def test_components_examples():
    assert connected_components(from_edges(3, [(0, 1)])) == [
        frozenset({0, 1}),
        frozenset({2}),
    ]
    assert connected_components(from_edges(3, [(0, 1), (1, 2)])) == [
        frozenset({0, 1, 2})
    ]
    assert connected_components(from_edges(4, [(0, 1), (2, 3)])) == [
        frozenset({0, 1}),
        frozenset({2, 3}),
    ]


def test_induced_subgraph_examples():
    p3 = from_edges(3, [(0, 1), (1, 2)])
    sub, mapping = induced_subgraph(p3, {0, 2})
    assert sub.n == 2 and sub.edges() == []
    assert mapping == {0: 0, 2: 1}

    whole, mapping = induced_subgraph(p3, {0, 1, 2})
    assert whole == p3
    assert mapping == {0: 0, 1: 1, 2: 2}

    k3 = from_edges(3, [(0, 1), (0, 2), (1, 2)])
    sub, _ = induced_subgraph(k3, {1, 2})
    assert sub.edges() == [(0, 1)]


def test_induced_subgraph_rejects_bad_vertices():
    with pytest.raises(ValueError):
        induced_subgraph(from_edges(2, []), {0, 5})


def test_disjoint_union_shifts_second_graph():
    g = disjoint_union(from_edges(2, [(0, 1)]), from_edges(2, [(0, 1)]))
    assert g.edges() == [(0, 1), (2, 3)]


def edge_file(tmp_path, g, rng):
    """``g`` as an edge-list file: edge lines shuffled, with comments, blank
    lines and some ids written with leading zeros or a plus sign."""
    def spell(v):
        return rng.choice((str(v), f"0{v}", f"+{v}"))

    lines = [f"{spell(u)} {spell(v)}" for u, v in g.edges()]
    rng.shuffle(lines)
    for _ in range(len(lines) // 50 + 2):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(("", "# note", "  ")))
    path = tmp_path / "g.txt"
    path.write_text(f"# header next\n{g.n} {len(g.edges())}\n" + "\n".join(lines) + "\n")
    return str(path)


def test_builders_that_skip_validation_build_valid_graphs(tmp_path):
    # from_edges, disjoint_union, realize and read_edge_list build through
    # Graph._unchecked; the validating constructor must accept what they build.
    with pytest.raises(ValueError):
        from_edges(-1, [])
    rng = random.Random(12)
    for seed in range(12):
        n = rng.choice((1, 2, 5, 40, 300))
        cograph = realize(random_cotree(n, seed))
        pairs = list(combinations(range(n), 2))
        other = from_edges(n, rng.sample(pairs, rng.randrange(len(pairs) + 1)))
        for g in (cograph, other, disjoint_union(cograph, other)):
            read = read_edge_list(edge_file(tmp_path, g, rng))
            assert read == g
            for built in (g, read):
                assert Graph(built.n, built.adj) == built
            if g.n > 256:
                ids = {id(v) for nbrs in read.adj for v in nbrs}
                assert len(ids) <= g.n
