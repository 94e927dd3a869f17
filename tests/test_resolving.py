import itertools
import random
import tracemalloc

import pytest
from hypothesis import assume, given
import hypothesis.strategies as st

from ftmd import (
    build_cotree,
    cotree_weak_pair,
    from_edges,
    is_fault_tolerant,
    oracle_min_ft,
    parse_cotree,
    random_cotree,
    realize,
    solve,
    solve_cotree,
)
from ftmd.graph import bfs_distances, disjoint_union
from ftmd.resolving import MODES, certify, first_failing_pair, first_unresolved_pair, h, is_2nr
import reference_resolving
from reference_resolving import weak_pair
from signatures import k_vertex_profile, state_signature
from strategies import (
    cographs,
    cographs_with_subset,
    complement,
    component_with_forced_0_vertex,
    connected_cographs,
    enumerate_cotrees,
    graphs_with_subset,
    relabel,
    threshold_chain,
)

K2 = from_edges(2, [(0, 1)])
P3 = from_edges(3, [(0, 1), (1, 2)])
K3 = from_edges(3, [(0, 1), (0, 2), (1, 2)])
TWO_K2 = from_edges(4, [(0, 1), (2, 3)])
C4 = from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def test_h_examples():
    assert h(K2, {0}, 0, 1) == 1
    assert h(P3, {0, 2}, 0, 2) == 2
    assert h(TWO_K2, {0, 1}, 2, 3) == 0


def test_h_rejects_equal_vertices():
    with pytest.raises(ValueError):
        h(K2, {0}, 1, 1)


@given(graphs_with_subset())
def test_h_is_symmetric(gr):
    g, r = gr
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert h(g, r, u, v) == h(g, r, v, u)


@given(graphs_with_subset())
def test_h_is_monotone_in_the_set(gr):
    g, r = gr
    smaller = frozenset(list(r)[: len(r) // 2])
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert h(g, smaller, u, v) <= h(g, r, u, v)


def test_is_resolving_examples():
    assert first_unresolved_pair(K2, {0}, 1) is None
    assert first_unresolved_pair(K3, {0}, 1) is not None
    assert first_unresolved_pair(P3, {0}, 1) is None


def test_is_k_resolving_examples():
    assert first_unresolved_pair(K2, {0, 1}, 2) is None
    assert first_unresolved_pair(P3, {0, 1, 2}, 3) is not None


@given(graphs_with_subset())
def test_k1_resolving_agrees_with_resolving(gr):
    g, r = gr
    assert first_unresolved_pair(g, r, 1) == first_failing_pair(g, r, "resolving")


@given(graphs_with_subset())
def test_full_vertex_set_is_2_resolving(gr):
    g, _ = gr
    assert first_unresolved_pair(g, set(range(g.n)), 2) is None


def test_is_fault_tolerant_examples():
    assert is_fault_tolerant(K2, {0, 1})
    assert is_fault_tolerant(P3, {0, 2})
    assert not is_fault_tolerant(P3, {0, 1})
    # With 0 or 1 vertex there is no pair to separate, so the empty set
    # passes; with 2 it fails. {0} resolves K2, but removing 0 leaves none.
    assert [is_fault_tolerant(from_edges(n, []), set()) for n in (0, 1, 2)] == [True, True, False]
    assert not is_fault_tolerant(K2, {0})


@given(graphs_with_subset())
def test_fault_tolerant_equals_two_resolving(gr):
    g, r = gr
    assert is_fault_tolerant(g, r) == (first_unresolved_pair(g, r, 2) is None)


def test_is_2nr_examples():
    assert is_2nr(K2, {0, 1})
    assert is_2nr(TWO_K2, {0, 1, 2, 3})
    assert not is_2nr(TWO_K2, {0, 1})
    assert is_2nr(C4, {0, 1, 2, 3})


@given(graphs_with_subset())
def test_2nr_implies_fault_tolerant(gr):
    g, r = gr
    if is_2nr(g, r):
        assert is_fault_tolerant(g, r)


@given(cographs_with_subset())
def test_ft_equals_2nr_on_connected_cographs(gr):
    g, r = gr
    from ftmd.graph import connected_components

    if len(connected_components(g)) == 1:
        assert is_fault_tolerant(g, r) == is_2nr(g, r)


@given(cographs_with_subset())
def test_2nr_survives_complement(gr):
    g, r = gr
    if is_2nr(g, r):
        assert is_2nr(complement(g), r)


@given(cographs_with_subset())
def test_ft_of_connected_cograph_survives_complement(gr):
    g, r = gr
    from ftmd.graph import connected_components

    if len(connected_components(g)) == 1 and is_fault_tolerant(g, r):
        assert is_fault_tolerant(complement(g), r)


@given(connected_cographs(max_n=6), connected_cographs(max_n=6))
def test_union_of_fault_tolerant_sets_is_fault_tolerant(g1, g2):
    u = disjoint_union(g1, g2)
    r1 = frozenset(range(g1.n))
    r2 = frozenset(v + g1.n for v in range(g2.n))
    assert is_fault_tolerant(g1, r1)
    assert is_fault_tolerant(u, r1 | r2)


def test_union_2nr_characterization_via_profiles():
    # One endpoint pair where the union stays 2NR and one where it fails.
    g1 = P3
    g2 = P3
    u = disjoint_union(g1, g2)
    r1 = frozenset({0, 1, 2})
    r2 = frozenset({3, 4, 5})
    assert is_2nr(g1, r1) and is_2nr(g2, {0, 1, 2})
    p1 = k_vertex_profile(g1, r1)
    p2 = k_vertex_profile(g2, {0, 1, 2})
    conditions = (
        not (p1.has0 and p2.has0)
        and not (p1.has0 and p2.has1)
        and not (p1.has1 and p2.has0)
    )
    assert is_2nr(u, r1 | r2) == conditions


def test_k_vertex_profile_examples():
    two_k1 = from_edges(2, [])
    p = k_vertex_profile(two_k1, {0, 1})
    assert p.counts == (1, 1)
    assert (p.has0, p.has1, p.has_r_minus_1, p.has_r) == (False, True, True, False)

    p = k_vertex_profile(K2, {0})
    assert p.counts == (1, 1)
    assert p.has1 and p.has_r

    p = k_vertex_profile(P3, {0, 2})
    assert p.counts == (1, 2, 1)
    assert (p.has0, p.has1, p.has_r_minus_1, p.has_r) == (False, True, True, True)


@given(graphs_with_subset())
def test_state_signature_reverses_under_complement(gr):
    g, r = gr
    assert state_signature(complement(g), r) == tuple(
        reversed(state_signature(g, r))
    )


def test_state_signature_closed_open_split():
    # On K2 with both vertices chosen: no 0- or 1-vertex, each vertex is
    # adjacent to all but one chosen vertex, none to all of them.
    assert state_signature(K2, {0, 1}) == (0, 0, 1, 0)
    # On 2K1 both chosen vertices are 1-vertices and nothing is adjacent
    # to any chosen vertex.
    assert state_signature(from_edges(2, []), {0, 1}) == (0, 1, 0, 0)


def separations(g, r, u, v):
    """Members of ``r`` at different BFS distances from ``u`` and ``v``."""
    rows = [bfs_distances(g, x) for x in r]
    return sum(dist[u] != dist[v] for dist in rows)


def assert_pair_exact(pair, g, r):
    """``pair`` is ``None`` exactly when ``r`` is fault-tolerant for ``g``,
    and otherwise a pair that fewer than two members separate."""
    assert (pair is None) == is_fault_tolerant(g, r)
    if pair is not None:
        u, v = pair
        assert 0 <= u < v < g.n
        assert separations(g, r, u, v) < 2


def assert_certificate_exact(g, r):
    assert_pair_exact(cotree_weak_pair(build_cotree(g), r), g, r)


def assert_weak_pair_exact(g, r):
    assert_pair_exact(weak_pair(g, r), g, r)


def subsets(n):
    for bits in range(1 << n):
        yield {v for v in range(n) if bits >> v & 1}


def path(n):
    return from_edges(n, [(v, v + 1) for v in range(n - 1)])


def cycle(n):
    return from_edges(n, [(v, (v + 1) % n) for v in range(n)])


# The certificate on the cotree, ``cotree_weak_pair``.


@given(cographs_with_subset(max_n=12))
def test_weak_pair_is_exact_on_cographs(gr):
    assert_certificate_exact(*gr)


@given(connected_cographs(min_n=2, max_n=12), st.data())
def test_weak_pair_is_exact_on_optimal_sets_and_their_deletions(g, data):
    best = solve(g).vertices
    assert_certificate_exact(g, best)
    assert cotree_weak_pair(build_cotree(g), best) is None
    dropped = data.draw(st.sampled_from(best))
    assert_certificate_exact(g, set(best) - {dropped})


def test_weak_pair_is_exact_across_the_ft_2nr_gap():
    side = component_with_forced_0_vertex()
    g = disjoint_union(side, side)
    ft = oracle_min_ft(g).witness
    # Fault-tolerant but not 2-neighbourhood-resolving.
    assert cotree_weak_pair(build_cotree(g), ft) is None and not is_2nr(g, ft)
    for r in subsets(g.n):
        assert_certificate_exact(g, r)


def test_cotree_weak_pair_is_exact_on_every_small_cotree():
    # Leaves relabelled, so that vertex ids do not follow leaf order.
    rng = random.Random(6)
    for tree in enumerate_cotrees(6):
        n = tree.leaves
        tree = relabel(tree, rng.sample(range(n), n))
        g = realize(tree)
        rows = [bfs_distances(g, x) for x in range(n)]
        for r in subsets(n):
            pair = cotree_weak_pair(tree, r)
            assert (pair is None) == is_fault_tolerant(g, r)
            if pair is not None:
                u, v = pair
                assert 0 <= u < v < n
                assert sum(rows[x][u] != rows[x][v] for x in r) < 2


@pytest.mark.parametrize(
    "make",
    [
        lambda n: random_cotree(n, 0),
        lambda n: relabel(random_cotree(n, 1), random.Random(1).sample(range(n), n)),
        threshold_chain,
        lambda n: build_cotree(from_edges(n, [(0, v) for v in range(1, n)])),
        lambda n: build_cotree(from_edges(n, [(v, v + 1) for v in range(0, n, 2)])),
    ],
    ids=["random", "random-relabelled", "threshold-chain", "star", "matching"],
)
def test_cotree_weak_pair_matches_the_reference_at_2048_vertices(make):
    tree = make(2048)
    g = realize(tree)
    best = solve_cotree(tree).vertices
    rng = random.Random(2048)
    sets = [best, rng.sample(best, len(best) - 1), [v for v in range(g.n) if rng.random() < 0.9]]
    for r in sets:
        pair = cotree_weak_pair(tree, r)
        assert (pair is None) == (weak_pair(g, r) is None)
        if pair is not None:
            # Distances are symmetric: x separates u and v exactly when the
            # BFS rows of u and v differ at x.
            du, dv = (bfs_distances(g, x) for x in pair)
            assert sum(du[x] != dv[x] for x in r) < 2
    assert cotree_weak_pair(tree, best) is None
    assert cotree_weak_pair(tree, sets[1]) is not None


def test_cotree_weak_pair_is_the_least_failing_pair_in_every_mode():
    # Every set on every tree with up to 5 leaves, and a seeded sample of
    # sets at 6 leaves; leaves relabelled, so that vertex ids do not follow
    # leaf order. In mode ft, certify names the same pair.
    rng = random.Random(27)
    for tree in enumerate_cotrees(6):
        n = tree.leaves
        tree = relabel(tree, rng.sample(range(n), n))
        g = realize(tree)
        sets = list(subsets(n))
        if n == 6:
            sets = rng.sample(sets, 3)
        for r, mode in itertools.product(sets, MODES):
            pair = first_failing_pair(g, r, mode)
            assert cotree_weak_pair(tree, r, mode) == pair, (tree, r, mode)
            if mode == "ft":
                reason = pair and f"pair {pair[0]} {pair[1]} separated fewer than twice"
                assert certify(tree, g, r) == reason, (tree, r)


def test_cotree_weak_pair_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode 'k2'"):
        cotree_weak_pair(build_cotree(K2), {0, 1}, "k2")


def test_first_failing_pair_is_the_definition_of_each_mode():
    # On K3, {0} leaves 1 and 2 at one distance and separates 0 and 1 once;
    # {0, 1} resolves K3, but only 0 separates 0 and 2.
    assert MODES == ("resolving", "ft", "2nr")
    assert [first_failing_pair(K3, {0}, mode) for mode in MODES] == [(1, 2), (0, 1), (0, 1)]
    assert [first_failing_pair(K3, {0, 1}, mode) for mode in MODES] == [None, (0, 2), (0, 2)]
    with pytest.raises(ValueError, match="unknown mode 'k2'"):
        first_failing_pair(K3, {0}, "k2")


def test_certify_is_verify_with_its_reason():
    solution = solve(P3)
    other = parse_cotree("(C (U L0 (U L1 L2)))")
    cases = [
        (solution, None),
        (solution._replace(vertices=solution.vertices[1:]), "pair 0 1 separated fewer than twice"),
        (solution._replace(tree=other), "the graph lacks the cotree's edge 0 2"),
    ]
    for s, reason in cases:
        assert certify(s.tree, P3, s.vertices) == reason
        assert s.verify(P3) == (reason is None)


def test_weak_pair_rejects_out_of_range_members():
    for members in ({2}, {-1, 0}):
        with pytest.raises(ValueError, match="chosen vertex out of range for n=2"):
            cotree_weak_pair(build_cotree(K2), members)


def test_every_search_rejects_out_of_range_members():
    # The definitional searches check members as cotree_weak_pair does, in
    # every mode: 2nr's count h alone would pass over a member beyond n.
    message = "chosen vertex out of range for n=2"
    for members in ({0, 1, 5}, {-1, 0}):
        for mode in MODES:
            with pytest.raises(ValueError, match=message):
                first_failing_pair(K2, members, mode)
            with pytest.raises(ValueError, match=message):
                cotree_weak_pair(build_cotree(K2), members, mode)
        for check in (is_2nr, is_fault_tolerant):
            with pytest.raises(ValueError, match=message):
                check(K2, members)


def test_weak_pair_takes_memory_per_component():
    # Nothing in the certificate grows with a component's size squared, or
    # with n per component: a 20,000-vertex perfect matching stays small.
    n = 20_000
    tree = build_cotree(from_edges(n, [(v, v + 1) for v in range(0, n, 2)]))
    tracemalloc.start()
    try:
        assert cotree_weak_pair(tree, range(n)) is None
        assert cotree_weak_pair(tree, range(1, n)) == (0, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


# The reference ``weak_pair`` on graphs of any kind: it falls back to the
# BFS definition beyond diameter 2, and stays exact there.


def test_weak_pair_is_exact_on_paths_and_cycles():
    # Paths from P4 and cycles from C6 on are wider than diameter 2; C5 is
    # not a cograph but has diameter 2.
    for g in [path(n) for n in range(1, 8)] + [cycle(n) for n in range(3, 9)]:
        for r in subsets(g.n):
            assert_weak_pair_exact(g, r)


@given(cographs(min_n=4, max_n=10), st.data())
def test_weak_pair_is_exact_on_a_cograph_plus_one_edge(g, data):
    non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if v not in g.adj[u]]
    assume(non_edges)
    g2 = from_edges(g.n, g.edges() + [data.draw(st.sampled_from(non_edges))])
    assert_weak_pair_exact(g2, solve(g).vertices)
    assert_weak_pair_exact(g2, data.draw(st.sets(st.integers(0, g.n - 1))))


@given(graphs_with_subset())
def test_weak_pair_is_exact_on_any_graph(gr):
    assert_weak_pair_exact(*gr)


@pytest.mark.parametrize(
    "g,wide",
    [(path(5), True), (cycle(6), True), (cycle(5), False), (complement(path(5)), False)],
)
def test_weak_pair_falls_back_only_beyond_diameter_2(monkeypatch, g, wide):
    calls = []
    original = reference_resolving.first_unresolved_pair

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(reference_resolving, "first_unresolved_pair", counting)
    weak_pair(g, range(g.n))
    assert bool(calls) == wide
