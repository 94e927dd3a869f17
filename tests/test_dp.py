from array import array
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from ftmd import (
    EmptyGraphError,
    Leaf,
    NotCographError,
    Union,
    build_cotree,
    complement_node,
    dp_run,
    extract_connected_min,
    finite_states,
    format_cotree,
    from_edges,
    is_fault_tolerant,
    oracle_min_ft,
    parse_cotree,
    random_cotree,
    realize,
    solve,
    union_node,
)
from ftmd.cotree import LEAF, UNION, _from_arrays, flat, leaf_count
from ftmd.resolving import is_2nr
from ftmd.dp import entry_vertices, state_index, state_tuple
from ftmd.oracle import oracle_min_2nr
from ftmd.cotree import root_components
import ftmd.dp as dp_module
from ftmd.dp import Table
from reference_dp import Entry, dp_complement, dp_leaf, dp_union
import reference_dp
from signatures import state_signature
from strategies import enumerate_cotrees, relabel


def table_of(states):
    """Build a 16-slot table from {(a,b,c,d): weight} with dummy records."""
    out = [None] * 16
    for key, weight in states.items():
        out[state_index(*key)] = Entry(weight, 0, None)
    return tuple(out)


def _dp_of(value):
    """The module that made ``value``: ``ftmd.dp`` or the reference DP."""
    return dp_module if isinstance(value, Table) else reference_dp


def weights_of(value):
    return {k: e.weight for k, e in _dp_of(value).finite_states(value).items()}


def sets_of(value):
    dp = _dp_of(value)
    states = dp.finite_states(value)
    return {k: (e.weight, dp.entry_vertices(e)) for k, e in states.items()}


def test_state_tuple_roundtrip():
    for i in range(16):
        assert state_index(*state_tuple(i)) == i


def test_dp_complement_palindromic_index():
    t = table_of({(0, 1, 1, 0): 2})
    assert weights_of(dp_complement(t)) == {(0, 1, 1, 0): 2}


def test_dp_complement_permutes_index():
    t = table_of({(1, 0, 0, 0): 5})
    assert weights_of(dp_complement(t)) == {(0, 0, 0, 1): 5}


def test_dp_complement_is_involution():
    t = table_of({(0, 1, 0, 0): 1, (1, 0, 1, 1): 7})
    assert dp_complement(dp_complement(t)) == t


def test_dp_complement_keeps_single_vertex():
    t = dp_leaf(3, 5)
    assert dp_complement(t) == t


def test_leaf_leaf_unit_weights():
    t = dp_union(dp_leaf(0, 1), dp_leaf(1, 1))
    assert weights_of(t) == {(0, 1, 0, 0): 2}
    assert sum(e is not None for e in t) == 1


def test_leaf_leaf_weighted_and_reconstruction():
    t = dp_union(dp_leaf(0, 3), dp_leaf(1, 5))
    entry = reference_dp.finite_states(t)[(0, 1, 0, 0)]
    assert entry.weight == 8
    assert reference_dp.entry_vertices(entry) == frozenset({0, 1})


def test_leaf_table_with_k2_table():
    # The table of K2 over vertices {1, 2}: only (0,0,1,0) is feasible.
    k2_table = dp_complement(dp_union(dp_leaf(1, 1), dp_leaf(2, 1)))
    assert weights_of(k2_table) == {(0, 0, 1, 0): 2}
    result = dp_union(dp_leaf(0, 1), k2_table)
    # Choosing the isolated vertex adds its weight; leaving it out keeps
    # the K2 entry and records the 0-vertex.
    assert weights_of(result) == {(0, 1, 0, 0): 3, (1, 0, 1, 0): 2}
    e = reference_dp.finite_states(result)[(1, 0, 1, 0)]
    assert reference_dp.entry_vertices(e) == frozenset({1, 2})


def test_leaf_table_all_infeasible_propagates():
    empty = (None,) * 16
    assert dp_union(dp_leaf(0, 1), empty) == empty


def test_leaf_table_zero_weight_leaf():
    k2_table = dp_complement(dp_union(dp_leaf(1, 1), dp_leaf(2, 1)))
    result = dp_union(dp_leaf(0, 0), k2_table)
    assert weights_of(result)[(0, 1, 0, 0)] == 2


def test_table_table_two_k2_tables():
    t1 = dp_complement(dp_union(dp_leaf(0, 1), dp_leaf(1, 1)))
    t2 = dp_complement(dp_union(dp_leaf(2, 1), dp_leaf(3, 1)))
    result = dp_union(t1, t2)
    assert weights_of(result) == {(0, 0, 0, 0): 4}
    e = reference_dp.finite_states(result)[(0, 0, 0, 0)]
    assert reference_dp.entry_vertices(e) == frozenset({0, 1, 2, 3})


def test_table_table_direct_formula():
    t1 = table_of({(0, 0, 0, 0): 5})
    t2 = table_of({(0, 0, 1, 1): 7})
    result = dp_union(t1, t2)
    assert weights_of(result) == {(0, 0, 0, 0): 12}


def test_table_table_finite_positions_are_restricted():
    rng = random.Random(7)
    allowed = {(0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0)}
    for _ in range(50):
        states1 = {
            state_tuple(i): rng.randint(0, 9) for i in rng.sample(range(16), 5)
        }
        states2 = {
            state_tuple(i): rng.randint(0, 9) for i in rng.sample(range(16), 5)
        }
        result = dp_union(table_of(states1), table_of(states2))
        assert set(weights_of(result)) <= allowed


def test_dp_run_leaf_is_single_vertex():
    assert sets_of(dp_run(Leaf(0), [7])) == {
        (0, 1, 1, 0): (7, frozenset({0})),
        (1, 0, 0, 1): (0, frozenset()),
    }


def test_dp_run_k2():
    tree = complement_node(union_node(Leaf(0), Leaf(1)))
    assert weights_of(dp_run(tree, [1, 1])) == {(0, 0, 1, 0): 2}


def test_dp_run_p3_heavy_centre():
    p3 = from_edges(3, [(0, 1), (1, 2)])
    tree = build_cotree(p3)
    weight, chosen = extract_connected_min(dp_run(tree, [1, 100, 1]))
    assert weight == 2
    assert chosen == frozenset({0, 2})


def test_leaf_table_is_symmetric_in_child_order():
    inner = complement_node(union_node(Leaf(1), Leaf(2)))
    left = union_node(Leaf(0), inner)
    right = union_node(inner, Leaf(0))
    w = [1, 2, 3]
    assert sets_of(dp_run(left, w)) == sets_of(dp_run(right, w))


def test_extract_on_leaf_gives_empty_set():
    # Agrees with solve() on a single vertex: nothing needs separating.
    assert extract_connected_min(dp_run(Leaf(0), [1])) == (0, frozenset())


def test_extract_rejects_all_infeasible():
    empty = dp_run(Leaf(0), [1])._replace(states=(), ids=())
    with pytest.raises(RuntimeError):
        extract_connected_min(empty)


def test_extract_examples():
    k2 = from_edges(2, [(0, 1)])
    assert extract_connected_min(dp_run(build_cotree(k2), [1, 1])) == (
        2,
        frozenset({0, 1}),
    )
    import itertools

    for n in (3, 4, 5):
        kn = from_edges(n, list(itertools.combinations(range(n), 2)))
        weight, chosen = extract_connected_min(dp_run(build_cotree(kn), [1] * n))
        assert weight == n and chosen == frozenset(range(n))
    c4 = from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    weight, chosen = extract_connected_min(dp_run(build_cotree(c4), [1] * 4))
    assert weight == 4 and chosen == frozenset(range(4))


def _subtree_graph_and_map(node):
    from ftmd.cotree import leaf_labels

    labels = leaf_labels(node)
    rank = {label: i for i, label in enumerate(sorted(labels))}
    return realize(relabel(node, rank)), rank


def test_tables_match_bruteforce_per_signature():
    """Every finite entry is the exact minimum over sets with its signature."""
    rng = random.Random(42)
    for tree in enumerate_cotrees(6):
        n = leaf_count(tree)
        for weights in ([1] * n, [rng.randint(0, 6) for _ in range(n)]):
            value = dp_run(tree, weights)
            g = realize(tree)
            brute = {}
            for bits in range(1 << n):
                r = frozenset(v for v in range(n) if bits >> v & 1)
                if not is_2nr(g, r):
                    continue
                sig = state_signature(g, r)
                wt = sum(weights[v] for v in r)
                if sig not in brute or wt < brute[sig]:
                    brute[sig] = wt
            assert weights_of(value) == brute


def test_root_minimum_matches_2nr_oracle():
    for tree in enumerate_cotrees(5):
        value = dp_run(tree, [1] * leaf_count(tree))
        g = realize(tree)
        weight, chosen = extract_connected_min(value)
        assert weight == oracle_min_2nr(g).weight
        assert is_2nr(g, chosen)


def test_no_entry_ever_claims_0_and_1_vertices_together():
    for tree in enumerate_cotrees(5):
        trace = []
        dp_run(tree, [1] * leaf_count(tree), trace=trace)
        for _, value in trace:
            for key in finite_states(value):
                assert key[:2] != (1, 1)


def test_tables_hold_at_most_six_finite_entries():
    # Case analysis bound: 2 (leaf), 1 (leaf-leaf), 6 (leaf-table),
    # 3 (table-table); complementing only permutes. Keeps per-node work
    # constant.
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(2, 40)
        tree = random_cotree(n, rng.randrange(2**31))
        trace = []
        dp_run(tree, [rng.randint(0, 5) for _ in range(n)], trace=trace)
        for _, value in trace:
            assert len(finite_states(value)) <= 6


def test_trace_signatures_are_sound_on_subtrees():
    for tree in enumerate_cotrees(4):
        trace = []
        dp_run(tree, [1] * leaf_count(tree), trace=trace)
        for node, value in trace:
            sub, rank = _subtree_graph_and_map(node)
            for key, entry in finite_states(value).items():
                chosen = frozenset(rank[v] for v in entry_vertices(entry))
                assert is_2nr(sub, chosen)
                assert state_signature(sub, chosen) == key


def test_dp_run_on_root_components_matches_reparsed_copies():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(2, 120)
        tree = union_node(random_cotree(n, rng.randrange(2**31)), Leaf(n))
        weights = [rng.randint(0, 4) for _ in range(n + 1)]
        for part in root_components(tree):
            copy = parse_cotree(format_cotree(part))
            trace, copy_trace = [], []
            table = dp_run(part, weights, trace)
            copy_table = dp_run(copy, weights, copy_trace)
            assert sets_of(table) == sets_of(copy_table)
            assert extract_connected_min(table) == extract_connected_min(copy_table)
            assert [node for node, _ in trace] == [node for node, _ in copy_trace]
            assert [sets_of(t) for _, t in trace] == [sets_of(t) for _, t in copy_trace]


def test_solve_two_isolated_vertices():
    g = from_edges(2, [])
    solution = solve(g, [4, 9])
    assert solution.weight == 13
    assert solution.vertices == (0, 1)
    assert [o.kind for o in solution.components] == [
        "isolated-included",
        "isolated-included",
    ]


def test_solve_excludes_a_single_isolated_vertex():
    g = from_edges(3, [(0, 1)])
    solution = solve(g)
    assert solution.weight == 2
    assert solution.vertices == (0, 1)
    assert solution.components[1].kind == "isolated-excluded"


def test_solve_keeps_the_cotree_of_the_whole_graph():
    g = from_edges(5, [(0, 1), (2, 3)])
    solution = solve(g)
    assert realize(solution.tree) == g
    assert [o.vertices for o in solution.components] == [(0, 1), (2, 3), (4,)]


def test_solution_repr_leaves_out_the_tree():
    assert repr(solve(from_edges(2, [(0, 1)]))) == (
        "Solution(weight=2, vertices=(0, 1), components=(ComponentOutcome("
        "vertices=(0, 1), chosen=(0, 1), weight=2, kind='solved'),))"
    )


def test_solve_single_vertex():
    solution = solve(from_edges(1, []))
    assert solution.weight == 0
    assert solution.vertices == ()


def test_solve_rejects_empty_graph():
    with pytest.raises(EmptyGraphError):
        solve(from_edges(0, []))


def test_solve_rejects_non_cograph_with_original_ids():
    # P4 on shifted ids inside a larger graph.
    g = from_edges(6, [(0, 1), (2, 3), (3, 4), (4, 5)])
    with pytest.raises(NotCographError) as exc:
        solve(g)
    assert exc.value.witness in [(2, 3, 4, 5), (5, 4, 3, 2)]


def test_solve_validates_weights():
    g = from_edges(2, [(0, 1)])
    with pytest.raises(ValueError):
        solve(g, [1])
    with pytest.raises(ValueError):
        solve(g, [1, -2])
    for bad in ([True, False], [math.nan, 1], [math.inf, 1], [1, -math.inf]):
        with pytest.raises(ValueError):
            solve(g, bad)


def test_solve_weight_stays_integer():
    g = from_edges(2, [(0, 1)])
    assert isinstance(solve(g, [2, 3]).weight, int)


def test_component_additivity():
    rng = random.Random(5)
    for _ in range(30):
        n1, n2 = rng.randint(2, 5), rng.randint(2, 5)
        g1 = realize(random_cotree(n1, rng.randrange(2**31)))
        g2 = realize(random_cotree(n2, rng.randrange(2**31)))
        from ftmd.graph import connected_components, disjoint_union

        if len(connected_components(g1)) > 1 or len(connected_components(g2)) > 1:
            continue
        u = disjoint_union(g1, g2)
        assert solve(u).weight == solve(g1).weight + solve(g2).weight


@settings(max_examples=40)
@given(st.integers(1, 9), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_solve_matches_oracle_with_random_weights(n, seed, wseed):
    g = realize(random_cotree(n, seed))
    rng = random.Random(wseed)
    weights = [rng.randint(0, 10) for _ in range(n)]
    solution = solve(g, weights)
    assert solution.weight == oracle_min_ft(g, weights).weight
    assert is_fault_tolerant(g, set(solution.vertices))
    assert solution.verify(g)


def test_decimal_weights_as_fractions_are_exact():
    k3 = from_edges(3, [(0, 1), (0, 2), (1, 2)])
    weights = [Fraction("0.3"), Fraction("0.1"), Fraction("0.7")]
    # As floats, 0.3 + 0.1 + 0.7 depends on the summation order.
    assert solve(k3, weights).weight == Fraction("1.1") == oracle_min_ft(k3, weights).weight


def test_verify_random_cograph_with_2048_vertices_in_seconds():
    g = realize(random_cotree(2048, 0))
    assert sum(map(len, g.adj)) // 2 > 10**6
    solution = solve(g)
    start = time.perf_counter()
    assert solution.verify(g)
    # Unit weights make the set minimum in size, so no vertex can go.
    assert not solution._replace(vertices=solution.vertices[1:]).verify(g)
    assert time.perf_counter() - start < 10


def _reference_solve(g, weights=None):
    """``solve`` with the reference DP in place of the flat one."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dp_module, "dp_run", reference_dp.dp_run)
        mp.setattr(dp_module, "extract_connected_min", reference_dp.extract_connected_min)
        return solve(g, weights)


def test_tables_match_reference_on_all_small_cotrees():
    rng = random.Random(2)
    for tree in enumerate_cotrees(6):
        n = leaf_count(tree)
        for weights in ([1] * n, [rng.randint(0, 3) for _ in range(n)]):
            flat, ref = [], []
            dp_run(tree, weights, flat)
            reference_dp.dp_run(tree, weights, ref)
            assert [node for node, _ in flat] == [node for node, _ in ref]
            assert [sets_of(t) for _, t in flat] == [sets_of(t) for _, t in ref]


@pytest.mark.parametrize("weighting", ["unit", "0-3", "float"])
def test_tables_match_reference_on_random_cotrees(weighting):
    rng = random.Random(weighting)
    for k in range(1, 13):
        for _ in range(3):
            n = rng.randint(2 ** (k - 1), 2**k)
            tree = random_cotree(n, rng.randrange(2**31))
            if weighting == "unit":
                weights = [1] * n
            elif weighting == "0-3":
                weights = [rng.randint(0, 3) for _ in range(n)]
            else:
                weights = [rng.choice((0.1, 0.2, 0.3, 0.7, 1.0)) for _ in range(n)]
            flat, ref = [], []
            root = dp_run(tree, weights, flat)
            ref_root = reference_dp.dp_run(tree, weights, ref)
            for (_, table), (_, ref_table) in zip(flat, ref, strict=True):
                assert weights_of(table) == weights_of(ref_table)
            expected = reference_dp.extract_connected_min(ref_root)
            assert extract_connected_min(root) == expected


def test_tables_match_reference_on_mirrored_unions():
    # Equally cheap pairs from different left states need two sides with
    # matching tables, which random cotrees of these sizes almost never
    # have. A union of a tree and a relabelled copy of it has them, so the
    # scan order decides which vertex sets are kept.
    for tree in enumerate_cotrees(6):
        n = leaf_count(tree)
        kinds, labels = flat(tree)
        copy = _from_arrays(bytearray(kinds), array("i", [v + n for v in labels]))
        mirrored, ref = [], []
        dp_run(union_node(tree, copy), [1] * (2 * n), mirrored)
        reference_dp.dp_run(union_node(tree, copy), [1] * (2 * n), ref)
        assert [sets_of(t) for _, t in mirrored] == [sets_of(t) for _, t in ref]


def test_solve_picks_the_reference_set_on_ties():
    rng = random.Random(3000)
    for i in range(3000):
        n = rng.randint(1, 40)
        g = realize(random_cotree(n, rng.randrange(2**31)))
        weights = [1] * n if i % 2 else [rng.randint(0, 3) for _ in range(n)]
        assert solve(g, weights) == _reference_solve(g, weights)


def test_left_scan_order_picks_the_returned_optimum():
    # Six sets of weight 10 are optimal. Scanning the left side's states with
    # a 0-vertex first returns the one below; a plain ascending scan would
    # return (0, 1, 2, 3, 4, 5, 8, 9, 10, 11).
    t = complement_node(
        parse_cotree(
            "(U (C (U L0 (C (U L1 (U (C (U L2 L3)) (C (U L4 L5)))))))"
            " (C (U L6 (C (U L7 (U (C (U L8 L9)) (C (U L10 L11))))))))"
        )
    )
    g = realize(t)
    solution = solve(g)
    assert solution.weight == oracle_min_ft(g).weight == 10
    assert solution.vertices == (2, 3, 4, 5, 6, 7, 8, 9, 10, 11)


def test_dp_run_rejects_repeated_labels():
    # A repeat is reported before a label outside the weights.
    for text in ("(C (U L0 L0))", "(U (U L5 L0) L0)", "(U (U L0 L0) L5)"):
        with pytest.raises(ValueError, match="repeat"):
            dp_run(parse_cotree(text), [1])


@pytest.mark.parametrize(
    "tree",
    [
        parse_cotree("(U L0 L2)"),
        _from_arrays(bytearray([LEAF, LEAF, UNION]), array("i", [-1, 0])),
    ],
)
def test_dp_run_rejects_labels_outside_the_weights(tree):
    with pytest.raises(ValueError, match=r"must lie in 0 \.\. 1"):
        dp_run(tree, [1, 1])


def test_dp_run_judges_a_component_by_its_own_labels():
    # The whole tree repeats L0, but each component is checked alone.
    tree = parse_cotree("(U (C (U L0 L1)) (C (U L0 L5)))")
    good, bad = root_components(tree)
    assert extract_connected_min(dp_run(good, [1, 1])) == (2, frozenset({0, 1}))
    with pytest.raises(ValueError, match=r"must lie in 0 \.\. 1"):
        dp_run(bad, [1, 1])


def test_dp_run_checks_a_trees_labels_once_per_bound():
    # n/2 disjoint K2s: after the first component, a component's label check
    # allocates nothing in proportion to n.
    n = 1 << 18
    text = "(U " * (n // 2 - 1) + "(C (U L0 L1))"
    text += "".join(f" (C (U L{v} L{v + 1})))" for v in range(2, n, 2))
    first, second = root_components(parse_cotree(text))[:2]
    weights = [1] * n
    dp_run(first, weights)
    tracemalloc.start()
    try:
        dp_run(second, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_complement_keeps_a_tables_order_and_reverses_its_states():
    rng = random.Random(1010)
    for _ in range(300):
        n = rng.randint(2, 80)
        tree = random_cotree(n, rng.randrange(2**31))
        if not isinstance(tree, Union):
            tree = complement_node(tree)
        weights = [rng.randint(0, 9) for _ in range(n)]
        table = dp_run(tree, weights)
        complemented = dp_run(complement_node(tree), weights)
        assert complemented.ids == table.ids
        assert complemented.weights == table.weights
        reversed_states = tuple(dp_module._REVERSED[i] for i in table.states)
        assert complemented.states == reversed_states


def test_union_plans_from_the_leaf_shape_reach_the_documented_shapes():
    # Shapes come only from plans, so every registered one is reachable from
    # the leaf's; filling every plan among them until none is new closes them.
    filled = 0
    while filled < len(dp_module._shape_states):
        filled = len(dp_module._shape_states)
        for shape1 in range(filled):
            for shape2 in range(filled):
                dp_module._union_plan(shape1, shape2)
    assert f"{filled} shapes are reachable" in dp_module.__doc__
    complements = dp_module._complement_shapes
    for shape, states in enumerate(dp_module._shape_states):
        twin = dp_module._shape_states[complements[shape]]
        assert twin == tuple(dp_module._REVERSED[i] for i in states)
        assert complements[complements[shape]] == shape


_FIRST_USE = """
import json, sys, threading
from ftmd import dp_run, finite_states, random_cotree

trees = [random_cotree(1 << 10, 500 + seed) for seed in range(4)]
weights = [[(v * 7 + seed) % 11 for v in range(1 << 10)] for seed in range(4)]
if sys.argv[1] == "threads":
    sys.setswitchinterval(1e-6)
    start = threading.Barrier(4)
    tables = [None] * 4

    def run(i):
        start.wait()
        tables[i] = dp_run(trees[i], weights[i])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
else:
    tables = [dp_run(tree, w) for tree, w in zip(trees, weights)]
print(json.dumps([[(k, e.weight) for k, e in finite_states(t).items()] for t in tables]))
"""


def test_first_use_under_threads_matches_a_sequential_run():
    # Each run starts a fresh interpreter, so all four threads fill the plan
    # lists and register shapes from empty at once.
    src = os.path.dirname(os.path.dirname(dp_module.__file__))
    env = {**os.environ, "PYTHONPATH": src}

    def tables(mode):
        out = subprocess.run(
            [sys.executable, "-c", _FIRST_USE, mode],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        return json.loads(out)

    threaded = tables("threads")
    assert all(threaded)
    assert threaded == tables("sequential")
