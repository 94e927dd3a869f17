import importlib.util
import itertools
import math
from pathlib import Path

import pytest
from hypothesis import given, settings

from ftmd import from_edges, is_fault_tolerant, oracle_min_ft
from ftmd.graph import connected_components, disjoint_union
from ftmd.resolving import first_unresolved_pair, is_2nr
from ftmd.oracle import oracle_min_2nr, oracle_min_resolving
from strategies import cographs, component_with_forced_0_vertex, graphs

K2 = from_edges(2, [(0, 1)])
P3 = from_edges(3, [(0, 1), (1, 2)])
K3 = from_edges(3, [(0, 1), (0, 2), (1, 2)])
K4 = from_edges(4, list(itertools.combinations(range(4), 2)))


def test_oracle_ft_examples():
    res = oracle_min_ft(K2)
    assert (res.weight, res.witness, res.optimal_count) == (2, (0, 1), 1)
    assert oracle_min_ft(P3).weight == 2
    assert oracle_min_ft(P3).witness == (0, 2)
    assert oracle_min_ft(K4).weight == 4


def test_oracle_resolving_examples():
    assert oracle_min_resolving(P3).weight == 1
    assert oracle_min_resolving(K3).weight == 2


def test_oracle_2nr_examples():
    assert oracle_min_2nr(from_edges(4, [(0, 1), (2, 3)])).weight == 4
    single = from_edges(1, [])
    res = oracle_min_2nr(single)
    assert res.weight == 0 and res.witness == ()


def test_guard_rejects_large_graphs():
    g = from_edges(21, [])
    for fn in (oracle_min_ft, oracle_min_2nr, oracle_min_resolving):
        with pytest.raises(ValueError):
            fn(g)


def test_oracle_validates_weights():
    with pytest.raises(ValueError):
        oracle_min_ft(K2, [1])
    with pytest.raises(ValueError):
        oracle_min_ft(K2, [-1, 1])
    for bad in ([True, False], [math.nan, 1], [math.inf, 1], [1, -math.inf]):
        with pytest.raises(ValueError):
            oracle_min_ft(K2, bad)


@given(graphs(max_n=6))
def test_witness_is_feasible_and_minimal(g):
    for fn, checker in [
        (oracle_min_ft, is_fault_tolerant),
        (oracle_min_2nr, is_2nr),
        (oracle_min_resolving, lambda g, r: first_unresolved_pair(g, r, 1) is None),
    ]:
        res = fn(g)
        assert checker(g, set(res.witness))
        # No subset of strictly smaller weight passes (unit weights: size).
        for size in range(len(res.witness)):
            assert not any(
                checker(g, set(sub))
                for sub in itertools.combinations(range(g.n), size)
            )


@given(graphs(max_n=6))
def test_ft_weight_at_least_resolving_weight(g):
    assert oracle_min_ft(g).weight >= oracle_min_resolving(g).weight


@given(cographs(max_n=9))
def test_ft_equals_2nr_weight_on_connected_cographs(g):
    if len(connected_components(g)) == 1:
        assert oracle_min_ft(g).weight == oracle_min_2nr(g).weight


def test_lex_smallest_witness_under_zero_weights():
    # Both {1} and {0, 2} resolve P3 at weight 0; the witness must be the
    # lexicographically smaller vertex tuple.
    res = oracle_min_resolving(P3, [0, 0, 0])
    assert res.weight == 0
    assert res.witness == (0,)


def test_optimal_count():
    # P3 resolving sets of size 1: {0} and {2}.
    assert oracle_min_resolving(P3).optimal_count == 2


def test_disconnected_gap_between_ft_and_2nr():
    side = component_with_forced_0_vertex()
    assert len(connected_components(side)) == 1
    assert oracle_min_ft(side).weight == 4
    g = disjoint_union(side, side)
    ft = oracle_min_ft(g)
    two_nr = oracle_min_2nr(g)
    assert ft.weight == 8
    assert two_nr.weight > ft.weight


@settings(max_examples=25)
@given(graphs(max_n=5))
def test_oracle_agrees_with_direct_enumeration(g):
    best = None
    for size in range(g.n + 1):
        for sub in itertools.combinations(range(g.n), size):
            if is_fault_tolerant(g, set(sub)):
                if best is None or len(sub) < best:
                    best = len(sub)
    assert oracle_min_ft(g).weight == best


def test_crosscheck_script_passes(capsys):
    path = Path(__file__).resolve().parent.parent / "scripts" / "crosscheck_random.py"
    spec = importlib.util.spec_from_file_location("crosscheck_random", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--count", "40", "--max-n", "8"]) == 0
    assert capsys.readouterr().out == "40 instances, 0 mismatches\n"
