"""Tests of the benchmark itself: checker, generators and output contract.

    python3 -m pytest benchmark -q

The last tests run run.py end to end on the smallest workload and take
about a minute.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import check  # noqa: E402
import instances  # noqa: E402
import run  # noqa: E402
from ftmd import cotree  # noqa: E402
from ftmd.graph import Graph, disjoint_union  # noqa: E402
from ftmd.oracle import oracle_min_ft  # noqa: E402
from ftmd.resolving import is_fault_tolerant  # noqa: E402


def bitsets(g: Graph) -> list[int]:
    return [sum(1 << u for u in g.adj[v]) for v in range(g.n)]


def random_cograph(rng: random.Random, n: int) -> tuple[cotree.Cotree, Graph]:
    """A random cotree and its graph; about half are disconnected, and some
    get an extra isolated vertex."""
    tree = cotree.random_cotree(n, rng.randrange(1 << 30))
    if rng.random() < 0.25:
        tree = cotree.union_node(tree, cotree.Leaf(n))
    return tree, cotree.realize(tree)


def test_certificate_agrees_with_definition():
    rng = random.Random(7)
    seen = set()
    for _ in range(400):
        _, g = random_cograph(rng, rng.randint(1, 11))
        adj = bitsets(g)
        seen.add(len(set(check.components(g.n, adj))) > 1)
        for _ in range(3):
            chosen = [v for v in range(g.n) if rng.random() < 0.7]
            got = check.first_unseparated_pair(g.n, adj, chosen) is None
            assert got == is_fault_tolerant(g, chosen), (g, chosen)
    assert seen == {False, True}


def test_certificate_rejects_with_a_real_pair():
    # Two isolated vertices and a K2: every pair needs both of its
    # components' chosen vertices, so dropping one vertex breaks a pair.
    g = disjoint_union(Graph(2, (frozenset(), frozenset())), Graph(2, (frozenset({1}), frozenset({0}))))
    adj = bitsets(g)
    assert check.first_unseparated_pair(g.n, adj, [0, 1, 2, 3]) is None
    pair = check.first_unseparated_pair(g.n, adj, [0, 1, 2])
    assert pair is not None and not is_fault_tolerant(g, [0, 1, 2])


def test_expected_weight_and_certificate_match_oracle():
    rng = random.Random(11)
    sizes = [rng.randint(1, 12) for _ in range(60)] + [16]
    for n in sizes:
        tree, g = random_cograph(rng, n)
        weights = [rng.randint(1, 9) for _ in range(g.n)]
        best = oracle_min_ft(g, weights)
        assert check.expected_weight(tree, weights) == best.weight
        assert check.first_unseparated_pair(g.n, bitsets(g), best.witness) is None


def test_sexpr_adjacency_matches_realize():
    rng = random.Random(3)
    for _ in range(100):
        tree, g = random_cograph(rng, rng.randint(1, 30))
        assert check.sexpr_adjacency(cotree.format_cotree(tree), g.n) == bitsets(g)
    assert check.sexpr_adjacency("(U L0 L0)", 2) is None
    assert check.sexpr_adjacency("(U L0 L2)", 2) is None
    assert check.sexpr_adjacency("(U L0 L1))", 2) is None


def test_threshold_chain_shape():
    tree = instances.threshold_chain(16, 5)
    g = cotree.realize(tree)
    assert sum(map(len, g.adj)) // 2 == 16 * 16 // 4 == instances.edge_count(tree)
    assert instances.tree_depth(tree) >= 2 * 16 - 3
    assert cotree.node_count(cotree.build_cotree(g)) == cotree.node_count(tree)


def test_selection_is_seeded():
    assert instances.select("verify-mid", 4) == instances.select("verify-mid", 4)
    assert instances.select("verify-mid", 4) != instances.select("verify-mid", 5)
    for inst, (target, connected) in zip(
        instances.select("random-dense", 2), instances.DENSE_SLOTS
    ):
        tree = instances.make_tree(inst)
        assert abs(instances.edge_count(tree) - target) <= instances.DENSE_SLACK
        assert isinstance(tree, cotree.Complement) == connected


def test_tampered_answers_count_as_failed(tmp_path):
    inst = instances.select("verify-mid", 1)[0]
    instances.write_instance(str(tmp_path), inst)
    argv = instances.solve_argv(str(tmp_path), inst, "verify-mid")
    good = run.run_process(argv, time.perf_counter() + 60, tmp_path / "err")
    weight, vertices, _ = check.parse_answer(good["out"], 2)
    dropped = f"{weight}\n{' '.join(map(str, vertices[1:]))}\n"
    reweighed = f"{weight + 1}\n{' '.join(map(str, vertices))}\n"
    runs = [
        dict(good, instance=0),
        dict(good, instance=0, out=dropped),
        dict(good, instance=0, out=reweighed),
        dict(good, instance=0, code=1),
        dict(good, instance=0, code=None),
    ]
    checker = run.Checker("verify-mid", tmp_path, [inst], time.perf_counter() + 60)
    failed, failures = checker.tally(runs)
    assert failed == 4 and set(failures) == {inst.name}


def test_heavier_fault_tolerant_answer_fails_the_oracle_check(tmp_path):
    # The whole vertex set is always fault-tolerant, so only the oracle's
    # optimum can reject it; on some cographs, such as cliques, it is optimal.
    checker = run.Checker("verify-mid", tmp_path, [], time.perf_counter() + 60)
    rejected = heavier = 0
    for inst in instances.oracle_instances("verify-mid", 1):
        assert instances.ORACLE_N[0] <= inst.n <= instances.ORACLE_N[1]
        instances.write_instance(str(tmp_path), inst)
        weights = instances.make_weights(inst)
        best = oracle_min_ft(cotree.realize(instances.make_tree(inst)), weights).weight
        everything = list(range(inst.n))
        out = f"{sum(weights)}\n{' '.join(map(str, everything))}\n"
        adj = checker.adjacency(inst)
        assert check.first_unseparated_pair(inst.n, adj, everything) is None
        heavier += sum(weights) > best
        rejected += bool(checker.judge(inst, {"code": 0, "out": out}, weights, best, adj))
    assert rejected == heavier >= 1


def test_reference_runs_pass_at_this_commit(tmp_path):
    checker = run.Checker("cotree-input", tmp_path, [], time.perf_counter() + 120)
    count, failures = checker.reference_runs(2)
    assert count == instances.ORACLE_INSTANCES + 1 and failures == {}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmark/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def printed_metrics(stdout: str) -> dict[str, str]:
    lines = stdout.strip().splitlines()
    units = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#"):
            units[parts[0]] = parts[2]
    return units


def test_metrics_match_benchmark_json_and_counts_repeat():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert run.WORKLOADS == instances.WORKLOADS
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)

    plain = bench("--workload", "verify-mid", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert plain.returncode == 0, plain.stderr
    result = json.loads(plain.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert printed_metrics(plain.stdout) == dict(run.END_TO_END, failed_frac="frac")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)

    counts = []
    for _ in range(2):
        traced = bench("--workload", "verify-mid", "--seed", "3", "--seconds", "1", "--trace", "1")
        assert traced.returncode == 0, traced.stderr
        result = json.loads(traced.stdout.strip().splitlines()[-1])
        assert result["correct"]
        assert printed_metrics(traced.stdout) == dict(run.PER_LAYER, failed_frac="frac")
        counts.append({k: result["metrics"][k]["value"] for k in run.COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["graph.n"] == instances.VERIFY_N * instances.VERIFY_INSTANCES


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "deep-chain", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
