"""Seeded instance sets for the four benchmark workloads.

Every instance is described by an ``Instance`` record: the cotree family,
its size, the seed of its shape and the seed of its weights. The workload
seed picks those records; ``make_tree`` and ``make_weights`` rebuild the
exact generating cotree and weights from a record, so run.py can check
answers against the generating cotree without keeping it in memory while
solve processes run.

Run as a script, this module generates one workload's instance files into a
directory, repeating until ``SETUP_MIN_S`` seconds of generation are
measured, and prints the time of each generation as JSON:

    python3 benchmark/instances.py --workload deep-chain --seed 1 --dir D
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from dataclasses import asdict, dataclass

from ftmd import cotree

WORKLOADS = ("random-dense", "deep-chain", "cotree-input", "verify-mid")

# random-dense: n = 1024 and one instance per edge-count slot. Fixing the
# slots (and which of them are disconnected) keeps the instance-set mean
# comparable across workload seeds although single instances differ by
# about 7x in size.
DENSE_N = 1024
DENSE_SLOTS = (  # (target m, connected)
    (60_000, False),
    (160_000, True),
    (260_000, False),
    (360_000, True),
)
DENSE_SLACK = 5_000
CHAIN_N = 256
CHAIN_INSTANCES = 1
COTREE_N = 1 << 16
COTREE_INSTANCES = 2
COTREE_CERT_N = 1 << 10
# Small members of each workload's family, solved as the workload solves
# and checked against the brute-force oracle.
ORACLE_INSTANCES = 3
ORACLE_N = (12, 16)
VERIFY_N = 80
VERIFY_INSTANCES = 10
MAX_WEIGHT = 100
# A generating process repeats the instance set until it has measured this
# long, so short set-ups are timed over several repetitions.
SETUP_MIN_S = 0.5


@dataclass(frozen=True)
class Instance:
    """One benchmark input, rebuilt deterministically from its fields.

    ``family`` is ``random`` (``cotree.random_cotree``), ``connected``
    (the same, complemented at the root when the root is a union, so the
    graph is connected) or ``chain`` (threshold graph whose vertices are
    alternately added isolated and dominating). ``weight_seed`` is ``None``
    for unit weights.
    """

    name: str
    family: str
    n: int
    tree_seed: int
    weight_seed: int | None


def threshold_chain(n: int, seed: int) -> cotree.Cotree:
    """Alternating union/complement chain with vertex labels permuted.

    Vertex ``i`` of the chain (in the permuted order) is isolated when
    ``i`` is even and dominating when ``i`` is odd, so for even ``n`` the
    graph has ``n**2 / 4`` edges and its cotree has depth about ``2n``.
    """
    labels = list(range(n))
    random.Random(seed).shuffle(labels)
    tree: cotree.Cotree = cotree.Leaf(labels[0])
    for i in range(1, n):
        leaf = cotree.Leaf(labels[i])
        if i % 2:
            # Join as complement of a union; a single leaf is self-complementary.
            if not isinstance(tree, cotree.Leaf):
                tree = cotree.complement_node(tree)
            tree = cotree.complement_node(cotree.union_node(tree, leaf))
        else:
            tree = cotree.union_node(tree, leaf)
    return tree


def make_tree(inst: Instance) -> cotree.Cotree:
    if inst.family == "chain":
        return threshold_chain(inst.n, inst.tree_seed)
    tree = cotree.random_cotree(inst.n, inst.tree_seed)
    if inst.family == "connected" and isinstance(tree, cotree.Union):
        tree = cotree.complement_node(tree)
    return tree


def make_weights(inst: Instance) -> list[int]:
    if inst.weight_seed is None:
        return [1] * inst.n
    rng = random.Random(inst.weight_seed)
    return [rng.randint(1, MAX_WEIGHT) for _ in range(inst.n)]


def edge_count(tree: cotree.Cotree) -> int:
    """Edges of the realized graph, computed on the cotree in O(nodes)."""
    stack: list[tuple[int, int]] = []  # (leaves, edges) per finished subtree
    for node in cotree.iter_nodes(tree):
        if isinstance(node, cotree.Leaf):
            stack.append((1, 0))
        elif isinstance(node, cotree.Complement):
            k, m = stack.pop()
            stack.append((k, k * (k - 1) // 2 - m))
        else:
            k2, m2 = stack.pop()
            k1, m1 = stack.pop()
            stack.append((k1 + k2, m1 + m2))
    return stack[0][1]


def tree_depth(tree: cotree.Cotree) -> int:
    """Edges on the longest root-to-leaf path."""
    depth, stack = 0, [(tree, 0)]
    while stack:
        node, d = stack.pop()
        depth = max(depth, d)
        if isinstance(node, cotree.Union):
            stack += [(node.left, d + 1), (node.right, d + 1)]
        elif isinstance(node, cotree.Complement):
            stack.append((node.child, d + 1))
    return depth


def select(workload: str, seed: int) -> list[Instance]:
    """The workload's instance set for ``seed``; the same seed, the same set."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")

    def draw() -> int:
        return rng.randrange(1 << 32)

    if workload == "random-dense":
        out = []
        for i, (target, connected) in enumerate(DENSE_SLOTS):
            while True:
                tree_seed = draw()
                tree = cotree.random_cotree(DENSE_N, tree_seed)
                if isinstance(tree, cotree.Complement) != connected:
                    continue
                if abs(edge_count(tree) - target) <= DENSE_SLACK:
                    break
            out.append(Instance(f"dense{i}", "random", DENSE_N, tree_seed, draw()))
        return out
    if workload == "deep-chain":
        return [
            Instance(f"chain{i}", "chain", CHAIN_N, draw(), None)
            for i in range(CHAIN_INSTANCES)
        ]
    if workload == "cotree-input":
        return [
            Instance(f"cotree{i}", "connected", COTREE_N, draw(), draw())
            for i in range(COTREE_INSTANCES)
        ]
    return [
        Instance(f"mid{i}", "random", VERIFY_N, draw(), draw())
        for i in range(VERIFY_INSTANCES)
    ]


def cert_instance(seed: int) -> Instance:
    """Small member of the cotree-input family, small enough to realize."""
    rng = random.Random(f"cotree-input-cert/{seed}")
    return Instance(
        "cotree-cert", "connected", COTREE_CERT_N, rng.randrange(1 << 32),
        rng.randrange(1 << 32),
    )


def oracle_instances(workload: str, seed: int) -> list[Instance]:
    """Small members of the workload's family, small enough for the oracle."""
    rng = random.Random(f"{workload}-oracle/{seed}")
    family = {"deep-chain": "chain", "cotree-input": "connected"}.get(workload, "random")
    out = []
    for i in range(ORACLE_INSTANCES):
        n, tree_seed = rng.randint(*ORACLE_N), rng.randrange(1 << 32)
        weight_seed = None if family == "chain" else rng.randrange(1 << 32)
        out.append(Instance(f"oracle{i}", family, n, tree_seed, weight_seed))
    return out


def paths(directory: str, inst: Instance) -> tuple[str, str]:
    """Input file and weight file of an instance."""
    base = os.path.join(directory, inst.name)
    return base + (".cotree" if inst.family == "connected" else ".txt"), base + ".w"


def solve_argv(directory: str, inst: Instance, workload: str) -> list[str]:
    """Arguments after the interpreter that solve the instance in a fresh process."""
    graph, weights = paths(directory, inst)
    if inst.family == "connected":
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cotree_solve.py")
        return [script, graph, weights]
    argv = ["-m", "ftmd.cli", "solve", graph]
    if inst.weight_seed is not None:
        argv += ["--weights", weights]
    if workload == "deep-chain":
        argv.append("--cotree")
    if workload == "verify-mid":
        argv.append("--verify")
    return argv


def write_instance(directory: str, inst: Instance) -> cotree.Cotree:
    """Write the instance's files, edge lists in ``ftmd gen`` format; return
    the generating cotree.

    Module functions are looked up on ``cotree`` at call time so that a
    tracer can wrap them.
    """
    graph_path, weight_path = paths(directory, inst)
    tree = make_tree(inst)
    if inst.family == "connected":
        text = cotree.format_cotree(tree) + "\n"
    else:
        g = cotree.realize(tree)
        edges = g.edges()
        lines = [f"{g.n} {len(edges)}\n"]
        lines += [f"{u} {v}\n" for u, v in edges]
        lines.append(f"# cotree: {cotree.format_cotree(tree)}\n")
        text = "".join(lines)
    with open(graph_path, "w", encoding="ascii") as handle:
        handle.write(text)
    if inst.weight_seed is not None:
        weights = make_weights(inst)
        with open(weight_path, "w", encoding="ascii") as handle:
            handle.write("".join(f"{v} {w}\n" for v, w in enumerate(weights)))
    return tree


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    instances = select(args.workload, args.seed)
    seconds: list[float] = []
    edges = []
    while sum(seconds) < SETUP_MIN_S:
        elapsed, edges = 0.0, []
        for inst in instances:
            start = time.perf_counter()
            tree = write_instance(args.dir, inst)
            elapsed += time.perf_counter() - start
            edges.append(edge_count(tree))
            del tree  # no generation runs with an earlier tree alive
        seconds.append(elapsed)
    report = [
        {
            "spec": asdict(inst),
            "argv": solve_argv(args.dir, inst, args.workload),
            "n": inst.n,
            "m": m,
        }
        for inst, m in zip(instances, edges)
    ]
    json.dump({"seconds": seconds, "instances": report}, sys.stdout)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
