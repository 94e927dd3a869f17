#!/usr/bin/env python3
"""Fuzz the solver against the brute-force oracle on random weighted cographs.

Each trial relabels its cograph by a random permutation, so vertex ids do
not follow the generating cotree's left-to-right leaf order. It also solves
the generating cotree itself with ``solve_cotree``, each leaf carrying its
vertex's weight, and runs the certificate ``cotree_weak_pair`` on the
solution's cotree for the solution and for the solution minus one random
member, against ``is_fault_tolerant``. On those two sets and a random one,
``cotree_weak_pair`` in each mode of ``resolving.MODES`` must name the pair
that the definitional search ``resolving.first_failing_pair`` names. Then it
flips one random vertex pair of the cograph: the solution's cotree must not
realise the result, and when ``build_cotree`` rejects it, its witness must
be an induced P4.
"""

import argparse
import random
import sys

from ftmd import (
    NotCographError,
    build_cotree,
    cotree_weak_pair,
    from_edges,
    is_fault_tolerant,
    oracle_min_ft,
    random_cotree,
    realize,
    solve,
    solve_cotree,
)
from ftmd.cotree import realises
from ftmd.resolving import MODES, first_failing_pair


def is_induced_p4(g, witness):
    a, b, c, d = witness
    path = b in g.adj[a] and c in g.adj[b] and d in g.adj[c]
    return path and not (c in g.adj[a] or d in g.adj[a] or d in g.adj[b])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=500)
    parser.add_argument("--max-n", type=int, default=12)
    parser.add_argument("--max-weight", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    mismatches = 0
    for trial in range(args.count):
        n = rng.randint(1, args.max_n)
        tree = random_cotree(n, rng.randrange(2**31))
        ids = rng.sample(range(n), n)
        g = from_edges(n, [(ids[u], ids[v]) for u, v in realize(tree).edges()])
        weights = [rng.randint(0, args.max_weight) for _ in range(n)]
        solution = solve(g, weights)
        # Leaf v of the generating tree is vertex ids[v] of g.
        tree_weight = solve_cotree(tree, [weights[ids[v]] for v in range(n)]).weight
        reference = oracle_min_ft(g, weights)
        bad_weight = solution.weight != reference.weight
        bad_tree = tree_weight != reference.weight
        bad_cert = not is_fault_tolerant(g, set(solution.vertices))
        # The certificate must agree with the definition on the solution and
        # on the solution minus one member.
        chosen = list(solution.vertices)
        if chosen:
            chosen.remove(rng.choice(chosen))
        bad_check = any(
            (cotree_weak_pair(solution.tree, r) is None) != is_fault_tolerant(g, r)
            for r in (solution.vertices, chosen)
        )
        # The least failing pair in every mode, as the definitions name it.
        sets = (solution.vertices, chosen, rng.sample(range(n), rng.randint(0, n)))
        bad_modes = sorted({
            mode
            for r in sets
            for mode in MODES
            if cotree_weak_pair(solution.tree, r, mode) != first_failing_pair(g, r, mode)
        })
        if bad_weight or bad_tree or bad_cert or bad_check or bad_modes:
            mismatches += 1
            print(f"MISMATCH trial={trial} n={n} edges={g.edges()} "
                  f"weights={weights} solver={solution.weight} "
                  f"cotree={tree_weight} oracle={reference.weight} "
                  f"cert_ok={not bad_cert} check_ok={not bad_check} "
                  f"bad_modes={bad_modes}")
        if n < 2:
            continue
        u, v = sorted(rng.sample(range(n), 2))
        flipped = from_edges(n, set(g.edges()) ^ {(u, v)})
        if realises(solution.tree, flipped) is None:
            mismatches += 1
            print(f"REALISES FLIPPED trial={trial} n={n} edges={g.edges()} pair={u} {v}")
        try:
            build_cotree(flipped)
        except NotCographError as exc:
            if exc.witness is None or not is_induced_p4(flipped, exc.witness):
                mismatches += 1
                print(f"BAD WITNESS trial={trial} n={n} edges={flipped.edges()} "
                      f"witness={exc.witness}")
    print(f"{args.count} instances, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
