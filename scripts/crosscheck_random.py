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

With ``--large`` it checks instead five laws that hold for any
minimum-weight problem over a fixed family of feasible sets, none of which
reads the dynamic program, on random, threshold-chain and perfect-matching
cotrees of 2^16 and 2^18 leaves, where no oracle reaches. Large trees are
built as text for ``parse_cotree``: ``union_node`` copies its arrays, so a
chain of them takes quadratic time.
"""

import argparse
import random
import re
import sys
import time

from ftmd import (
    NotCographError,
    build_cotree,
    cotree_weak_pair,
    format_cotree,
    from_edges,
    is_fault_tolerant,
    oracle_min_ft,
    parse_cotree,
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


def union_chain(terms):
    """Cotree text of the disjoint union of the cotree texts ``terms``, as a
    chain of ``(U`` nested on the left."""
    terms = list(terms)
    return "(U " * (len(terms) - 1) + terms[0] + "".join(f" {t})" for t in terms[1:])


def matching_text(n):
    """Cotree text of a perfect matching on an even ``n``: 2i meets 2i + 1."""
    return union_chain(f"(C (U L{v} L{v + 1}))" for v in range(0, n, 2))


def threshold_chain_text(n):
    """Cotree text of the threshold graph that adds vertex v isolated for
    even v and dominating for odd v: ``(U t Lv)``, or ``(C (U (C t) Lv))``,
    with ``C C t`` written as ``t``."""
    opens, closes = [], []
    for v in range(1, n):
        if v % 2 == 0:
            opens.append("(U ")
            closes.append(f" L{v})")
        else:
            opens.append("(C (U " if v == 1 else "(C (U (C ")
            closes.append(f" L{v}))" if v == 1 else f") L{v}))")
    return "".join(reversed(opens)) + "L0" + "".join(closes)


def broken_laws(tree, weights, rng):
    """The laws that ``solve_cotree`` breaks on ``tree`` with the int
    ``weights``, whose optimum is w* and answer R:

    - sum: w* is the weight of R, and ``cotree_weak_pair`` passes R in mode ft;
    - relabel: permuting labels and weights together keeps w*;
    - scale: multiplying every weight by c > 0 multiplies w* by c;
    - lower-chosen: lowering the weight of a member of R by d, at most its
      weight, lowers w* by exactly d;
    - raise-unchosen: raising the weight of a vertex outside R keeps w*.
    """
    n = len(weights)
    base = solve_cotree(tree, weights)
    chosen = set(base.vertices)
    broken = []
    if base.weight != sum(weights[v] for v in chosen) or cotree_weak_pair(tree, chosen, "ft"):
        broken.append("sum")
    perm = rng.sample(range(n), n)
    text = re.sub(r"\d+", lambda label: str(perm[int(label[0])]), format_cotree(tree))
    moved = [0] * n
    for v, w in enumerate(weights):
        moved[perm[v]] = w
    if solve_cotree(parse_cotree(text), moved).weight != base.weight:
        broken.append("relabel")
    c = rng.randint(2, 9)
    if solve_cotree(tree, [c * w for w in weights]).weight != c * base.weight:
        broken.append("scale")
    if paid := sorted(v for v in chosen if weights[v] > 0):
        v = rng.choice(paid)
        d = rng.randint(1, weights[v])
        lowered = list(weights)
        lowered[v] -= d
        if solve_cotree(tree, lowered).weight != base.weight - d:
            broken.append("lower-chosen")
    if unchosen := [v for v in range(n) if v not in chosen]:
        raised = list(weights)
        raised[rng.choice(unchosen)] += rng.randint(1, 9)
        if solve_cotree(tree, raised).weight != base.weight:
            broken.append("raise-unchosen")
    return broken


def check_large(rng, max_weight):
    """The laws on random, threshold-chain and matching trees of 2^16 and
    2^18 leaves; the number of trees that break one."""
    failures = 0
    for k in (16, 18):
        n = 2**k
        trees = (
            ("random", random_cotree(n, rng.randrange(2**31))),
            ("threshold-chain", parse_cotree(threshold_chain_text(n))),
            ("matching", parse_cotree(matching_text(n))),
        )
        for name, tree in trees:
            start = time.perf_counter()
            weights = [rng.randint(0, max_weight) for _ in range(n)]
            broken = broken_laws(tree, weights, rng)
            failures += bool(broken)
            print(f"{name} 2^{k}: {'BROKEN ' + ' '.join(broken) if broken else 'ok'} "
                  f"({time.perf_counter() - start:.1f} s)")
    print(f"6 large trees, {failures} with a broken law")
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=500)
    parser.add_argument("--max-n", type=int, default=12)
    parser.add_argument("--max-weight", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--large", action="store_true",
                        help="check the laws on trees of 2^16 and 2^18 leaves instead")
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    if args.large:
        return check_large(rng, args.max_weight)
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
