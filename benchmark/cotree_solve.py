"""Solve a connected cograph given as a cotree s-expression.

    python3 benchmark/cotree_solve.py TREE_FILE WEIGHT_FILE

Prints the optimal weight and the sorted solution set, as ``ftmd solve``
does. Recognition is bypassed: the pipeline is ``parse_cotree``, ``dp_run``
and ``extract_connected_min``, with weights read by the CLI's own parser.
The CLI has no cotree input yet; this stands in for it. Functions are
looked up on their modules at call time so that a tracer can wrap them.
"""

from __future__ import annotations

import sys

from ftmd import cli, cotree, dp


def main(argv: list[str]) -> int:
    tree_path, weight_path = argv
    with open(tree_path, encoding="ascii") as handle:
        tree = cotree.parse_cotree(handle.read())
    weights = cli.read_weights(weight_path, cotree.leaf_count(tree))
    weight, chosen = dp.extract_connected_min(dp.dp_run(tree, weights))
    print(weight)
    print(" ".join(map(str, sorted(chosen))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
