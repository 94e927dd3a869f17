"""Scaling measurements for the cotree dynamic program.

Times only the table computation and the final extraction; cotree
generation and weight setup stay outside the clock, so the numbers reflect
the per-node work of the solver alone.
"""

from __future__ import annotations

import time
from typing import Iterable, NamedTuple

from .cotree import node_count, random_cotree
from .dp import dp_run, extract_connected_min


class BenchRow(NamedTuple):
    n: int
    nodes: int
    seconds: float


def run_scaling(exponents: Iterable[int], seed: int, repeats: int = 3) -> list[BenchRow]:
    """Best-of-``repeats`` timings for trees with ``2**k`` leaves."""
    rows = []
    for k in exponents:
        n = 1 << k
        tree = random_cotree(n, seed + k)
        weights = [1] * n
        best = float("inf")
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            value = dp_run(tree, weights)
            extract_connected_min(value)
            best = min(best, time.perf_counter() - start)
        rows.append(BenchRow(n, node_count(tree), max(best, 1e-9)))
    return rows


def doubling_ratios(rows: list[BenchRow]) -> list[float]:
    """Time ratios between consecutive sizes (2n versus n)."""
    return [b.seconds / a.seconds for a, b in zip(rows, rows[1:])]
