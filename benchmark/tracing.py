"""In-memory spans around the public calls of the solve pipeline.

The program is not instrumented. ``Tracer.patched`` replaces module
attributes with wrappers for the duration of a ``with`` block, so a call
that the CLI or the solver makes through one of those names opens a span.
Spans are named ``<module>.<function>`` after the module that defines the
function, carry the index of the span that was open when they started, and
the instance they belong to.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from types import ModuleType
from typing import Callable, Iterable, Iterator

from ftmd import cli, cotree, dp, resolving

# (module holding the name the caller looks up, attribute, span name)
SOLVE_TARGETS = (
    (cli, "read_edge_list", "cli.read_edge_list"),
    (cli, "read_weights", "cli.read_weights"),
    (cli, "solve", "dp.solve"),
    (cli, "build_cotree", "cotree.build_cotree"),
    (cli, "format_cotree", "cotree.format_cotree"),
    (dp, "connected_components", "graph.connected_components"),
    (dp, "induced_subgraph", "graph.induced_subgraph"),
    (dp, "build_cotree", "cotree.build_cotree"),
    (dp, "dp_run", "dp.dp_run"),
    (dp, "extract_connected_min", "dp.extract_connected_min"),
    (resolving, "is_fault_tolerant", "resolving.is_fault_tolerant"),
    (cotree, "parse_cotree", "cotree.parse_cotree"),
)
SETUP_TARGETS = (
    (cotree, "random_cotree", "cotree.random_cotree"),
    (cotree, "realize", "cotree.realize"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    instance: str


class Tracer:
    """Collects spans in memory; ``calls`` keeps the arguments of the span
    names given in ``keep_args``, for counts taken after the timed run."""

    def __init__(self, keep_args: Iterable[str] = ()):
        self.spans: list[Span] = []
        self.instance = ""
        self.calls: dict[str, list[tuple]] = {name: [] for name in keep_args}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.instance))
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, name: str, fn: Callable) -> Callable:
        keep = self.calls.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keep is not None:
                keep.append(args)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def patched(self, targets: Iterable[tuple[ModuleType, str, str]]) -> Iterator[None]:
        """Wrap each existing target attribute; restore all on exit."""
        saved = []
        try:
            for module, attr, name in targets:
                if hasattr(module, attr):
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(name, original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def roots(self) -> list[int]:
        """Index of the root span above each span."""
        out: list[int] = []
        for i, s in enumerate(self.spans):
            out.append(i if s.parent < 0 else out[s.parent])
        return out

    def to_json(self) -> list[dict]:
        return [
            dict(asdict(s), self=t) for s, t in zip(self.spans, self.self_times())
        ]
