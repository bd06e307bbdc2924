"""Per-layer spans recorded around the calls into gridfire's modules.

The tracer replaces public functions of gridfire (and the scipy entry
points `gridfire.spread` calls) with wrappers that record a span: name,
start, end and the span that was open when the call began. It records no
span inside the program. A boundary that no longer exists is skipped, so
its metrics read 0 and the trace keeps working when a later solver drops
a dependency.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import gridfire.cli as cli
import gridfire.scenarios as scenarios
import gridfire.spread as spread

# (module or class, attribute, span name)
BOUNDARIES = (
    (cli, "load_catalog", "landscape.load"),
    (cli, "load_landscape", "landscape.load"),
    (cli, "load_weather", "weather.load"),
    (cli, "load_network", "network.load"),
    (cli, "build_matrix", "scenarios.build_matrix"),
    (cli, "run_batch", "scenarios.run_batch"),
    (cli, "write_results", "scenarios.write_results"),
    (cli, "read_results", "scenarios.read_results"),
    (cli, "assess_results", "scenarios.assess"),
    (scenarios, "rank_lines", "risk.rank_lines"),
    (spread.SpreadEngine, "__init__", "spread.engine_build"),
    (spread.SpreadEngine, "run", "spread.run"),
    (spread, "dijkstra", "spread.search"),
    (spread, "breadth_first_order", "spread.reach"),
    (spread, "csr_matrix", "spread.graph_build"),
)

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top


@dataclass
class Tracer:
    """Records spans while installed; `install` and `remove` bracket a round."""

    spans: list[Span] = field(default_factory=list)
    restart_cells: int = 0
    settled_cells: int = 0
    engine: Any = None
    weather: Any = None
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[Any, str, Callable]] = field(default_factory=list)

    def install(self) -> None:
        for owner, attr, name in BOUNDARIES:
            fn = owner.__dict__.get(attr)
            if fn is not None:
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn))

    def remove(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            self._observe(name, args, kwargs, out)
            return out

        return traced

    def _observe(self, name: str, args, kwargs, out) -> None:
        """Counts read from a boundary call's arguments and result."""
        if name == "spread.search":
            graph = args[0]
            start = kwargs.get("indices", args[2] if len(args) > 2 else None)
            if start is None:
                return
            dist = out[0] if isinstance(out, tuple) else out
            settled = int(np.count_nonzero(np.isfinite(dist)))
            if np.ndim(start) == 0:
                # One start node: gridfire's super-source, whose out-edges
                # carry the burned cells the hour restarts from.
                self.restart_cells += int(graph.indptr[start + 1] - graph.indptr[start])
                self.settled_cells += settled - 1
            else:
                self.restart_cells += len(start)
                self.settled_cells += settled
        elif name == "spread.engine_build":
            self.engine = args[0]
        elif name == "weather.load":
            self.weather = out


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)
    return sorted_values[k]


def tail_percentile(n: int) -> float:
    """Highest percentile of the ladder with at least ten samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return 50.0


def round_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals of one traced round, from its spans and counts."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    graph_in_run = 0.0
    for i, s in enumerate(spans):
        d = s.end - s.start
        total[s.name] = total.get(s.name, 0.0) + d
        own[s.name] = own.get(s.name, 0.0) + d - child_time[i]
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.name == "spread.graph_build" and s.parent >= 0 and spans[s.parent].name == "spread.run":
            graph_in_run += d

    edges = 0
    if tracer.engine is not None and tracer.weather is not None:
        edges = int(tracer.engine.edge_costs(tracer.weather.samples[0])[0].size)
    settled = tracer.settled_cells
    return {
        "landscape.load_s": total.get("landscape.load", 0.0),
        "weather.load_s": total.get("weather.load", 0.0),
        "network.load_s": total.get("network.load", 0.0),
        "scenarios.build_matrix_s": total.get("scenarios.build_matrix", 0.0),
        "spread.engine_build_s": total.get("spread.engine_build", 0.0),
        "spread.edges": edges,
        "spread.run_calls": calls.get("spread.run", 0),
        "spread.run_s": total.get("spread.run", 0.0),
        "spread.hour_searches": calls.get("spread.search", 0),
        "spread.search_s": total.get("spread.search", 0.0),
        "spread.restart_cells": tracer.restart_cells,
        "spread.settled_cells": settled,
        "spread.settle_ratio": (settled - tracer.restart_cells) / settled if settled else 0.0,
        "spread.reach_calls": calls.get("spread.reach", 0),
        "spread.reach_s": total.get("spread.reach", 0.0),
        "spread.graph_build_s": graph_in_run,
        "spread.recost_s": own.get("spread.run", 0.0),
        "scenarios.batch_other_s": own.get("scenarios.run_batch", 0.0),
        "scenarios.write_results_s": total.get("scenarios.write_results", 0.0),
        "scenarios.read_results_s": total.get("scenarios.read_results", 0.0),
        "scenarios.assess_s": own.get("scenarios.assess", 0.0),
        "risk.rank_lines_s": total.get("risk.rank_lines", 0.0),
    }


def run_latencies_ms(tracer: Tracer) -> list[float]:
    return [1000.0 * (s.end - s.start) for s in tracer.spans if s.name == "spread.run"]
