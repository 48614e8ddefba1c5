"""In-memory span recorder and the statistics the ledger reports.

A span is one call into a layer, recorded from the benchmark side of the
call: name, layer, start, end, parent span and interaction id.  Spans of
one interaction share its id; the root span of an analyst action has the
layer ``action``.  Nothing is written while the run measures: spans stay
in a list and :meth:`Tracer.dump` writes them when the run ends.

With the tracer disabled, :meth:`Tracer.span` hands back one shared
no-op context, so the untraced run pays an attribute lookup per call.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

#: Root layer of every analyst action; its span is named
#: ``<phase>:<action>`` and per-layer self times are averaged over the
#: actions of the workload's main phase.
ACTION = "action"


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    interaction: int


class _NullSpan:
    """Stand-in handed out while tracing is off."""

    id = None
    start = 0.0
    interaction = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL = _NullSpan()


class _OpenSpan:
    __slots__ = ("tracer", "name", "layer", "id", "parent", "interaction", "start")

    def __init__(self, tracer: "Tracer", name: str, layer: str) -> None:
        self.tracer = tracer
        self.name = name
        self.layer = layer

    def __enter__(self) -> "_OpenSpan":
        tracer = self.tracer
        stack = tracer._stack
        top = stack[-1] if stack else None
        self.id = next(tracer._ids)
        self.parent = None if top is None else top.id
        self.interaction = self.id if top is None else top.interaction
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        end = time.perf_counter()
        self.tracer._stack.pop()
        self.tracer._spans.append(
            Span(self.id, self.name, self.layer, self.start, end,
                 self.parent, self.interaction)
        )


class Tracer:
    """Span recorder for a single-threaded run: one stack of open spans."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self._spans: list[Span] = []
        self._ids = itertools.count(1)
        self._stack: list[_OpenSpan] = []

    def span(self, name: str, layer: str) -> "_OpenSpan | _NullSpan":
        """Context manager timing one call into ``layer``."""
        if not self.enabled:
            return _NULL
        return _OpenSpan(self, name, layer)

    def add(self, parent: "_OpenSpan | _NullSpan", name: str, layer: str,
            start: float, end: float) -> None:
        """Record a child of ``parent`` whose interval the benchmark
        reconstructed from a report the layer returned (query stage
        records, worker render seconds)."""
        if parent.id is None:
            return
        self._spans.append(
            Span(next(self._ids), name, layer, start, end, parent.id,
                 parent.interaction)
        )

    @property
    def spans(self) -> list[Span]:
        return list(self._spans)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self._spans]))


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(s.start, s.end, children[s.id])
        for s in spans
    }


def layer_report(spans: list[Span], layers: tuple[str, ...], phase: str) -> dict[str, float]:
    """Over the actions of one phase (root spans named ``<phase>:...``):
    mean self milliseconds per action for each layer, and the median
    share of an action's wall time that no layer span accounts for."""
    selfs = self_times(spans)
    roots = {
        s.interaction: s for s in spans
        if s.parent is None and s.layer == ACTION and s.name.startswith(phase + ":")
    }
    per_layer = dict.fromkeys(layers, 0.0)
    for s in spans:
        if s.interaction in roots and s.layer in per_layer:
            per_layer[s.layer] += selfs[s.id]
    n = max(len(roots), 1)
    out = {f"{layer}.self_ms": 1e3 * v / n for layer, v in per_layer.items()}
    shares = [selfs[r.id] / (r.end - r.start) for r in roots.values() if r.end > r.start]
    out["obs.unaccounted_share"] = statistics.median(shares) if shares else 0.0
    out["obs.actions_traced"] = float(len(roots))
    return out


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (q in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]

