"""Spans recorded from the benchmark's side of each call into chancekit.

A span is (name, start, end, parent, op): `name` is `module.function` of the
public call, times come from `time.perf_counter`, `parent` is the index of the
enclosing span (-1 at top level) and `op` the operation the call belongs to.
Spans stay in memory and are written once, when the run ends.  With tracing
off, `span()` returns one shared no-op context so the untraced run pays only a
method call per boundary.
"""

from __future__ import annotations

import json
import math
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

_OFF = nullcontext()


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        stack = tracer._stack
        self.index = len(tracer.spans)
        tracer.spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, tracer.op])

    def __enter__(self) -> None:
        self.tracer._stack.append(self.index)

    def __exit__(self, *exc) -> None:
        self.tracer.spans[self.index][2] = perf_counter()
        self.tracer._stack.pop()


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = 0

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _OFF

    def call(self, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span named after fn's module and name."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with _Span(self, f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"):
            return fn(*args, **kwargs)

    def timed(self, fn, *args, **kwargs):
        """(result, seconds) of one traced call; tracing must be on."""
        index = len(self.spans)
        out = self.call(fn, *args, **kwargs)
        _, start, end, _, _ = self.spans[index]
        return out, end - start

    def self_seconds(self, end: int | None = None) -> dict[str, float]:
        """Total self time per span name over the first `end` spans: each
        span's duration minus the time its direct children cover (children
        never overlap: one caller, no threads)."""
        spans = self.spans[:end]
        out: dict[str, float] = {}
        for name, start, stop, _, _ in spans:
            out[name] = out.get(name, 0.0) + (stop - start)
        for _, start, stop, parent, _ in spans:
            if parent >= 0:
                out[spans[parent][0]] -= stop - start
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


_TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(values: list[float]) -> dict:
    """The highest listed percentile with at least ten samples beyond it
    (nearest rank), with the percentile and the sample count; value None
    when fewer than twenty samples leave no percentile that qualifies."""
    n = len(values)
    ordered = sorted(values)
    for pct in _TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return {"value": ordered[rank - 1], "percentile": pct, "samples": n}
    return {"value": None, "percentile": None, "samples": n}
