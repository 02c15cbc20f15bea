"""Spans around the benchmark's calls into each ``itermem`` module.

A span is opened by the benchmark around one call into a module's public
function, so layer time is inclusive of the lower layers the call reaches;
spans inside the library do not exist yet.  With tracing off, ``call`` is a
plain call, so the measured runs pay one attribute test per library call.
"""

from __future__ import annotations

import contextlib
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field

LAYERS = (
    "complexes",
    "iso",
    "generators",
    "subdivision",
    "protocols",
    "encoding",
    "greedy",
    "simulator",
    "setcover",
    "bounds",
    "io",
    "cli",
)


@dataclass
class Span:
    sid: int
    name: str  # "<layer>.<function>", or "job" for a job span
    job: str
    parent: int | None
    start: float
    end: float = 0.0
    base_bytes: int = 0  # traced memory when the span opened
    peak_bytes: int = 0
    error: str | None = None
    children: list = field(default_factory=list)


class Tracer:
    """Collects spans and counts in memory; summarised when the run ends."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[Span] = []

    def _open(self, name: str, job: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, job, parent.sid if parent else None, 0.0)
        if parent is not None:
            parent.children.append(span.sid)
            peak = tracemalloc.get_traced_memory()[1]
            parent.peak_bytes = max(parent.peak_bytes, peak - parent.base_bytes)
        span.base_bytes = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        peak = tracemalloc.get_traced_memory()[1]
        span.peak_bytes = max(span.peak_bytes, peak - span.base_bytes)
        self._stack.pop()
        if self._stack:
            parent = self._stack[-1]
            parent.peak_bytes = max(parent.peak_bytes, peak - parent.base_bytes)

    @contextlib.contextmanager
    def span(self, name: str, job: str):
        """Record one span; its parent is the innermost open span."""
        span = self._open(name, job)
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            self._close(span)

    @contextlib.contextmanager
    def job(self, job_id: str):
        """The parent span of every layer call a job makes."""
        if not self.enabled:
            yield
            return
        with self.span("job", job_id):
            yield

    def call(self, layer: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named after its layer and function."""
        if not self.enabled:
            return fn(*args, **kwargs)
        job = self._stack[0].job if self._stack else ""
        with self.span(f"{layer}.{fn.__name__}", job):
            return fn(*args, **kwargs)

    def count(self, name: str, k: float = 1) -> None:
        if self.enabled:
            self.counts[name] += k

    # -- summaries ---------------------------------------------------------

    def self_seconds(self, span: Span) -> float:
        """Duration minus the union of the intervals its children cover."""
        intervals = sorted(
            (self.spans[c].start, self.spans[c].end) for c in span.children
        )
        covered, reach = 0.0, span.start
        for start, end in intervals:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        return (span.end - span.start) - covered

    def layer_totals(self) -> dict[str, dict[str, float]]:
        out = {
            layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "peak_mb": 0.0, "errors": 0}
            for layer in LAYERS
        }
        for span in self.spans:
            layer = span.name.split(".", 1)[0]
            if layer not in out:
                continue
            row = out[layer]
            row["calls"] += 1
            row["busy_s"] += span.end - span.start
            row["self_s"] += self.self_seconds(span)
            row["peak_mb"] = max(row["peak_mb"], span.peak_bytes / 2**20)
            row["errors"] += span.error is not None
        return out

    def busy(self, name: str) -> float:
        """Total duration of spans with exactly this ``layer.function`` name."""
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def dump(self) -> list[dict]:
        return [
            {
                "id": s.sid,
                "name": s.name,
                "job": s.job,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "peak_bytes": s.peak_bytes,
                "error": s.error,
            }
            for s in self.spans
        ]
