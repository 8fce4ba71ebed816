"""In-memory spans for the traced run, and the self-time arithmetic.

A span records its name, the unit it belongs to, its parent span, its
start and its duration.  Spans stay in memory while the run measures and
are written out once at the end (:func:`write_trace`).  A span's *self
time* is its duration minus the part of its interval that its child spans
cover; summing self times per layer attributes every traced second once.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional


class Span:
    __slots__ = ("name", "unit", "parent", "start", "duration", "_recorder")

    def __init__(self, recorder: "SpanRecorder", name: str, unit: int,
                 parent: Optional[int]) -> None:
        self._recorder = recorder
        self.name = name
        self.unit = unit
        self.parent = parent
        self.start = 0.0
        self.duration = 0.0

    def __enter__(self) -> "Span":
        self._recorder._stack.append(len(self._recorder.spans))
        self._recorder.spans.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *_exc: object) -> None:
        self.duration = time.perf_counter() - self.start
        self._recorder._stack.pop()


class SpanRecorder:
    """Collects nested spans; the innermost open span is the parent of the
    next one.  ``unit`` is the id of the unit the work belongs to."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.unit = 0

    def span(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        return Span(self, name, self.unit, parent)


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span), in ``spans`` order."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    selves = []
    for index, span in enumerate(spans):
        low, high = span.start, span.start + span.duration
        covered, cursor = 0.0, low
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            begin = max(child.start, cursor)
            end = min(child.start + child.duration, high)
            if end > begin:
                covered += end - begin
                cursor = end
        selves.append(span.duration - covered)
    return selves


def self_by_name(spans: List[Span],
                 slowness: Optional[Dict[int, float]] = None
                 ) -> Dict[str, float]:
    """Total self seconds per span name; with ``slowness`` (unit id to the
    host's slowness while it ran), each span's at nominal host speed."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        if slowness is not None:
            own /= slowness[span.unit]
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def write_trace(path: str, spans: List[Span]) -> int:
    """Write the spans as a Chrome trace through :mod:`repro.obs`."""
    from repro.obs import Timeline, write_chrome_trace

    depth: List[int] = []
    records = []
    for span, own in zip(spans, self_times(spans)):
        depth.append(0 if span.parent is None else depth[span.parent] + 1)
        records.append({"name": span.name, "ts": span.start,
                        "dur": span.duration, "self": own,
                        "depth": depth[-1],
                        "args": {"unit": span.unit, "parent": span.parent}})
    return write_chrome_trace(path, Timeline(records))
