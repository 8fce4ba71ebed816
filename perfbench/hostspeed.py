"""Host-speed probe: timings scaled to a nominal host speed.

The benchmark runs on a few cores of a shared host whose speed changes in
phases: on the host the benchmark was defined on, the same pure-Python
loop took 1.0x to 1.9x its fastest time, in phases lasting seconds to
minutes, with no steal time shown.  A phase shifts every timing of a run
alike, so medians over a run do not remove it.

The probe runs a fixed pure-Python loop that shares no code with the
analyzer, between units and off the clock, and records how long it took.
:meth:`Probe.normalize` divides a measured interval by the host's slowness
at that time: the median of the loop times within ``WINDOW`` seconds of
the interval, over ``NOMINAL_S``.  An interval measured while the host runs
at nominal speed is left as it is; a program that does less work reads
faster at any host speed.  On that host, over 5-second windows, the
analyzer's unit times varied by 12-20% (standard deviation of their log)
and their ratio to the loop time by 4-6%.  The ratio is not exact: in a
fast spell the loop speeds up a little more than the analyzer, so runs
made then read up to about 8% slower.

Only the standard library is imported, so the probe runs before the
analyzer is imported and its window covers the imports too.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from typing import List

#: seconds the loop takes at nominal speed (about its usual time on a
#: 2-vCPU x86 VM under CPython 3.11); any fixed value serves, since every
#: commit is measured against the same one.
NOMINAL_S = 0.005
#: seconds on either side of an interval whose probes set its slowness.
WINDOW = 1.0
#: probes an interval's slowness rests on at least (the nearest ones, when
#: the window holds fewer).
MIN_PROBES = 5
#: seconds between probes at least while units run.
INTERVAL = 0.1


class _Node:
    __slots__ = ("key", "edges", "value")

    def __init__(self, key: int) -> None:
        self.key = key
        self.edges = []
        self.value = (key, key)


def _loop() -> int:
    """Interpreter work of the analyzer's kind: small objects, attribute
    reads, dict and set updates, tuples, a sort, then a worklist that
    narrows interval-like pairs along graph edges until it settles."""
    nodes = {}
    seen = set()
    for index in range(2000):
        key = (index * 7919) % 1009
        node = nodes.get(key)
        if node is None:
            node = nodes[key] = _Node(key)
        node.edges.append((index, key & 7))
        if key not in seen:
            seen.add(key)
    order = sorted(nodes.values(), key=lambda node: (len(node.edges), node.key))
    graph = [_Node(key) for key in range(300)]
    for node in graph:
        node.edges = [graph[(node.key * 7 + 1) % 300],
                      graph[(node.key * 13 + 5) % 300]]
    work = list(graph)
    pops = 0
    while work and pops < 3000:
        node = work.pop()
        pops += 1
        low, high = node.value
        for target in node.edges:
            narrowed = (min(target.value[0], low + 1),
                        max(target.value[1], high - 1))
            if narrowed != target.value and pops < 2500:
                target.value = narrowed
                work.append(target)
    return sum(len(node.edges) for node in order) + len(seen) + pops


class Probe:
    """Loop times of one process: ``(start, seconds)``, in time order."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.seconds: List[float] = []
        #: seconds spent probing, for callers that subtract it.
        self.spent = 0.0

    def sample(self, count: int = 1) -> None:
        """Run the loop ``count`` times with the collector off."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                began = time.perf_counter()
                _loop()
                seconds = time.perf_counter() - began
                self.starts.append(began)
                self.seconds.append(seconds)
                self.spent += seconds
        finally:
            if enabled:
                gc.enable()

    def due(self) -> None:
        """Probe once if ``INTERVAL`` has passed since the last probe."""
        if not self.starts or time.perf_counter() - self.starts[-1] >= INTERVAL:
            self.sample()

    def slowness(self, start: float, end: float) -> float:
        """The host's slowness over ``[start, end]``: median loop time near
        it over ``NOMINAL_S``."""
        low = bisect.bisect_left(self.starts, start - WINDOW)
        high = bisect.bisect_right(self.starts, end + WINDOW)
        while high - low < MIN_PROBES and (low > 0 or high < len(self.starts)):
            before = start - self.starts[low - 1] if low > 0 else None
            after = self.starts[high] - end if high < len(self.starts) else None
            if after is None or (before is not None and before <= after):
                low -= 1
            else:
                high += 1
        if high == low:
            raise ValueError("no probe was taken")
        return statistics.median(self.seconds[low:high]) / NOMINAL_S

    def normalize(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, at nominal host speed."""
        return seconds / self.slowness(start, start + seconds)


#: the probe of this process.
PROBE = Probe()
