"""Spans around the benchmark's calls into the library.

A span records a name, start, end and the span open when it began. The
spans stay in memory and are summed per name at the end of the job. A
span's self time is its duration minus the part of it that its child spans
cover.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, self.clock(), None, parent])
        self._open.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = self.clock()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        totals: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - covered(start, end, children[idx])
        return dict(totals)


def covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of `intervals` clipped to [start, end]."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


class NullTracer:
    """The untraced path: the same calls with no span bookkeeping."""

    def span(self, name: str):
        return nullcontext()

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)
