"""In-memory span recording and self-time arithmetic.

A span is one call into a layer: its name, host start and end times
(``time.perf_counter`` seconds) and the index of the span that was open
when it started.  Spans are kept in a list while the benchmark runs and
written out once, at the end.

A span's *self time* is its duration minus the part of its interval
that its child spans cover.  Summed over every span, self times add up
to the time covered by the top-level spans, so the host time a pass
spends outside every span is exactly ``wall - sum(self times)``.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass
class Span:
    """One span; ``parent`` is an index into the same list."""

    name: str
    start: float
    end: float
    parent: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: list[tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        span.duration - covered(children[index], span.start, span.end)
        for index, span in enumerate(spans)
    ]


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    """Self time summed per span name."""
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] += own
    return dict(totals)


class Tracer:
    """Records spans and named counts in memory, single-threaded."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def start(self, name: str) -> int:
        """Open a span under the innermost open one; returns its index."""
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def stop(self, index: int) -> None:
        """Close span ``index``, which must be the innermost open one."""
        if not self._open or self._open[-1] != index:
            raise RuntimeError("spans must close innermost first")
        self._open.pop()
        self.spans[index].end = self.clock()

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent,
                }) + "\n")
