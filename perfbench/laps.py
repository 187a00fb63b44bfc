"""Lap timing: the host time of a pass, cell by cell.

A pass runs its cells in a fixed order, so marking the clock before and
after every cell cuts each pass of a run into the same sequence of laps:
a cell, the sweep work between two cells, the next cell, and so on.
The run's ``wall_s`` adds up, lap by lap, the fastest time any of its
untraced passes took for that lap.

Why: on a shared 2-CPU container, a pure-Python loop runs at one of
two speeds about 45% apart, switching every few seconds (README.md,
*Host noise and bounds*).  A whole pass averages over whatever mix of
speeds it met, so pass times spread with the host; the fastest of
several passes for each lap does not, as long as some pass met the fast
speed during that lap.  A change that makes a
cell slower makes its lap slower in every pass, so it still shows.

The marks cost two clock reads per cell and record nothing else; the
traced run's spans (``layers.py``) are separate.
"""

from __future__ import annotations

import functools
import os
from contextlib import ExitStack, contextmanager
from time import perf_counter
from typing import Iterator

from perfbench.layers import patched


def _marked(function, marks: list[float]):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        marks.append(perf_counter())
        try:
            return function(*args, **kwargs)
        finally:
            marks.append(perf_counter())
    return wrapper


@contextmanager
def lap_marks(marks: list[float]) -> Iterator[list[float]]:
    """Mark the clock at the block's ends and around every cell in it.

    A cell is one call of the serial sweep's cell executor, of the fleet
    sweep's cell worker, or of a calibration replay; each is rebound at
    the name its caller looks up.
    """
    from repro.cluster import sweep as cluster_sweep
    from repro.core import sweep
    from repro.trace import pipeline

    with ExitStack() as stack:
        for owner, name in ((sweep, "_execute_cell"),
                            (cluster_sweep, "_cluster_cell_worker"),
                            (pipeline, "replay")):
            stack.enter_context(patched(
                owner, name, _marked(getattr(owner, name), marks)))
        marks.append(perf_counter())
        try:
            yield marks
        finally:
            marks.append(perf_counter())


@contextmanager
def on_cpu(turn: int) -> Iterator[None]:
    """Run the block on one CPU, taking the allowed CPUs in turn.

    The host's slow spells come from outside the process and strike one
    CPU at a time, so passes that take the CPUs in turn rarely all meet
    the same spell.  Without CPU affinity calls, the block runs as is.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def laps(marks: list[float]) -> list[float]:
    """The intervals between consecutive marks."""
    return [end - start for start, end in zip(marks, marks[1:])]


def fastest_laps_total(passes: list[list[float]]) -> float | None:
    """Sum over laps of the fastest pass's time for that lap.

    ``passes`` holds each pass's laps.  Returns None when the passes were
    not cut into the same number of laps, so they cannot be matched up.
    """
    if not passes or len({len(p) for p in passes}) != 1:
        return None
    return sum(min(times) for times in zip(*passes))
