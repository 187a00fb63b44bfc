"""Timing replay: feed a captured trace to a core, guard-free.

Replay is the per-configuration half of the pipeline: build a fresh
:class:`~repro.uarch.hierarchy.MemoryHierarchy` for the machine
parameters under test, functionally warm it from the captured fill
ranges and warm stream, then time the measurement stream with the
columnar engine (:func:`repro.uarch.fastpath.replay_columns`), which
reads the encoded columns positionally through a
:class:`~repro.trace.columns.ColumnBatch` — no per-uop ``MicroOp``
objects, no generator resumes.

Every captured trace holds exactly one measurement stream, so the
columnar engine times them all.  :meth:`repro.uarch.core.Core.run`
stays the engine for live SMT and chip runs and the reference the
replay-equivalence tests hold the columnar engine to, byte for byte,
for every workload in the registry.

No watchdog here: the stream length was bounded at capture time, so
wrapping replay in a guard would only add per-uop overhead to the hot
path.
"""

from __future__ import annotations

import gc
from typing import TYPE_CHECKING, Iterable

from repro.trace.columns import ColumnBatch, batch_for
from repro.uarch.core import Core, CoreResult
from repro.uarch.fastpath import replay_columns
from repro.uarch.hierarchy import MemoryHierarchy
from repro.uarch.params import MachineParams
from repro.uarch.uop import MicroOp

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.trace.capture import CapturedTrace

__all__ = ["ReplaySource", "fill_lines", "functional_replay",
           "functional_replay_batch", "replay_trace"]


def fill_lines(hierarchy: MemoryHierarchy,
               ranges: Iterable[tuple[int, int]]) -> None:
    """Install every line of ``(base, nbytes)`` ranges into the LLC.

    One batched :meth:`~repro.uarch.cache.Cache.install_ranges` call
    over the whole fill set.  The line size comes from the LLC being
    warmed — a 128-byte-line hierarchy is filled at 128-byte
    granularity, not a hardcoded 64.
    """
    hierarchy.llc.install_ranges(ranges)


def functional_replay(hierarchy: MemoryHierarchy,
                      uops: Iterable[MicroOp]) -> None:
    """Replay ``uops`` through the hierarchy without core timing.

    Orders LRU recency, fills L1/L2/TLBs, and trains the prefetcher
    tables — one instruction-fetch access per new code line plus the
    load/store data accesses, exactly the warming walk the live runner
    performs.  The code-line granularity is the hierarchy's own
    ``line_bytes`` (the same shift the core's fetch stage uses), not a
    hardcoded 64.
    """
    last_line = -1
    line_shift = hierarchy.params.line_bytes.bit_length() - 1
    access = hierarchy.access_timed
    for uop in uops:
        line = uop.pc >> line_shift
        if line != last_line:
            last_line = line
            access(uop.pc, False, True, uop.is_os)
        kind = uop.kind
        if kind == 1:  # LOAD
            access(uop.addr, False, False, uop.is_os)
        elif kind == 2:  # STORE
            access(uop.addr, True, False, uop.is_os)


def functional_replay_batch(hierarchy: MemoryHierarchy,
                            batch: ColumnBatch) -> None:
    """:func:`functional_replay`, batched over a column view.

    Access-for-access identical to replaying the decoded stream — same
    per-new-line instruction fetch, same load/store walk — with the
    per-uop object construction and attribute loads hoisted out and the
    hierarchy's own batched walk handling the per-access dispatch.
    """
    line_shift = hierarchy.params.line_bytes.bit_length() - 1
    hierarchy.warm_batch(batch.access_ops(line_shift))


class ReplaySource:
    """Functional warming from one :class:`CapturedTrace`."""

    def __init__(self, captured: "CapturedTrace") -> None:
        self.captured = captured

    def warm_into(self, hierarchy: MemoryHierarchy) -> None:
        """Replay the captured fill ranges and warm stream."""
        fill_lines(hierarchy, self.captured.fill_ranges)
        functional_replay_batch(hierarchy, batch_for(self.captured.warm))


def replay_trace(captured: "CapturedTrace",
                 params: MachineParams) -> CoreResult:
    """One timing measurement: warm a fresh hierarchy, replay the columns.

    The cyclic collector is paused for the duration of the measurement:
    replay allocates no reference cycles (cache dicts, deques, and the
    memoized column lists are all acyclic), but its steady allocation
    rate triggers generation-2 collections whose full-heap scans walk
    the multi-million-element memoized trace columns — measured at
    roughly a third of replay wall time, collecting nothing.
    """
    source = ReplaySource(captured)
    hierarchy = MemoryHierarchy(params)
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        source.warm_into(hierarchy)
        return replay_columns(Core(params, hierarchy),
                              batch_for(captured.stream))
    finally:
        if gc_was_enabled:
            gc.enable()
