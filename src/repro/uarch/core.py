"""Cycle-approximate out-of-order core.

The model captures the structures the paper's analysis depends on:

* 4-wide fetch/dispatch/issue/commit, 128-entry ROB, 36 reservation
  stations, 48/32-entry load/store queues (Table 1);
* instruction fetch through the L1-I with next-line prefetch — I-cache
  misses stall the frontend (Fig. 2's mechanism);
* true-dependence-limited issue (ILP) and super-queue-limited off-core
  memory parallelism (MLP, Fig. 3);
* a branch predictor whose mispredictions charge a frontend redirect
  penalty (the wrong-path flushes of §4's PARSEC/SPECint discussion);
* in-order commit with the §3.1 cycle classification: a cycle Commits if
  at least one instruction retires, else it is Stalled; Memory cycles
  are super-queue-busy cycles plus L2-instruction-hit and TLB stalls.

Execution consumes pre-generated micro-op traces (one per hardware
thread; two for SMT) produced by the workloads in :mod:`repro.apps`.
SMT (Figure 3) is simply a run over two traces: fetch rotates between
the threads, and the ROB, reservation stations, load/store buffers,
super queue and every cache level are competitively shared.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.uarch.branch import BranchPredictor
from repro.uarch.counters import COUNTER_NAMES, CounterSet
from repro.uarch.hierarchy import MemoryHierarchy
from repro.uarch.params import MachineParams
from repro.uarch.uop import MicroOp, OpKind


class _Entry:
    """ROB entry."""

    __slots__ = ("uop", "completed", "issued", "ndeps", "waiters", "is_load", "hw_tid")

    def __init__(self, uop: MicroOp, hw_tid: int = 0) -> None:
        self.uop = uop
        self.completed = False
        self.issued = False
        self.ndeps = 0
        self.waiters: list[_Entry] | None = None
        self.is_load = uop.kind == OpKind.LOAD
        self.hw_tid = hw_tid


class _ThreadState:
    """Frontend state of one hardware thread."""

    __slots__ = (
        "trace",
        "stall_until",
        "pending",
        "last_line",
        "exhausted",
        "inflight",
        "last_is_os",
    )

    def __init__(self, trace: Iterator[MicroOp]) -> None:
        self.trace = trace
        self.stall_until = 0
        self.pending: MicroOp | None = None
        self.last_line = -1
        self.exhausted = False
        self.inflight: dict[int, _Entry] = {}
        self.last_is_os = False


@dataclass
class CoreResult:
    """Counters gathered over one measured execution."""

    cycles: int = 0
    instructions: int = 0
    os_instructions: int = 0
    committing_cycles: int = 0
    committing_cycles_os: int = 0
    stalled_cycles: int = 0
    stalled_cycles_os: int = 0
    memory_cycles: int = 0
    superq_busy_cycles: int = 0
    superq_requests: int = 0
    mlp: float = 0.0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    branch_mispredicts: int = 0
    l1i_misses: int = 0
    l1i_misses_os: int = 0
    l2i_misses: int = 0
    l2i_misses_os: int = 0
    l1d_misses: int = 0
    l2_demand_hits: int = 0
    l2_demand_accesses: int = 0
    llc_misses: int = 0
    llc_data_refs: int = 0
    remote_dirty_hits: int = 0
    remote_dirty_hits_os: int = 0
    offchip_bytes: int = 0
    offchip_bytes_os: int = 0
    per_thread_instructions: list[int] = field(default_factory=list)

    def to_counters(self) -> CounterSet:
        c = CounterSet()
        for name in COUNTER_NAMES:
            c[name] = float(getattr(self, name))
        return c


class Core:
    """One out-of-order core executing 1 (baseline) or 2 (SMT) threads."""

    def __init__(
        self,
        params: MachineParams,
        hierarchy: MemoryHierarchy | None = None,
        core_id: int = 0,
    ) -> None:
        self.params = params
        self.core_id = core_id
        self.hierarchy = hierarchy if hierarchy is not None else MemoryHierarchy(
            params, core_id=core_id
        )
        self.branch_predictor = BranchPredictor()
        self._cycle = 0

    # ------------------------------------------------------------------
    def run(
        self,
        traces: Iterable[Iterator[MicroOp]],
        max_cycles: int | None = None,
    ) -> CoreResult:
        """Execute the given per-thread traces to completion."""
        params = self.params
        hier = self.hierarchy
        predictor = self.branch_predictor
        width = params.width
        rob_capacity = params.rob_entries
        rs_capacity = params.reservation_stations
        load_buffer = params.load_buffer
        line_shift = params.line_bytes.bit_length() - 1
        l1i_lat = params.l1i.latency
        alu_lat = params.alu_latency
        mispredict_penalty = params.branch_mispredict_penalty

        threads = [_ThreadState(iter(t)) for t in traces]
        nthreads = len(threads)
        if nthreads == 0:
            return CoreResult()

        # Super-queue occupancy, tracked inline for speed (the standalone
        # SuperQueue class is used by unit tests; here we integrate the
        # same statistics without per-cycle calls).
        superq_capacity = params.mshr_entries
        superq: list[int] = []  # heap of completion cycles
        superq_busy = 0
        superq_area = 0  # sum of occupancy over busy cycles
        superq_last = 0
        superq_requests = 0

        rob: deque[_Entry] = deque()
        ready: deque[_Entry] = deque()
        waiting = 0  # dispatched but not issued (reservation stations)
        outstanding_loads = 0

        completing: dict[int, list[_Entry]] = {}
        event_heap: list[int] = []

        result = CoreResult(per_thread_instructions=[0] * nthreads)
        baseline_hier = _HierarchySnapshot(hier)
        baseline_branch = (predictor.stats.branches, predictor.stats.mispredicts)

        cycle = self._cycle
        start_cycle = cycle
        fetch_turn = 0

        def superq_advance(now: int) -> None:
            nonlocal superq_busy, superq_area, superq_last
            if now <= superq_last:
                return
            t = superq_last
            superq_last = now
            while superq and t < now:
                head = superq[0]
                if head > now:
                    width_c = now - t
                    superq_busy += width_c
                    superq_area += width_c * len(superq)
                    t = now
                    break
                if head > t:
                    width_c = head - t
                    superq_busy += width_c
                    superq_area += width_c * len(superq)
                    t = head
                heapq.heappop(superq)
            if superq and t < now:
                width_c = now - t
                superq_busy += width_c
                superq_area += width_c * len(superq)

        while True:
            if max_cycles is not None and cycle - start_cycle >= max_cycles:
                break
            # ---- wakeup completions scheduled for this cycle ----------
            if event_heap and event_heap[0] <= cycle:
                while event_heap and event_heap[0] <= cycle:
                    when = heapq.heappop(event_heap)
                    for entry in completing.pop(when, ()):  # noqa: B909
                        entry.completed = True
                        if entry.is_load:
                            outstanding_loads -= 1
                        if entry.waiters:
                            for waiter in entry.waiters:
                                waiter.ndeps -= 1
                                if waiter.ndeps == 0 and not waiter.issued:
                                    ready.append(waiter)

            # ---- commit (in order, up to width) ------------------------
            committed_this_cycle = 0
            first_commit_os = False
            while rob and committed_this_cycle < width:
                head = rob[0]
                if not head.completed:
                    break
                rob.popleft()
                uop = head.uop
                tstate = threads[head.hw_tid]
                tstate.inflight.pop(uop.seq, None)
                if committed_this_cycle == 0:
                    first_commit_os = uop.is_os
                committed_this_cycle += 1
                result.instructions += 1
                result.per_thread_instructions[head.hw_tid] += 1
                if uop.is_os:
                    result.os_instructions += 1

            if committed_this_cycle:
                result.committing_cycles += 1
                if first_commit_os:
                    result.committing_cycles_os += 1
            else:
                result.stalled_cycles += 1
                if rob:
                    if rob[0].uop.is_os:
                        result.stalled_cycles_os += 1
                elif threads[fetch_turn % nthreads].last_is_os:
                    result.stalled_cycles_os += 1

            # ---- issue (up to width ready micro-ops) -------------------
            issued = 0
            while ready and issued < width:
                entry = ready[0]
                uop = entry.uop
                kind = uop.kind
                if kind == OpKind.LOAD:
                    if outstanding_loads >= load_buffer:
                        break
                    if len(superq) >= superq_capacity:
                        superq_advance(cycle)
                    if len(superq) >= superq_capacity:
                        # Cannot start another off-core miss; conservatively
                        # wait (we do not know hit/miss before access).
                        break
                    ready.popleft()
                    latency, _level, off_core, _ = hier.access_timed(
                        uop.addr, False, False, uop.is_os, cycle)
                    done = cycle + latency
                    outstanding_loads += 1
                    if off_core:
                        superq_advance(cycle)
                        heapq.heappush(superq, done)
                        superq_requests += 1
                elif kind == OpKind.STORE:
                    ready.popleft()
                    # Stores drain through the store buffer; commit is not
                    # held up by their miss latency, but the access still
                    # updates cache state, bandwidth, and the directory.
                    hier.access_timed(uop.addr, True, False, uop.is_os, cycle)
                    done = cycle + 1
                else:  # ALU or BRANCH
                    ready.popleft()
                    done = cycle + alu_lat
                entry.issued = True
                waiting -= 1
                issued += 1
                bucket = completing.get(done)
                if bucket is None:
                    completing[done] = [entry]
                    heapq.heappush(event_heap, done)
                else:
                    bucket.append(entry)

            # ---- fetch + dispatch --------------------------------------
            dispatched = 0
            attempts = 0
            while (
                dispatched < width
                and len(rob) < rob_capacity
                and waiting < rs_capacity
                and attempts < nthreads
            ):
                hw_tid = fetch_turn % nthreads
                tstate = threads[hw_tid]
                fetch_turn += 1
                attempts += 1
                if tstate.exhausted or tstate.stall_until > cycle:
                    continue
                attempts = 0  # this thread can supply uops this cycle
                while (
                    dispatched < width
                    and len(rob) < rob_capacity
                    and waiting < rs_capacity
                    and tstate.stall_until <= cycle
                ):
                    uop = tstate.pending
                    if uop is not None:
                        tstate.pending = None
                    else:
                        uop = next(tstate.trace, None)
                        if uop is None:
                            tstate.exhausted = True
                            break
                        line = uop.pc >> line_shift
                        if line != tstate.last_line:
                            tstate.last_line = line
                            latency, level, off_core, _ = hier.access_timed(
                                uop.pc, False, True, uop.is_os, cycle)
                            hier.prefetch_instruction(uop.pc)
                            if level != "l1":
                                tstate.stall_until = cycle + latency
                                if off_core:
                                    superq_advance(cycle)
                                    heapq.heappush(superq, tstate.stall_until)
                                    superq_requests += 1
                                tstate.pending = uop
                                break
                        if uop.kind == OpKind.BRANCH:
                            result.branches += 1
                            mispredicted, btb_missed = predictor.predict_and_update(
                                uop.pc, uop.taken, uop.target
                            )
                            if mispredicted:
                                result.branch_mispredicts += 1
                                tstate.stall_until = cycle + mispredict_penalty
                                # The branch itself still dispatches below.
                            elif btb_missed:
                                # Correct direction, unknown target: the
                                # frontend re-steers once the target is
                                # computed at decode/execute.
                                tstate.stall_until = cycle + 8
                    # Dispatch into ROB.
                    entry = _Entry(uop, hw_tid)
                    tstate.last_is_os = uop.is_os
                    if uop.kind == OpKind.LOAD:
                        result.loads += 1
                    elif uop.kind == OpKind.STORE:
                        result.stores += 1
                    inflight = tstate.inflight
                    for dep in uop.deps:
                        producer = inflight.get(dep)
                        if producer is not None and not producer.completed:
                            entry.ndeps += 1
                            if producer.waiters is None:
                                producer.waiters = [entry]
                            else:
                                producer.waiters.append(entry)
                    inflight[uop.seq] = entry
                    rob.append(entry)
                    waiting += 1
                    dispatched += 1
                    if entry.ndeps == 0:
                        ready.append(entry)
                if tstate.pending is not None or tstate.exhausted:
                    continue

            # ---- termination / idle-cycle skipping ---------------------
            if not rob and all(t.exhausted for t in threads):
                cycle += 1
                break

            if (
                committed_this_cycle == 0
                and issued == 0
                and dispatched == 0
            ):
                candidates = []
                if event_heap:
                    candidates.append(event_heap[0])
                for t in threads:
                    if not t.exhausted and t.stall_until > cycle:
                        candidates.append(t.stall_until)
                if candidates:
                    target = min(candidates)
                    if max_cycles is not None:
                        # The skip may not jump past the cycle budget:
                        # an uncapped fast-forward would credit stalled
                        # cycles beyond the requested window (and report
                        # cycles > max_cycles for the bounded run).
                        target = min(target, start_cycle + max_cycles)
                    if target > cycle + 1:
                        skipped = target - cycle - 1
                        result.stalled_cycles += skipped
                        if rob:
                            if rob[0].uop.is_os:
                                result.stalled_cycles_os += skipped
                        elif threads[fetch_turn % nthreads].last_is_os:
                            result.stalled_cycles_os += skipped
                        cycle = target - 1
                else:
                    raise RuntimeError(
                        "core deadlock: nothing in flight but trace not done"
                    )
            cycle += 1

        superq_advance(cycle)
        self._cycle = cycle

        result.cycles = result.committing_cycles + result.stalled_cycles
        result.superq_busy_cycles = superq_busy
        result.superq_requests = superq_requests
        result.mlp = superq_area / superq_busy if superq_busy else 0.0
        result.memory_cycles = min(
            result.cycles,
            superq_busy
            + (hier.l2_instr_hit_stalls - baseline_hier.l2_instr_hit_stalls)
            + (hier.itlb_miss_stalls - baseline_hier.itlb_miss_stalls)
            + (hier.stlb_miss_stalls - baseline_hier.stlb_miss_stalls),
        )
        baseline_hier.apply_delta(result, hier)
        result.branches = predictor.stats.branches - baseline_branch[0]
        result.branch_mispredicts = predictor.stats.mispredicts - baseline_branch[1]
        return result


class _HierarchySnapshot:
    """Counter snapshot so ``run`` reports deltas over its own window."""

    def __init__(self, hier: MemoryHierarchy) -> None:
        self.l1i_misses = hier.l1i.stats.inst_misses
        self.l1i_misses_os = hier.l1i.stats.os_inst_misses
        self.l2i_misses = hier.l2.stats.inst_misses
        self.l2i_misses_os = hier.l2.stats.os_inst_misses
        self.l1d_misses = hier.l1d.stats.data_misses
        self.l2_demand_hits = hier.l2.stats.demand_hits
        self.l2_demand_accesses = hier.l2.stats.demand_accesses
        self.llc_misses = hier.llc.stats.demand_misses
        self.llc_data_refs = hier.directory.stats.llc_data_refs
        self.remote_dirty_hits = hier.directory.stats.remote_dirty_hits
        self.remote_dirty_hits_os = hier.directory.stats.os_remote_dirty_hits
        self.offchip_bytes = hier.dram.stats.total_bytes
        self.offchip_bytes_os = hier.dram.stats.os_bytes
        self.l2_instr_hit_stalls = hier.l2_instr_hit_stalls
        self.itlb_miss_stalls = hier.itlb_miss_stalls
        self.stlb_miss_stalls = hier.stlb_miss_stalls

    def apply_delta(self, result: CoreResult, hier: MemoryHierarchy) -> None:
        result.l1i_misses = hier.l1i.stats.inst_misses - self.l1i_misses
        result.l1i_misses_os = hier.l1i.stats.os_inst_misses - self.l1i_misses_os
        result.l2i_misses = hier.l2.stats.inst_misses - self.l2i_misses
        result.l2i_misses_os = hier.l2.stats.os_inst_misses - self.l2i_misses_os
        result.l1d_misses = hier.l1d.stats.data_misses - self.l1d_misses
        result.l2_demand_hits = hier.l2.stats.demand_hits - self.l2_demand_hits
        result.l2_demand_accesses = (
            hier.l2.stats.demand_accesses - self.l2_demand_accesses
        )
        result.llc_misses = hier.llc.stats.demand_misses - self.llc_misses
        result.llc_data_refs = hier.directory.stats.llc_data_refs - self.llc_data_refs
        result.remote_dirty_hits = (
            hier.directory.stats.remote_dirty_hits - self.remote_dirty_hits
        )
        result.remote_dirty_hits_os = (
            hier.directory.stats.os_remote_dirty_hits - self.remote_dirty_hits_os
        )
        result.offchip_bytes = hier.dram.stats.total_bytes - self.offchip_bytes
        result.offchip_bytes_os = hier.dram.stats.os_bytes - self.offchip_bytes_os
