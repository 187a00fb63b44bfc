"""Specialized columnar replay loop: the timing hot path, batched.

:meth:`repro.uarch.core.Core.run` is the *general* loop: any number of
hardware threads, optional cycle budgets, live or decoded sources.  A
captured trace replay — one thread, the shape of every cell except
the live SMT and chip runs — needs none of that generality, yet pays for all of it per micro-op:
one ``MicroOp`` allocation, a ROB-entry object, a generator resume,
round-robin thread bookkeeping, and several method dispatches per op in
the interpreted loop.

:func:`replay_columns` executes the *identical cycle-level algorithm*
specialized for that case:

* micro-op fields are read positionally out of a
  :class:`~repro.trace.columns.ColumnBatch` (plain Python lists) —
  no per-uop object is ever built;
* a ROB entry is just the uop's column index: per-uop pipeline state
  lives in preallocated ``bytearray``/list columns (``completed``,
  ``issued``, ``ndeps``), so the loop allocates nothing per op — which
  also keeps the cyclic GC quiet during replay;
* the branch predictor is inlined (same tables, same update order,
  state written back on exit), removing a method call per branch;
* memory accesses go through
  :meth:`~repro.uarch.hierarchy.MemoryHierarchy.access_timed`, the
  tuple-returning walk with the translate/L1-hit case inlined;
* result counters accumulate in locals and land in the
  :class:`~repro.uarch.core.CoreResult` once, at the end.

**Equivalence contract.**  The replay-equivalence suite pins every
``CoreResult`` counter byte-identical between this loop and the general
loop for every registry workload.  Any semantic change to the core
model must land in ``Core.run`` first and be mirrored here — never the
other way around.  The loop intentionally reads private predictor and
snapshot internals; it is the sanctioned twin of ``Core.run``, not a
public API.

:func:`repro.trace.replay.replay_trace` times every captured trace
with this loop.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING

from repro.uarch.core import Core, CoreResult, _HierarchySnapshot

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.trace.columns import ColumnBatch

__all__ = ["replay_columns"]


def replay_columns(core: Core, batch: "ColumnBatch") -> CoreResult:
    """Run one captured thread's columns to completion on ``core``.

    Mirrors ``Core.run(traces)`` for exactly one trace and no cycle
    budget; see the module docstring for the equivalence contract.
    """
    params = core.params
    hier = core.hierarchy
    predictor = core.branch_predictor
    width = params.width
    rob_capacity = params.rob_entries
    rs_capacity = params.reservation_stations
    load_buffer = params.load_buffer
    line_shift = params.line_bytes.bit_length() - 1
    alu_lat = params.alu_latency
    mispredict_penalty = params.branch_mispredict_penalty

    access = hier.access_timed
    l1i_next = hier._l1i_next
    l1i_next_shift = hier._l1i_next_shift
    l1i_prefetch_miss = hier._l1i_prefetch_miss

    # The translate + L1-hit slice of access_timed, inlined per side:
    # the overwhelmingly common memory outcome.  Anything else (TLB
    # miss, prefetched line -- flag bit 2 -- or L1 miss) falls back to
    # the full walk; a store hit sets the dirty bit, 1.  Mirrors access_timed statistic-for-statistic; the equivalence
    # suite pins the two.  A non-power-of-two page size (page_shift 0)
    # disables the inline probe entirely.
    page_shift = hier._page_shift
    _dtlb, dl1map, dtstats, l1d, l1dstats = hier._data_side
    _itlb, il1map, itstats, l1i, l1istats = hier._instr_side
    l1d_sets = l1d._sets
    l1d_shift = l1d._line_shift
    l1d_nsets = l1d.num_sets
    l1d_latency = l1d.latency
    l1i_sets = l1i._sets
    l1i_shift = l1i._line_shift
    l1i_nsets = l1i.num_sets
    record_write = hier.directory.record_write
    core_id = hier.core_id
    heappush = heapq.heappush
    heappop = heapq.heappop

    kinds = batch.kinds
    pcs = batch.pcs
    addrs = batch.addrs
    flags = batch.flags
    targets = batch.targets
    dep_counts = batch.dep_counts
    dep_idx = batch.dep_indexes()
    os_flags = batch.os_flags()
    line_starts = batch.line_starts(line_shift)
    n = batch.length

    # Branch predictor, inlined: same tables and update order as
    # BranchPredictor.predict_and_update; state written back on exit.
    bcounters = predictor._counters
    hmask = predictor._history_mask
    history = predictor._history
    btb = predictor._btb
    btb_entries = predictor._btb_entries
    branches = 0
    mispredicts = 0
    btb_misses = 0

    # Super-queue occupancy (same inline tracking as the general loop).
    superq_capacity = params.mshr_entries
    superq: list[int] = []
    superq_busy = 0
    superq_area = 0
    superq_last = 0
    superq_requests = 0

    # Per-uop pipeline state, held in flat columns indexed by the uop's
    # position in the batch.  A "ROB entry" is just that index.
    completed = bytearray(n)
    issued_b = bytearray(n)
    ndeps = [0] * n
    waiters: dict[int, list[int]] = {}
    waiters_pop = waiters.pop
    # has_waiters[idx] keeps the wakeup stage out of the waiters dict
    # for the common producer-with-no-consumers-in-flight case.
    has_waiters = bytearray(n)

    # The ROB needs no container at all: dispatch admits column
    # indexes in order, so its contents are exactly ``range(rob_head,
    # i)`` — occupancy is ``i - rob_head`` and the commit head is
    # ``rob_head`` itself.
    rob_head = 0
    ready: deque[int] = deque()
    ready_popleft = ready.popleft
    ready_append = ready.append
    waiting = 0  # dispatched but not issued (reservation stations)
    outstanding_loads = 0

    completing: dict[int, list[int]] = {}
    completing_get = completing.get
    completing_pop = completing.pop
    event_heap: list[int] = []
    # Ops completing exactly one cycle out (single-cycle ALU and store
    # results — the overwhelmingly common case) bypass the event heap.
    # An op can only enter this list on the cycle before it fires (issue
    # activity inhibits the idle skip), and every heap bucket due the
    # same cycle was pushed at least a cycle earlier, so draining the
    # heap first preserves the chronological wakeup order of the
    # merged-bucket scheme.
    nextc: list[int] = []
    nextc_append = nextc.append

    baseline_hier = _HierarchySnapshot(hier)
    cycle = core._cycle

    # Single-thread frontend state.
    i = 0            # next column index to decode
    dep_off = 0      # cursor into the flattened dependency column
    pending = False  # index i decoded but stalled on its I-fetch
    stall_until = 0
    exhausted = False
    last_is_os = 0

    # Result counters, accumulated in locals.
    instructions = 0
    os_instructions = 0
    committing_cycles = 0
    committing_cycles_os = 0
    stalled_cycles = 0
    stalled_cycles_os = 0
    loads = 0
    stores = 0

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
            heappop(superq)
        if superq and t < now:
            width_c = now - t
            superq_busy += width_c
            superq_area += width_c * len(superq)

    while True:
        # ---- wakeup completions scheduled for this cycle ----------
        if event_heap and event_heap[0] <= cycle:
            while event_heap and event_heap[0] <= cycle:
                when = heappop(event_heap)
                for idx in completing_pop(when, ()):  # noqa: B909
                    completed[idx] = 1
                    if kinds[idx] == 1:
                        outstanding_loads -= 1
                    if has_waiters[idx]:
                        for widx in waiters_pop(idx):
                            nd = ndeps[widx] - 1
                            ndeps[widx] = nd
                            if not nd and not issued_b[widx]:
                                ready_append(widx)
        if nextc:
            for idx in nextc:
                completed[idx] = 1
                if kinds[idx] == 1:
                    outstanding_loads -= 1
                if has_waiters[idx]:
                    for widx in waiters_pop(idx):
                        nd = ndeps[widx] - 1
                        ndeps[widx] = nd
                        if not nd and not issued_b[widx]:
                            ready_append(widx)
            nextc.clear()

        # ---- commit (in order, up to width) ------------------------
        committed_this_cycle = 0
        first_commit_os = 0
        while rob_head < i and committed_this_cycle < width:
            head = rob_head
            if not completed[head]:
                break
            rob_head = head + 1
            head_os = os_flags[head]
            if committed_this_cycle == 0:
                first_commit_os = head_os
            committed_this_cycle += 1
            instructions += 1
            if head_os:
                os_instructions += 1

        if committed_this_cycle:
            committing_cycles += 1
            if first_commit_os:
                committing_cycles_os += 1
        else:
            stalled_cycles += 1
            if rob_head < i:
                if os_flags[rob_head]:
                    stalled_cycles_os += 1
            elif last_is_os:
                stalled_cycles_os += 1

        # ---- issue (up to width ready micro-ops) -------------------
        issued = 0
        while ready and issued < width:
            idx = ready_popleft()
            kind = kinds[idx]
            if kind == 1:  # LOAD
                if outstanding_loads >= load_buffer:
                    ready.appendleft(idx)
                    break
                if len(superq) >= superq_capacity:
                    superq_advance(cycle)
                if len(superq) >= superq_capacity:
                    # Cannot start another off-core miss; conservatively
                    # wait (we do not know hit/miss before access).
                    ready.appendleft(idx)
                    break
                a = addrs[idx]
                st = None
                if page_shift and (a >> page_shift) in dl1map:
                    lline = a >> l1d_shift
                    lset = l1d_sets[lline % l1d_nsets]
                    st = lset.get(lline)
                if st is not None and not st & 2:
                    page = a >> page_shift
                    del dl1map[page]
                    dl1map[page] = None
                    dtstats.l1_hits += 1
                    del lset[lline]
                    lset[lline] = st
                    l1d.consumed_pf_penalty = 0
                    l1dstats.demand_hits += 1
                    l1dstats.data_hits += 1
                    if os_flags[idx]:
                        l1dstats.os_data_hits += 1
                    done = cycle + l1d_latency
                    outstanding_loads += 1
                else:
                    latency, _level, off_core, _chip = access(
                        a, False, False, os_flags[idx], cycle)
                    done = cycle + latency
                    outstanding_loads += 1
                    if off_core:
                        superq_advance(cycle)
                        heappush(superq, done)
                        superq_requests += 1
            elif kind == 2:  # STORE
                # Stores drain through the store buffer (see Core.run).
                a = addrs[idx]
                st = None
                if page_shift and (a >> page_shift) in dl1map:
                    lline = a >> l1d_shift
                    lset = l1d_sets[lline % l1d_nsets]
                    st = lset.get(lline)
                if st is not None and not st & 2:
                    page = a >> page_shift
                    del dl1map[page]
                    dl1map[page] = None
                    dtstats.l1_hits += 1
                    record_write(a, core_id)
                    del lset[lline]
                    lset[lline] = st | 1
                    l1d.consumed_pf_penalty = 0
                    l1dstats.demand_hits += 1
                    l1dstats.data_hits += 1
                    if os_flags[idx]:
                        l1dstats.os_data_hits += 1
                else:
                    access(a, True, False, os_flags[idx], cycle)
                done = cycle + 1
            else:  # ALU or BRANCH
                done = cycle + alu_lat
            issued_b[idx] = 1
            waiting -= 1
            issued += 1
            if done == cycle + 1:
                nextc_append(idx)
            else:
                bucket = completing_get(done)
                if bucket is None:
                    completing[done] = [idx]
                    heappush(event_heap, done)
                else:
                    bucket.append(idx)

        # ---- fetch + dispatch --------------------------------------
        dispatched = 0
        if not exhausted and stall_until <= cycle:
            while (
                dispatched < width
                and i - rob_head < rob_capacity
                and waiting < rs_capacity
                and stall_until <= cycle
            ):
                if pending:
                    pending = False
                else:
                    if i >= n:
                        exhausted = True
                        break
                    if line_starts[i]:
                        pc = pcs[i]
                        st = None
                        if page_shift and (pc >> page_shift) in il1map:
                            fline = pc >> l1i_shift
                            fset = l1i_sets[fline % l1i_nsets]
                            st = fset.get(fline)
                        if st is not None and not st & 2:
                            page = pc >> page_shift
                            del il1map[page]
                            il1map[page] = None
                            itstats.l1_hits += 1
                            del fset[fline]
                            fset[fline] = st
                            l1i.consumed_pf_penalty = 0
                            l1istats.demand_hits += 1
                            l1istats.inst_hits += 1
                            if os_flags[i]:
                                l1istats.os_inst_hits += 1
                            if l1i_next is not None:
                                # prefetch_instruction, inlined up to
                                # the L1-I probe.
                                pline = (pc >> l1i_next_shift
                                         if l1i_next_shift >= 0
                                         else pc // l1i_next.line_bytes)
                                if pline != l1i_next._last_line:
                                    l1i_next._last_line = pline
                                    t = (pline + 1) * l1i_next.line_bytes
                                    tl = t >> l1i_shift
                                    tset = l1i_sets[tl % l1i_nsets]
                                    if tl not in tset:
                                        l1i_prefetch_miss(t, tl, tset)
                        else:
                            latency, level, off_core, _chip = access(
                                pc, False, True, os_flags[i], cycle)
                            if l1i_next is not None:
                                # prefetch_instruction, inlined up to
                                # the L1-I probe.
                                pline = (pc >> l1i_next_shift
                                         if l1i_next_shift >= 0
                                         else pc // l1i_next.line_bytes)
                                if pline != l1i_next._last_line:
                                    l1i_next._last_line = pline
                                    t = (pline + 1) * l1i_next.line_bytes
                                    tl = t >> l1i_shift
                                    tset = l1i_sets[tl % l1i_nsets]
                                    if tl not in tset:
                                        l1i_prefetch_miss(t, tl, tset)
                            if level != "l1":
                                stall_until = cycle + latency
                                if off_core:
                                    superq_advance(cycle)
                                    heappush(superq, stall_until)
                                    superq_requests += 1
                                pending = True
                                break
                    if kinds[i] == 3:  # BRANCH
                        branches += 1
                        site = pcs[i] >> 4
                        index = site & hmask
                        counter = bcounters[index]
                        if flags[i] & 2:  # taken
                            mispredicted = counter < 2
                            btb_missed = False
                            slot = site % btb_entries
                            if not mispredicted and btb.get(slot) != targets[i]:
                                btb_misses += 1
                                btb_missed = True
                            btb[slot] = targets[i]
                            if counter < 3:
                                bcounters[index] = counter + 1
                            history = ((history << 1) | 1) & hmask
                        else:
                            mispredicted = counter >= 2
                            btb_missed = False
                            if counter > 0:
                                bcounters[index] = counter - 1
                            history = (history << 1) & hmask
                        if mispredicted:
                            mispredicts += 1
                            # The branch itself still dispatches below.
                            stall_until = cycle + mispredict_penalty
                        elif btb_missed:
                            # Correct direction, unknown target: the
                            # frontend re-steers once the target is
                            # computed at decode/execute.
                            stall_until = cycle + 8
                # Dispatch into ROB.
                kind = kinds[i]
                last_is_os = os_flags[i]
                if kind == 1:
                    loads += 1
                elif kind == 2:
                    stores += 1
                dc = dep_counts[i]
                nd = 0
                if dc:
                    end = dep_off + dc
                    while dep_off < end:
                        j = dep_idx[dep_off]
                        dep_off += 1
                        # A producer outside the window (-1) or already
                        # completed carries no dependency — exactly the
                        # cases the general loop's in-flight dict (popped
                        # at commit, which requires completion) misses.
                        if j >= 0 and not completed[j]:
                            nd += 1
                            if has_waiters[j]:
                                waiters[j].append(i)
                            else:
                                has_waiters[j] = 1
                                waiters[j] = [i]
                    if nd:
                        ndeps[i] = nd
                waiting += 1
                dispatched += 1
                if not nd:
                    ready_append(i)
                i += 1

        # ---- termination / idle-cycle skipping ---------------------
        if rob_head >= i and exhausted:
            cycle += 1
            break

        if committed_this_cycle == 0 and issued == 0 and dispatched == 0:
            candidates = []
            if event_heap:
                candidates.append(event_heap[0])
            if not exhausted and stall_until > cycle:
                candidates.append(stall_until)
            if candidates:
                target = min(candidates)
                if target > cycle + 1:
                    skipped = target - cycle - 1
                    stalled_cycles += skipped
                    if rob_head < i:
                        if os_flags[rob_head]:
                            stalled_cycles_os += skipped
                    elif last_is_os:
                        stalled_cycles_os += skipped
                    cycle = target - 1
            else:
                raise RuntimeError(
                    "core deadlock: nothing in flight but trace not done"
                )
        cycle += 1

    superq_advance(cycle)
    core._cycle = cycle

    predictor._history = history
    pstats = predictor.stats
    pstats.branches += branches
    pstats.mispredicts += mispredicts
    pstats.btb_misses += btb_misses

    result = CoreResult(per_thread_instructions=[instructions])
    result.instructions = instructions
    result.os_instructions = os_instructions
    result.committing_cycles = committing_cycles
    result.committing_cycles_os = committing_cycles_os
    result.stalled_cycles = stalled_cycles
    result.stalled_cycles_os = stalled_cycles_os
    result.loads = loads
    result.stores = stores
    result.cycles = committing_cycles + stalled_cycles
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
    result.branches = branches
    result.branch_mispredicts = mispredicts
    return result
