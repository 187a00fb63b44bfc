"""Set-associative cache with LRU replacement and per-class statistics.

The implementation favours simulation speed: each set is a plain dict
keyed by line number (Python dicts preserve insertion order, so popping
and re-inserting a key implements LRU move-to-front in O(1)).  Per-line
metadata is the dict value: one int flag word, bit 0 dirty
(:data:`DIRTY`), bit 1 prefetched-and-not-yet-demanded
(:data:`PREFETCHED`), and the residual prefetch latency above them
(``flags >> PF_SHIFT``).  Plain int values need no per-line object, and
a dict holding only ints is never tracked by the cyclic GC.  The inlined
hot paths in :mod:`repro.uarch.hierarchy` and :mod:`repro.uarch.fastpath`
use the same bits as literals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.uarch.params import CacheParams


@dataclass
class CacheStats:
    """Demand/prefetch access counters, split instruction/data and App/OS."""

    demand_hits: int = 0
    demand_misses: int = 0
    inst_hits: int = 0
    inst_misses: int = 0
    os_inst_hits: int = 0
    os_inst_misses: int = 0
    data_hits: int = 0
    data_misses: int = 0
    os_data_hits: int = 0
    os_data_misses: int = 0
    prefetch_issued: int = 0
    prefetch_useful: int = 0
    prefetch_unused_evicted: int = 0
    writebacks: int = 0

    @property
    def demand_accesses(self) -> int:
        return self.demand_hits + self.demand_misses

    @property
    def hit_ratio(self) -> float:
        total = self.demand_accesses
        return self.demand_hits / total if total else 0.0

    def merge(self, other: "CacheStats") -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


#: Line flag word bits (the value each set dict stores per line).
DIRTY = 1
PREFETCHED = 2  # brought in by a prefetcher, not yet demanded
#: The residual latency a demand pays if it arrives before the
#: prefetch's fill completes sits above the two flag bits.
PF_SHIFT = 2


@dataclass
class EvictedLine:
    addr: int
    dirty: bool
    was_unused_prefetch: bool


class Cache:
    """One cache level.  Addresses are byte addresses; lines are aligned."""

    def __init__(self, name: str, params: CacheParams) -> None:
        self.name = name
        self.params = params
        self.line_bytes = params.line_bytes
        self._line_shift = params.line_bytes.bit_length() - 1
        self.num_sets = params.num_sets
        self.assoc = params.assoc
        self.latency = params.latency
        self._sets: list[dict[int, int]] = [dict() for _ in range(self.num_sets)]
        self.stats = CacheStats()
        # Residual latency charged by the last demand hit that consumed a
        # still-in-flight prefetch (read by the hierarchy after access()).
        self.consumed_pf_penalty = 0

    # -- address helpers -------------------------------------------------
    def line_addr(self, addr: int) -> int:
        return addr >> self._line_shift

    def _set_index(self, line: int) -> int:
        return line % self.num_sets

    # -- queries ----------------------------------------------------------
    def contains(self, addr: int) -> bool:
        line = addr >> self._line_shift
        return line in self._sets[line % self.num_sets]

    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)

    # -- operations --------------------------------------------------------
    def access(
        self,
        addr: int,
        is_write: bool = False,
        is_instr: bool = False,
        is_os: bool = False,
    ) -> bool:
        """Demand access.  Returns True on hit.  Does not fill on miss —
        the hierarchy decides fill policy via :meth:`fill`."""
        line = addr >> self._line_shift
        cset = self._sets[line % self.num_sets]
        flags = cset.pop(line, None)
        stats = self.stats
        self.consumed_pf_penalty = 0
        if flags is not None:
            if flags & PREFETCHED:
                stats.prefetch_useful += 1
                # A late prefetch: the demand arrives while the fill is
                # still in flight and pays part of the source latency.
                self.consumed_pf_penalty = flags >> PF_SHIFT
                flags &= DIRTY
            if is_write:
                flags |= DIRTY
            # LRU bump: re-insert at the most-recently-used position.
            cset[line] = flags
            stats.demand_hits += 1
            if is_instr:
                stats.inst_hits += 1
                if is_os:
                    stats.os_inst_hits += 1
            else:
                stats.data_hits += 1
                if is_os:
                    stats.os_data_hits += 1
            return True
        stats.demand_misses += 1
        if is_instr:
            stats.inst_misses += 1
            if is_os:
                stats.os_inst_misses += 1
        else:
            stats.data_misses += 1
            if is_os:
                stats.os_data_misses += 1
        return False

    def fill(
        self,
        addr: int,
        dirty: bool = False,
        prefetched: bool = False,
        pf_penalty: int = 0,
    ) -> EvictedLine | None:
        """Install a line, evicting the LRU line of its set if needed.

        Returns the evicted line (for writeback propagation) or None.
        """
        line = addr >> self._line_shift
        cset = self._sets[line % self.num_sets]
        existing = cset.get(line)
        if existing is not None:
            # Merged in place, no LRU bump; a demand fill clears any
            # not-yet-used prefetch marking.
            cset[line] = ((existing | dirty) if prefetched
                          else (existing & DIRTY) | dirty)
            return None
        victim = None
        if len(cset) >= self.assoc:
            old_line, old = next(iter(cset.items()))
            del cset[old_line]
            if old & DIRTY:
                self.stats.writebacks += 1
            if old & PREFETCHED:
                self.stats.prefetch_unused_evicted += 1
            victim = EvictedLine(
                addr=old_line << self._line_shift,
                dirty=bool(old & DIRTY),
                was_unused_prefetch=bool(old & PREFETCHED),
            )
        cset[line] = dirty | prefetched << 1 | pf_penalty << PF_SHIFT
        if prefetched:
            self.stats.prefetch_issued += 1
        return victim

    def install_ranges(self, ranges: Iterable[tuple[int, int]]) -> None:
        """Install every line of ``(base, nbytes)`` ranges, in order.

        Equivalent to calling :meth:`fill` (default arguments, victim
        discarded) at ``base``, ``base + line_bytes``, ... below
        ``base + nbytes`` for each range in turn — same final set
        contents and LRU order, same statistics — but batched over the
        whole fill set: functional warming installs 36k–240k lines per
        replay through here.

        The install-order line sequence is built and grouped by set
        (stable, so each set sees its lines in install order) with
        numpy.  A set that starts empty and receives no line twice
        ends up holding exactly its last ``assoc`` lines, all clean:
        every eviction along the way is of a clean line this call
        installed, so no statistic fires and the set is written in one
        ``dict.fromkeys``.  Every other set — one already holding
        lines, or receiving a repeated line — takes the per-line walk.
        """
        by_set, groups, repeat_sets = _lines_by_set(
            ranges, self._line_shift, self.line_bytes, self.num_sets)
        assoc = self.assoc
        sets = self._sets
        stats = self.stats
        for index, lo, hi in groups:
            cset = sets[index]
            if not cset and index not in repeat_sets:
                sets[index] = dict.fromkeys(by_set[max(lo, hi - assoc):hi], 0)
                continue
            occupancy = len(cset)
            for line in by_set[lo:hi]:
                existing = cset.get(line)
                if existing is not None:
                    # fill(): clear any not-yet-used prefetch marking.
                    cset[line] = existing & DIRTY
                    continue
                if occupancy >= assoc:
                    old_line, old = next(iter(cset.items()))
                    del cset[old_line]
                    if old & DIRTY:
                        stats.writebacks += 1
                    if old & PREFETCHED:
                        stats.prefetch_unused_evicted += 1
                else:
                    occupancy += 1
                cset[line] = 0

    def peek_state(self, addr: int) -> int | None:
        """A resident line's flag word (``None`` if absent), read without
        touching LRU or stats: test ``DIRTY``/``PREFETCHED``, and shift
        by ``PF_SHIFT`` for the residual prefetch latency."""
        line = self.line_addr(addr)
        return self._sets[self._set_index(line)].get(line)

    def invalidate(self, addr: int) -> bool:
        """Drop a line if resident (used by the coherence model)."""
        line = self.line_addr(addr)
        cset = self._sets[self._set_index(line)]
        return cset.pop(line, None) is not None

    def flush(self) -> None:
        for cset in self._sets:
            cset.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kb = self.params.size_bytes / 1024
        return f"<Cache {self.name} {kb:.0f}KB {self.assoc}-way lat={self.latency}>"


def _lines_by_set(ranges: Iterable[tuple[int, int]], shift: int,
                  line_bytes: int, num_sets: int,
                  ) -> tuple[list[int], Iterable[tuple[int, int, int]], set[int]]:
    """The install-order line sequence of ``ranges``, grouped by set.

    Returns ``(lines, groups, repeat_sets)``: ``lines`` lists every line
    set by set, each set's lines in install order; ``groups`` yields
    ``(set index, lo, hi)`` for each set's slice of it; ``repeat_sets``
    holds the sets that receive some line more than once.  The numpy
    temporaries die on return, before the caller builds its set dicts.
    """
    spans = np.array(list(ranges), dtype=np.int64).reshape(-1, 2)
    counts = np.maximum((spans[:, 1] + line_bytes - 1) // line_bytes, 0)
    total = int(counts.sum())
    if not total:
        return [], (), set()
    # Consecutive lines per range (the addresses stepped from ``base``
    # by one line map onto consecutive line numbers, whatever the
    # alignment), ranges concatenated in order.
    lines = (np.arange(total, dtype=np.int64)
             + np.repeat((spans[:, 0] >> shift) - (np.cumsum(counts) - counts),
                         counts))
    ordered = np.sort(lines)
    repeat_sets = set((ordered[1:][ordered[1:] == ordered[:-1]]
                       % num_sets).tolist())
    set_of = lines % num_sets
    order = np.argsort(set_of, kind="stable")
    set_of = set_of[order]
    bounds = (np.flatnonzero(set_of[1:] != set_of[:-1]) + 1).tolist()
    starts = [0] + bounds
    groups = zip(set_of[starts].tolist(), starts, bounds + [total])
    return lines[order].tolist(), groups, repeat_sets
