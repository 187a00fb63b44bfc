"""Cache model: hits, LRU replacement, writebacks, prefetch metadata."""

import random
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.uarch.cache import DIRTY, PF_SHIFT, PREFETCHED, Cache
from repro.uarch.params import CacheParams, MachineParams


def make_cache(size=4096, assoc=4, latency=4, line=64) -> Cache:
    return Cache("test", CacheParams(size, assoc, latency, line))


class TestBasicOperation:
    def test_cold_miss_then_hit_after_fill(self):
        cache = make_cache()
        assert not cache.access(0x1000)
        cache.fill(0x1000)
        assert cache.access(0x1000)

    def test_same_line_different_offsets_hit(self):
        cache = make_cache()
        cache.fill(0x1000)
        assert cache.access(0x1000 + 63)
        assert not cache.access(0x1000 + 64)

    def test_stats_track_hits_and_misses(self):
        cache = make_cache()
        cache.access(0)
        cache.fill(0)
        cache.access(0)
        assert cache.stats.demand_misses == 1
        assert cache.stats.demand_hits == 1
        assert cache.stats.demand_accesses == 2
        assert cache.stats.hit_ratio == pytest.approx(0.5)

    def test_instruction_and_data_counters_are_split(self):
        cache = make_cache()
        cache.access(0, is_instr=True)
        cache.access(64, is_instr=False)
        assert cache.stats.inst_misses == 1
        assert cache.stats.data_misses == 1

    def test_os_counters(self):
        cache = make_cache()
        cache.access(0, is_instr=True, is_os=True)
        cache.fill(0)
        cache.access(0, is_instr=True, is_os=True)
        assert cache.stats.os_inst_misses == 1
        assert cache.stats.os_inst_hits == 1


class TestLruReplacement:
    def test_eviction_follows_lru_order(self):
        cache = make_cache(size=4 * 64, assoc=4, line=64)  # one set
        for i in range(4):
            cache.fill(i * 64 * cache.num_sets)
        # Touch line 0 so line 1 becomes LRU.
        cache.access(0)
        victim = cache.fill(4 * 64 * cache.num_sets)
        assert victim is not None
        assert victim.addr == 1 * 64 * cache.num_sets

    def test_capacity_never_exceeded(self):
        cache = make_cache(size=2048, assoc=2)
        for i in range(1000):
            cache.fill(i * 64)
        assert cache.resident_lines() <= 2048 // 64

    def test_dirty_eviction_reports_writeback(self):
        cache = make_cache(size=64, assoc=1)
        cache.fill(0, dirty=True)
        victim = cache.fill(64 * cache.num_sets)
        assert victim is not None and victim.dirty
        assert cache.stats.writebacks == 1

    def test_clean_eviction_is_not_a_writeback(self):
        cache = make_cache(size=64, assoc=1)
        cache.fill(0, dirty=False)
        victim = cache.fill(64 * cache.num_sets)
        assert victim is not None and not victim.dirty
        assert cache.stats.writebacks == 0

    def test_write_hit_marks_dirty(self):
        cache = make_cache(size=64, assoc=1)
        cache.fill(0)
        cache.access(0, is_write=True)
        victim = cache.fill(64 * cache.num_sets)
        assert victim.dirty


class TestPrefetchMetadata:
    def test_prefetched_line_counted_useful_on_demand_hit(self):
        cache = make_cache()
        cache.fill(0, prefetched=True)
        assert cache.stats.prefetch_issued == 1
        cache.access(0)
        assert cache.stats.prefetch_useful == 1

    def test_unused_prefetch_eviction_is_counted(self):
        cache = make_cache(size=64, assoc=1)
        cache.fill(0, prefetched=True)
        cache.fill(64 * cache.num_sets)
        assert cache.stats.prefetch_unused_evicted == 1

    def test_pf_penalty_consumed_once(self):
        cache = make_cache()
        cache.fill(0, prefetched=True, pf_penalty=80)
        cache.access(0)
        assert cache.consumed_pf_penalty == 80
        cache.access(0)
        assert cache.consumed_pf_penalty == 0

    def test_demand_fill_clears_prefetch_state(self):
        cache = make_cache()
        cache.fill(0, prefetched=True, pf_penalty=80)
        cache.fill(0, prefetched=False)
        cache.access(0)
        assert cache.consumed_pf_penalty == 0

    def test_peek_state_reads_the_flag_word(self):
        cache = make_cache()
        cache.fill(0, prefetched=True, pf_penalty=80)
        flags = cache.peek_state(0)
        assert flags & PREFETCHED and not flags & DIRTY
        assert flags >> PF_SHIFT == 80
        assert cache.peek_state(64) is None

    @pytest.mark.parametrize("demand_fill", [
        lambda cache: cache.fill(0, dirty=True),
        lambda cache: cache.install_ranges([(0, 64)]),
    ], ids=["fill", "install_ranges"])
    def test_demand_fill_clears_prefetched_bit_and_penalty(self, demand_fill):
        cache = make_cache()
        cache.fill(0, prefetched=True, pf_penalty=80)
        cache.fill(64, dirty=True)
        demand_fill(cache)
        flags = cache.peek_state(0)
        assert not flags & PREFETCHED and flags >> PF_SHIFT == 0
        assert cache.peek_state(64) == DIRTY  # untouched neighbour


class TestInvalidate:
    def test_invalidate_removes_line(self):
        cache = make_cache()
        cache.fill(0x40)
        assert cache.invalidate(0x40)
        assert not cache.contains(0x40)

    def test_invalidate_missing_line_returns_false(self):
        cache = make_cache()
        assert not cache.invalidate(0x40)

    def test_flush_empties_cache(self):
        cache = make_cache()
        for i in range(10):
            cache.fill(i * 64)
        cache.flush()
        assert cache.resident_lines() == 0

    def test_peek_state_does_not_touch_lru(self):
        cache = make_cache(size=2 * 64, assoc=2)
        cache.fill(0)
        cache.fill(64 * cache.num_sets)
        cache.peek_state(0)  # must NOT make line 0 most-recently-used
        victim = cache.fill(2 * 64 * cache.num_sets)
        assert victim.addr == 0


class ReferenceLru:
    """Oracle: per-set LRU lists maintained the slow, obvious way."""

    def __init__(self, num_sets: int, assoc: int, line: int = 64) -> None:
        self.num_sets = num_sets
        self.assoc = assoc
        self.line = line
        self.sets: dict[int, list[int]] = {i: [] for i in range(num_sets)}

    def _set_of(self, addr: int) -> tuple[int, int]:
        tag = addr // self.line
        return tag % self.num_sets, tag

    def access(self, addr: int) -> bool:
        index, tag = self._set_of(addr)
        lru = self.sets[index]
        if tag in lru:
            lru.remove(tag)
            lru.append(tag)
            return True
        return False

    def fill(self, addr: int) -> None:
        index, tag = self._set_of(addr)
        lru = self.sets[index]
        if tag in lru:
            return
        if len(lru) >= self.assoc:
            lru.pop(0)
        lru.append(tag)


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=63)),
        min_size=1,
        max_size=300,
    )
)
def test_cache_matches_reference_lru_model(ops):
    """Property: hit/miss outcomes match an oracle LRU implementation."""
    cache = make_cache(size=8 * 64 * 2, assoc=2)  # 8 sets, 2-way
    oracle = ReferenceLru(cache.num_sets, 2)
    for is_fill, line_index in ops:
        addr = line_index * 64
        if is_fill:
            cache.fill(addr)
            oracle.fill(addr)
        else:
            assert cache.access(addr) == oracle.access(addr)
            # Model demand-fill-on-miss so both stay in sync.
            cache.fill(addr)
            oracle.fill(addr)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_resident_lines_never_exceed_capacity(seed):
    rng = random.Random(seed)
    cache = make_cache(size=4096, assoc=4)
    capacity = 4096 // 64
    for _ in range(500):
        cache.fill(rng.randrange(1 << 20) & ~63)
        assert cache.resident_lines() <= capacity


# -- batched install against the per-line fill() walk ---------------------

def per_line_install(cache: Cache, ranges) -> None:
    """Oracle: what :meth:`Cache.install_ranges` must equal, line by line."""
    for base, nbytes in ranges:
        for addr in range(base, base + nbytes, cache.line_bytes):
            cache.fill(addr)


def snapshot(cache: Cache):
    """Every set's (line, flags) in LRU order, and every statistic."""
    return [list(cset.items()) for cset in cache._sets], asdict(cache.stats)


def assert_install_matches_oracle(params: CacheParams, prefill, ranges):
    batched, oracle = Cache("b", params), Cache("o", params)
    for cache in (batched, oracle):
        for addr, dirty, prefetched, penalty in prefill:
            cache.fill(addr, dirty=dirty, prefetched=prefetched,
                       pf_penalty=penalty)
    batched.install_ranges(ranges)
    per_line_install(oracle, ranges)
    assert snapshot(batched) == snapshot(oracle)


@st.composite
def install_cases(draw):
    num_sets = draw(st.sampled_from([1, 3, 5, 8]))  # 3 and 5: not 2^k
    assoc = draw(st.sampled_from([1, 2, 4]))
    line = draw(st.sampled_from([64, 128]))
    params = CacheParams(num_sets * assoc * line, assoc, 4, line)
    lines = 4 * num_sets * assoc  # the address space the cases touch
    prefill = draw(st.lists(st.tuples(
        st.integers(0, lines - 1).map(lambda i: i * line),
        st.booleans(), st.booleans(), st.integers(0, 40)), max_size=40))
    ranges = draw(st.lists(st.tuples(
        st.integers(0, lines * line),  # any byte: misaligned bases too
        st.one_of(st.just(0), st.integers(1, 3 * line),
                  st.integers(0, 2 * lines * line))), max_size=8))
    return params, prefill, ranges


@settings(max_examples=150, deadline=None)
@given(case=install_cases())
def test_install_ranges_matches_per_line_fill(case):
    """Property: same set contents, LRU order, flags and statistics as
    the per-line walk — on empty and pre-populated caches (dirty and
    prefetched lines), over overlapping, repeated, misaligned,
    zero-length and larger-than-capacity spans."""
    assert_install_matches_oracle(*case)


@pytest.mark.parametrize("prefilled", [False, True],
                         ids=["empty", "prefilled"])
def test_install_ranges_mcf_scale_span(prefilled):
    """One span of mcf's 212,992 lines — larger than the whole cache —
    into the 5 MB LLC's 5,120 sets (not a power of two), with a
    repeated line and a span that overlaps it."""
    llc = MachineParams().with_llc_mb(5).llc
    assert llc.num_sets == 5_120
    base = 0x4000_0000
    ranges = [(base - 100, 4096), (base, 212_992 * 64),
              (base + 64 * 7, 64), (0x1234, 3 * 64)]
    prefill = [(base + i * 4160, i % 2 == 0, i % 3 == 0, i)
               for i in range(0, 20_000, 7)] if prefilled else []
    assert_install_matches_oracle(llc, prefill, ranges)


def test_install_ranges_with_128_byte_lines():
    llc = CacheParams(1 << 20, 16, 29, line_bytes=128)
    ranges = [(0x10_0040, 70_000), (0x10_0000, 128 * 700), (0x9_0000, 0)]
    assert_install_matches_oracle(llc, [(0x10_0080, True, False, 0)], ranges)
