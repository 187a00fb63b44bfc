"""Self-time arithmetic of the span recorder."""

import pytest

from perfbench.layers import ledger
from perfbench.spans import Span, Tracer, covered, self_time_by_name


class FakeClock:
    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_nested_spans_subtract_their_children():
    # outer [0, 10] holds middle [1, 7], which holds inner [2, 5].
    tracer = Tracer(clock=FakeClock(0, 1, 2, 5, 7, 10))
    outer = tracer.start("outer")
    middle = tracer.start("middle")
    inner = tracer.start("inner")
    tracer.stop(inner)
    tracer.stop(middle)
    tracer.stop(outer)
    own = self_time_by_name(tracer.spans)
    assert own == {"outer": 4, "middle": 3, "inner": 3}
    assert sum(own.values()) == tracer.spans[outer].duration == 10


def test_sibling_spans_each_subtract_from_the_parent():
    # parent [0, 20] holds siblings a [2, 6] and b [8, 15].
    tracer = Tracer(clock=FakeClock(0, 2, 6, 8, 15, 20))
    parent = tracer.start("parent")
    a = tracer.start("a")
    tracer.stop(a)
    b = tracer.start("b")
    tracer.stop(b)
    tracer.stop(parent)
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    assert self_time_by_name(tracer.spans) == {"parent": 9, "a": 4, "b": 7}


def test_same_name_nested_spans_sum_to_the_covered_time():
    # [0, 3] holds [1, 2]; [5, 9] holds [6, 8]; all named "layer".
    tracer = Tracer(clock=FakeClock(0, 1, 2, 3, 5, 6, 8, 9))
    for _ in range(2):
        outer = tracer.start("layer")
        inner = tracer.start("layer")
        tracer.stop(inner)
        tracer.stop(outer)
    assert self_time_by_name(tracer.spans) == {"layer": 7}


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert covered([], 0, 10) == 0
    assert covered([(5, 6), (5, 6)], 0, 10) == 1


def test_spans_must_close_innermost_first():
    tracer = Tracer(clock=FakeClock(0, 1, 2))
    outer = tracer.start("outer")
    tracer.start("inner")
    with pytest.raises(RuntimeError):
        tracer.stop(outer)


def test_ledger_unattributed_is_wall_minus_self_times():
    tracer = Tracer()
    tracer.spans = [Span("core.sweep", 0.0, 6.0, None),
                    Span("uarch.replay", 1.0, 4.0, 0),
                    Span("cluster.simulate", 7.0, 8.0, None)]
    tracer.counts["uarch.replay_uops"] = 300
    metrics = ledger(tracer, wall_s=10.0)
    assert metrics["core.sweep_self_s"] == 3.0
    assert metrics["uarch.replay_s"] == 3.0
    assert metrics["cluster.simulate_s"] == 1.0
    assert metrics["uarch.replay_uops_per_s"] == 100.0
    assert metrics["trace.capture_uops_per_s"] == 0.0
    assert metrics["unattributed_s"] == 3.0
