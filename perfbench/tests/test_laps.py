"""Lap timing: cells cut passes into laps, and the fastest laps add up."""

import os

import pytest

from perfbench.laps import fastest_laps_total, lap_marks, laps, on_cpu


def test_each_lap_takes_its_fastest_pass():
    # The first pass is fast in lap 0, the second in lap 1.
    assert fastest_laps_total([[1.0, 5.0, 2.0], [3.0, 1.0, 2.0]]) == 4.0


def test_passes_cut_differently_cannot_be_matched():
    assert fastest_laps_total([[1.0, 2.0], [1.0]]) is None
    assert fastest_laps_total([]) is None


def test_a_cell_splits_the_block_into_three_laps(monkeypatch):
    from repro.core import sweep

    monkeypatch.setattr(sweep, "_execute_cell", lambda cell: [cell])
    marks: list[float] = []
    with lap_marks(marks):
        assert sweep._execute_cell("c") == ["c"]
    assert len(laps(marks)) == 3
    assert all(lap >= 0 for lap in laps(marks))
    assert marks == sorted(marks)
    # Leaving the block restores the executor.
    assert sweep._execute_cell("d") == ["d"]
    assert not hasattr(sweep._execute_cell, "__wrapped__")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no CPU affinity calls on this platform")
def test_on_cpu_pins_the_block_and_restores_affinity():
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    for turn in range(len(cpus) + 1):
        with on_cpu(turn):
            assert os.sched_getaffinity(0) == {cpus[turn % len(cpus)]}
        assert os.sched_getaffinity(0) == allowed
