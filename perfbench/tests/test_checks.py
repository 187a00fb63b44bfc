"""Failed cells count against cells attempted."""

import pytest

from perfbench import workloads
from perfbench.workloads import PassResult, check


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    from repro.core.runner import clear_cache

    clear_cache()
    yield tmp_path
    clear_cache()


def _summary(**overrides):
    summary = {name: 0 for name in (
        "requests", "successes", "failures", "retries", "hedges",
        "timeouts", "drops", "p50", "p99", "p999", "max", "acked_writes",
        "acked_lost", "ejections", "readmissions", "hints_stored",
        "hints_replayed", "read_repairs", "probes", "sim_us",
        "events_fired")}
    summary.update(requests=10, successes=10, goodput=1.0, p50=5, p99=9,
                   p999=9, max=9, latency_bound=100, sim_us=50,
                   events_fired=40, acked_writes=3)
    summary.update(overrides)
    return summary


def test_a_cell_that_raises_is_counted_failed(cache):
    from repro.core.store import ResultStore
    from repro.core.sweep import Cell

    result = PassResult()
    good = Cell("single", "data-serving", workloads.run_config(7))
    bad = Cell("single", "no-such-workload", workloads.run_config(7))
    workloads.run_cells(result, [good, bad], ResultStore(cache / "r"))
    outcome = check(result)
    assert outcome.attempted == 2
    assert outcome.failed == 1
    assert "no-such-workload" in outcome.failures[0]


def test_a_fleet_cell_that_lost_an_acknowledged_write_fails():
    result = PassResult(attempted=2, units=[
        ("fleet", "cluster:ok", [_summary()]),
        ("fleet", "cluster:lossy", [_summary(acked_lost=1)]),
    ])
    outcome = check(result)
    assert (outcome.attempted, outcome.failed) == (2, 1)
    assert outcome.acked_lost == 1
    assert "cluster:lossy" in outcome.failures[0]


def test_a_run_that_fails_validation_is_counted_once():
    from repro.core.runner import RunConfig, WorkloadRun
    from repro.uarch.core import CoreResult

    implausible = CoreResult(cycles=10, instructions=1_000,
                             committing_cycles=10, loads=2_000)
    run = WorkloadRun("bogus", RunConfig(), implausible, None)
    outcome = check(PassResult(attempted=1,
                               units=[("cell", "single:bogus", [run])]))
    assert outcome.failed == 1
    assert len(outcome.failures) >= 1


def test_every_probe_names_an_existing_function():
    from perfbench.layers import PROBES

    for probe in PROBES:
        owner, name = probe.owner_and_name()
        assert callable(getattr(owner, name)), probe
