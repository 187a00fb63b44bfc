"""The benchmark's three workloads and the checks on their outputs.

Each workload has a set-up phase and a pass.  A pass is one complete
execution of the workload's cells, in one process, serially; the run
repeats passes for the requested number of seconds.  A pass returns a
:class:`PassResult` holding every output in cell order; :func:`check`
validates those outputs after the timed region and folds them into
``sim_digest``.

Why each workload exists (see README.md for the full table):

* ``llc-sweep`` — capture once, replay many: the Figure 4 grid replays
  ten traces that set-up captured into the on-disk trace store.  The
  replay engine and functional warming do the work; capture does none.
* ``threads`` — live generation: the SMT and chip cells of Figures 3
  and 6 over the scale-out workloads, from cold stores.  The general
  core loop and the chip model do the work; columnar replay does little.
* ``fleet`` — the simulated fleet: cold calibration of both fleet
  workloads, then a measured-cost Figure 9 grid.  The cluster event
  loop does the work; the core model runs only inside calibration.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Iterator

from perfbench.layers import patched

#: Measurement window of the ``threads`` cells and of calibration, in
#: micro-ops: small, so that two passes fit into one run.
WINDOW_UOPS = 2_000
#: The ``llc-sweep`` window.  Requests are not cut at the window, so a
#: trace overshoots it by part of a request; at 2,000 uops that made the
#: grid's instruction count vary by 8% between seeds, at 4,000 by 5%.
LLC_WINDOW_UOPS = 4_000
#: Open-loop requests per measured-cost fleet cell.
FLEET_REQUESTS = 10_000
#: Fleet sizes of the measured-cost grid.
FLEET_SIZES = (4,)
#: The static-cost fleet cell that ``llc-sweep`` and ``threads`` also
#: play, so that ``fleet_requests_per_s`` is defined on every workload.
COMPANION_REQUESTS = 1_000


def run_config(seed: int, window: int = WINDOW_UOPS):
    """The baseline machine at ``window`` uops (warming a third of it)."""
    from repro.core.runner import RunConfig

    return RunConfig(window_uops=window, warm_uops=window // 3, seed=seed)


@dataclass
class PassResult:
    """Everything one pass produced, in cell order.

    ``units`` holds ``(kind, label, payload)`` for each cell that
    returned: ``cell`` (a list of ``WorkloadRun``), ``fleet`` (a list of
    fleet summaries) or ``calibration`` (the cost-model document and
    the ``CoreResult`` of each calibration replay).  ``errors`` holds
    one line per cell that raised.
    """

    attempted: int = 0
    units: list[tuple[str, str, object]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


@dataclass
class Outcome:
    """The checked outputs of one pass."""

    attempted: int
    failed: int
    failures: list[str]
    digest: str
    instructions: int
    cycles: int
    requests: int
    p99_us: int
    acked_lost: int


@contextmanager
def collected_replays() -> Iterator[list]:
    """Collect the ``CoreResult`` of every pipeline replay in the block.

    Calibration returns only its cost model; its replays' counters are
    collected here so they count as simulated instructions and enter
    ``sim_digest``.  Calibration looks ``pipeline.replay`` up on the
    module at call time, which is where it is rebound.
    """
    from repro.trace import pipeline

    results: list = []
    original = pipeline.replay

    def replay(captured, params):
        result = original(captured, params)
        results.append((params, result))
        return result

    with patched(pipeline, "replay", replay):
        yield results


def _retry_policy():
    # The simulator is deterministic, so a retry could only repeat a
    # failure: fail a cell on its first error and never sleep.
    from repro.faults.retry import RetryPolicy

    return RetryPolicy.for_harness(retries=0)


def _run_engine(result: PassResult, engine, cells, kind: str) -> None:
    from repro.core.supervise import SweepCellError

    result.attempted += len(cells)
    try:
        outputs = engine.run(cells)
    except SweepCellError as exc:
        result.errors.extend(
            f"{f['cell'].kind}:{f['cell'].name}: {'; '.join(f['errors'])}"
            for f in exc.failures)
        return
    except Exception as exc:  # the run reports the failure and goes on
        result.errors.extend(f"{cell.kind}:{cell.name}: "
                             f"{type(exc).__name__}: {exc}" for cell in cells)
        return
    for cell, output in zip(cells, outputs):
        result.units.append((kind, f"{cell.kind}:{cell.name}", output))


def run_cells(result: PassResult, cells, store) -> None:
    """Run uarch cells through ``SweepEngine`` (serial)."""
    from repro.core.sweep import SweepEngine

    engine = SweepEngine(jobs=1, store=store, retry=_retry_policy())
    _run_engine(result, engine, cells, "cell")


def run_fleet_cells(result: PassResult, cells, store) -> None:
    """Run fleet cells through ``ClusterSweepEngine`` (serial)."""
    from repro.cluster.sweep import ClusterSweepEngine

    engine = ClusterSweepEngine(jobs=1, store=store, retry=_retry_policy())
    _run_engine(result, engine, cells, "fleet")


def companion_cell(seed: int):
    """One small static-cost fleet cell (no calibration, no fault)."""
    from repro.cluster.service import ClusterConfig
    from repro.cluster.sweep import ClusterCell

    config = ClusterConfig(workload="data-serving", fleet=4, replication=2,
                           requests=COMPANION_REQUESTS, seed=seed)
    return ClusterCell(name="companion", config=config)


def _fresh_cache(workdir: str) -> str:
    """A new empty cache directory, made the process's store root."""
    path = tempfile.mkdtemp(prefix="cache-", dir=workdir)
    os.environ["REPRO_CACHE_DIR"] = path
    return path


def _clear_runner_cache() -> None:
    from repro.core.runner import clear_cache

    clear_cache()


# -- llc-sweep -------------------------------------------------------------
def llc_sweep_cells(seed: int):
    from repro.core.experiments import figure4

    return figure4.cells(run_config(seed, LLC_WINDOW_UOPS))


def llc_sweep_setup(seed: int, workdir: str) -> dict:
    """Capture the grid's ten traces into a fresh on-disk trace store."""
    from repro.trace.pipeline import materialize_cells

    cache = _fresh_cache(workdir)
    _clear_runner_cache()
    cells = llc_sweep_cells(seed)
    materialize_cells(cells, use_store=True)
    return {"cache": cache, "cells": cells}


def llc_sweep_pass(state: dict, seed: int, workdir: str) -> PassResult:
    """Replay the 90-cell grid from the trace store (memos cleared)."""
    from repro.core.store import ResultStore

    os.environ["REPRO_CACHE_DIR"] = state["cache"]
    _clear_runner_cache()
    result = PassResult()
    store = ResultStore(tempfile.mkdtemp(prefix="results-", dir=workdir))
    run_cells(result, state["cells"], store)
    run_fleet_cells(result, [companion_cell(seed)], store)
    return result


# -- threads ---------------------------------------------------------------
def threads_cells(seed: int):
    from repro.core.experiments import figure3, figure6
    from repro.core.workloads import SCALE_OUT

    config = run_config(seed)
    scale_out = {spec.name for spec in SCALE_OUT}
    return [cell for cell in figure3.cells(config) + figure6.cells(config)
            if cell.name in scale_out]


def threads_setup(seed: int, workdir: str) -> dict:
    return {"cells": threads_cells(seed)}


def threads_pass(state: dict, seed: int, workdir: str) -> PassResult:
    """The live cells from cold stores and empty memos."""
    from repro.core.store import ResultStore

    cache = _fresh_cache(workdir)
    _clear_runner_cache()
    result = PassResult()
    store = ResultStore(cache)
    run_cells(result, state["cells"], store)
    run_fleet_cells(result, [companion_cell(seed)], store)
    return result


# -- fleet -----------------------------------------------------------------
def fleet_setup(seed: int, workdir: str) -> dict:
    from repro.cluster.calibrate import FLEET_WORKLOADS

    return {"workloads": FLEET_WORKLOADS}


def fleet_cells(seed: int, workload: str, model):
    """The measured-cost Figure 9 grid at ``FLEET_REQUESTS`` per cell.

    ``build_cells`` sizes cells and their fault plans from the run
    window (``window // 50`` requests), so the grid is built from a
    config whose window yields the wanted request count.
    """
    from repro.core.experiments import figure9_cluster

    config = replace(run_config(seed), window_uops=FLEET_REQUESTS * 50)
    cells = figure9_cluster.build_cells(
        config, workload=workload, fleets=list(FLEET_SIZES),
        costs="measured", cost_model=model)
    if cells[0].config.requests != FLEET_REQUESTS:
        raise RuntimeError("figure9_cluster no longer sizes cells from "
                           "the window; fix fleet_cells")
    return cells


def fleet_pass(state: dict, seed: int, workdir: str) -> PassResult:
    """Calibrate both fleet workloads cold, then play the grid."""
    from repro.core.experiments import figure9_cluster
    from repro.core.store import ResultStore

    cache = _fresh_cache(workdir)
    _clear_runner_cache()
    result = PassResult()
    config = run_config(seed)
    cells = []
    for workload in state["workloads"]:
        result.attempted += 1
        with collected_replays() as replays:
            try:
                model = figure9_cluster.calibrate_for(config, workload)
            except Exception as exc:  # reported as a failed unit
                result.errors.append(f"calibrate:{workload}: "
                                     f"{type(exc).__name__}: {exc}")
                continue
        result.units.append(("calibration", workload,
                             (model.to_doc(), replays)))
        cells.extend(fleet_cells(seed, workload, model))
    run_fleet_cells(result, cells, ResultStore(cache))
    return result


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, str], dict]
    run_pass: Callable[[dict, int, str], PassResult]


#: Why each workload was chosen is in the module docstring and README.
WORKLOADS = {
    "llc-sweep": Workload(llc_sweep_setup, llc_sweep_pass),
    "threads": Workload(threads_setup, threads_pass),
    "fleet": Workload(fleet_setup, fleet_pass),
}


# -- checks and digest -----------------------------------------------------
def _check_unit(kind: str, label: str, payload) -> tuple[list[str], object]:
    """Violations of one unit and its digest record."""
    from repro.core.validate import (ValidationError, check_cost_model,
                                     check_result,
                                     validate_cluster_summaries,
                                     validate_runs)

    problems: list[str] = []
    if kind == "cell":
        if not payload:
            problems.append("cell returned no runs")
        try:
            validate_runs(payload, context=label)
        except ValidationError as exc:
            problems.append(str(exc))
        record = [[run.name, asdict(run.result)] for run in payload]
    elif kind == "fleet":
        try:
            validate_cluster_summaries(payload, context=label)
        except ValidationError as exc:
            problems.append(str(exc))
        problems.extend(f"{summary['acked_lost']} acknowledged write(s) lost"
                        for summary in payload if summary["acked_lost"])
        record = payload
    else:
        doc, replays = payload
        problems.extend(check_cost_model(doc))
        for params, core_result in replays:
            problems.extend(check_result(core_result, params))
        record = [doc, [asdict(r) for _, r in replays]]
    return [f"{label}: {p}" for p in problems], [kind, label, record]


def _core_results(kind: str, payload) -> list:
    if kind == "cell":
        return [run.result for run in payload]
    if kind == "calibration":
        return [r for _, r in payload[1]]
    return []


def check(result: PassResult) -> Outcome:
    """Validate every output of a pass and digest the simulated data.

    A cell fails if it raised, if ``repro.core.validate`` rejects it or,
    for a fleet cell, if any acknowledged write was lost.  The digest is
    a SHA-256 over every simulated counter and fleet summary in cell
    order; it depends on nothing measured on the host.
    """
    failures = list(result.errors)
    failed = len(result.errors)
    records = []
    instructions = cycles = requests = p99 = lost = 0
    for kind, label, payload in result.units:
        problems, record = _check_unit(kind, label, payload)
        failures.extend(problems)
        failed += bool(problems)
        records.append(record)
        for core_result in _core_results(kind, payload):
            instructions += core_result.instructions
            cycles += core_result.cycles
        if kind == "fleet":
            for summary in payload:
                requests += summary["requests"]
                p99 = max(p99, summary["p99"])
                lost += summary["acked_lost"]
    return Outcome(
        attempted=result.attempted,
        failed=failed,
        failures=failures,
        digest=sim_digest(records),
        instructions=instructions,
        cycles=cycles,
        requests=requests,
        p99_us=p99,
        acked_lost=lost,
    )


def sim_digest(records: list) -> str:
    """SHA-256 over JSON records (sorted keys, shortest float repr)."""
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
