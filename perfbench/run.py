"""Host-time benchmark of the simulation stack.

Usage, from the root of the repository::

    python3 perfbench/run.py [--workload llc-sweep|threads|fleet]
                             [--seed N] [--seconds S] [--trace 0|1]

Without ``--workload`` the three workloads run one after another in
this process.  Each workload is set up three times (the median set-up
time is reported), then passes are repeated until ``--seconds`` have
elapsed, and at least twice.  ``wall_s`` adds up, cell by cell, the
fastest time any untraced pass took (see ``perfbench/laps.py``); the
rates divide by it.  With ``--trace 1``, untraced and traced passes
alternate and the per-layer metrics come from the traced pass with the
median wall time.

Every line before the last names a metric, its value and its unit; the
last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Seed 7 is the default; seed
``HELD_OUT_SEED`` is reserved for confirming a claim made on others.
See ``perfbench/README.md`` for every metric.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
#: The seed no tuning run uses; a speed claim is confirmed on it.
HELD_OUT_SEED = 4242
SETUP_REPEATS = 3
#: Passes per run, at the least, whatever ``--seconds`` says.
MIN_PASSES = 2
#: The contention control: one fixed capture, timed before the run.
PROBE_SEED = 7

#: Everything a pass imports, so import time is paid before set-up.
PROGRAM_MODULES = (
    "repro.core.runner",
    "repro.core.sweep",
    "repro.core.store",
    "repro.core.supervise",
    "repro.core.validate",
    "repro.core.experiments.figure3",
    "repro.core.experiments.figure4",
    "repro.core.experiments.figure6",
    "repro.core.experiments.figure9_cluster",
    "repro.cluster.calibrate",
    "repro.cluster.sweep",
    "repro.faults.retry",
    "repro.trace.live",
    "repro.trace.pipeline",
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_instructions_per_s": "1/s",
    "fleet_requests_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    from perfbench.layers import LAYER_COUNTS, LAYER_RATES, LAYER_TIMES

    units = {name: "s" for name in LAYER_TIMES}
    units.update({name: "count" for name in LAYER_COUNTS})
    units.update({"trace.store_bytes_read": "bytes",
                  "trace.store_bytes_written": "bytes"})
    units.update({name: "1/s" for name in LAYER_RATES})
    units.update({
        "trace.memo_hits": "count",
        "core.cells": "count",
        "core.cells_failed": "count",
        "sim.cycles": "count",
        "sim.instructions": "count",
        "fleet.p99_us": "us",
        "fleet.acked_lost": "count",
        "import_s": "s",
        "unattributed_s": "s",
        "trace_overhead_s": "s",
        "probe.capture_uops_per_s": "1/s",
    })
    return units


@dataclass
class PassRecord:
    traced: bool
    wall_s: float
    laps: list[float]
    outcome: object
    tracer: object | None


def import_program() -> float:
    started = perf_counter()
    for module in PROGRAM_MODULES:
        importlib.import_module(module)
    return perf_counter() - started


def contention_probe() -> float:
    """Capture rate of one fixed trace, in uops per second.

    Recorded beside every run so runs slowed by other load on the host
    show; nothing is gated on it.
    """
    from repro.trace.capture import TraceKey, capture

    key = TraceKey(workload="data-serving", seed=PROBE_SEED,
                   window_uops=2_000, warm_uops=666)
    started = perf_counter()
    captured, _app = capture(key)
    return captured.total_uops() / (perf_counter() - started)


def run_passes(workload, state, seed: int, workdir: str, seconds: float,
               traced: bool) -> list[PassRecord]:
    """Repeat passes until ``seconds`` elapse and ``MIN_PASSES`` ran.

    Traced, the passes alternate between untraced and traced.  Passes
    of each kind take the process's CPUs in turn, so that the fastest
    laps (``perfbench/laps.py``) come from more than one CPU.
    """
    from perfbench.laps import lap_marks, laps, on_cpu
    from perfbench.layers import instrumented
    from perfbench.spans import Tracer
    from perfbench.workloads import check
    from repro.trace.pipeline import TAPS

    records: list[PassRecord] = []
    started = perf_counter()
    while True:
        trace_this = traced and len(records) % 2 == 1
        tracer = Tracer() if trace_this else None
        marks: list[float] = []
        gc.collect()
        with on_cpu(len(records) // 2 if traced else len(records)):
            if tracer is None:
                with lap_marks(marks):
                    result = workload.run_pass(state, seed, workdir)
            else:
                with instrumented(tracer), lap_marks(marks):
                    result = workload.run_pass(state, seed, workdir)
        if tracer is not None:
            tracer.add("trace.memo_hits", TAPS.memo_hits)
        records.append(PassRecord(trace_this, marks[-1] - marks[0],
                                  laps(marks), check(result), tracer))
        # The next pass must not run beside this one's simulator state.
        del result
        if (len(records) >= MIN_PASSES
                and perf_counter() - started >= seconds):
            return records


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 import_s: float, probe_rate: float, workdir: str) -> dict:
    """Set up and measure one workload; returns its result object."""
    from perfbench.laps import fastest_laps_total
    from perfbench.layers import ledger
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        begin = perf_counter()
        state = workload.setup(seed, workdir)
        setup_times.append(perf_counter() - begin)
    records = run_passes(workload, state, seed, workdir, seconds, traced)

    outcomes = [record.outcome for record in records]
    digests = {outcome.digest for outcome in outcomes}
    failures = [line for outcome in outcomes for line in outcome.failures]
    if len(digests) > 1:
        failures.append(f"sim_digest differs between passes: "
                        f"{sorted(digests)}")
    for line in failures[:20]:
        print(f"FAILED {name}: {line}", file=sys.stderr)
    outcome = outcomes[0]
    untraced = [r for r in records if not r.traced]
    if traced:
        traced_records = sorted((r for r in records if r.traced),
                                key=lambda r: r.wall_s)
        chosen = traced_records[(len(traced_records) - 1) // 2]
        metrics = ledger(chosen.tracer, chosen.wall_s)
        metrics.update({
            "trace.memo_hits": chosen.tracer.counts["trace.memo_hits"],
            "core.cells": outcome.attempted,
            "core.cells_failed": outcome.failed,
            "sim.cycles": outcome.cycles,
            "sim.instructions": outcome.instructions,
            "fleet.p99_us": outcome.p99_us,
            "fleet.acked_lost": outcome.acked_lost,
            "import_s": import_s,
            "trace_overhead_s": (
                statistics.median(r.wall_s for r in traced_records)
                - statistics.median(r.wall_s for r in untraced)),
            "probe.capture_uops_per_s": probe_rate,
        })
        units = per_layer_units()
        spans_dir = ROOT / ".perfbench"
        chosen.tracer.dump(spans_dir / f"spans-{name}-seed{seed}.jsonl")
    else:
        wall = fastest_laps_total([r.laps for r in untraced])
        if wall is None:
            print(f"note {name}: passes cut into different laps; wall_s "
                  "is the median pass", file=sys.stderr)
            wall = statistics.median(r.wall_s for r in untraced)
        metrics = {
            "wall_s": wall,
            "setup_s": import_s + statistics.median(setup_times),
            "sim_instructions_per_s": outcome.instructions / wall,
            "fleet_requests_per_s": outcome.requests / wall,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS

    walls = " ".join(f"{r.wall_s:.3f}{'t' if r.traced else ''}"
                     for r in records)
    print(f"workload {name} seed {seed}: pass walls {walls} s "
          "(t = traced)")
    print(f"sim_digest {name} {outcome.digest}")
    print(f"probe.capture_uops_per_s {probe_rate:.1f} 1/s "
          "(contention control, recorded only)")
    for metric in units:
        print(f"{name} {metric} {metrics[metric]:.6g} {units[metric]}")
    return {
        "correct": not failures and all(o.attempted for o in outcomes),
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {metric: {"value": metrics[metric], "unit": units[metric]}
                    for metric in units},
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Host-time benchmark of the simulation stack.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all three, in turn)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measure passes for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: alternate traced passes, report layers")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(ROOT))
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: the program's sources (src/repro) are missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import_s = import_program()
    probe_rate = contention_probe()
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    names = [args.workload] if args.workload else \
        ["llc-sweep", "threads", "fleet"]
    try:
        results = {
            name: run_workload(name, args.seed, args.seconds,
                               bool(args.trace), import_s, probe_rate,
                               workdir)
            for name in names
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.workload:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value
                        for name, result in results.items()
                        for metric, value in result["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
