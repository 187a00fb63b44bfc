"""Where the traced run records spans, and the per-layer ledger.

Spans are recorded from the benchmark's own files: each probe rebinds a
public function of the program at the name its caller looks up (a
module global, or a method on its class) to a wrapper that opens a
span around the call and records the counts the call returns.  The
program itself is unchanged, and an untraced pass runs none of this.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from perfbench.spans import Tracer, self_time_by_name


@contextmanager
def patched(owner: object, name: str, replacement) -> Iterator[None]:
    """Temporarily rebind ``owner.name`` (a module global or a method)."""
    original = getattr(owner, name)
    setattr(owner, name, replacement)
    try:
        yield
    finally:
        setattr(owner, name, original)


def _outermost_build(tracer: Tracer, index: int, args, result) -> None:
    # build_app_for calls build_app: count an app once.
    parent = tracer.spans[index].parent
    if parent is None or tracer.spans[parent].name != "apps.build":
        tracer.add("apps.builds")


def _capture(tracer: Tracer, index: int, args, result) -> None:
    tracer.add("trace.capture_uops", result[0].total_uops())


def _store_get(tracer: Tracer, index: int, args, result) -> None:
    if result is not None:
        store, fingerprint = args
        tracer.add("trace.store_bytes_read",
                   store.path_for(fingerprint).stat().st_size)


def _store_put(tracer: Tracer, index: int, args, result) -> None:
    store, captured = args
    tracer.add("trace.store_bytes_written",
               store.path_for(captured.fingerprint).stat().st_size)


def _replay_columns(tracer: Tracer, index: int, args, result) -> None:
    tracer.add("uarch.replay_uops", args[1].length)


def _core_run(tracer: Tracer, index: int, args, result) -> None:
    tracer.add("uarch.core_run_instructions", result.instructions)


def _chip(tracer: Tracer, index: int, args, result) -> None:
    tracer.add("uarch.chip_instructions", result.instructions)


def _simulate(tracer: Tracer, index: int, args, result) -> None:
    tracer.add("cluster.events", result["events_fired"])
    tracer.add("cluster.requests", result["requests"])


@dataclass(frozen=True)
class Probe:
    """One rebinding: ``module`` and ``attr`` (``Class.method`` for a
    method) name the lookup site; ``span`` names the layer."""

    module: str
    attr: str
    span: str
    count: Callable | None = None

    def owner_and_name(self) -> tuple[object, str]:
        owner: object = importlib.import_module(self.module)
        *path, name = self.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, name


PROBES = (
    Probe("repro.core.workloads", "build_app", "apps.build",
          _outermost_build),
    Probe("repro.core.runner", "build_app", "apps.build", _outermost_build),
    Probe("repro.trace.capture", "build_app_for", "apps.build",
          _outermost_build),
    Probe("repro.trace.pipeline", "capture", "trace.capture", _capture),
    Probe("repro.trace.store", "TraceStore.get", "trace.store_get",
          _store_get),
    Probe("repro.trace.store", "TraceStore.put", "trace.store_put",
          _store_put),
    Probe("repro.trace.replay", "ReplaySource.warm_into", "uarch.warm"),
    Probe("repro.trace.live", "LiveSource.warm_into", "uarch.warm"),
    Probe("repro.trace.live", "warm_app", "uarch.warm"),
    Probe("repro.trace.replay", "replay_columns", "uarch.replay",
          _replay_columns),
    Probe("repro.uarch.core", "Core.run", "uarch.core_run", _core_run),
    Probe("repro.uarch.chip", "Chip.run_segments", "uarch.chip", _chip),
    Probe("repro.core.sweep", "SweepEngine.run", "core.sweep"),
    Probe("repro.cluster.sweep", "ClusterSweepEngine.run", "core.sweep"),
    Probe("repro.core.validate", "validate_runs", "core.validate"),
    Probe("repro.core.validate", "validate_cluster_summaries",
          "core.validate"),
    *(Probe("repro.core.store", f"ResultStore.{method}", "core.result_store")
      for method in ("get", "put", "get_cluster", "put_cluster",
                     "get_calibration", "put_calibration")),
    Probe("repro.cluster.calibrate", "calibrate", "cluster.calibrate"),
    Probe("repro.cluster.sweep", "simulate", "cluster.simulate", _simulate),
)


def _wrapped(function, probe: Probe, tracer: Tracer):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        index = tracer.start(probe.span)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.stop(index)
        if probe.count is not None:
            probe.count(tracer, index, args, result)
        return result
    return wrapper


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[Tracer]:
    """Record every probe's spans into ``tracer`` inside the block."""
    with ExitStack() as stack:
        for probe in PROBES:
            owner, name = probe.owner_and_name()
            stack.enter_context(patched(
                owner, name, _wrapped(getattr(owner, name), probe, tracer)))
        yield tracer


#: Per-layer time metrics: the layer's summed span self time.
LAYER_TIMES = {
    "apps.build_s": "apps.build",
    "trace.capture_s": "trace.capture",
    "trace.store_get_s": "trace.store_get",
    "trace.store_put_s": "trace.store_put",
    "uarch.warm_s": "uarch.warm",
    "uarch.replay_s": "uarch.replay",
    "uarch.core_run_s": "uarch.core_run",
    "uarch.chip_s": "uarch.chip",
    "core.sweep_self_s": "core.sweep",
    "core.validate_s": "core.validate",
    "core.result_store_s": "core.result_store",
    "cluster.calibrate_s": "cluster.calibrate",
    "cluster.simulate_s": "cluster.simulate",
}

#: Per-layer counts recorded by the probes.
LAYER_COUNTS = (
    "apps.builds",
    "trace.capture_uops",
    "trace.store_bytes_read",
    "trace.store_bytes_written",
    "uarch.replay_uops",
    "uarch.core_run_instructions",
    "uarch.chip_instructions",
    "cluster.events",
    "cluster.requests",
)

#: Rates derived from a count and a layer's self time.
LAYER_RATES = {
    "trace.capture_uops_per_s": ("trace.capture_uops", "trace.capture_s"),
    "uarch.replay_uops_per_s": ("uarch.replay_uops", "uarch.replay_s"),
    "cluster.events_per_s": ("cluster.events", "cluster.simulate_s"),
}


def ledger(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass of ``wall_s`` seconds.

    ``unattributed_s`` is the pass's host time outside every span:
    ``wall_s`` minus the sum of all self times.
    """
    own = self_time_by_name(tracer.spans)
    metrics = {metric: own.get(span, 0.0)
               for metric, span in LAYER_TIMES.items()}
    metrics.update({name: tracer.counts.get(name, 0)
                    for name in LAYER_COUNTS})
    for metric, (count, seconds) in LAYER_RATES.items():
        metrics[metric] = (metrics[count] / metrics[seconds]
                           if metrics[seconds] > 0 else 0.0)
    metrics["unattributed_s"] = wall_s - sum(own.values())
    return metrics
