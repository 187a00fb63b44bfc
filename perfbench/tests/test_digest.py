"""``sim_digest`` depends on the simulation only, not the host process."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

SCRIPT = """
import os, sys, tempfile
sys.path[:0] = [{root!r}, {src!r}]
from perfbench import workloads
from repro.core.store import ResultStore
from repro.core.sweep import Cell

with tempfile.TemporaryDirectory() as cache:
    os.environ["REPRO_CACHE_DIR"] = cache
    store = ResultStore(cache)
    result = workloads.PassResult()
    config = workloads.run_config(11)
    workloads.run_cells(result, [Cell("single", "web-search", config),
                                 Cell("smt", "data-serving", config)], store)
    workloads.run_fleet_cells(result, [workloads.companion_cell(11)], store)
    outcome = workloads.check(result)
    assert outcome.failed == 0, outcome.failures
    print(outcome.digest)
"""


def _digest(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    script = SCRIPT.format(root=str(ROOT), src=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=300,
                         check=True)
    return out.stdout.strip()


def test_sim_digest_is_identical_across_hash_seeds():
    first, second = _digest("0"), _digest("12345")
    assert len(first) == 64
    assert first == second
