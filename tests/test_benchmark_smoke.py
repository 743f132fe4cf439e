"""Smoke runs of the benchmark harness at its tiny size, traced.

The tracer wraps package functions by module and name, so a refactor that
renames or removes one shows up as an absent target; a kernel that breaks an
output shows up as a failed job. Each workload takes a few seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# the frequency grid F of each smoke input: M = 256 on synth-mc and
# cluster-wide, rows padded to 16384 on cluster-long
GRID_SIZE = {"synth-mc": 1024, "cluster-wide": 1024, "cluster-long": 65536}


@pytest.mark.parametrize("workload", list(GRID_SIZE))
def test_traced_smoke_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert metrics["trace.absent_targets"] == 0
    # on every workload, synth-bench's trials included, the blocked q-NN scan
    # and the km distance columns replace the N x N matrix, so none is validated
    assert metrics["distances.validate_calls"] == 0
    assert metrics["distances.pairs"] == 0
    assert metrics["distances.matrix_mb"] == 0
    # an estimate holds bins 0..F/2, and the distance kernel reads each of them once per pair
    bins = GRID_SIZE[workload] // 2 + 1
    assert metrics["spectra.grid_points"] == metrics["spectra.psd_rows"] * bins
    assert metrics["distances.grid_ops"] == metrics["distances.pairs"] * bins
