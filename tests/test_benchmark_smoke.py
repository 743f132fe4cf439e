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


# one full distance-matrix validation per clustering run: synth-mc runs nnpc
# and km on each dataset, cluster-wide runs nnpc, cluster-long runs km
VALIDATE_CALLS = {"synth-mc": 2, "cluster-wide": 1, "cluster-long": 1}


@pytest.mark.parametrize("workload", list(VALIDATE_CALLS))
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
    assert result["metrics"]["trace.absent_targets"]["value"] == 0
    assert result["metrics"]["distances.validate_calls"]["value"] == VALIDATE_CALLS[workload]
