"""Seeded benchmark inputs, made without the package under test.

The CSV inputs come from this module's own random generator and
scipy.signal.lfilter with the arma3 coefficients, so a change to
psdcluster.generators cannot change what the cluster workloads read.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

# (AR, MA) coefficients of the arma3 preset, before unit-power scaling.
ARMA3 = [
    ([1.0], [0.75, 1.0, -1.75, 0.5]),
    ([1.0], [0.5, 1.25, -1.5, 0.75]),
    ([1.0, -0.2, 0.4, 0.1], [1.0]),
]
BURN_IN = 1000
WORKLOADS = ("synth-mc", "cluster-wide", "cluster-long")
POWER_GRID = 1 << 16

# synth-mc: the acceptance criterion-5 configuration, one trial per job.
SYNTH_CONFIG = {
    "preset": "arma3",
    "M_list": [256, 1024, 4096],
    "sigma2_list": [0.0, 0.25],
    "n_per_model": 25,
    "q": 10,
    "trials": 1,
}
SYNTH_CONFIGS_PER_RUN = 12
SYNTH_SMOKE = {"M_list": [256], "sigma2_list": [0.0]}
SMOKE_SHRINK = 8  # synth-mc keeps 1 config, cluster-wide 150 rows, cluster-long 6

WIDE_PER_MODEL, WIDE_LENGTH = 400, 256
LONG_PER_MODEL, LONG_MIN, LONG_MAX = 16, 12000, 16384


def _unit_power_models():
    models = []
    for ar, ma in ARMA3:
        a, b = np.asarray(ar), np.asarray(ma)
        power = np.mean(np.abs(np.fft.fft(b, POWER_GRID)) ** 2 / np.abs(np.fft.fft(a, POWER_GRID)) ** 2)
        models.append((a, b / np.sqrt(power)))
    return models


def _simulate(gen, model, length):
    ar, ma = model
    return lfilter(ma, ar, gen.standard_normal(BURN_IN + length))[BURN_IN:]


def _write_csv(path: Path, labels, rows) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for label, row in zip(labels, rows):
            handle.write(label + "," + ",".join(map(repr, row.tolist())) + "\n")


def _labelled_rows(gen, per_model, lengths):
    """Observations of every arma3 model, shuffled; lengths[i] sets row i's length."""
    models = _unit_power_models()
    truth = gen.permutation(np.repeat(np.arange(len(models)), per_model))
    rows = [_simulate(gen, models[t], int(n)) for t, n in zip(truth, lengths)]
    return truth, rows


def _cluster_input(workdir: Path, name: str, truth, rows, extra_argv):
    path = workdir / f"{name}.csv"
    _write_csv(path, [f"m{t}" for t in truth], rows)
    return {
        "argv": ["cluster", str(path), "--truth", *extra_argv, "--labels-out", "{labels}", "--report-out", "{report}"],
        "kind": "cluster",
        "observations": len(rows),
        "truth": [int(t) for t in truth],
    }


def make_inputs(workload: str, seed: int, workdir: Path, smoke: bool = False) -> list[dict]:
    """Write the inputs of one run into workdir and return its job list.

    Each job is the argv for psdcluster.cli.main, with {labels}, {report} and
    {out} standing for per-job output paths, plus what checking needs. smoke
    shrinks every input so that a run only shows the workload works.
    """
    gen = np.random.default_rng([seed, WORKLOADS.index(workload)])
    shrink = SMOKE_SHRINK if smoke else 1
    if workload == "synth-mc":
        config = {**SYNTH_CONFIG, **SYNTH_SMOKE} if smoke else SYNTH_CONFIG
        combos = len(config["M_list"]) * len(config["sigma2_list"])
        jobs = []
        for index in range(SYNTH_CONFIGS_PER_RUN // shrink or 1):
            path = workdir / f"config{index}.json"
            path.write_text(json.dumps({**config, "seed": SYNTH_CONFIGS_PER_RUN * seed + index}))
            jobs.append({
                "argv": ["synth-bench", "--config", str(path), "--out", "{out}"],
                "kind": "synth",
                "rows": 2 * combos,
                "observations": 3 * config["n_per_model"] * combos * config["trials"],
            })
        return jobs
    if workload == "cluster-wide":
        n = 3 * (WIDE_PER_MODEL // shrink)
        truth, rows = _labelled_rows(gen, WIDE_PER_MODEL // shrink, [WIDE_LENGTH] * n)
        return [_cluster_input(workdir, "wide", truth, rows, [])]
    if workload == "cluster-long":
        n = 3 * (LONG_PER_MODEL // shrink or 1)
        lengths = gen.integers(LONG_MIN, LONG_MAX, size=n, endpoint=True)
        lengths[0] = LONG_MAX  # fixes the padded length, so F = 65536 on every seed
        truth, rows = _labelled_rows(gen, n // 3, lengths)
        rows = [row + gen.uniform(-2.0, 2.0) for row in rows]  # DC offset for --subtract-mean
        argv = ["--algorithm", "km", "--clusters", "3", "--pad-zeros", "--subtract-mean", "--normalize-psd"]
        return [_cluster_input(workdir, "long", truth, rows, argv)]
    raise ValueError(f"unknown workload {workload!r}")
