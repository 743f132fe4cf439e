"""Acceptance suite: one test per shipped guarantee, each printing a
single [criterion N] PASS/FAIL line (run with `pytest -s` to see them).

1. FFT-based PSD estimation equals direct cosine summation (rel err 1e-9).
2. The PSD distance is a metric on random spectra.
3. Separated block distances: conflict-free neighborhoods, exact single-pass
   k-means, exact spectral clustering on connected blocks. Zero failures.
4. Two separated narrowband models: empirical separation and conflict-free
   neighborhoods in at least 95 of 100 seeded trials.
5. Benchmark trends over observation length and noise level.
6. The eigengap estimate finds the true model count in at least 90 of 100.
7. Frozen guarantee arithmetic (noise floor 5.27, probability 0.9999911).
8. Frozen score values and label-permutation invariance.
9. Optional motion-capture replication, gated on PSDCLUSTER_MOCAP_DIR.
"""

import math
import os
import time
from collections import deque

import numpy as np
import pytest

from psdcluster.cli import run_synth_bench
from psdcluster.distances import distance_matrix, l1_distance, nearest_neighbors
from psdcluster.generators import benchmark_models, make_benchmark_dataset, make_model, normalize_model
from psdcluster.km import km_from_distances
from psdcluster.metrics import clustering_error, confusion_entropy
from psdcluster.nnpc import (
    build_adjacency,
    estimate_cluster_count,
    laplacian_spectrum,
    nearest_neighbor_sets,
    spectral_cluster,
)
from psdcluster.numerics import RngStream
from psdcluster.reader import read_observation_csv
from psdcluster.spectra import bt_psd, estimate_dataset_psds, make_window, next_pow2, weighted_spectra
from psdcluster.theory import check_nfc, check_separation, nfc_probability_bound, noise_term, true_model_distance


def _report(cid, ok, detail=""):
    line = f"[criterion {cid}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, f"criterion {cid}: {detail}"


def separated_block_matrix(gen, sizes):
    n = int(sum(sizes))
    labels = np.repeat(np.arange(len(sizes)), sizes)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            low, high = (0.01, 0.2) if labels[i] == labels[j] else (0.5, 1.0)
            d[i, j] = d[j, i] = gen.uniform(low, high)
    return d, labels


def subgraph_connected(adjacency, nodes):
    nodes = list(nodes)
    index = {node: k for k, node in enumerate(nodes)}
    seen = {nodes[0]}
    queue = deque([nodes[0]])
    while queue:
        here = queue.popleft()
        for other in nodes:
            if other not in seen and adjacency[here, other] > 0.0:
                seen.add(other)
                queue.append(other)
    return len(seen) == len(nodes)


def narrowband_pair():
    """Two unit-power resonators with far-apart peak frequencies."""
    models = []
    for f0 in (0.125, 0.375):
        ar = [1.0, -2.0 * 0.97 * math.cos(2.0 * math.pi * f0), 0.97**2]
        models.append(normalize_model(make_model(ar, [1.0])))
    return models


def test_criterion_1_psd_estimator_matches_direct_summation():
    start = time.perf_counter()
    gen = np.random.default_rng(101)
    worst = 0.0
    for m in (64, 257, 512):
        window = make_window("gaussian", m)
        grid = next_pow2(4 * m)
        freqs = np.arange(grid // 2 + 1) / grid  # the estimate holds bins 0..F/2
        cos_table = np.cos(2.0 * np.pi * np.outer(freqs, np.arange(1, m)))
        for _ in range(50):
            x = gen.standard_normal(m)
            psd = bt_psd(x, window, grid)
            acf = np.array([(x[lag:] * x[: m - lag]).sum() / m for lag in range(m)])
            direct = acf[0] + 2.0 * cos_table @ (window.values[1:] * acf[1:])
            scale = np.abs(direct).max()
            worst = max(worst, float(np.abs(psd - direct).max() / scale))
    elapsed = time.perf_counter() - start
    _report(1, worst <= 1e-9 and elapsed < 10.0, f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_distance_is_a_metric():
    start = time.perf_counter()
    gen = np.random.default_rng(202)
    failures = 0
    for _ in range(200):
        a, b, c = (gen.random(128) + 0.01 for _ in range(3))
        if l1_distance(a, a) != 0.0 or l1_distance(b, b) != 0.0:
            failures += 1
        if l1_distance(a, b) != l1_distance(b, a):
            failures += 1
        if l1_distance(a, b) > l1_distance(a, c) + l1_distance(c, b) + 1e-12:
            failures += 1
    elapsed = time.perf_counter() - start
    _report(2, failures == 0 and elapsed < 5.0, f"{failures} violations, {elapsed:.1f}s")


def test_criterion_3_separated_blocks_cluster_exactly():
    start = time.perf_counter()
    gen = np.random.default_rng(303)
    nfc_checks = km_checks = nnpc_checks = failures = 0
    for _ in range(500):
        n_blocks = int(gen.integers(2, 5))
        sizes = gen.integers(2, 6, size=n_blocks)
        d, truth = separated_block_matrix(gen, sizes)
        blocks = [np.flatnonzero(truth == b) for b in range(n_blocks)]
        for q in range(1, int(sizes.min())):
            neighbor_sets = nearest_neighbor_sets(d, q)
            nfc_checks += 1
            if not check_nfc(neighbor_sets, truth):
                failures += 1
                continue
            adjacency = build_adjacency(d, neighbor_sets)
            if all(subgraph_connected(adjacency, block) for block in blocks):
                nnpc_checks += 1
                labels = spectral_cluster(laplacian_spectrum(adjacency, n_blocks), n_blocks, rng=RngStream(0))
                if clustering_error(labels, truth) != 0.0:
                    failures += 1
        km_checks += 1
        if clustering_error(km_from_distances(d, n_blocks), truth) != 0.0:
            failures += 1
    elapsed = time.perf_counter() - start
    detail = (
        f"{failures} failures over {nfc_checks} neighborhood, {km_checks} k-means, "
        f"{nnpc_checks} spectral checks, {elapsed:.1f}s"
    )
    _report(3, failures == 0 and elapsed < 30.0, detail)


def test_criterion_4_narrowband_separation_and_neighborhoods():
    start = time.perf_counter()
    models = narrowband_pair()
    gap = true_model_distance(models[0], models[1])
    assert gap >= 0.9, f"model distance {gap:.3f} below 0.9"
    m = 4096
    window = make_window("gaussian", m)
    grid = next_pow2(4 * m)
    hits = 0
    for trial in range(100):
        data = make_benchmark_dataset(models, 10, m, 0.0, RngStream(404, trial))
        rows = weighted_spectra(data.observations, window=window, grid_size=grid)
        separated = check_separation(rows, data.labels).separated
        nfc = check_nfc(nearest_neighbors(rows, 4)[0], data.labels)
        hits += separated and nfc
    elapsed = time.perf_counter() - start
    _report(4, hits >= 95 and elapsed < 120.0, f"{hits}/100 trials, model gap {gap:.3f}, {elapsed:.1f}s")


def test_criterion_5_benchmark_trends():
    start = time.perf_counter()
    rows = run_synth_bench(
        {
            "preset": "arma3",
            "M_list": [256, 1024, 4096],
            "sigma2_list": [0.0, 0.25],
            "trials": 50,
            "n_per_model": 25,
            "q": 10,
            "seed": 0,
        }
    )
    mean_ce = {(row["M"], row["sigma2"], row["algorithm"]): row["mean_ce"] for row in rows}
    problems = []
    for sigma2 in (0.0, 0.25):
        for prev, here in ((256, 1024), (1024, 4096)):
            if mean_ce[(here, sigma2, "nnpc")] > mean_ce[(prev, sigma2, "nnpc")] + 0.02:
                problems.append(f"nnpc CE rose {prev}->{here} at noise {sigma2}")
        for m in (256, 1024, 4096):
            if mean_ce[(m, sigma2, "nnpc")] > mean_ce[(m, sigma2, "km")] + 0.02:
                problems.append(f"nnpc above km at M={m}, noise {sigma2}")
    final = mean_ce[(4096, 0.0, "nnpc")]
    if final > 0.05:
        problems.append(f"nnpc CE {final:.3f} at M=4096 noiseless")
    elapsed = time.perf_counter() - start
    detail = "; ".join(problems) if problems else f"final noiseless CE {final:.4f}, {elapsed:.0f}s"
    _report(5, not problems and elapsed < 900.0, detail)


def test_criterion_6_eigengap_recovers_model_count():
    start = time.perf_counter()
    models = benchmark_models()
    m = 4096
    window = make_window("gaussian", m)
    grid = next_pow2(4 * m)
    hits = 0
    for trial in range(100):
        data = make_benchmark_dataset(models, 25, m, 0.0, RngStream(606, trial))
        dist = distance_matrix(estimate_dataset_psds(data.observations, window=window, grid_size=grid))
        adjacency = build_adjacency(dist, nearest_neighbor_sets(dist, 10))
        hits += estimate_cluster_count(laplacian_spectrum(adjacency, 11).graph_eigenvalues(), 10) == 3
    elapsed = time.perf_counter() - start
    _report(6, hits >= 90 and elapsed < 600.0, f"{hits}/100 trials, {elapsed:.0f}s")


def test_criterion_7_guarantee_arithmetic():
    start = time.perf_counter()
    noise = noise_term(125.33, 1.0, 0.0, 10**6)
    prob = nfc_probability_bound(75, 4096)
    ok = abs(noise - 5.27) <= 0.01 and abs(prob - 0.9999911) <= 1e-7
    elapsed = time.perf_counter() - start
    _report(7, ok and elapsed < 1.0, f"noise {noise:.4f}, probability {prob:.7f}")


def test_criterion_8_scores_and_invariance():
    start = time.perf_counter()
    ce = clustering_error([1, 2, 2, 2], [1, 1, 2, 2])
    entropy = confusion_entropy([1, 2, 2, 2], [1, 1, 2, 2])
    ok = ce == 0.25 and entropy == 0.5
    gen = np.random.default_rng(808)
    violations = 0
    for _ in range(1000):
        n = int(gen.integers(2, 30))
        k = int(gen.integers(1, 6))
        truth = gen.integers(0, k, size=n)
        predicted = gen.integers(0, k, size=n)
        values = np.unique(predicted)
        mapping = dict(zip(values.tolist(), values[gen.permutation(len(values))].tolist()))
        renamed = np.array([mapping[v] for v in predicted])
        if clustering_error(renamed, truth) != clustering_error(predicted, truth):
            violations += 1
        if abs(confusion_entropy(renamed, truth) - confusion_entropy(predicted, truth)) > 1e-12:
            violations += 1
    elapsed = time.perf_counter() - start
    _report(
        8,
        ok and violations == 0 and elapsed < 5.0,
        f"error {ce}, entropy {entropy}, {violations} invariance violations, {elapsed:.1f}s",
    )


MOCAP_DIR = os.environ.get("PSDCLUSTER_MOCAP_DIR")


@pytest.mark.skipif(not MOCAP_DIR, reason="set PSDCLUSTER_MOCAP_DIR to run the motion-capture check")
def test_criterion_9_motion_capture_replication():
    """Needs user-supplied data: $PSDCLUSTER_MOCAP_DIR/subject16.csv and
    subject35.csv, one observation per row with a leading truth label,
    as produced by `psdcluster convert-mocap --labels-csv ...` on the
    right-foot marker trajectories."""
    targets = {"subject16.csv": {"nnpc": 0.02, "km": 0.24}, "subject35.csv": {"nnpc": 0.0, "km": 0.0}}
    problems = []
    for name, expected in targets.items():
        path = os.path.join(MOCAP_DIR, name)
        observations, truth = read_observation_csv(path, with_truth=True, pad_zeros=True, subtract_mean=False)
        psds = estimate_dataset_psds(observations, unit_power=True)
        dist = distance_matrix(psds)
        adjacency = build_adjacency(dist, nearest_neighbor_sets(dist, 6))
        nnpc_labels = spectral_cluster(laplacian_spectrum(adjacency, 2), 2, rng=RngStream(0), dist=dist.__getitem__)
        km_labels = km_from_distances(dist, 2)
        scores = {
            "nnpc": clustering_error(nnpc_labels, truth),
            "km": clustering_error(km_labels, truth),
        }
        print(
            f"{name}: nnpc error {scores['nnpc']:.3f} (entropy "
            f"{confusion_entropy(nnpc_labels, truth):.3f}), km error {scores['km']:.3f} "
            f"(entropy {confusion_entropy(km_labels, truth):.3f})"
        )
        for algorithm, target in expected.items():
            if target == 0.0:
                if scores[algorithm] != 0.0:
                    problems.append(f"{name} {algorithm} error {scores[algorithm]:.3f}, expected 0")
            elif abs(scores[algorithm] - target) > 0.05:
                problems.append(f"{name} {algorithm} error {scores[algorithm]:.3f}, expected {target}+-0.05")
    _report(9, not problems, "; ".join(problems) or "both subjects within tolerance")
