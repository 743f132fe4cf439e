"""Oracles shared by several test modules."""

import numpy as np

from psdcluster.distances import validate_distance_matrix
from psdcluster.theory import SeparationReport


def full_grid(half):
    """Mirror bins 0..F/2 of an even spectrum (the last axis) onto the whole grid j = 0..F-1."""
    half = np.asarray(half)
    return np.concatenate([half, half[..., -2:0:-1]], axis=-1)


def reference_simulate(model, noise_variance, length, count, gen):
    """count independent observations of the model from one (count, width)
    draw of gen and one lfilter call, the noise added out of place.
    """
    from scipy.signal import lfilter

    noise_std = float(np.sqrt(noise_variance))
    burn = max(1000, 50 * (model.ar.size + model.ma.size))
    width = burn + length + (length if noise_std > 0.0 else 0)
    draws = gen.standard_normal((count, width))
    out = lfilter(model.ma, model.ar, draws[:, : burn + length], axis=1)[:, burn:]
    if noise_std > 0.0:
        out = out + noise_std * draws[:, burn + length :]
    return out


def reference_make_benchmark_dataset(models, n_per_model, length, noise_variance, rng):
    """make_benchmark_dataset as it was before it streamed its rows: one
    reference_simulate block per model, the blocks concatenated and shuffled
    by a gathering copy.
    """
    gen = rng.generator()
    blocks, labels = [], []
    for index, model in enumerate(models):
        blocks.append(reference_simulate(model, noise_variance, length, n_per_model, gen))
        labels.append(np.full(n_per_model, index, dtype=int))
    observations = np.concatenate(blocks)
    truth = np.concatenate(labels)
    perm = gen.permutation(observations.shape[0])
    return observations[perm], truth[perm]


def reference_check_separation(dist, labels):
    """theory.check_separation on a full distance matrix: the max same-label
    and min cross-label entry over its upper triangle.
    """
    d = validate_distance_matrix(dist)
    y = np.asarray(labels).ravel()
    upper = np.triu_indices(d.shape[0], k=1)
    same = y[upper[0]] == y[upper[1]]
    values = d[upper]
    max_intra = float(values[same].max()) if same.any() else float("-inf")
    min_inter = float(values[~same].min()) if (~same).any() else float("inf")
    return SeparationReport(separated=bool(min_inter > max_intra), margin=min_inter - max_intra,
                            max_intra=max_intra, min_inter=min_inter)
