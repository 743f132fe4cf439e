"""Oracles shared by several test modules."""

import numpy as np


def full_grid(half):
    """Mirror bins 0..F/2 of an even spectrum (the last axis) onto the whole grid j = 0..F-1."""
    half = np.asarray(half)
    return np.concatenate([half, half[..., -2:0:-1]], axis=-1)


def reference_make_benchmark_dataset(models, n_per_model, length, noise_variance, rng):
    """make_benchmark_dataset as it was before it streamed its rows: one
    (n_per_model, width) draw and one lfilter call per model, the noise added
    out of place, the blocks concatenated and shuffled by a gathering copy.
    """
    from scipy.signal import lfilter

    gen = rng.generator()
    noise_std = float(np.sqrt(noise_variance))
    blocks, labels = [], []
    for index, model in enumerate(models):
        burn = max(1000, 50 * (model.ar.size + model.ma.size))
        width = burn + length + (length if noise_std > 0.0 else 0)
        draws = gen.standard_normal((n_per_model, width))
        out = lfilter(model.ma, model.ar, draws[:, : burn + length], axis=1)[:, burn:]
        if noise_std > 0.0:
            out = out + noise_std * draws[:, burn + length :]
        blocks.append(out)
        labels.append(np.full(n_per_model, index, dtype=int))
    observations = np.concatenate(blocks)
    truth = np.concatenate(labels)
    perm = gen.permutation(observations.shape[0])
    return observations[perm], truth[perm]
