"""Computable quantities behind the clustering guarantees, and empirical
checks of their conclusions on finite data.

The guarantee compares the smallest true inter-model PSD distance against the
sum of a noise term, 8 A (B + sigma^2) sqrt(2 ln M / M), and a window-bias
term, 2 mu_max. Here A bounds the window transform, B bounds the model PSDs,
and mu_max aggregates how much the lag window distorts each model's
autocorrelation. When the comparison holds, with probability at least
1 - 2N/M^2 every observation sits closer to its own model's observations
than to any other's; the nearest-neighbor graph then connects only same-model
observations (for q below the smallest group size), and single-pass k-means
recovers the exact partition.

The empirical checks read what a clustering run holds, the weighted spectra
(separation) and the (N, q) q-NN index sets T_i (NFC), and hold no N x N array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.spatial.distance import cdist

from .distances import NEIGHBOR_BLOCK_ROWS, check_distance_entries
from .generators import FINE_GRID, GenerativeModel, _check_noise_variance, true_acf
from .spectra import WindowSpec

# The longest MA part whose autocorrelation (lags 0..length - 1) the window-bias moment reads in
# full off true_acf's lags, with no aliasing from the FINE_GRID-point transform.
MAX_MA_COEFFICIENTS = FINE_GRID // 2 - 2


def h_sequence(window: WindowSpec, max_lag: int) -> np.ndarray:
    """Window bias weights h[m] = 1 - g[m] (1 - m/M) for m < M, and 1 beyond.

    h[0] is always 0 because g[0] = 1. Only windows with a nonnegative
    transform are admissible; the rectangular window is rejected.
    """
    if not window.theory_valid:
        raise ValueError(
            f"the {window.kind!r} window has a sign-changing transform; "
            "the guarantee quantities are undefined for it"
        )
    if max_lag < 0:
        raise ValueError("max_lag must be nonnegative")
    lags = np.arange(max_lag + 1, dtype=float)
    h = np.ones(max_lag + 1)
    inside = lags < window.length
    h[inside] = 1.0 - window.values[: int(inside.sum())] * (1.0 - lags[inside] / window.length)
    return h


def acf_moment(model: GenerativeModel, window: WindowSpec) -> float:
    """Window-bias moment of one model: sum over all lags of |h[m]| |r[m]|.

    The sum runs over positive and negative lags; both sequences are even, so
    the positive side is doubled. It reads every lag true_acf tabulates,
    0..FINE_GRID/2 - 1. An MA part longer than MAX_MA_COEFFICIENTS is
    refused before any of it is computed.
    """
    if model.ma.size > MAX_MA_COEFFICIENTS:
        raise ValueError(f"the model's MA part has {model.ma.size} coefficients; "
                         f"the window-bias moment takes at most {MAX_MA_COEFFICIENTS}")
    acf = true_acf(model, FINE_GRID // 2 - 1)
    h = h_sequence(window, acf.size - 1)
    return float(np.abs(h[0] * acf[0]) + 2.0 * np.sum(np.abs(h[1:] * acf[1:])))


def mu_max(models, window: WindowSpec) -> float:
    """Largest window-bias moment across the generative models."""
    models = list(models)
    if not models:
        raise ValueError("need at least one model")
    return max(acf_moment(model, window) for model in models)


def true_model_distance(first: GenerativeModel, second: GenerativeModel) -> float:
    """L1 distance between the exact model PSDs on the fine grid."""
    if first.fine_grid_psd.shape != second.fine_grid_psd.shape:
        raise ValueError("models are tabulated on different grids")
    return 0.5 * float(np.mean(np.abs(first.fine_grid_psd - second.fine_grid_psd)))


def noise_term(spectral_bound: float, psd_sup: float, noise_variance: float, obs_len: int) -> float:
    """Estimation-noise contribution 8 A (B + sigma^2) sqrt(2 ln M / M)."""
    if obs_len < 2:
        raise ValueError("observation length must be >= 2")
    _check_noise_variance(noise_variance)
    return 8.0 * spectral_bound * (psd_sup + noise_variance) * math.sqrt(2.0 * math.log(obs_len) / obs_len)


def nfc_probability_bound(n_obs: int, obs_len: int) -> float:
    """The guarantee's success-probability lower bound 1 - 2N/M^2."""
    if n_obs < 1:
        raise ValueError("n_obs must be positive")
    if obs_len < 1:
        raise ValueError("obs_len must be positive")
    return 1.0 - 2.0 * n_obs / float(obs_len) ** 2


@dataclass(frozen=True)
class ConditionReport:
    """All scalars entering the clustering condition, plus the verdict."""

    min_model_distance: float
    noise_term: float
    bias_term: float
    satisfied: bool
    prob_bound: float
    spectral_bound: float
    psd_sup: float
    mu_max: float
    obs_len: int
    n_obs: int
    noise_variance: float


def check_condition(models, window: WindowSpec, n_obs: int, noise_variance: float) -> ConditionReport:
    """Evaluate the clustering condition for a model set and window.

    The observation length is taken from the window. `satisfied` records
    whether the smallest inter-model distance exceeds noise_term + bias_term;
    prob_bound is the success probability the guarantee would then give for a
    dataset of n_obs observations.
    """
    models = list(models)
    if len(models) < 2:
        raise ValueError("the clustering condition needs at least two models")
    if n_obs < 1:
        raise ValueError("n_obs must be positive")
    _check_noise_variance(noise_variance)
    lhs = min(true_model_distance(a, b) for a, b in combinations(models, 2))
    psd_sup = max(float(model.fine_grid_psd.max()) for model in models)
    mu = mu_max(models, window)
    noise = noise_term(window.spectral_bound, psd_sup, noise_variance, window.length)
    bias = 2.0 * mu
    return ConditionReport(
        min_model_distance=float(lhs),
        noise_term=float(noise),
        bias_term=float(bias),
        satisfied=bool(lhs > noise + bias),
        prob_bound=nfc_probability_bound(n_obs, window.length),
        spectral_bound=float(window.spectral_bound),
        psd_sup=psd_sup,
        mu_max=float(mu),
        obs_len=int(window.length),
        n_obs=int(n_obs),
        noise_variance=float(noise_variance),
    )


@dataclass(frozen=True)
class SeparationReport:
    """Outcome of the inter/intra distance comparison on one dataset."""

    separated: bool
    margin: float
    max_intra: float
    min_inter: float


def check_separation(rows, labels) -> SeparationReport:
    """Whether every cross-label distance exceeds every same-label distance.

    `rows` are weighted spectra (spectra.weighted_spectra). Each block of
    NEIGHBOR_BLOCK_ROWS rows meets itself and the later rows in one `cdist`
    call, so each pair is computed once, with its distance matrix bits.
    Singleton label classes contribute no intra pairs; the max over an empty
    set is taken as -inf, so a dataset of singletons is trivially separated.
    """
    x = np.asarray(rows, dtype=float)
    y = np.asarray(labels).ravel()
    if x.ndim != 2 or y.shape[0] != x.shape[0]:
        raise ValueError("labels do not match the rows")
    max_intra, min_inter = float("-inf"), float("inf")
    for start in range(0, x.shape[0], NEIGHBOR_BLOCK_ROWS):
        block = np.arange(start, min(start + NEIGHBOR_BLOCK_ROWS, x.shape[0]))
        d = check_distance_entries(cdist(x[block], x[start:], "cityblock"))
        later = np.arange(start, x.shape[0]) > block[:, None]
        same = y[block, None] == y[start:]
        max_intra = max(max_intra, float(d[later & same].max(initial=-np.inf)))
        min_inter = min(min_inter, float(d[later & ~same].min(initial=np.inf)))
    return SeparationReport(
        separated=bool(min_inter > max_intra),
        margin=min_inter - max_intra,
        max_intra=max_intra,
        min_inter=min_inter,
    )


def check_nfc(neighbor_sets, labels) -> bool:
    """True iff no q-NN set T_i holds an observation whose label differs from i's.

    `neighbor_sets` is the (N, q) index array of distances.nearest_neighbors
    or nnpc.nearest_neighbor_sets, row i holding T_i.
    """
    t = np.asarray(neighbor_sets, dtype=int)
    y = np.asarray(labels).ravel()
    if t.ndim != 2 or t.shape[0] != y.shape[0] or t.min(initial=0) < 0 or t.max(initial=0) >= y.shape[0]:
        raise ValueError("labels do not match the neighbor sets")
    return not bool(np.any(y[t] != y[:, None]))
