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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.sparse import coo_array

from .distances import validate_distance_matrix
from .generators import FINE_GRID, GenerativeModel, _check_noise_variance, true_acf
from .spectra import WindowSpec

ACF_TAIL_TOL = 1e-9
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


def _acf_truncation(model: GenerativeModel, acf: np.ndarray) -> int:
    """Lag horizon past which the remaining |r| mass is below ACF_TAIL_TOL.

    acf is the model's true autocorrelation at lags 0..FINE_GRID/2 - 1.
    MA-only models have finitely supported autocorrelation; AR tails are
    bounded geometrically through the largest pole radius.
    """
    if model.ar.size == 1:
        return max(model.ma.size + 1, 8)
    rho = float(np.abs(np.roots(model.ar)).max())
    lag = 4096
    while True:
        recent = float(np.abs(acf[lag - 7 : lag + 1]).max())
        if recent * rho / (1.0 - rho) < ACF_TAIL_TOL or 2 * lag >= FINE_GRID // 2:
            return lag
        lag *= 2


def acf_moment(model: GenerativeModel, window: WindowSpec) -> float:
    """Window-bias moment of one model: sum over all lags of |h[m]| |r[m]|.

    The sum runs over positive and negative lags; both sequences are even, so
    the positive side is doubled. Truncation is chosen so the neglected tail
    is below ACF_TAIL_TOL. The true autocorrelation is computed once, and
    the truncation test and the sum read slices of it. An MA part longer
    than MAX_MA_COEFFICIENTS is refused before any of it is computed.
    """
    if model.ma.size > MAX_MA_COEFFICIENTS:
        raise ValueError(f"the model's MA part has {model.ma.size} coefficients; "
                         f"the window-bias moment takes at most {MAX_MA_COEFFICIENTS}")
    acf = true_acf(model, FINE_GRID // 2 - 1)
    lag = _acf_truncation(model, acf)
    acf = acf[: lag + 1]
    h = h_sequence(window, lag)
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
        raise ValueError("need at least two models")
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


def check_separation(dist, labels) -> SeparationReport:
    """Whether every cross-label distance exceeds every same-label distance.

    Singleton label classes contribute no intra pairs; the max over an empty
    set is taken as -inf, so a dataset of singletons is trivially separated.
    """
    d = validate_distance_matrix(dist)
    y = np.asarray(labels).ravel()
    if y.shape[0] != d.shape[0]:
        raise ValueError("labels do not match the distance matrix")
    upper = np.triu_indices(d.shape[0], k=1)
    same = y[upper[0]] == y[upper[1]]
    values = d[upper]
    max_intra = float(values[same].max()) if same.any() else float("-inf")
    min_inter = float(values[~same].min()) if (~same).any() else float("inf")
    return SeparationReport(
        separated=bool(min_inter > max_intra),
        margin=min_inter - max_intra,
        max_intra=max_intra,
        min_inter=min_inter,
    )


def check_nfc(adjacency, labels) -> bool:
    """True iff every graph edge joins observations with the same label.

    The adjacency may be a dense array or a scipy sparse array; a stored
    zero is no edge.
    """
    a = coo_array(adjacency)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("adjacency matrix must be square")
    y = np.asarray(labels).ravel()
    if y.shape[0] != a.shape[0]:
        raise ValueError("labels do not match the adjacency matrix")
    edges = a.data != 0.0
    return not bool(np.any(y[a.row[edges]] != y[a.col[edges]]))
