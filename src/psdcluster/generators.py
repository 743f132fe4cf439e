"""Synthetic stationary Gaussian ARMA data with known ground truth.

A model is an ARMA filter driven by unit-variance white Gaussian noise. Its
exact PSD is tabulated once on a dense grid (2^16 points), which makes exact
power normalization, autocorrelations, and inter-model distances cheap and
free of estimation error. Simulation runs the filter recursion past a burn-in
and optionally adds white Gaussian measurement noise.

A benchmark dataset is drawn model by model in chunks of rows of about
SAMPLE_CHUNK_BYTES of normal draws (`benchmark_rows`), in the same RNG order
as one draw per model, and then shuffled in place. A caller can turn each
chunk into its PSD estimates as it arrives, as synth-bench does, and so never
hold the samples; `make_benchmark_dataset` stacks the chunks into one array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .numerics import RngStream

FINE_GRID = 1 << 16
# Bytes of normal draws per chunk of benchmark rows; a chunk of a model holds
# max(1, SAMPLE_CHUNK_BYTES // (8 (burn-in + M, plus M with noise))) observations.
SAMPLE_CHUNK_BYTES = 1 << 19


def _check_stable(ar: np.ndarray) -> None:
    """Reject AR polynomials with roots on or outside the unit circle."""
    if ar.size == 1:
        return
    roots = np.roots(ar)
    radius = float(np.abs(roots).max()) if roots.size else 0.0
    if not radius < 1.0:
        raise ValueError(f"unstable AR polynomial: largest root radius {radius:.6g} >= 1")


def arma_psd(ar, ma, grid_size: int) -> np.ndarray:
    """PSD |B(f)|^2 / |A(f)|^2 of a stable ARMA filter at f = j/grid_size.

    B and A are the polynomials in exp(-i 2 pi f) built from the MA and AR
    coefficient vectors; the driving noise has unit variance.
    """
    a = np.atleast_1d(np.asarray(ar, dtype=float))
    b = np.atleast_1d(np.asarray(ma, dtype=float))
    if a.ndim != 1 or b.ndim != 1 or a.size == 0 or b.size == 0:
        raise ValueError("coefficient vectors must be non-empty and 1-D")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("coefficients must be finite")
    if a[0] == 0.0:
        raise ValueError("leading AR coefficient must be nonzero")
    if grid_size < max(a.size, b.size):
        raise ValueError("grid is too small for the coefficient vectors")
    _check_stable(a)
    num = np.abs(np.fft.fft(b, grid_size)) ** 2
    den = np.abs(np.fft.fft(a, grid_size)) ** 2
    return num / den


@dataclass(frozen=True)
class GenerativeModel:
    """ARMA generative model with its exact PSD tabulated on the fine grid."""

    ar: np.ndarray
    ma: np.ndarray
    normalized: bool
    fine_grid_psd: np.ndarray

    @property
    def power(self) -> float:
        """Process power: the fine-grid mean of the exact PSD."""
        return float(np.mean(self.fine_grid_psd))


def make_model(ar, ma) -> GenerativeModel:
    """Validate the coefficients and tabulate the exact PSD."""
    a = np.atleast_1d(np.asarray(ar, dtype=float)).copy()
    b = np.atleast_1d(np.asarray(ma, dtype=float)).copy()
    psd = arma_psd(a, b, FINE_GRID)
    return GenerativeModel(ar=a, ma=b, normalized=False, fine_grid_psd=psd)


def normalize_model(model: GenerativeModel) -> GenerativeModel:
    """Scale the MA coefficients so the process has unit power."""
    power = model.power
    if power <= 0.0:
        raise ValueError("cannot normalize a model with zero power")
    return GenerativeModel(
        ar=model.ar,
        ma=model.ma / np.sqrt(power),
        normalized=True,
        fine_grid_psd=model.fine_grid_psd / power,
    )


def true_acf(model: GenerativeModel, max_lag: int) -> np.ndarray:
    """Exact autocorrelation r[0..max_lag], the inverse transform of the PSD."""
    if not 0 <= max_lag < FINE_GRID // 2:
        raise ValueError(f"max_lag must be in 0..{FINE_GRID // 2 - 1}")
    return np.fft.ifft(model.fine_grid_psd).real[: max_lag + 1]


def _check_noise_variance(noise_variance: float) -> None:
    if not 0.0 <= noise_variance < np.inf:
        raise ValueError(f"noise variance must be a finite nonnegative number, got {noise_variance!r}")


def _burn_in(model: GenerativeModel) -> int:
    return max(1000, 50 * (model.ar.size + model.ma.size))


def _independent_chunks(
    model: GenerativeModel,
    noise_variance: float,
    length: int,
    count: int,
    gen: np.random.Generator,
    chunk_bytes: int | None,
):
    """count independent observations of the model in RNG order, in chunks of rows
    of about chunk_bytes of draws each, or in one chunk if chunk_bytes is None.

    Each row consumes the stream as innovations, then noise; normal draws
    carry no state between calls, so the chunks yield exactly the numbers
    one (count, width) draw, or a row-by-row loop, would.
    """
    # Imported here, not at module scope: scipy.signal (and the scipy.stats
    # it pulls in) is half of the package's import time, and only
    # simulation uses it.
    from scipy.signal import lfilter

    noise_std = float(np.sqrt(noise_variance))
    burn = _burn_in(model)
    width = burn + length + (length if noise_std > 0.0 else 0)
    chunk_rows = count if chunk_bytes is None else max(1, chunk_bytes // (8 * width))
    for start in range(0, count, chunk_rows):
        draws = gen.standard_normal((min(chunk_rows, count - start), width))
        out = lfilter(model.ma, model.ar, draws[:, : burn + length], axis=1)[:, burn:]
        if noise_std > 0.0:
            noise = draws[:, burn + length :]
            noise *= noise_std
            noise += out
            out = noise
        yield out


def simulate(
    model: GenerativeModel,
    noise_variance: float,
    length: int,
    count: int,
    rng: RngStream,
    mode: str = "independent",
    stride: int | None = None,
) -> np.ndarray:
    """Observations of the model process, one per row of the result.

    Independent mode draws a fresh realization per observation; segment mode
    slices `count` windows (offset by `stride`) out of one long realization,
    so consecutive observations may overlap. White Gaussian measurement noise
    of the given variance is added samplewise in both modes.
    """
    if length < 2:
        raise ValueError("observation length must be >= 2")
    if count < 1:
        raise ValueError("count must be positive")
    _check_noise_variance(noise_variance)
    _check_stable(model.ar)
    gen = rng.generator()
    if mode == "independent":
        return next(_independent_chunks(model, noise_variance, length, count, gen, None))
    if mode == "segments":
        from scipy.signal import lfilter  # at first use, as in _independent_chunks

        if stride is None or stride < 1:
            raise ValueError("segment mode needs a stride >= 1")
        noise_std = float(np.sqrt(noise_variance))
        burn = _burn_in(model)
        total = burn + length + (count - 1) * stride
        innovations = gen.standard_normal(total)
        path = lfilter(model.ma, model.ar, innovations)
        if noise_std > 0.0:
            path = path + noise_std * gen.standard_normal(total)
        starts = burn + stride * np.arange(count)
        return np.stack([path[s : s + length] for s in starts])
    raise ValueError(f"unknown simulation mode {mode!r}; expected 'independent' or 'segments'")


@dataclass(frozen=True)
class LabeledDataset:
    """Observations (one per row) with the index of the model that produced each."""

    observations: np.ndarray
    labels: np.ndarray

    @property
    def n_obs(self) -> int:
        return int(self.observations.shape[0])

    @property
    def obs_len(self) -> int:
        return int(self.observations.shape[1])


def _permute_rows(rows: np.ndarray, perm: np.ndarray) -> None:
    """rows[:] = rows[perm] in place, setting one row aside per cycle of perm."""
    perm = perm.tolist()
    placed = [False] * len(perm)
    for start in range(len(perm)):
        if placed[start]:
            continue
        held = rows[start].copy()
        i = start
        while perm[i] != start:
            rows[i] = rows[perm[i]]
            placed[i] = True
            i = perm[i]
        rows[i] = held
        placed[i] = True


def benchmark_rows(models, n_per_model: int, length: int, noise_variance: float, rng: RngStream, collect):
    """The observations of make_benchmark_dataset mapped through collect, and their labels.

    collect(chunks, n) receives the n = len(models) * n_per_model
    observations as consecutive (rows, length) chunks, each model's in turn
    in RNG order, about SAMPLE_CHUNK_BYTES of draws each, and returns an
    array with one row per observation, say their PSD estimates. No chunk
    is needed once the next is drawn, so the samples are never held at
    once. That array is then shuffled in place by the permutation drawn
    after the samples, the one make_benchmark_dataset applies, and returned
    with the labels in the same order.
    """
    models = list(models)
    if not models:
        raise ValueError("need at least one model")
    if n_per_model < 1:
        raise ValueError("n_per_model must be positive")
    if length < 2:
        raise ValueError("observation length must be >= 2")
    _check_noise_variance(noise_variance)
    for model in models:
        _check_stable(model.ar)
    gen = rng.generator()

    def chunks():
        for model in models:
            yield from _independent_chunks(model, noise_variance, length, n_per_model, gen, SAMPLE_CHUNK_BYTES)

    n_obs = len(models) * n_per_model
    values = collect(chunks(), n_obs)
    perm = gen.permutation(n_obs)
    _permute_rows(values, perm)
    return values, np.repeat(np.arange(len(models)), n_per_model)[perm]


def _stacked_rows(chunks, n_obs: int, length: int) -> np.ndarray:
    """The chunks' rows copied into one preallocated (n_obs, length) array."""
    observations = np.empty((n_obs, length))
    start = 0
    for chunk in chunks:
        observations[start : start + chunk.shape[0]] = chunk
        start += chunk.shape[0]
    return observations


def make_benchmark_dataset(
    models,
    n_per_model: int,
    length: int,
    noise_variance: float,
    rng: RngStream,
) -> LabeledDataset:
    """n_per_model independent observations from each model, shuffled together."""
    observations, labels = benchmark_rows(models, n_per_model, length, noise_variance, rng,
                                          partial(_stacked_rows, length=length))
    return LabeledDataset(observations=observations, labels=labels)


def benchmark_models() -> list[GenerativeModel]:
    """The built-in "arma3" trio of overlapping unit-power models.

    Two MA(3) models and one AR(3) model whose spectra overlap substantially,
    which makes the clustering task genuinely hard at short observation
    lengths and easy at long ones.
    """
    specs = [
        ([1.0], [0.75, 1.0, -1.75, 0.5]),
        ([1.0], [0.5, 1.25, -1.5, 0.75]),
        ([1.0, -0.2, 0.4, 0.1], [1.0]),
    ]
    return [normalize_model(make_model(a, b)) for a, b in specs]
