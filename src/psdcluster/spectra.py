"""PSD estimation: biased autocorrelation, lag windows, windowed transform.

The estimate at frequency f is the transform of the biased sample
autocorrelation tapered by an even lag window,

    s_hat(f) = sum_{|m| < M} g[m] r_hat[m] exp(-i 2 pi f m),

evaluated on a uniform grid f = j/F with F a power of two and F >= 2M.
r_hat divides by M (not M - |m|), which keeps the implied autocorrelation
sequence positive semidefinite. Every estimate comes from one kernel,
`estimate_psd_chunks`: it takes observations as consecutive chunks of rows
and puts each through a zero-padded real FFT pair for the autocorrelations
and a DCT-I for the spectra, written into one preallocated output. The
chunks are estimated on one thread per CPU (numerics.ordered_map), in
groups that stop at numerics.PSD_CHUNK_BYTES of FFT rows, so the stage
holds the output plus about one budget of temporaries on any thread count.
`estimate_dataset_psds` slices a stack in memory into chunks that split
that budget among the threads; a generator of samples can yield chunks one
by one, and then the samples are never held at once. Every step works row
by row on real arrays, so a row's estimate has the same bits whichever rows
share its chunk, its call or its thread. The sum is even in f, so an estimate keeps only bins
j = 0..F/2, the DCT-I output; bins F/2+1..F-1 would repeat F/2-1..1.

On the F-point grid the interior bins thus count twice and the endpoints
once. Only this module derives F = 2 (bins - 1) and these weights, for the
full-grid mean of unit power and for the weighted rows that every distance
kernel reads: estimates scaled by 1/F, endpoint columns halved, whose
cityblock distance is the L1 distance. `weighted_spectra` and
`weighted_chunk_spectra` weight estimates in place, `half_spectrum_rows` a copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.fft import dct

from . import numerics

WINDOW_SCAN_POINTS = 4096
# A truncated gaussian (M=256, std 50) rings to -2e-7 of its peak; the
# rectangular window's Dirichlet kernel dips to -21%.
WINDOW_SIGN_RTOL = 1e-6
DEFAULT_GAUSSIAN_STD = 50.0
# The PSD grid is next_pow2(DEFAULT_GRID_FACTOR * M) unless a caller chooses one.
DEFAULT_GRID_FACTOR = 4
WINDOW_KINDS = ("gaussian", "bartlett", "rectangular")


def next_pow2(n: int) -> int:
    """Smallest power of two >= n."""
    if n < 1:
        raise ValueError("n must be positive")
    return 1 << (int(n) - 1).bit_length()


@dataclass(frozen=True)
class WindowSpec:
    """Even lag window g[0..M-1] (negative lags implied) with g[0] = 1.

    spectral_bound is sup_f of the window transform
    g(f) = sum_{|m| < M} g[m] cos(2 pi f m); theory_valid records whether the
    transform is nonnegative, which the performance guarantees require. A
    dip below zero of at most WINDOW_SIGN_RTOL times the peak counts as
    nonnegative: that is truncation ringing, not a sign change.
    """

    kind: str
    length: int
    values: np.ndarray
    spectral_bound: float
    theory_valid: bool
    std: float | None = None


def _even_half_spectrum(lags: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write into out the transform of each row's even lag sequence at f = j/grid, j = 0..grid/2.

    out has grid/2 + 1 columns, and row r of lags holds c[0..L-1] with
    L <= grid/2; row r of out becomes
    c[0] + 2 sum_{m=1}^{L-1} c[m] cos(2 pi j m / grid), one in-place DCT-I
    of the lags zero-padded to grid/2 + 1 points. The transform is even, so
    these bins determine the whole grid. Returns out.
    """
    out[:, : lags.shape[1]] = lags
    out[:, lags.shape[1] :] = 0.0
    # overwrite_x lets scipy transform in place, which it does for float64;
    # assigning the result keeps out right if it ever returns a new array
    out[...] = dct(out, type=1, axis=1, overwrite_x=True)
    return out


def _window_transform_scan(values: np.ndarray) -> np.ndarray:
    """Sample the window transform at f = j/WINDOW_SCAN_POINTS in [0, 1/2].

    The transform is even, so its extremes over [0, 1) are attained there.
    """
    grid = max(WINDOW_SCAN_POINTS, next_pow2(2 * values.shape[0]))
    return _even_half_spectrum(values[None, :], np.empty((1, grid // 2 + 1)))[0, :: grid // WINDOW_SCAN_POINTS]


def make_window(kind: str, length: int, std: float | None = None) -> WindowSpec:
    """Build a lag window for observations of `length` samples.

    gaussian: g[m] = exp(-m^2 / (2 std^2)); bartlett: g[m] = 1 - m/length;
    rectangular: g[m] = 1. The rectangular window's transform (a Dirichlet
    kernel) changes sign, so it comes back with theory_valid=False.
    """
    if length < 2:
        raise ValueError("window length must be >= 2")
    lags = np.arange(length, dtype=float)
    if kind == "gaussian":
        if std is None:
            std = DEFAULT_GAUSSIAN_STD
        if not (math.isfinite(std) and std > 0):
            raise ValueError(f"gaussian window std must be a positive finite number, got {std!r}")
        with np.errstate(all="ignore"):  # a tiny std sends lags >= 1 to -inf, which exp takes to 0
            values = np.exp(-(lags**2) / (2.0 * std * std))
        if not np.all(np.isfinite(values)):  # 2 std^2 underflowed to 0, and the lag-0 weight is 0/0
            raise ValueError(f"gaussian window std {std!r} is too small: its window is not finite")
    elif kind == "bartlett":
        values = 1.0 - lags / length
    elif kind == "rectangular":
        values = np.ones(length)
    else:
        raise ValueError(f"unknown window kind {kind!r}; expected one of {WINDOW_KINDS}")
    if kind != "gaussian":
        std = None
    scan = _window_transform_scan(values)
    return WindowSpec(
        kind=kind,
        length=length,
        values=values,
        spectral_bound=float(scan.max()),
        theory_valid=bool(scan.min() >= -WINDOW_SIGN_RTOL * scan.max()),
        std=std,
    )


def _acf_rows(obs: np.ndarray) -> np.ndarray:
    """Biased autocorrelations of each row, lags 0..M-1, from one zero-padded FFT pair.

    The periodogram |X|^2 is formed as the real array Re^2 + Im^2, not as the
    complex product X conj(X), whose bits depend on how many rows it spans.
    """
    m = obs.shape[1]
    grid = next_pow2(2 * m)  # enough zero padding to keep lags non-circular
    spectrum = np.fft.rfft(obs, grid, axis=1)
    power = np.square(spectrum.real)
    power += np.square(spectrum.imag)
    del spectrum
    acf = np.fft.irfft(power, grid, axis=1)[:, :m]
    acf /= m
    return acf


def estimate_psd_chunks(chunks, n_obs: int, window: WindowSpec, grid_size: int) -> np.ndarray:
    """PSD estimates of n_obs observations that arrive as consecutive chunks of rows, as one (n_obs, F/2 + 1) array.

    Each (rows, M) chunk of finite samples is estimated straight into its
    rows of the output, on one thread per CPU (numerics.ordered_map). A chunk
    states its next_pow2(2M)-point FFT rows as its size, so the stage holds
    the output and about numerics.PSD_CHUNK_BYTES of temporaries. The
    estimates are batch-invariant, so a row has the same bits whichever
    chunk or thread carries it. The grid must be a power of two of at least
    twice the window's length. Each chunk's shape is checked as it is taken;
    its samples are not checked for finiteness. Of several failing chunks,
    the first one's error is raised.
    """
    f = int(grid_size)
    if f < 2 * window.length or f & (f - 1):
        raise ValueError(f"grid size must be a power of two >= {2 * window.length}, got {grid_size}")
    values = np.empty((n_obs, f // 2 + 1))
    estimate = partial(_estimate_chunk, window=window)
    for _ in numerics.ordered_map(estimate, _placed_chunks(chunks, values, window),
                                  size=lambda placed: len(placed[0]) * 8 * next_pow2(2 * window.length)):
        pass
    return values


def _placed_chunks(chunks, values: np.ndarray, window: WindowSpec):
    """(chunk, its rows of values) of each chunk, its shape checked, and then a check that every row arrived."""
    n_obs, start = values.shape[0], 0
    for obs in chunks:
        if obs.ndim != 2:
            raise ValueError(f"a chunk must be a 2-D array, one observation per row, got shape {obs.shape}")
        if obs.shape[1] != window.length:
            raise ValueError(f"window was built for length {window.length}, observation has {obs.shape[1]}")
        if start + obs.shape[0] > n_obs:
            raise ValueError(f"at least {start + obs.shape[0]} observations arrived, {n_obs} were announced")
        yield obs, values[start : start + obs.shape[0]]
        start += obs.shape[0]
    if start != n_obs:
        raise ValueError(f"{start} observations arrived, {n_obs} were announced")


def _estimate_chunk(placed, window: WindowSpec) -> None:
    """Estimate a chunk of observations into its rows of the output: placed is (chunk, rows)."""
    obs, out = placed
    with np.errstate(over="ignore", invalid="ignore"):
        acf = _acf_rows(obs)
        acf *= window.values
        if not np.isfinite(_even_half_spectrum(acf, out)).all():
            raise ValueError("PSD estimation overflowed: sample magnitudes are too large for the autocorrelation FFT")


def estimate_acf(samples) -> np.ndarray:
    """Biased sample autocorrelation r[m] = (1/M) sum_n x[n+m] x[n], m = 0..M-1."""
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.shape[0] < 2:
        raise ValueError("observation must be a 1-D vector with at least 2 samples")
    if not np.all(np.isfinite(x)):
        raise ValueError("observation samples must be finite")
    return _acf_rows(x[None, :])[0]


def bt_psd(samples, window: WindowSpec, grid_size: int) -> np.ndarray:
    """Windowed-autocorrelation PSD estimate at f = j/grid_size, j = 0..grid_size/2.

    grid_size must be a power of two and at least twice the observation
    length so the symmetric lag sequence embeds without aliasing. The
    estimate is the one row of estimate_dataset_psds on this observation.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise ValueError("observation must be a 1-D vector")
    return estimate_dataset_psds(x, window, grid_size)[0]


def _unit_power_rows(values: np.ndarray) -> None:
    """Divide each PSD row by its full-grid mean in place, so a large stack needs no second copy."""
    power = (2.0 * values.sum(axis=1) - values[:, 0] - values[:, -1]) / (2 * (values.shape[1] - 1))
    nonpositive = np.flatnonzero(~(power > 0.0))
    if nonpositive.size:
        raise ValueError(f"cannot normalize a PSD with nonpositive power: observation {nonpositive[0]} (0-based)")
    values /= power[:, None]


def _weight_rows(values: np.ndarray) -> np.ndarray:
    """Scale a float (N, F/2 + 1) stack of estimates by 1/F in place and halve its two endpoint columns; return it."""
    values *= 1.0 / (2 * (values.shape[1] - 1))
    values[:, [0, -1]] *= 0.5
    return values


def normalize_unit_power(psd) -> np.ndarray:
    """A copy of one estimate (bins 0..F/2) rescaled to average one over the full grid (unit power)."""
    values = np.array(psd, dtype=float)[None, :]
    if values.shape[1] < 2:
        raise ValueError("a PSD estimate needs at least 2 bins (F >= 2)")
    _unit_power_rows(values)
    return values[0]


def half_spectrum_rows(psds) -> np.ndarray:
    """Estimates (bins 0..F/2, one per row) as a weighted float copy."""
    rows = np.array(psds, dtype=float)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError("need a non-empty stack of PSD estimates, one per row")
    if rows.shape[1] < 2:
        raise ValueError("PSD estimates need at least 2 bins (F >= 2)")
    return _weight_rows(rows)


def estimate_dataset_psds(
    observations,
    window: WindowSpec | None = None,
    grid_size: int | None = None,
    unit_power: bool = False,
) -> np.ndarray:
    """PSD estimates for a stack of equal-length observations, as one (N, grid_size/2 + 1) array.

    Row i holds bins 0..F/2 of observation i's estimate. Defaults: gaussian
    window with std 50 and a grid of next_pow2(4 M) points. Every sample is
    checked to be finite before any row is estimated; then the stack goes
    through estimate_psd_chunks, which checks the grid and the window's
    length, in chunks of rows that split numerics.PSD_CHUNK_BYTES among the
    numerics.worker_count() threads. unit_power rescales the rows in place.
    """
    obs = np.asarray(observations, dtype=float)
    if obs.ndim == 1:
        obs = obs[None, :]
    if obs.ndim != 2:
        raise ValueError("observations must be a 2-D array, one observation per row")
    n, m = obs.shape
    if m < 2:
        raise ValueError("observations need at least 2 samples")
    if window is None:
        window = make_window("gaussian", m, std=DEFAULT_GAUSSIAN_STD)
    if grid_size is None:
        grid_size = next_pow2(DEFAULT_GRID_FACTOR * m)
    step = max(1, numerics.PSD_CHUNK_BYTES // (8 * next_pow2(2 * m) * numerics.worker_count()))
    chunks = [obs[start : start + step] for start in range(0, n, step)]
    if not all(np.isfinite(chunk).all() for chunk in chunks):
        raise ValueError("observation samples must be finite")
    values = estimate_psd_chunks(chunks, n, window, grid_size)
    if unit_power:
        _unit_power_rows(values)
    return values


def weighted_spectra(observations, window: WindowSpec | None = None, grid_size: int | None = None,
                     unit_power: bool = False) -> np.ndarray:
    """estimate_dataset_psds (same arguments), weighted in place: the rows every distance kernel reads.

    The estimates are never copied. F is a power of two, so the scaling is
    exact and a distance has the bits of the unscaled sum times 1/F, except
    where a bin lies below about F * 2**-1022 (1e-303 at F = 65536), which
    only samples under about 1e-150 produce.
    """
    return _weight_rows(estimate_dataset_psds(observations, window, grid_size, unit_power))


def weighted_chunk_spectra(chunks, n_obs: int, window: WindowSpec, grid_size: int) -> np.ndarray:
    """weighted_spectra of n_obs observations that arrive as consecutive chunks of rows (estimate_psd_chunks)."""
    return _weight_rows(estimate_psd_chunks(chunks, n_obs, window, grid_size))
