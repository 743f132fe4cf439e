"""PSD estimation tests.

Oracles: hand-computed autocorrelations and spectra for 2-sample inputs,
direct O(M F) trigonometric summation of the windowed-autocorrelation
transform at bins 0..F/2, the full-grid mean on the mirrored grid, and
closed forms for the window transforms (gaussian peak 50*sqrt(2*pi),
Bartlett-at-2 peak 2, Dirichlet peak 2M-1).
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import full_grid

import psdcluster.numerics
import psdcluster.spectra
from psdcluster.km import km_cluster
from psdcluster.nnpc import nnpc_cluster
from psdcluster.numerics import PSD_CHUNK_BYTES
from psdcluster.spectra import (
    DEFAULT_GAUSSIAN_STD,
    bt_psd,
    estimate_acf,
    estimate_dataset_psds,
    estimate_psd_chunks,
    make_window,
    next_pow2,
    normalize_unit_power,
    weighted_chunk_spectra,
    weighted_spectra,
)


def acf_direct(x):
    x = np.asarray(x, dtype=float)
    m = len(x)
    return np.array([(x[lag:] * x[: m - lag]).sum() / m for lag in range(m)])


def bt_direct(x, window, grid_size):
    """Direct cosine-sum evaluation of the windowed-autocorrelation transform at bins 0..F/2."""
    acf = acf_direct(x)
    m = len(x)
    freqs = np.arange(grid_size // 2 + 1) / grid_size
    lags = np.arange(1, m)
    cos_table = np.cos(2.0 * np.pi * np.outer(freqs, lags))
    return acf[0] * window.values[0] + 2.0 * cos_table @ (window.values[1:] * acf[1:])


class TestNextPow2:
    def test_values(self):
        assert next_pow2(1) == 1
        assert next_pow2(2) == 2
        assert next_pow2(3) == 4
        assert next_pow2(4) == 4
        assert next_pow2(5) == 8
        assert next_pow2(1023) == 1024
        assert next_pow2(1025) == 2048

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            next_pow2(0)


class TestMakeWindow:
    def test_gaussian_shape(self):
        w = make_window("gaussian", 128)
        assert w.kind == "gaussian"
        assert w.std == DEFAULT_GAUSSIAN_STD
        assert w.values[0] == 1.0
        assert np.all(np.diff(w.values) < 0)
        np.testing.assert_allclose(w.values[10], math.exp(-100 / 5000.0))

    def test_gaussian_peak_matches_closed_form(self):
        # peak of the transform at f=0: 1 + 2 sum exp(-m^2/5000) ~ 50 sqrt(2 pi)
        w = make_window("gaussian", 1024)
        assert w.theory_valid
        np.testing.assert_allclose(w.spectral_bound, 50.0 * math.sqrt(2.0 * math.pi), rtol=1e-6)

    def test_bartlett_length_two(self):
        w = make_window("bartlett", 2)
        np.testing.assert_allclose(w.values, [1.0, 0.5])
        # transform 1 + cos(2 pi f) peaks at 2 and stays nonnegative
        np.testing.assert_allclose(w.spectral_bound, 2.0, atol=1e-9)
        assert w.theory_valid
        assert w.std is None

    def test_bartlett_is_always_admissible(self):
        assert make_window("bartlett", 64).theory_valid

    def test_truncation_ringing_is_admissible(self):
        # at M=256 the std-50 gaussian's transform dips to -2e-7 of its peak;
        # at M=200 the dip is -4e-5 of it, a real sign change
        assert make_window("gaussian", 256).theory_valid
        assert not make_window("gaussian", 200).theory_valid

    def test_rectangular_flagged_invalid(self):
        w = make_window("rectangular", 256)
        assert not w.theory_valid
        # Dirichlet kernel peak 2M - 1
        np.testing.assert_allclose(w.spectral_bound, 511.0, atol=1e-6)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            make_window("hann", 64)
        with pytest.raises(ValueError):
            make_window("gaussian", 1)
        with pytest.raises(ValueError):
            make_window("gaussian", 64, std=0.0)

    @pytest.mark.parametrize("std", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_std(self, std):
        with pytest.raises(ValueError, match="std"):
            make_window("gaussian", 64, std=std)

    def test_rejects_a_std_whose_window_is_not_finite(self):
        # 2 std^2 underflows to 0 and the lag-0 weight would be 0/0
        with pytest.raises(ValueError, match="gaussian window std 1e-200 is too small"):
            make_window("gaussian", 64, std=1e-200)
        # 2 std^2 is subnormal: every lag past 0 gets weight 0
        np.testing.assert_array_equal(make_window("gaussian", 4, std=1e-160).values, [1.0, 0.0, 0.0, 0.0])


class TestEstimateAcf:
    def test_two_sample_hand_case(self):
        # x = [1, 2]: r0 = (1 + 4)/2, r1 = (1*2)/2
        np.testing.assert_allclose(estimate_acf([1.0, 2.0]), [2.5, 1.0])

    def test_matches_direct_summation(self):
        gen = np.random.default_rng(31)
        for size in (2, 3, 5, 17, 64, 65):
            x = gen.standard_normal(size)
            np.testing.assert_allclose(estimate_acf(x), acf_direct(x), atol=1e-10)

    def test_lag_zero_is_power(self):
        gen = np.random.default_rng(8)
        x = gen.standard_normal(50)
        np.testing.assert_allclose(estimate_acf(x)[0], np.mean(x**2))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            estimate_acf([1.0])
        with pytest.raises(ValueError):
            estimate_acf([[1.0, 2.0]])
        with pytest.raises(ValueError):
            estimate_acf([1.0, np.nan])


class TestBtPsd:
    def test_two_sample_hand_case(self):
        # r = [2.5, 1], rectangular window: s(f) = 2.5 + 2 cos(2 pi f)
        w = make_window("rectangular", 2)
        psd = bt_psd([1.0, 2.0], w, 4)
        np.testing.assert_allclose(psd, [4.5, 2.5, 0.5], atol=1e-12)  # bins 0..F/2 of F = 4

    @pytest.mark.parametrize("kind", ["gaussian", "bartlett", "rectangular"])
    def test_matches_direct_summation(self, kind):
        gen = np.random.default_rng(42)
        for m in (8, 31, 64):
            x = gen.standard_normal(m)
            w = make_window(kind, m, std=10.0 if kind == "gaussian" else None)
            grid = next_pow2(4 * m)
            psd = bt_psd(x, w, grid)
            expected = bt_direct(x, w, grid)
            scale = np.abs(expected).max()
            np.testing.assert_allclose(psd, expected, atol=1e-11 * scale)

    def test_grid_mean_equals_power(self):
        # the grid average of the estimate recovers the lag-zero autocorrelation
        gen = np.random.default_rng(13)
        x = gen.standard_normal(40)
        psd = bt_psd(x, make_window("gaussian", 40), 128)
        np.testing.assert_allclose(np.mean(full_grid(psd)), estimate_acf(x)[0], rtol=1e-12)

    def test_rejects_bad_grid(self):
        w = make_window("gaussian", 16)
        x = np.ones(16)
        with pytest.raises(ValueError):
            bt_psd(x, w, 48)  # not a power of two
        with pytest.raises(ValueError):
            bt_psd(x, w, 16)  # smaller than 2 M

    def test_rejects_window_length_mismatch(self):
        with pytest.raises(ValueError):
            bt_psd(np.ones(16), make_window("gaussian", 8), 64)


class TestNormalizeUnitPower:
    def test_scales_to_unit_mean(self):
        gen = np.random.default_rng(2)
        x = 3.0 * gen.standard_normal(32)
        psd = normalize_unit_power(bt_psd(x, make_window("gaussian", 32), 128))
        np.testing.assert_allclose(np.mean(full_grid(psd)), 1.0, rtol=1e-12)

    def test_rejects_zero_power(self):
        with pytest.raises(ValueError):
            normalize_unit_power(np.zeros(8))

    @pytest.mark.parametrize("bins", [0, 1])
    def test_rejects_fewer_than_two_bins(self, bins):
        with pytest.raises(ValueError, match="at least 2 bins"):
            normalize_unit_power(np.ones(bins))

    def test_leaves_its_input_alone_and_matches_the_batch(self):
        gen = np.random.default_rng(6)
        obs = 2.0 * gen.standard_normal((3, 32))
        window = make_window("gaussian", 32)
        raw = estimate_dataset_psds(obs, window=window, grid_size=128)
        before = raw.copy()
        unit = estimate_dataset_psds(obs, window=window, grid_size=128, unit_power=True)
        for psd, values, batch in zip(raw, before, unit):
            single = normalize_unit_power(psd)
            np.testing.assert_array_equal(psd, values)
            np.testing.assert_array_equal(single, batch)


class TestEstimateDatasetPsds:
    def test_default_grid_and_window(self):
        gen = np.random.default_rng(4)
        obs = gen.standard_normal((3, 100))
        psds = estimate_dataset_psds(obs)
        # bins 0..F/2 of F = 512, the next power of two >= 400
        assert psds.shape == (3, 257)

    def test_single_observation_vector(self):
        psds = estimate_dataset_psds(np.ones(64))
        assert psds.shape == (1, 129)

    def test_unit_power_flag(self):
        gen = np.random.default_rng(6)
        obs = gen.standard_normal((2, 64))
        psds = estimate_dataset_psds(obs, unit_power=True)
        np.testing.assert_allclose(np.mean(full_grid(psds), axis=1), 1.0, rtol=1e-12)

    def test_rejects_higher_rank_input(self):
        with pytest.raises(ValueError):
            estimate_dataset_psds(np.ones((2, 2, 2)))

    def test_rows_are_views_of_one_array(self):
        psds = estimate_dataset_psds(np.random.default_rng(9).standard_normal((3, 16)))
        # one float (N, F/2 + 1) array that owns its data, no full grid
        assert psds.dtype == np.float64 and psds.shape == (3, 33)
        assert psds.base is None and psds.flags.c_contiguous

    def test_overflow_names_the_psd_stage(self):
        huge = 1e307 * np.random.default_rng(1).standard_normal((2, 32))
        with np.errstate(all="raise"), pytest.raises(ValueError, match="PSD estimation"):
            estimate_dataset_psds(huge)

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(
        n_obs=st.integers(1, 6),
        obs_len=st.integers(2, 70),
        kind=st.sampled_from(["gaussian", "bartlett", "rectangular"]),
        grid_factor=st.sampled_from([2, 8]),
        unit_power=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-3.0, 3.0),
    )
    def test_rows_match_direct_summation(self, n_obs, obs_len, kind, grid_factor, unit_power, seed, log_scale):
        # every row of the batched kernel equals the O(M F) cosine sum
        obs = 10.0**log_scale * np.random.default_rng(seed).standard_normal((n_obs, obs_len))
        window = make_window(kind, obs_len, std=7.0 if kind == "gaussian" else None)
        grid = next_pow2(grid_factor * obs_len)
        psds = estimate_dataset_psds(obs, window=window, grid_size=grid, unit_power=unit_power)
        assert len(psds) == n_obs
        for row, psd in zip(obs, psds):
            expected = bt_direct(row, window, grid)
            if unit_power:
                expected = expected / full_grid(expected).mean()
            scale = np.abs(expected).max()
            np.testing.assert_allclose(psd, expected, rtol=0, atol=1e-11 * scale)


class TestBatchInvariance:
    """A row's estimate has the same bits whichever rows share its call or its chunk."""

    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @given(
        n_obs=st.integers(1, 40),
        obs_len=st.one_of(st.just(256), st.integers(2, 300)),
        kind=st.sampled_from(["gaussian", "bartlett", "rectangular"]),
        unit_power=st.booleans(),
        chunk=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    # a stack of 40 rows at M = 300 is where the complex product X conj(X) gave
    # different bits than the same rows alone or 8 at a time
    @example(n_obs=40, obs_len=300, kind="gaussian", unit_power=False, chunk=8, seed=0)
    def test_rows_are_bit_identical_alone_in_chunks_and_in_the_stack(
        self, n_obs, obs_len, kind, unit_power, chunk, seed
    ):
        obs = np.random.default_rng(seed).standard_normal((n_obs, obs_len))
        window = make_window(kind, obs_len, std=7.0 if kind == "gaussian" else None)

        def estimate(rows):
            return estimate_dataset_psds(rows, window=window, unit_power=unit_power)

        values = estimate(obs)
        for start in range(0, n_obs, chunk):
            np.testing.assert_array_equal(estimate(obs[start : start + chunk]), values[start : start + chunk])
        for index, row in enumerate(obs):
            np.testing.assert_array_equal(estimate(row)[0], values[index])


class TestChunkedEstimation:
    OBS_LEN = 64  # next_pow2(2 M) = 128 points: 1024 bytes of FFT row per observation

    @pytest.mark.parametrize("n_obs", [1, 10])
    # one row's bytes, three rows' (which does not divide 10), and less than one row, which still takes one
    @pytest.mark.parametrize("budget", [1024, 3 * 1024, 1], ids=["1-row", "3-rows", "under-1-row"])
    @pytest.mark.parametrize("unit_power", [False, True])
    def test_small_chunks_match_one_chunk(self, monkeypatch, n_obs, budget, unit_power):
        obs = np.random.default_rng(3).standard_normal((n_obs, self.OBS_LEN))
        expected = estimate_dataset_psds(obs, unit_power=unit_power)  # one chunk
        monkeypatch.setattr(psdcluster.numerics, "PSD_CHUNK_BYTES", budget)
        np.testing.assert_array_equal(estimate_dataset_psds(obs, unit_power=unit_power), expected)

    def test_overflow_in_a_later_chunk_names_the_psd_stage(self, monkeypatch):
        obs = np.random.default_rng(5).standard_normal((10, self.OBS_LEN))
        obs[8] *= 1e307  # finite samples, in the third chunk of 3 rows
        monkeypatch.setattr(psdcluster.numerics, "PSD_CHUNK_BYTES", 3 * 1024)
        with np.errstate(all="raise"), pytest.raises(ValueError, match="PSD estimation overflowed"):
            estimate_dataset_psds(obs)

    def test_non_finite_sample_in_a_later_chunk_is_reported_first(self, monkeypatch):
        obs = np.random.default_rng(6).standard_normal((10, self.OBS_LEN))
        obs[0] *= 1e307  # would overflow in the first chunk
        obs[9, 5] = np.nan
        monkeypatch.setattr(psdcluster.numerics, "PSD_CHUNK_BYTES", 3 * 1024)
        with pytest.raises(ValueError, match="observation samples must be finite"):
            estimate_dataset_psds(obs)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_the_first_failing_chunk_wins_on_any_thread_count(self, monkeypatch, workers):
        """Chunk 1 of a list overflows and chunk 2 is misshapen: every thread count raises chunk 1's error,
        though a later chunk may be taken, or fail, first."""
        monkeypatch.setattr(psdcluster.numerics, "worker_count", lambda: workers)
        obs = np.random.default_rng(10).standard_normal((9, self.OBS_LEN))
        obs[4] *= 1e307
        window = make_window("gaussian", self.OBS_LEN)
        with pytest.raises(ValueError, match="^PSD estimation overflowed"):
            estimate_psd_chunks([obs[:3], obs[3:6], obs[6:, :8]], 9, window, 256)
        with pytest.raises(ValueError, match="^window was built for length 64, observation has 8$"):
            estimate_psd_chunks([obs[:3], obs[6:, :8], obs[3:6]], 9, window, 256)

    def test_chunk_stream_matches_the_stack(self):
        obs = np.random.default_rng(8).standard_normal((10, self.OBS_LEN))
        window = make_window("gaussian", self.OBS_LEN)

        def chunks():
            return (obs[start : start + size] for start, size in [(0, 1), (1, 6), (7, 3)])

        np.testing.assert_array_equal(estimate_psd_chunks(chunks(), 10, window, 256),
                                      estimate_dataset_psds(obs, window, 256))
        # and weighted alike: the chunk route's rows are the stack's weighted spectra, bit for bit
        np.testing.assert_array_equal(weighted_chunk_spectra(chunks(), 10, window, 256),
                                      weighted_spectra(obs, window, 256))

    @pytest.mark.parametrize("n_obs", [9, 11])
    def test_chunk_stream_must_bring_the_announced_rows(self, n_obs):
        obs = np.random.default_rng(8).standard_normal((10, self.OBS_LEN))
        with pytest.raises(ValueError):
            estimate_psd_chunks([obs[:5], obs[5:]], n_obs, make_window("gaussian", self.OBS_LEN), 256)

    @pytest.mark.parametrize(
        "shape, n_obs, message",
        [
            ((3, 8), 3, "window was built for length 16, observation has 8"),
            ((3, 16), 1, "at least 3 observations arrived, 1 were announced"),
            ((16,), 1, r"a chunk must be a 2-D array, one observation per row, got shape \(16,\)"),
        ],
        ids=["narrow", "too-many-rows", "1-D"],
    )
    def test_a_misshapen_chunk_is_refused_before_it_is_estimated(self, shape, n_obs, message):
        chunk = np.random.default_rng(9).standard_normal(shape)
        with pytest.raises(ValueError, match=f"^{message}$"):
            estimate_psd_chunks([chunk], n_obs, make_window("gaussian", 16), 64)

    def test_allocates_the_output_plus_a_few_chunks(self):
        # 48 x 16384 samples, F = 65536: a 12.6 MB output, and 4 rows per budget of chunks
        obs = np.random.default_rng(7).standard_normal((48, 16384))
        estimate_dataset_psds(obs[:1])  # warm the FFT plan caches outside the trace
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            psds = estimate_dataset_psds(obs, unit_power=True)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        output = psds.nbytes
        assert output == 48 * 32769 * 8
        assert peak <= output + 6 * PSD_CHUNK_BYTES

    @pytest.mark.parametrize("workers", [1, 2, 4, 8, 16])
    def test_the_threads_share_one_budget_of_chunks(self, monkeypatch, workers):
        """The 4 rows of a budget are split among the threads, so the stage peaks
        near 2.6 budgets above the output on 1, 2 and 4 threads; whole 4-row
        chunks on each of 4 threads would peak near 10. On 8 and 16 threads a
        chunk is one row, and a group of chunks stops at the budget's 4."""
        monkeypatch.setattr(psdcluster.numerics, "worker_count", lambda: workers)
        obs = np.random.default_rng(7).standard_normal((48, 16384))
        estimate_dataset_psds(obs[:1])  # warm the FFT plan caches outside the trace
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            estimate_dataset_psds(obs, unit_power=True)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 48 * 32769 * 8 + 4 * PSD_CHUNK_BYTES

    @pytest.mark.parametrize("cluster", [lambda obs: km_cluster(obs, 3, unit_power=True),
                                         lambda obs: nnpc_cluster(obs, 5, 3, unit_power=True)], ids=["km", "nnpc"])
    def test_clustering_reads_the_estimates_without_a_copy(self, cluster):
        # the same stack: clustering reads the weighted estimates in place, so
        # the peak is the one estimate array plus a few chunks, not two arrays
        obs = np.random.default_rng(7).standard_normal((48, 16384))
        cluster(obs[:6])  # warm the FFT plan caches outside the trace
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cluster(obs)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 48 * 32769 * 8 + 6 * PSD_CHUNK_BYTES


class TestWhiteNoiseConsistency:
    def test_flat_spectrum_recovered(self):
        # unit white noise has PSD 1; at M = 2^14 the estimate is close for
        # nearly every seed
        m = 1 << 14
        window = make_window("gaussian", m)
        grid = next_pow2(2 * m)
        hits = 0
        for seed in range(10):
            x = np.random.default_rng(seed).standard_normal(m)
            psd = bt_psd(x, window, grid)
            if 0.5 * np.mean(np.abs(full_grid(psd) - 1.0)) <= 0.1:
                hits += 1
        assert hits >= 9
