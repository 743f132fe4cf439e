"""Synthetic ARMA generator tests.

Oracles: closed-form spectra and autocorrelations (white noise, MA(1),
AR(1)), direct polynomial evaluation of the transfer function on arbitrary
frequencies, trapezoid quadrature on a non-power-of-two grid, and seeded
Monte Carlo convergence of the estimated PSD to the true one.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import full_grid, reference_make_benchmark_dataset
from scipy.signal import lfilter

import psdcluster.generators
from psdcluster.generators import (
    FINE_GRID,
    arma_psd,
    benchmark_models,
    benchmark_rows,
    make_benchmark_dataset,
    make_model,
    normalize_model,
    simulate,
    true_acf,
)
from psdcluster.numerics import RngStream
from psdcluster.spectra import bt_psd, make_window


def psd_by_polynomial(ar, ma, freqs):
    """Transfer-function modulus evaluated coefficient by coefficient."""
    z = np.exp(-2j * np.pi * np.asarray(freqs))
    num = np.abs(sum(c * z**-k for k, c in enumerate(ma))) ** 2
    den = np.abs(sum(c * z**-k for k, c in enumerate(ar))) ** 2
    return num / den


def dataset_by_rows(models, n_per_model, length, noise_variance, rng):
    """Benchmark dataset simulated one row and one lfilter call at a time."""
    gen = rng.generator()
    rows, labels = [], []
    for index, model in enumerate(models):
        burn = max(1000, 50 * (model.ar.size + model.ma.size))
        for _ in range(n_per_model):
            path = lfilter(model.ma, model.ar, gen.standard_normal(burn + length))[burn:]
            if noise_variance > 0.0:
                path = path + math.sqrt(noise_variance) * gen.standard_normal(length)
            rows.append(path)
            labels.append(index)
    perm = gen.permutation(len(rows))
    return np.stack(rows)[perm], np.array(labels)[perm]


class TestArmaPsd:
    def test_white_noise_is_flat(self):
        np.testing.assert_array_equal(arma_psd([1.0], [1.0], 16), np.ones(16))

    def test_ma1_closed_form(self):
        # |1 + e^{-i w}|^2 = 2 + 2 cos w
        psd = arma_psd([1.0], [1.0, 1.0], 8)
        freqs = np.arange(8) / 8
        np.testing.assert_allclose(psd, 2.0 + 2.0 * np.cos(2 * np.pi * freqs), atol=1e-12)

    def test_matches_polynomial_evaluation(self):
        gen = np.random.default_rng(3)
        for _ in range(10):
            # build the AR part from a stable conjugate pole pair
            radius = 0.9 * gen.random()
            angle = 2 * np.pi * gen.random()
            pole = radius * np.exp(1j * angle)
            ar = np.poly([pole, pole.conj()]).real
            ma = gen.standard_normal(3)
            ma[0] = 1.0
            psd = arma_psd(ar, ma, 64)
            np.testing.assert_allclose(psd, psd_by_polynomial(ar, ma, np.arange(64) / 64), atol=1e-10)

    def test_rejects_unstable_and_degenerate(self):
        with pytest.raises(ValueError):
            arma_psd([1.0, -1.5], [1.0], 16)  # pole outside the unit circle
        with pytest.raises(ValueError):
            arma_psd([1.0, -1.0], [1.0], 16)  # pole on the unit circle
        with pytest.raises(ValueError):
            arma_psd([0.0, 1.0], [1.0], 16)
        with pytest.raises(ValueError):
            arma_psd([1.0], [1.0, np.nan], 16)
        with pytest.raises(ValueError):
            arma_psd([1.0], [1.0, 2.0, 3.0], 2)


class TestModels:
    def test_power_and_normalization(self):
        model = make_model([1.0], [2.0])
        assert model.power == pytest.approx(4.0)
        unit = normalize_model(model)
        assert unit.normalized
        assert unit.power == pytest.approx(1.0)
        np.testing.assert_allclose(unit.ma, [1.0])

    def test_benchmark_trio(self):
        models = benchmark_models()
        assert len(models) == 3
        for model in models:
            assert model.normalized
            assert model.power == pytest.approx(1.0, rel=1e-12)
            assert model.fine_grid_psd.shape == (FINE_GRID,)

    def test_benchmark_models_are_distinct(self):
        models = benchmark_models()
        for i in range(3):
            for j in range(i + 1, 3):
                gap = 0.5 * np.mean(np.abs(models[i].fine_grid_psd - models[j].fine_grid_psd))
                assert gap > 0.1


class TestTrueAcf:
    def test_white_noise(self):
        r = true_acf(make_model([1.0], [1.0]), 4)
        np.testing.assert_allclose(r, [1.0, 0.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_ma1(self):
        # psd 2 + 2 cos w: r0 = 2, r1 = 1, rest 0
        r = true_acf(make_model([1.0], [1.0, 1.0]), 3)
        np.testing.assert_allclose(r, [2.0, 1.0, 0.0, 0.0], atol=1e-9)

    def test_ar1_closed_form(self):
        # r[k] = phi^k / (1 - phi^2)
        phi = 0.5
        r = true_acf(make_model([1.0, -phi], [1.0]), 5)
        expected = phi ** np.arange(6) / (1.0 - phi * phi)
        np.testing.assert_allclose(r, expected, rtol=1e-10)

    def test_rejects_out_of_range_lag(self):
        model = make_model([1.0], [1.0])
        with pytest.raises(ValueError):
            true_acf(model, FINE_GRID // 2)
        with pytest.raises(ValueError):
            true_acf(model, -1)


class TestSimulate:
    def test_shape_and_determinism(self):
        model = benchmark_models()[0]
        a = simulate(model, 0.25, 128, 3, RngStream(9))
        b = simulate(model, 0.25, 128, 3, RngStream(9))
        assert a.shape == (3, 128)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, simulate(model, 0.25, 128, 3, RngStream(10)))

    def test_rows_are_independent_draws(self):
        model = benchmark_models()[0]
        out = simulate(model, 0.0, 64, 2, RngStream(0))
        assert not np.array_equal(out[0], out[1])

    def test_segment_mode_overlaps(self):
        # consecutive segments at stride s share length - s samples
        model = benchmark_models()[2]
        out = simulate(model, 0.1, 64, 3, RngStream(4), mode="segments", stride=16)
        np.testing.assert_array_equal(out[1][:48], out[0][16:])
        np.testing.assert_array_equal(out[2][:48], out[1][16:])

    def test_segment_mode_needs_stride(self):
        model = benchmark_models()[0]
        with pytest.raises(ValueError):
            simulate(model, 0.0, 64, 2, RngStream(0), mode="segments")
        with pytest.raises(ValueError):
            simulate(model, 0.0, 64, 2, RngStream(0), mode="segments", stride=0)

    def test_rejects_bad_arguments(self):
        model = benchmark_models()[0]
        with pytest.raises(ValueError):
            simulate(model, -0.1, 64, 1, RngStream(0))
        with pytest.raises(ValueError):
            simulate(model, 0.0, 1, 1, RngStream(0))
        with pytest.raises(ValueError):
            simulate(model, 0.0, 64, 0, RngStream(0))
        with pytest.raises(ValueError):
            simulate(model, 0.0, 64, 1, RngStream(0), mode="bogus")

    @pytest.mark.parametrize("variance", [math.nan, math.inf])
    def test_rejects_non_finite_noise_variance(self, variance):
        with pytest.raises(ValueError, match="noise variance"):
            simulate(benchmark_models()[0], variance, 64, 1, RngStream(0))

    def test_sample_power_tracks_model_plus_noise(self):
        # unit-power model + sigma^2 noise: sample second moment near 1 + sigma^2
        model = benchmark_models()[1]
        x = simulate(model, 0.5, 1 << 15, 1, RngStream(3))[0]
        assert np.mean(x**2) == pytest.approx(1.5, rel=0.05)


class TestEstimatedPsdConvergence:
    @pytest.mark.parametrize("sigma2", [0.0, 0.25])
    def test_long_observations_recover_true_psd(self, sigma2):
        # estimate at M = 2^14 lands within 0.15 of the true PSD + sigma^2
        m = 1 << 14
        window = make_window("gaussian", m)
        for index, model in enumerate(benchmark_models()):
            x = simulate(model, sigma2, m, 1, RngStream(0, index))[0]
            psd = bt_psd(x, window, FINE_GRID)
            err = 0.5 * np.mean(np.abs(full_grid(psd) - (model.fine_grid_psd + sigma2)))
            assert err <= 0.15, f"model {index}: error {err:.3f}"


class TestBenchmarkDataset:
    def test_counts_and_shapes(self):
        models = benchmark_models()
        data = make_benchmark_dataset(models, 5, 128, 0.0, RngStream(1))
        assert data.observations.shape == (15, 128)
        assert data.n_obs == 15
        assert data.obs_len == 128
        counts = np.bincount(data.labels, minlength=3)
        np.testing.assert_array_equal(counts, [5, 5, 5])

    def test_observations_are_shuffled(self):
        models = benchmark_models()
        data = make_benchmark_dataset(models, 10, 64, 0.0, RngStream(2))
        assert not np.all(np.diff(data.labels) >= 0)

    def test_deterministic(self):
        models = benchmark_models()
        a = make_benchmark_dataset(models, 4, 64, 0.1, RngStream(5))
        b = make_benchmark_dataset(models, 4, 64, 0.1, RngStream(5))
        np.testing.assert_array_equal(a.observations, b.observations)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_rejects_bad_arguments(self):
        models = benchmark_models()
        with pytest.raises(ValueError):
            make_benchmark_dataset([], 4, 64, 0.0, RngStream(0))
        with pytest.raises(ValueError):
            make_benchmark_dataset(models, 0, 64, 0.0, RngStream(0))
        with pytest.raises(ValueError):
            make_benchmark_dataset(models, 4, 64, -1.0, RngStream(0))

    @pytest.mark.parametrize("variance", [math.nan, math.inf])
    def test_rejects_non_finite_noise_variance(self, variance):
        with pytest.raises(ValueError, match="noise variance"):
            make_benchmark_dataset(benchmark_models(), 4, 64, variance, RngStream(0))

    @pytest.mark.parametrize("noise_variance", [0.0, 0.25])
    @pytest.mark.parametrize("chunk_rows", [1, 7, 10])
    def test_chunks_match_the_unchunked_dataset(self, monkeypatch, chunk_rows, noise_variance):
        """Chunks of 1 row, 7 rows (10 = 7 + 3) and a whole model give the bits of one draw per model."""
        models, n_per_model, length = benchmark_models(), 10, 96
        width = 1000 + length + (length if noise_variance > 0.0 else 0)  # arma3's burn-in is 1000
        monkeypatch.setattr(psdcluster.generators, "SAMPLE_CHUNK_BYTES", chunk_rows * 8 * width)
        sizes = []

        def recording(chunks, n_obs):
            chunks = list(chunks)
            sizes.extend(len(chunk) for chunk in chunks)
            return np.concatenate(chunks)

        rows, labels = benchmark_rows(models, n_per_model, length, noise_variance, RngStream(8), recording)
        assert sizes == [min(chunk_rows, n_per_model - start) for _ in models for start in range(0, n_per_model, chunk_rows)]
        data = make_benchmark_dataset(models, n_per_model, length, noise_variance, RngStream(8))
        observations, truth = reference_make_benchmark_dataset(models, n_per_model, length, noise_variance, RngStream(8))
        for got in (rows, data.observations):
            np.testing.assert_array_equal(got.view(np.uint64), observations.view(np.uint64))
        for got in (labels, data.labels):
            np.testing.assert_array_equal(got, truth)
            assert got.dtype == truth.dtype

    @settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @given(
        n_per_model=st.integers(1, 5),
        length=st.integers(2, 300),
        noise_variance=st.sampled_from([0.0, 0.25]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_row_by_row_simulation(self, n_per_model, length, noise_variance, seed):
        # the batched lfilter keeps the draw order and the arithmetic of one call per row
        models = benchmark_models()
        data = make_benchmark_dataset(models, n_per_model, length, noise_variance, RngStream(seed))
        observations, labels = dataset_by_rows(models, n_per_model, length, noise_variance, RngStream(seed))
        np.testing.assert_array_equal(data.observations, observations)
        np.testing.assert_array_equal(data.labels, labels)
