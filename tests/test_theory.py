"""Guarantee-arithmetic tests.

Oracles: hand-evaluated bias weights for the length-4 Bartlett window, an
exact MA moment (0.875), the geometric moment of a slow AR(1) summed to lag
200 000, trapezoid quadrature on a non-power-of-two grid for the AR moment
and the inter-model distance, exact rational arithmetic for the probability
bound, the frozen noise-floor value 5.27, the separation check on a full
distance matrix, and the q-NN adjacency's edges for NFC.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_check_separation

from psdcluster.distances import NEIGHBOR_BLOCK_ROWS, distance_matrix, half_spectrum_rows
from psdcluster.generators import FINE_GRID, benchmark_models, make_model, normalize_model
from psdcluster.nnpc import build_adjacency, nearest_neighbor_sets
from psdcluster.spectra import WindowSpec, make_window
from psdcluster.theory import (
    MAX_MA_COEFFICIENTS,
    acf_moment,
    check_condition,
    check_nfc,
    check_separation,
    h_sequence,
    mu_max,
    nfc_probability_bound,
    noise_term,
    true_model_distance,
)


def psd_by_polynomial(model, freqs):
    z = np.exp(-2j * np.pi * np.asarray(freqs))
    num = np.abs(sum(c * z**-k for k, c in enumerate(model.ma))) ** 2
    den = np.abs(sum(c * z**-k for k, c in enumerate(model.ar))) ** 2
    return num / den


def huge_gaussian_window(length=10**10, tabulated=FINE_GRID // 2):
    """Gaussian window spec for an enormous observation length.

    The bias moment reads the window at every lag true_acf tabulates,
    0..FINE_GRID/2 - 1, all inside the window; the peak of the transform is
    the closed-form 50 sqrt(2 pi).
    """
    lags = np.arange(tabulated, dtype=float)
    return WindowSpec(
        kind="gaussian",
        length=length,
        values=np.exp(-(lags**2) / 5000.0),
        spectral_bound=50.0 * math.sqrt(2.0 * math.pi),
        theory_valid=True,
        std=50.0,
    )


class TestHSequence:
    def test_bartlett_hand_case(self):
        # g = [1, .75, .5, .25]: h[m] = 1 - g[m] (1 - m/4), then 1 past the window
        h = h_sequence(make_window("bartlett", 4), 6)
        np.testing.assert_allclose(h, [0.0, 0.4375, 0.75, 0.9375, 1.0, 1.0, 1.0])

    def test_starts_at_zero_and_increases(self):
        h = h_sequence(make_window("gaussian", 512), 600)
        assert h[0] == 0.0
        assert np.all(np.diff(h) >= -1e-15)
        assert np.all(h <= 1.0 + 1e-15)
        np.testing.assert_allclose(h[512:], 1.0)

    def test_rejects_sign_changing_window(self):
        with pytest.raises(ValueError):
            h_sequence(make_window("rectangular", 64), 10)

    def test_rejects_hard_truncated_gaussian(self):
        # a std-50 gaussian cut off at 64 lags rings negative, so the
        # guarantee quantities are undefined for it
        short = make_window("gaussian", 64)
        assert not short.theory_valid
        with pytest.raises(ValueError):
            h_sequence(short, 10)

    def test_rejects_negative_lag(self):
        with pytest.raises(ValueError):
            h_sequence(make_window("gaussian", 64), -1)


class TestAcfMoment:
    def test_ma_hand_case(self):
        # r = [2, 1, 0, ...], h = [0, .4375, ...]: moment = 2 * 0.4375 * 1
        model = make_model([1.0], [1.0, 1.0])
        assert acf_moment(model, make_window("bartlett", 4)) == pytest.approx(0.875, abs=1e-12)

    def test_white_noise_has_zero_moment(self):
        # r vanishes past lag 0 and h[0] = 0
        model = make_model([1.0], [1.0])
        assert acf_moment(model, make_window("gaussian", 512)) == pytest.approx(0.0, abs=1e-12)

    def test_ar_model_matches_quadrature(self):
        # independent route: trapezoid autocorrelations on a non-pow2 grid
        model = benchmark_models()[2]
        window = make_window("gaussian", 4096)
        freqs = np.linspace(0.0, 1.0, 20001)
        psd = psd_by_polynomial(model, freqs)
        lags = np.arange(257)
        r = np.array([np.trapezoid(psd * np.cos(2 * np.pi * freqs * m), freqs) for m in lags])
        h = 1.0 - window.values[:257] * (1.0 - lags / 4096.0)
        oracle = abs(h[0] * r[0]) + 2.0 * np.sum(np.abs(h[1:] * r[1:]))
        assert acf_moment(model, window) == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("length", [256, 4096])
    def test_a_slow_ar1_moment_reads_its_whole_tail(self, length):
        # unit-power AR(1): r[m] = rho^m; bartlett g[m] = 1 - m/M, so h[m] = 1 - (1 - m/M)^2 below M
        rho = 0.999
        lags = np.arange(1, 200001)
        h = np.where(lags < length, 1.0 - (1.0 - lags / length) ** 2, 1.0)
        oracle = 2.0 * math.fsum(h * rho**lags)
        model = normalize_model(make_model([1.0, -rho], [1.0]))
        assert acf_moment(model, make_window("bartlett", length)) == pytest.approx(oracle, rel=1e-12)

    def test_mu_max_is_the_largest_moment(self):
        models = benchmark_models()
        window = make_window("gaussian", 4096)
        moments = [acf_moment(model, window) for model in models]
        assert mu_max(models, window) == max(moments)
        assert mu_max([models[0]], window) == moments[0]

    def test_mu_max_regression_anchor(self):
        assert mu_max(benchmark_models(), make_window("gaussian", 4096)) == pytest.approx(
            0.0122102237, abs=1e-9
        )

    def test_mu_max_needs_models(self):
        with pytest.raises(ValueError):
            mu_max([], make_window("gaussian", 64))


class TestTrueModelDistance:
    def test_matches_quadrature(self):
        models = benchmark_models()
        freqs = np.linspace(0.0, 1.0, 100001)
        tabs = [psd_by_polynomial(model, freqs) for model in models]
        for i in range(3):
            for j in range(3):
                oracle = 0.5 * np.trapezoid(np.abs(tabs[i] - tabs[j]), freqs)
                assert true_model_distance(models[i], models[j]) == pytest.approx(oracle, abs=1e-8)

    def test_rejects_grid_mismatch(self):
        model = benchmark_models()[0]
        from psdcluster.generators import GenerativeModel

        other = GenerativeModel(ar=model.ar, ma=model.ma, normalized=True, fine_grid_psd=np.ones(8))
        with pytest.raises(ValueError):
            true_model_distance(model, other)


class TestNoiseAndProbability:
    def test_frozen_noise_floor(self):
        assert noise_term(125.33, 1.0, 0.0, 10**6) == pytest.approx(5.27, abs=0.01)

    def test_scaling_properties(self):
        base = noise_term(10.0, 1.0, 0.0, 4096)
        assert noise_term(20.0, 1.0, 0.0, 4096) == pytest.approx(2 * base)
        assert noise_term(10.0, 0.5, 0.5, 4096) == pytest.approx(base)
        assert noise_term(10.0, 1.0, 0.0, 10**6) < base  # shrinks with length

    def test_probability_bound_exact_rational(self):
        expected = float(1 - Fraction(2 * 75, 4096**2))
        assert nfc_probability_bound(75, 4096) == expected
        assert nfc_probability_bound(75, 4096) == pytest.approx(0.9999911, abs=1e-7)

    def test_probability_bound_monotone(self):
        assert nfc_probability_bound(10, 1024) > nfc_probability_bound(20, 1024)
        assert nfc_probability_bound(10, 2048) > nfc_probability_bound(10, 1024)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            noise_term(1.0, 1.0, 0.0, 1)
        with pytest.raises(ValueError):
            nfc_probability_bound(0, 1024)
        with pytest.raises(ValueError):
            nfc_probability_bound(10, 0)


class TestCheckCondition:
    def test_benchmark_setup_fails_the_condition(self):
        # at M = 4096 the noise floor towers over the inter-model distances
        report = check_condition(benchmark_models(), make_window("gaussian", 4096), 75, 0.0)
        assert not report.satisfied
        assert report.noise_term > 100.0
        assert report.min_model_distance == pytest.approx(0.146, abs=0.001)
        assert report.obs_len == 4096
        assert report.n_obs == 75

    def test_report_is_internally_consistent(self):
        report = check_condition(benchmark_models(), make_window("gaussian", 1024), 30, 0.25)
        assert report.bias_term == pytest.approx(2.0 * report.mu_max)
        assert report.satisfied == (
            report.min_model_distance > report.noise_term + report.bias_term
        )
        assert report.prob_bound == nfc_probability_bound(30, 1024)
        assert report.noise_variance == 0.25

    def test_the_longest_ma_part_gives_its_exact_moment(self):
        # MA(ones) of n coefficients at unit power: r[k] = (n - k) / n, every lag but 0 counted twice
        n, window = 32766, make_window("gaussian", 256)
        assert MAX_MA_COEFFICIENTS == n
        lags = np.arange(1, n)
        h = np.where(lags < 256, 1.0 - window.values[np.minimum(lags, 255)] * (1.0 - lags / 256.0), 1.0)
        oracle = 2.0 * np.sum(h * (n - lags) / n)
        report = check_condition([normalize_model(make_model([1.0], np.ones(n))), benchmark_models()[0]],
                                 window, 10, 0.0)
        assert report.mu_max == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("length", [32767, 40000])
    def test_a_longer_ma_part_is_refused_by_its_length(self, length):
        models = [normalize_model(make_model([1.0], np.ones(length))), benchmark_models()[0]]
        message = f"the model's MA part has {length} coefficients; the window-bias moment takes at most 32766"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_condition(models, make_window("gaussian", 256), 10, 0.0)

    def test_condition_holds_for_enormous_observations(self):
        # distance 0.55 vs noise ~0.19 + bias ~0.02 at M = 10^10
        models = benchmark_models()
        report = check_condition([models[1], models[2]], huge_gaussian_window(), 50, 0.0)
        assert report.satisfied
        assert report.min_model_distance == pytest.approx(0.5517, abs=1e-3)
        assert report.noise_term == pytest.approx(0.1888, abs=1e-3)
        assert report.bias_term == pytest.approx(0.0201, abs=1e-3)
        assert report.prob_bound == 1.0

    def test_rejects_bad_arguments(self):
        models = benchmark_models()
        window = make_window("gaussian", 256)
        with pytest.raises(ValueError, match="^the clustering condition needs at least two models$"):
            check_condition(models[:1], window, 10, 0.0)
        with pytest.raises(ValueError):
            check_condition(models, window, 0, 0.0)
        with pytest.raises(ValueError):
            check_condition(models, window, 10, -0.5)

    @pytest.mark.parametrize("variance", [-0.5, math.nan, math.inf])
    def test_rejects_bad_noise_variance_in_both_functions(self, variance):
        message = "noise variance must be a finite nonnegative number"
        with pytest.raises(ValueError, match=message):
            check_condition(benchmark_models(), make_window("gaussian", 256, 50.0), 75, variance)
        with pytest.raises(ValueError, match=message):
            noise_term(1.0, 1.0, variance, 256)


class TestCheckSeparation:
    # one-column rows: the distance of two rows is the gap between their values
    def test_separated_blocks(self):
        report = check_separation([[0.0], [0.125], [0.875], [1.125]], [0, 0, 1, 1])
        assert report.separated
        assert report.max_intra == 0.25
        assert report.min_inter == 0.75
        assert report.margin == 0.5

    def test_violated_separation(self):
        report = check_separation([[0.0], [0.6], [-0.3]], [0, 0, 1])
        assert not report.separated

    def test_singletons_are_trivially_separated(self):
        report = check_separation([[0.0], [0.5]], [0, 1])
        assert report.separated
        assert report.max_intra == float("-inf")

    def test_single_label_has_no_inter_pairs(self):
        report = check_separation([[0.0], [0.5]], [0, 0])
        assert report.separated
        assert report.min_inter == float("inf")

    def test_rejects_label_mismatch(self):
        with pytest.raises(ValueError):
            check_separation(np.zeros((2, 3)), [0, 0, 1])

    def test_rejects_non_finite_rows(self):
        with pytest.raises(ValueError, match="must be finite"):
            check_separation([[0.0], [np.inf], [1.0]], [0, 0, 1])

    @settings(max_examples=8, deadline=None, database=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2 * NEIGHBOR_BLOCK_ROWS + 1, 700),
           n_labels=st.integers(1, 4), spread=st.sampled_from([0.0, 0.5, 50.0]))
    def test_block_scan_equals_the_matrix(self, seed, n, n_labels, spread):
        # spread 50 separates the labels, 0 mixes them; either way the scan gives the matrix bits
        gen = np.random.default_rng(seed)
        labels = gen.integers(0, n_labels, size=n)
        psds = gen.random((n, 33)) + spread * labels[:, None]
        assert check_separation(half_spectrum_rows(psds), labels) == reference_check_separation(
            distance_matrix(psds), labels)


def block_distances(gen, labels):
    n = labels.size
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            low, high = (0.01, 0.2) if labels[i] == labels[j] else (0.5, 1.0)
            d[i, j] = d[j, i] = gen.uniform(low, high)
    return d


class TestCheckNfc:
    def test_block_graph_passes(self):
        labels = np.array([0, 0, 0, 1, 1, 1])
        sets = nearest_neighbor_sets(block_distances(np.random.default_rng(3), labels), 2)
        assert check_nfc(sets, labels)
        assert not check_nfc(sets, [0, 0, 1, 1, 1, 1])

    def test_cross_edge_fails(self):
        sets = [[2], [0], [0]]
        assert not check_nfc(sets, [0, 0, 1])
        assert check_nfc(sets, [1, 1, 1])

    def test_equals_the_adjacency_edges_where_no_weight_underflows(self):
        gen = np.random.default_rng(5)
        for _ in range(50):
            truth = gen.integers(0, 2, size=9)
            d = block_distances(gen, truth)
            labels = np.where(gen.random(9) < 0.2, 1 - truth, truth)  # some sets turn conflicting
            sets = nearest_neighbor_sets(d, int(gen.integers(1, 5)))
            rows, cols = build_adjacency(d, sets).nonzero()
            assert check_nfc(sets, labels) == bool(np.all(labels[rows] == labels[cols]))

    def test_a_neighbor_with_an_underflowed_weight_still_conflicts(self):
        # exp(-2 * 400) underflows, so the adjacency drops the cross edges of T_1 = {0, 2} and T_2 = {3, 1}
        d = np.array([[0, 1, 500, 500], [1, 0, 400, 600], [500, 400, 0, 1], [500, 600, 1, 0]], dtype=float)
        sets = nearest_neighbor_sets(d, 2)
        assert build_adjacency(d, sets).nnz == 4
        assert not check_nfc(sets, [0, 0, 1, 1])

    def test_rejects_label_mismatch(self):
        with pytest.raises(ValueError):
            check_nfc(np.zeros((2, 2)), [0])
        with pytest.raises(ValueError):
            check_nfc([[1], [2]], [0, 1])
