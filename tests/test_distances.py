"""Distance tests: hand values, metric axioms on random spectra, matrix
consistency with the pairwise scalar routine, and validator error paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdcluster.distances import distance_matrix, l1_distance, validate_distance_matrix
from psdcluster.spectra import PsdEstimate


def random_psd(gen, grid=64):
    values = gen.random(grid) + 0.01
    return PsdEstimate(values=values, acf_zero=float(values.mean()))


def test_hand_value():
    a = PsdEstimate(values=np.array([1.0, 3.0]), acf_zero=2.0)
    b = PsdEstimate(values=np.array([2.0, 1.0]), acf_zero=1.5)
    # 0.5 * mean(|1-2|, |3-1|) = 0.5 * 1.5
    assert l1_distance(a, b) == 0.75


def test_disjoint_unit_power_spectra_are_at_distance_one():
    a = PsdEstimate(values=np.array([2.0, 0.0]), acf_zero=1.0)
    b = PsdEstimate(values=np.array([0.0, 2.0]), acf_zero=1.0)
    assert l1_distance(a, b) == 1.0


def test_metric_axioms():
    gen = np.random.default_rng(77)
    for _ in range(50):
        a, b, c = (random_psd(gen) for _ in range(3))
        assert l1_distance(a, a) == 0.0
        assert l1_distance(a, b) == l1_distance(b, a)
        assert l1_distance(a, b) <= l1_distance(a, c) + l1_distance(c, b) + 1e-12


def test_unit_power_distance_bounded_by_one():
    gen = np.random.default_rng(12)
    for _ in range(20):
        raw = [random_psd(gen) for _ in range(2)]
        unit = [PsdEstimate(values=p.values / p.values.mean(), acf_zero=1.0) for p in raw]
        assert l1_distance(*unit) <= 1.0


def test_grid_mismatch_rejected():
    a = PsdEstimate(values=np.ones(4), acf_zero=1.0)
    b = PsdEstimate(values=np.ones(8), acf_zero=1.0)
    with pytest.raises(ValueError):
        l1_distance(a, b)
    with pytest.raises(ValueError):
        distance_matrix([a, b])


def test_matrix_matches_pairwise_distances():
    gen = np.random.default_rng(5)
    psds = [random_psd(gen) for _ in range(6)]
    d = distance_matrix(psds)
    assert d.shape == (6, 6)
    for i in range(6):
        for j in range(6):
            np.testing.assert_allclose(d[i, j], l1_distance(psds[i], psds[j]), atol=1e-15)
    validate_distance_matrix(d)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    n_psds=st.integers(1, 6),
    grid=st.integers(1, 80),
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-3.0, 3.0),
)
def test_matrix_matches_pairwise_distances_property(n_psds, grid, seed, log_scale):
    gen = np.random.default_rng(seed)
    psds = [
        PsdEstimate(values=10.0**log_scale * gen.standard_normal(grid), acf_zero=0.0) for _ in range(n_psds)
    ]
    d = distance_matrix(psds)
    expected = np.array([[l1_distance(a, b) for b in psds] for a in psds])
    np.testing.assert_allclose(d, expected, rtol=0, atol=1e-15)
    # independent loop reference; summation order differs, so the tolerance
    # is a few hundred float64 ulps of the largest distance
    loop = np.array([[0.5 * np.mean(np.abs(a.values - b.values)) for b in psds] for a in psds])
    np.testing.assert_allclose(d, loop, rtol=0, atol=1e-13 * max(loop.max(), 1e-300))


def test_matrix_needs_input():
    with pytest.raises(ValueError):
        distance_matrix([])


def test_single_psd_gives_zero_matrix():
    gen = np.random.default_rng(1)
    d = distance_matrix([random_psd(gen)])
    np.testing.assert_array_equal(d, np.zeros((1, 1)))


class TestValidator:
    def test_accepts_valid(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(validate_distance_matrix(d), d)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            validate_distance_matrix([[0.0, 1.0], [2.0, 0.0]])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            validate_distance_matrix([[0.0, -1.0], [-1.0, 0.0]])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            validate_distance_matrix([[0.5, 1.0], [1.0, 0.0]])

    def test_rejects_non_square_and_non_finite(self):
        with pytest.raises(ValueError):
            validate_distance_matrix(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            validate_distance_matrix([[0.0, np.nan], [np.nan, 0.0]])
