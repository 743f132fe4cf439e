"""Distance tests: hand values, metric axioms on random spectra, matrix
consistency with the pairwise scalar routine, the one-sided kernel against
the full-grid formula on the mirrored grid, the pruned q-NN scan and the
distance columns against the matrix, and validator error paths."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import full_grid
from scipy.signal import lfilter
from scipy.spatial.distance import cdist, pdist, squareform

import psdcluster.distances
import psdcluster.spectra
from psdcluster.distances import (
    NEIGHBOR_BLOCK_ROWS,
    _pool_starts,
    distance_columns,
    distance_matrix,
    l1_distance,
    nearest_neighbors,
    validate_distance_matrix,
)
from psdcluster.nnpc import nearest_neighbor_sets
from psdcluster.spectra import (
    WINDOW_KINDS,
    estimate_dataset_psds,
    half_spectrum_rows,
    make_window,
    next_pow2,
    weighted_spectra,
)


def random_psd(gen, grid=64):
    return gen.random(grid) + 0.01


def test_hand_value():
    # F = 2, so both bins are endpoints and the full grid is the half:
    # 0.5 * mean(|1-2|, |3-1|) = 0.5 * 1.5
    assert l1_distance(np.array([1.0, 3.0]), np.array([2.0, 1.0])) == 0.75
    # integer values are stacked as float, so halving the endpoints works on them too
    assert l1_distance(np.array([1, 3]), np.array([2, 1])) == 0.75


def test_disjoint_unit_power_spectra_are_at_distance_one():
    assert l1_distance(np.array([2.0, 0.0]), np.array([0.0, 2.0])) == 1.0


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
        unit = [p / p.mean() for p in raw]
        assert l1_distance(*unit) <= 1.0


def test_grid_mismatch_rejected():
    a, b = np.ones(4), np.ones(8)
    with pytest.raises(ValueError):
        l1_distance(a, b)
    with pytest.raises(ValueError):
        distance_matrix([a, b])


@pytest.mark.parametrize("bins", [0, 1])
def test_fewer_than_two_bins_rejected(bins):
    a = np.zeros(bins)
    with pytest.raises(ValueError, match="PSD estimates need at least 2 bins"):
        l1_distance(a, a)
    with pytest.raises(ValueError, match="PSD estimates need at least 2 bins"):
        distance_matrix([a, a])


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
    bins=st.integers(2, 80),
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-3.0, 3.0),
)
def test_matrix_matches_pairwise_distances_property(n_psds, bins, seed, log_scale):
    gen = np.random.default_rng(seed)
    psds = [10.0**log_scale * gen.standard_normal(bins) for _ in range(n_psds)]
    d = distance_matrix(psds)
    expected = np.array([[l1_distance(a, b) for b in psds] for a in psds])
    np.testing.assert_allclose(d, expected, rtol=0, atol=1e-15)
    # independent loop reference; summation order differs, so the tolerance
    # is a few hundred float64 ulps of the largest distance
    loop = loop_matrix(psds)
    np.testing.assert_allclose(d, loop, rtol=0, atol=1e-13 * max(loop.max(), 1e-300))


def full_grid_matrix(psds):
    """The full-grid formula: pdist over all F bins of the mirrored rows, scaled by 1/(2F)."""
    stacked = full_grid(np.stack(psds))
    return squareform(pdist(stacked, "cityblock") * (0.5 / stacked.shape[1]))


def loop_matrix(psds):
    return np.array([[0.5 * np.mean(np.abs(full_grid(a) - full_grid(b))) for b in psds] for a in psds])


def mirrored_psds(gen, n_psds, grid, scale=1.0):
    """Random half spectra, bins 0..grid/2 of an even spectrum on an even grid."""
    return [scale * gen.standard_normal(grid // 2 + 1) for _ in range(n_psds)]


@pytest.fixture()
def pdist_widths(monkeypatch):
    """Record the row width of every array the distance kernel hands to pdist."""
    widths = []

    def recording_pdist(x, metric):
        widths.append(x.shape[1])
        return pdist(x, metric)

    monkeypatch.setattr(psdcluster.distances, "pdist", recording_pdist)
    return widths


class TestFoldedKernel:
    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(
        n_psds=st.integers(1, 6),
        half_grid=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-3.0, 3.0),
    )
    def test_mirrored_rows_match_the_full_grid_loop(self, n_psds, half_grid, seed, log_scale):
        grid = 2 * half_grid
        psds = mirrored_psds(np.random.default_rng(seed), n_psds, grid, 10.0**log_scale)
        d = distance_matrix(psds)
        loop = loop_matrix(psds)
        np.testing.assert_allclose(d, loop, rtol=0, atol=1e-13 * max(loop.max(), 1e-300))
        np.testing.assert_allclose(d, full_grid_matrix(psds), rtol=0, atol=1e-13 * max(loop.max(), 1e-300))
        for i, a in enumerate(psds):
            for j, b in enumerate(psds):
                assert l1_distance(a, b) == d[i, j]

    @pytest.mark.parametrize("unit_power", [False, True])
    @pytest.mark.parametrize("kind", ["gaussian", "bartlett", "rectangular"])
    def test_estimated_psds_take_the_folded_path(self, pdist_widths, unit_power, kind):
        obs = np.random.default_rng(3).standard_normal((7, 40))
        psds = estimate_dataset_psds(obs, window=make_window(kind, 40, std=9.0 if kind == "gaussian" else None),
                                     grid_size=128, unit_power=unit_power)
        assert psds.shape == (7, 65)  # bins 0..F/2 of F = 128
        d = distance_matrix(psds)
        assert pdist_widths == [65]
        loop = loop_matrix(psds)
        np.testing.assert_allclose(d, loop, rtol=0, atol=1e-13 * loop.max())
        np.testing.assert_allclose(d, full_grid_matrix(psds), rtol=0, atol=1e-13 * loop.max())
        for i, j in [(0, 1), (2, 6), (5, 3)]:
            assert l1_distance(psds[i], psds[j]) == d[i, j]

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(half_grid=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_folded_distance_is_a_metric(self, half_grid, seed):
        a, b, c = mirrored_psds(np.random.default_rng(seed), 3, 2 * half_grid)
        d_ab, d_ac, d_cb = l1_distance(a, b), l1_distance(a, c), l1_distance(c, b)
        assert l1_distance(a, a) == 0.0
        assert d_ab >= 0.0
        assert d_ab == l1_distance(b, a)
        assert d_ab <= d_ac + d_cb + 1e-13 * max(d_ab, d_ac, d_cb)


@pytest.mark.parametrize("unit_power", [False, True])
def test_weighted_spectra_are_the_estimates_weighted_in_place(monkeypatch, unit_power):
    obs = np.random.default_rng(2).standard_normal((5, 40))
    window = make_window("bartlett", 40)
    estimates = []

    def recording_estimate(*args, **kwargs):
        estimates.append(estimate_dataset_psds(*args, **kwargs))
        return estimates[-1]

    expected = half_spectrum_rows(estimate_dataset_psds(obs, window, 128, unit_power))
    monkeypatch.setattr(psdcluster.spectra, "estimate_dataset_psds", recording_estimate)
    rows = weighted_spectra(obs, window, 128, unit_power)
    assert rows is estimates[0]  # weighted in place, never copied
    np.testing.assert_array_equal(rows, expected)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    m=st.integers(2, 300),
    n=st.integers(2, 5),
    kind=st.sampled_from(WINDOW_KINDS),
    std=st.floats(0.5, 400.0),
    unit_power=st.booleans(),
    grid_factor=st.integers(2, 16),
    log_scale=st.integers(-100, 100),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=4096, n=3, kind="gaussian", std=50.0, unit_power=False, grid_factor=16, log_scale=0, seed=0)  # F = 65536
def test_weighted_rows_give_the_unscaled_distances_times_one_over_f(m, n, kind, std, unit_power, grid_factor,
                                                                    log_scale, seed):
    """The 1/F in the rows is exact: pdist of the weighted spectra equals pdist
    of the estimates with the endpoints halved, times 1/F, bit for bit, for
    sample magnitudes of at least 1e-100."""
    gen = np.random.default_rng(seed)
    obs = gen.choice([-1.0, 1.0], (n, m)) * gen.uniform(1.0, 10.0, (n, m)) * 10.0**log_scale
    window = make_window(kind, m, std=std if kind == "gaussian" else None)
    grid = next_pow2(grid_factor * m)
    halved = estimate_dataset_psds(obs, window, grid, unit_power)
    halved[:, [0, -1]] *= 0.5
    expected = pdist(halved, "cityblock") * (1.0 / grid)
    np.testing.assert_array_equal(pdist(weighted_spectra(obs, window, grid, unit_power), "cityblock"), expected)


def test_matrix_needs_input():
    with pytest.raises(ValueError):
        distance_matrix([])


def test_single_psd_gives_zero_matrix():
    gen = np.random.default_rng(1)
    d = distance_matrix([random_psd(gen)])
    np.testing.assert_array_equal(d, np.zeros((1, 1)))


def integer_psds(seed, n, bins, levels):
    """Estimates with small integer values: many equal distances, so ties decide the q-NN order."""
    return np.random.default_rng(seed).integers(0, levels, (n, bins))


def assert_scan_matches_the_matrix(rows, q, block=None):
    """nearest_neighbors on weighted rows equals the q smallest of their pdist matrix, bit for bit.

    `block`, if given, patches NEIGHBOR_BLOCK_ROWS for the scan.
    """
    with pytest.MonkeyPatch.context() as patch:
        if block is not None:
            patch.setattr(psdcluster.distances, "NEIGHBOR_BLOCK_ROWS", block)
        index, dist = nearest_neighbors(rows, q)
    d = squareform(pdist(rows, "cityblock"))
    sets = nearest_neighbor_sets(d, q)
    np.testing.assert_array_equal(index, sets)
    np.testing.assert_array_equal(dist, np.take_along_axis(d, sets, axis=1))


def tone_observations(seed, n, m):
    """Noisy sinusoids at a few frequencies: observations in clusters, with amplitudes spread over a decade."""
    gen = np.random.default_rng(seed)
    t = np.arange(m)
    frequency = gen.choice([0.05, 0.12, 0.3], n)[:, None]
    amplitude = gen.uniform(1.0, 10.0, (n, 1))
    phase = gen.uniform(0, 2 * np.pi, (n, 1))
    return amplitude * np.sin(2 * np.pi * frequency * t + phase) + gen.standard_normal((n, m))


class TestBlockedNeighbors:
    """The q-NN scan gives the matrix's neighbor sets and distances, bit for bit."""

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(
        n=st.one_of(
            st.integers(2, NEIGHBOR_BLOCK_ROWS - 1),  # below one block
            st.just(NEIGHBOR_BLOCK_ROWS),  # exactly one block
            st.integers(NEIGHBOR_BLOCK_ROWS + 1, 2 * NEIGHBOR_BLOCK_ROWS + 90).filter(
                lambda n: n % NEIGHBOR_BLOCK_ROWS != 0
            ),
        ),
        bins=st.one_of(st.integers(2, 4), st.integers(33, 130)),  # wide rows have more bins than pool groups
        levels=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_tie_heavy_rows_match_the_matrix(self, n, bins, levels, seed, data):
        q = data.draw(st.one_of(st.integers(1, min(n - 1, 12)), st.integers(1, n - 1)))
        assert_scan_matches_the_matrix(half_spectrum_rows(integer_psds(seed, n, bins, levels)), q)

    @pytest.mark.parametrize("block, n, q", [(1, 9, 3), (3, 20, 19), (4, 23, 6), (7, 50, 10)])
    def test_small_blocks_match_the_matrix(self, block, n, q):
        assert_scan_matches_the_matrix(half_spectrum_rows(integer_psds(n + q, n, 3, 3)), q, block)

    def test_estimated_psds_match_the_matrix(self):
        obs = np.random.default_rng(8).standard_normal((300, 64))
        psds = estimate_dataset_psds(obs, window=make_window("bartlett", 64), grid_size=256)
        assert_scan_matches_the_matrix(half_spectrum_rows(psds), 10)

    # The cases below have more bins than pool groups, so the bound is below
    # the distance and the multi-block scan leaves pairs out.

    @settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @given(
        n=st.integers(12, 90),
        block=st.integers(2, 20),
        m=st.integers(16, 48),
        grid_factor=st.sampled_from([4, 8]),
        kind=st.sampled_from(WINDOW_KINDS),
        unit_power=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_estimated_psds_over_several_blocks(self, n, block, m, grid_factor, kind, unit_power, seed, data):
        q = data.draw(st.one_of(st.integers(1, min(n - 1, 12)), st.integers(1, n - 1)))
        window = make_window(kind, m, std=m / 4 if kind == "gaussian" else None)
        rows = weighted_spectra(tone_observations(seed, n, m), window, next_pow2(grid_factor * m), unit_power)
        assert _pool_starts(rows.shape[1]).size < rows.shape[1]
        assert_scan_matches_the_matrix(rows, q, block)

    @settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @given(n=st.integers(8, 90), block=st.integers(2, 20), bins=st.integers(33, 130), bases=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_rows_with_equal_group_sums(self, n, block, bins, bases, seed, data):
        """Rows that differ only inside pool groups, with sums kept: their bounds tie at one value."""
        q = data.draw(st.integers(1, n - 1))
        gen = np.random.default_rng(seed)
        psds = 3 + integer_psds(seed, bases, bins, 3)[gen.integers(0, bases, n)]
        starts = _pool_starts(bins)
        shared = starts[np.diff(starts, append=bins) >= 2]  # groups holding bins b and b + 1
        shift = gen.integers(-3, 4, (n, shared.size))
        psds[:, shared] += shift
        psds[:, shared + 1] -= shift
        assert_scan_matches_the_matrix(half_spectrum_rows(psds), q, block)

    def test_a_lower_index_row_at_the_qth_distance_is_computed(self):
        """A row whose bound equals u_i is computed, and wins the tie with the candidate at u_i.

        The samples are multiples of the smallest subnormal, so every sum is
        exact and the slack rounds away: u_i (1 + slack) is u_i itself. Row
        8 takes candidates 1 to 4 (bounds 0, 0, 1, 1), whose distances make
        u_8 = 3, the distance of candidate 2. Row 0 is also at 3, with bound
        3, so only a survivor test of bound <= u_i computes it, and then it
        is second for row 8 by the lower index.
        """
        bins = 64
        assert _pool_starts(bins)[1] >= 2  # bins 0 and 1 share a pool group
        units = np.full((9, bins), 5)
        units[0, 2] += 3  # distance 3, bound 3
        units[1, 0], units[1, 1] = 5 + 3, 5 - 3  # distance 6, bound 0
        units[2, 0], units[2, 1] = 5 + 2, 5 - 1  # distance 3, bound 1
        units[3, 0], units[3, 1] = 5 + 4, 5 - 4  # distance 8, bound 0
        units[4, 2] += 1  # distance 1, bound 1
        units[5:8, 10] += 20  # far rows
        rows = units * 5e-324
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(psdcluster.distances, "NEIGHBOR_BLOCK_ROWS", 4)
            index, _ = nearest_neighbors(rows, 2)
        np.testing.assert_array_equal(index[8], [4, 0])
        assert_scan_matches_the_matrix(rows, 2, 4)

    def test_a_bound_rounded_above_the_distance_keeps_its_row(self):
        """Near-duplicate rows whose group sums round apart: the computed bound exceeds the distance.

        With e = 2**-52, row 8 starts (1 + e, 1 + 2e) and row 0 (1 + e, 1 + e),
        at distance e; the sums 2 + 3e and 2 + 2e round to 2 + 4e and 2 + 2e,
        a bound of 2e. Candidates 1 and 2 have bound 0 and distances e and
        4e, so u_8 = e; only the rounding allowance of the survivor test
        computes row 0, which then wins the tie at e by the lower index.
        """
        e = np.finfo(float).eps
        bins = 64
        assert _pool_starts(bins)[1] == 2  # bins 0 and 1 are one pool group
        rows = np.ones((9, bins))
        rows[0, :2] = 1 + e, 1 + e
        rows[1, :2] = 1 + 2 * e, 1 + 2 * e  # distance e, bound 0
        rows[2, :2] = 1 + 3 * e, 1  # distance 4e, bound 0
        rows[3:8, 10] = 5.0  # far rows
        rows[8, :2] = 1 + e, 1 + 2 * e
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(psdcluster.distances, "NEIGHBOR_BLOCK_ROWS", 4)
            index, dist = nearest_neighbors(rows, 1)
        assert (index[8, 0], dist[8, 0]) == (0, e)
        assert_scan_matches_the_matrix(rows, 1, 4)

    def test_rejects_out_of_range_q(self):
        rows = half_spectrum_rows(integer_psds(1, 5, 3, 3))
        for q in (0, 5):
            with pytest.raises(ValueError, match="n_neighbors must be in 1..4"):
                nearest_neighbors(rows, q)

    def test_rejects_non_finite_distances(self):
        rows = half_spectrum_rows(integer_psds(1, 5, 3, 3))
        rows[3, 1] = np.nan
        with pytest.raises(ValueError, match="distance matrix entries must be finite"):
            nearest_neighbors(rows, 2)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_rows_over_several_blocks(self, monkeypatch, value):
        monkeypatch.setattr(psdcluster.distances, "NEIGHBOR_BLOCK_ROWS", 4)
        rows = half_spectrum_rows(integer_psds(1, 12, 40, 3))
        rows[7, 20] = value
        with pytest.raises(ValueError, match="distance matrix entries must be finite"):
            nearest_neighbors(rows, 2)

    def test_an_overflowing_pair_raises_when_the_bound_would_skip_it(self, monkeypatch):
        """Two huge rows with their mass in different pool groups: their distance overflows.

        Both rows and their pooled rows are finite, but the pair's bound is
        as large as its distance, so without the norm test the scan would
        leave the pair out; it must raise as the full matrix does.
        """
        monkeypatch.setattr(psdcluster.distances, "NEIGHBOR_BLOCK_ROWS", 4)
        bins = 64
        rows = np.random.default_rng(2).uniform(1.0, 2.0, (12, bins))
        rows[5, 0] = rows[9, -1] = 1.5e308
        assert _pool_starts(bins).size > 1  # bins 0 and 63 lie in different groups
        assert np.isinf(pdist(rows[[5, 9]], "cityblock")).all()
        with pytest.raises(ValueError, match="distance matrix entries must be finite"):
            nearest_neighbors(rows, 2)


# arma3 (AR, MA) coefficients before unit-power scaling
ARMA3 = [
    ([1.0], [0.75, 1.0, -1.75, 0.5]),
    ([1.0], [0.5, 1.25, -1.5, 0.75]),
    ([1.0, -0.2, 0.4, 0.1], [1.0]),
]


def arma3_observations(seed, per_model, length, burn_in=1000):
    """Unit-power arma3 observations of every model, shuffled, without psdcluster.generators."""
    gen = np.random.default_rng(seed)
    truth = gen.permutation(np.repeat(np.arange(len(ARMA3)), per_model))
    models = []
    for ar, ma in ARMA3:
        power = np.mean(np.abs(np.fft.fft(ma, 1 << 16)) ** 2 / np.abs(np.fft.fft(ar, 1 << 16)) ** 2)
        models.append((ar, np.asarray(ma) / np.sqrt(power)))
    return np.array([lfilter(models[t][1], models[t][0], gen.standard_normal(burn_in + length))[burn_in:]
                     for t in truth])


def test_the_scan_computes_few_pairs_exactly(monkeypatch):
    """On a cluster-wide sized input (1200 x 256 arma3), the bound leaves most pairs out.

    About 4.2% of the ordered pairs are computed exactly at this size;
    the bound 6% leaves room for a small change of P or of the candidates.
    """
    rows = weighted_spectra(arma3_observations(1, 400, 256))
    exact = 0

    def counting_cdist(first, second, metric):
        nonlocal exact
        if second.shape[1] == rows.shape[1]:  # not a bound call, which reads pooled rows
            exact += first.shape[0] * second.shape[0]
        return cdist(first, second, metric)

    monkeypatch.setattr(psdcluster.distances, "cdist", counting_cdist)
    nearest_neighbors(rows, 10)
    fraction = exact / (len(rows) * (len(rows) - 1))
    assert fraction < 0.06, fraction


def test_distance_columns_match_the_matrix():
    psds = np.vstack([integer_psds(4, 40, 5, 4), [random_psd(np.random.default_rng(4), 5) for _ in range(10)]])
    d = distance_matrix(psds)
    rows = half_spectrum_rows(psds)
    index = np.array([0, 17, 49, 3, 17])
    np.testing.assert_array_equal(distance_columns(rows, index), d[:, index])


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
