"""Single-pass k-means (farthest-point seeding) tests.

Oracle: hand evaluation on a 4-node distance matrix, tie-break conventions,
exact recovery on separated random block matrices, and the dense path for
the column-wise one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psdcluster.km
from psdcluster.distances import distance_columns, distance_matrix, validate_distance_matrix
from psdcluster.km import assign_to_centers, farthest_point_centers, km_cluster, km_from_distances, km_from_spectra
from psdcluster.metrics import clustering_error
from psdcluster.numerics import RngStream
from psdcluster.spectra import half_spectrum_rows
from psdcluster.generators import benchmark_models, make_benchmark_dataset


def four_node_matrix():
    d = np.zeros((4, 4))
    pairs = {(0, 1): 0.1, (0, 2): 0.5, (0, 3): 0.6, (1, 2): 0.4, (1, 3): 0.7, (2, 3): 0.2}
    for (i, j), value in pairs.items():
        d[i, j] = d[j, i] = value
    return d


def separated_block_matrix(gen, sizes):
    """Random matrix with intra-block distances below every inter-block one."""
    n = int(sum(sizes))
    labels = np.repeat(np.arange(len(sizes)), sizes)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            low, high = (0.01, 0.2) if labels[i] == labels[j] else (0.5, 1.0)
            d[i, j] = d[j, i] = gen.uniform(low, high)
    return d, labels


class TestFarthestPointCenters:
    def test_hand_case(self):
        # second center: the node farthest from node 0 is node 3 (0.6)
        centers = farthest_point_centers(four_node_matrix(), 2)
        np.testing.assert_array_equal(centers, [0, 3])

    def test_single_center(self):
        np.testing.assert_array_equal(farthest_point_centers(four_node_matrix(), 1), [0])

    def test_all_equal_distances_pick_lowest_indices(self):
        d = np.ones((5, 5)) - np.eye(5)
        np.testing.assert_array_equal(farthest_point_centers(d, 3), [0, 1, 2])

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            farthest_point_centers(four_node_matrix(), 0)
        with pytest.raises(ValueError):
            farthest_point_centers(four_node_matrix(), 5)


class TestAssignToCenters:
    def test_hand_case(self):
        labels = assign_to_centers(four_node_matrix(), [0, 3])
        np.testing.assert_array_equal(labels, [0, 0, 1, 1])

    def test_ties_go_to_earlier_center(self):
        d = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
        labels = assign_to_centers(d, [1, 2])
        assert labels[0] == 0  # equidistant from both centers

    def test_rejects_bad_centers(self):
        with pytest.raises(ValueError):
            assign_to_centers(four_node_matrix(), [])
        with pytest.raises(ValueError):
            assign_to_centers(four_node_matrix(), [4])
        with pytest.raises(ValueError):
            assign_to_centers(four_node_matrix(), [-1])

    @pytest.mark.parametrize("value, message", [(np.nan, "finite"), (-0.5, "nonnegative")])
    def test_rejects_a_bad_center_distance(self, value, message):
        d = four_node_matrix()
        d[1, 3] = value  # in the column of center 3
        with pytest.raises(ValueError, match=f"distance matrix entries must be {message}"):
            assign_to_centers(d, [0, 3])


class TestClusterFromDistances:
    def test_hand_case(self):
        np.testing.assert_array_equal(km_from_distances(four_node_matrix(), 2), [0, 0, 1, 1])

    def test_exact_on_separated_blocks(self):
        gen = np.random.default_rng(55)
        for _ in range(30):
            n_blocks = int(gen.integers(2, 5))
            sizes = gen.integers(2, 6, size=n_blocks)
            d, truth = separated_block_matrix(gen, sizes)
            labels = km_from_distances(d, n_blocks)
            assert clustering_error(labels, truth) == 0.0

    def test_deterministic(self):
        gen = np.random.default_rng(7)
        d, _ = separated_block_matrix(gen, [3, 4, 5])
        np.testing.assert_array_equal(km_from_distances(d, 3), km_from_distances(d, 3))

    def test_one_validation_per_call(self, monkeypatch):
        calls = []

        def counted(dist):
            calls.append(np.shape(dist))
            return validate_distance_matrix(dist)

        monkeypatch.setattr("psdcluster.km.validate_distance_matrix", counted)
        np.testing.assert_array_equal(km_from_distances(four_node_matrix(), 2), [0, 0, 1, 1])
        assert calls == [(4, 4)]


def test_end_to_end_on_synthetic_data():
    # two well-separated models, long observations: exact recovery
    models = [benchmark_models()[0], benchmark_models()[2]]
    data = make_benchmark_dataset(models, 6, 1024, 0.0, RngStream(3))
    labels = km_cluster(data.observations, 2)
    assert labels.shape == (12,)
    assert clustering_error(labels, data.labels) == 0.0


class TestFromSpectra:
    """km by center columns of the weighted half spectra equals km_from_distances on their matrix."""

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(
        n=st.integers(1, 60),
        bins=st.integers(2, 6),
        levels=st.integers(1, 4),
        noise=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_matches_the_dense_path(self, n, bins, levels, noise, seed, data):
        n_clusters = data.draw(st.integers(1, n))
        gen = np.random.default_rng(seed)
        values = gen.integers(0, levels, (n, bins)) + (gen.random((n, bins)) if noise else 0)
        labels = km_from_spectra(half_spectrum_rows(values), n_clusters)
        np.testing.assert_array_equal(labels, km_from_distances(distance_matrix(values), n_clusters))

    @pytest.mark.parametrize("n_clusters", [1, 3, 7])
    def test_reads_each_center_column_once(self, monkeypatch, n_clusters):
        # seeding computes the column of every center, and the assignment reuses them
        entries = []

        def counted(rows, index):
            columns = distance_columns(rows, index)
            entries.append(columns.size)
            return columns

        monkeypatch.setattr(psdcluster.km, "distance_columns", counted)
        values = np.random.default_rng(n_clusters).random((30, 9))
        labels = km_from_spectra(half_spectrum_rows(values), n_clusters)
        assert sum(entries) == 30 * n_clusters
        np.testing.assert_array_equal(labels, km_from_distances(distance_matrix(values), n_clusters))

    def test_rejects_bad_count(self):
        rows = half_spectrum_rows([np.arange(3.0) + i for i in range(4)])
        with pytest.raises(ValueError, match="n_clusters must be in 1..4"):
            km_from_spectra(rows, 5)

    def test_rejects_a_non_finite_distance(self):
        rows = half_spectrum_rows([np.arange(3.0) + i for i in range(4)])
        rows[2, 0] = np.inf
        with pytest.raises(ValueError, match="distance matrix entries must be finite"):
            km_from_spectra(rows, 2)
