"""Nearest-neighbor graph clustering tests.

Oracles: hand-evaluated 3- and 4-node neighbor graphs, eigenvalue structure
of disconnected graphs (zero-eigenvalue multiplicity counts components),
exact recovery on separated block distance matrices, a full stable argsort
for the neighbor sets, the dense LAPACK solve for the sparse spectrum, and
nnpc_from_distances for the matrix-free nnpc_from_spectra.
"""

import math
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from psdcluster import nnpc, numerics
from psdcluster.distances import distance_matrix, validate_distance_matrix
from psdcluster.generators import benchmark_models, make_benchmark_dataset
from psdcluster.metrics import clustering_error
from psdcluster.nnpc import (
    NnpcResult,
    build_adjacency,
    estimate_cluster_count,
    laplacian_spectrum,
    nearest_neighbor_sets,
    nnpc_cluster,
    nnpc_from_distances,
    nnpc_from_spectra,
    normalized_laplacian,
    spectral_cluster,
)
from psdcluster.numerics import RngStream, eig_symmetric, relabel_first_seen
from psdcluster.spectra import half_spectrum_rows

PROPERTY = settings(max_examples=40, deadline=None, database=None, derandomize=True)


@contextmanager
def solver(kind):
    """Route every partial eigensolve to LAPACK ("dense") or to ARPACK ("sparse")."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numerics, "DENSE_EIGH_MAX_N", 10**9 if kind == "dense" else 0)
        yield


def four_node_matrix():
    d = np.zeros((4, 4))
    pairs = {(0, 1): 0.1, (0, 2): 0.5, (0, 3): 0.6, (1, 2): 0.4, (1, 3): 0.7, (2, 3): 0.2}
    for (i, j), value in pairs.items():
        d[i, j] = d[j, i] = value
    return d


def separated_block_matrix(gen, sizes):
    n = int(sum(sizes))
    labels = np.repeat(np.arange(len(sizes)), sizes)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            low, high = (0.01, 0.2) if labels[i] == labels[j] else (0.5, 1.0)
            d[i, j] = d[j, i] = gen.uniform(low, high)
    return d, labels


def gapped_block_matrix(gen, sizes, gap=400.0):
    """Random distances within blocks and `gap` across them.

    With gap 400 a cross-block weight exp(-800) underflows to 0, so no edge
    leaves a block: a block of one node is isolated, and a larger block
    holds one or more connected components.
    """
    labels = np.repeat(np.arange(len(sizes)), sizes)
    d = np.triu(gen.uniform(0.01, 1.0, (labels.size, labels.size)), 1)
    d = d + d.T
    d[labels[:, None] != labels[None, :]] = gap
    return d


def dense_eigenvalues(adjacency):
    return np.linalg.eigvalsh(normalized_laplacian(adjacency).toarray())


class TestNearestNeighborSets:
    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), levels=st.integers(1, 4), data=st.data())
    def test_matches_stable_argsort_on_ties(self, seed, n, levels, data):
        q = data.draw(st.integers(1, n - 1))
        d = np.triu(np.random.default_rng(seed).integers(0, levels, (n, n)).astype(float), 1)
        d = d + d.T
        work = d + np.diag(np.full(n, np.inf))
        expected = np.argsort(work, axis=1, kind="stable")[:, :q]
        np.testing.assert_array_equal(nearest_neighbor_sets(d, q), expected)

    def test_hand_case(self):
        t = nearest_neighbor_sets(four_node_matrix(), 1)
        np.testing.assert_array_equal(t, [[1], [0], [3], [2]])

    def test_full_neighborhood(self):
        t = nearest_neighbor_sets(four_node_matrix(), 3)
        for i in range(4):
            assert sorted(t[i]) == sorted(set(range(4)) - {i})

    def test_all_equal_ties_to_lowest_index(self):
        d = np.ones((5, 5)) - np.eye(5)
        t = nearest_neighbor_sets(d, 2)
        np.testing.assert_array_equal(t[0], [1, 2])
        np.testing.assert_array_equal(t[3], [0, 1])

    def test_excludes_self(self):
        gen = np.random.default_rng(2)
        d, _ = separated_block_matrix(gen, [4, 4])
        t = nearest_neighbor_sets(d, 5)
        for i in range(8):
            assert i not in t[i]

    def test_neighbors_are_the_closest(self):
        gen = np.random.default_rng(3)
        d, _ = separated_block_matrix(gen, [5, 5])
        q = 4
        t = nearest_neighbor_sets(d, q)
        for i in range(10):
            chosen = d[i, t[i]]
            others = [d[i, p] for p in range(10) if p != i and p not in set(t[i])]
            assert chosen.max() <= min(others)

    def test_rejects_out_of_range_q(self):
        with pytest.raises(ValueError):
            nearest_neighbor_sets(four_node_matrix(), 0)
        with pytest.raises(ValueError):
            nearest_neighbor_sets(four_node_matrix(), 4)


class TestBuildAdjacency:
    def test_hand_case(self):
        d = four_node_matrix()
        a = build_adjacency(d, nearest_neighbor_sets(d, 1))
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[1, 0] = 2.0 * math.exp(-0.2)
        expected[2, 3] = expected[3, 2] = 2.0 * math.exp(-0.4)
        np.testing.assert_allclose(a.toarray(), expected, atol=1e-15)

    def test_one_sided_edge(self):
        # 1 is 2's neighbor and vice versa; 0 points at 1 but not back
        d = np.array([[0.0, 0.5, 0.9], [0.5, 0.0, 0.1], [0.9, 0.1, 0.0]])
        a = build_adjacency(d, nearest_neighbor_sets(d, 1))
        np.testing.assert_allclose(a[0, 1], math.exp(-1.0))
        np.testing.assert_allclose(a[1, 2], 2.0 * math.exp(-0.2))
        assert a[0, 2] == 0.0

    def test_zero_distance_mutual_neighbors_weigh_two(self):
        d = np.array([[0.0, 0.0, 0.9], [0.0, 0.0, 0.9], [0.9, 0.9, 0.0]])
        a = build_adjacency(d, nearest_neighbor_sets(d, 1))
        assert a[0, 1] == 2.0

    def test_entry_levels(self):
        # every entry is 0, exp(-2d), or 2 exp(-2d)
        gen = np.random.default_rng(9)
        d, _ = separated_block_matrix(gen, [4, 5])
        a = build_adjacency(d, nearest_neighbor_sets(d, 3))
        for i in range(9):
            for j in range(9):
                if i == j:
                    assert a[i, j] == 0.0
                    continue
                weight = math.exp(-2.0 * d[i, j])
                assert min(abs(a[i, j] - c) for c in (0.0, weight, 2 * weight)) < 1e-12

    def test_rejects_mismatched_sets(self):
        d = four_node_matrix()
        with pytest.raises(ValueError):
            build_adjacency(d, np.array([[4], [0], [1], [2]]))
        with pytest.raises(ValueError):
            build_adjacency(d, np.array([[1, 1], [0, 2], [0, 1], [0, 1]]))

    @pytest.mark.parametrize("value, message", [(np.nan, "finite"), (-0.5, "nonnegative")])
    def test_rejects_a_bad_neighbor_distance(self, value, message):
        d = four_node_matrix()
        t = nearest_neighbor_sets(d, 1)  # [[1], [0], [3], [2]]
        d[2, 3] = value  # read as d(2, T_2); d(3, 2) stays valid
        with pytest.raises(ValueError, match=f"distance matrix entries must be {message}"):
            build_adjacency(d, t)

    def test_sparse_with_underflowed_weights_dropped(self):
        d = gapped_block_matrix(np.random.default_rng(5), [3, 3])
        a = build_adjacency(d, nearest_neighbor_sets(d, 3))
        assert isinstance(a, csr_array)
        assert a.nnz == 12  # both blocks complete; every cross-block weight is 0
        assert np.all(a.data > 0.0)


class TestNormalizedLaplacian:
    def test_connected_graph_diag_is_one(self):
        d = four_node_matrix()
        lap = normalized_laplacian(build_adjacency(d, nearest_neighbor_sets(d, 2))).toarray()
        np.testing.assert_allclose(np.diag(lap), np.ones(4))
        np.testing.assert_allclose(lap, lap.T, atol=1e-15)

    def test_eigenvalue_range(self):
        gen = np.random.default_rng(14)
        d, _ = separated_block_matrix(gen, [5, 6])
        lap = normalized_laplacian(build_adjacency(d, nearest_neighbor_sets(d, 3)))
        w = eig_symmetric(lap).eigenvalues
        assert w.min() >= -1e-9
        assert w.max() <= 2.0 + 1e-9

    def test_zero_eigenvalues_count_components(self):
        # block-diagonal graph with 2 components + 1 isolated node = 3 zeros
        a = np.zeros((5, 5))
        a[0, 1] = a[1, 0] = 1.0
        a[2, 3] = a[3, 2] = 0.5
        lap = normalized_laplacian(a)
        np.testing.assert_array_equal(lap.toarray()[4], np.zeros(5))
        w = eig_symmetric(lap).eigenvalues
        assert int(np.sum(np.abs(w) < 1e-9)) == 3

    def test_dense_and_sparse_input_agree(self):
        gen = np.random.default_rng(15)
        d, _ = separated_block_matrix(gen, [5, 6])
        a = build_adjacency(d, nearest_neighbor_sets(d, 3))
        np.testing.assert_array_equal(normalized_laplacian(a.toarray()).toarray(), normalized_laplacian(a).toarray())

    def test_rejects_bad_adjacency(self):
        with pytest.raises(ValueError):
            normalized_laplacian([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError):
            normalized_laplacian(csr_array(np.array([[0.0, 1.0], [0.0, 0.0]])))
        with pytest.raises(ValueError):
            normalized_laplacian([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            normalized_laplacian(np.ones((2, 3)))


class TestLaplacianSpectrum:
    @PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1),
        # block size 1 is an isolated node; size 2 is left out because a
        # two-node component repeats the eigenvalue 2, which a Krylov solver
        # can miss and which only graphs far below the dense cutoff reach
        sizes=st.lists(st.one_of(st.just(1), st.integers(3, 30)), min_size=1, max_size=12),
        q=st.integers(2, 5),
        count=st.integers(1, 13),
    )
    def test_sparse_matches_dense_oracle(self, seed, sizes, q, count):
        d = gapped_block_matrix(np.random.default_rng(seed), sizes)
        if d.shape[0] <= q:
            return
        a = build_adjacency(d, nearest_neighbor_sets(d, q))
        oracle = dense_eigenvalues(a)
        with solver("sparse"):
            values = laplacian_spectrum(a, count).graph_eigenvalues()
            cap = min(12, d.shape[0])
            estimate = estimate_cluster_count(laplacian_spectrum(a, cap + 1).graph_eigenvalues(), cap)
        np.testing.assert_allclose(values, oracle[: values.size], rtol=0.0, atol=1e-10)
        if int(np.sum(oracle < 1e-9)) <= 12:
            # more zeros than the cap would leave only rounding noise to compare
            assert estimate == estimate_cluster_count(oracle, cap)

    def test_arpack_above_the_dense_cutoff_on_two_node_components(self, monkeypatch):
        # 150 two-node components: eigenvalue 0 and eigenvalue 2 each 150 times,
        # on more nodes than DENSE_EIGH_MAX_N, so the ten 2s come from ARPACK
        calls = []
        eigsh = numerics.eigsh

        def counted(*args, **kwargs):
            calls.append(kwargs["k"])
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(numerics, "eigsh", counted)
        n_pairs = 150
        weights = np.random.default_rng(7).uniform(0.1, 2.0, n_pairs)
        first = 2 * np.arange(n_pairs)
        a = csr_array((np.concatenate([weights, weights]), (np.concatenate([first, first + 1]),
                                                            np.concatenate([first + 1, first]))), shape=(300, 300))
        assert a.shape[0] > numerics.DENSE_EIGH_MAX_N
        spectrum = laplacian_spectrum(a, 160)
        np.testing.assert_array_equal(spectrum.core, np.arange(300))
        np.testing.assert_allclose(spectrum.eigenvalues, dense_eigenvalues(a)[:160], rtol=0.0, atol=1e-12)
        v, values = spectrum.eigenvectors, spectrum.eigenvalues
        assert np.abs(normalized_laplacian(a) @ v - v * values).max() <= 1e-12
        assert np.abs(v.T @ v - np.eye(160)).max() <= 1e-12
        assert calls == [10]

    def test_six_components_regression(self):
        # plain ARPACK on this Laplacian finds 4 of the 6 zero eigenvalues
        d = gapped_block_matrix(np.random.default_rng(606), [20] * 6, gap=5.0)
        a = build_adjacency(d, nearest_neighbor_sets(d, 5))
        with solver("sparse"):
            spectrum = laplacian_spectrum(a, 8)
        np.testing.assert_allclose(spectrum.eigenvalues, dense_eigenvalues(a)[:8], rtol=0.0, atol=1e-10)
        np.testing.assert_array_equal(spectrum.eigenvalues[:6], np.zeros(6))

    def test_zero_space_is_canonical(self):
        # one unit sqrt-degree vector per component, in order of lowest node
        a = np.zeros((6, 6))
        a[0, 3] = a[3, 0] = 1.0
        a[3, 5] = a[5, 3] = 3.0
        a[1, 2] = a[2, 1] = 0.5
        spectrum = laplacian_spectrum(a, 2)
        np.testing.assert_array_equal(spectrum.core, [0, 1, 2, 3, 5])
        expected = np.zeros((5, 2))
        expected[[0, 3, 4], 0] = np.sqrt([1.0, 4.0, 3.0] / np.float64(8.0))
        expected[[1, 2], 1] = np.sqrt(0.5)
        np.testing.assert_allclose(spectrum.eigenvectors, expected, atol=1e-15)
        np.testing.assert_array_equal(spectrum.graph_eigenvalues(), np.zeros(3))

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            laplacian_spectrum(np.ones((3, 3)) - np.eye(3), 0)

    def test_checks_the_adjacency_once(self, monkeypatch):
        calls = []
        check = nnpc._as_adjacency

        def counted(adjacency):
            calls.append(adjacency.shape)
            return check(adjacency)

        monkeypatch.setattr(nnpc, "_as_adjacency", counted)
        # two 4-node components and an isolated node: the Laplacian of the other 8 nodes is built
        a = np.zeros((9, 9))
        a[:4, :4] = a[4:8, 4:8] = 1.0 - np.eye(4)
        spectrum = laplacian_spectrum(a, 4)
        np.testing.assert_allclose(spectrum.graph_eigenvalues(), [0.0, 0.0, 0.0, 4.0 / 3.0, 4.0 / 3.0], rtol=0.0, atol=1e-12)
        assert calls == [(9, 9)]
        normalized_laplacian(a)
        assert calls == [(9, 9)] * 2  # the public function keeps its own check

    def test_callers_reject_a_short_spectrum(self):
        spectrum = laplacian_spectrum(np.ones((4, 4)) - np.eye(4), 2)
        with pytest.raises(ValueError):
            spectral_cluster(spectrum, 3)
        with pytest.raises(ValueError):
            estimate_cluster_count(spectrum.graph_eigenvalues(), 3)


class TestSpectralCluster:
    @PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_blocks=st.integers(2, 5),
        size=st.integers(4, 40),
        connected=st.booleans(),
    )
    def test_labels_equal_dense_oracle(self, seed, n_blocks, size, connected):
        d, truth = separated_block_matrix(np.random.default_rng(seed), [size] * n_blocks)
        # q = size - 1 leaves one component per block; q = size links them
        a = build_adjacency(d, nearest_neighbor_sets(d, size if connected else size - 1))
        with solver("dense"):
            dense = spectral_cluster(laplacian_spectrum(a, n_blocks), n_blocks, rng=RngStream(3))
        with solver("sparse"):
            sparse = spectral_cluster(laplacian_spectrum(a, n_blocks), n_blocks, rng=RngStream(3))
        np.testing.assert_array_equal(sparse, dense)
        assert sparse[0] == 0
        assert clustering_error(sparse, truth) == 0.0

    def test_clusters_named_by_lowest_index(self):
        gen = np.random.default_rng(12)
        d, truth = separated_block_matrix(gen, [4, 4, 4])
        perm = gen.permutation(12)
        d = d[np.ix_(perm, perm)]
        labels = spectral_cluster(laplacian_spectrum(build_adjacency(d, nearest_neighbor_sets(d, 3)), 3), 3)
        _, first = np.unique(labels, return_index=True)
        np.testing.assert_array_equal(first, np.sort(first))
        assert labels[0] == 0
        assert clustering_error(labels, truth[perm]) == 0.0

    def test_exact_on_block_graphs(self):
        gen = np.random.default_rng(31)
        for _ in range(20):
            size = int(gen.integers(3, 6))
            n_blocks = int(gen.integers(2, 4))
            d, truth = separated_block_matrix(gen, [size] * n_blocks)
            a = build_adjacency(d, nearest_neighbor_sets(d, size - 1))
            labels = spectral_cluster(laplacian_spectrum(a, n_blocks), n_blocks, rng=RngStream(0))
            assert clustering_error(labels, truth) == 0.0

    def test_partition_is_order_independent(self):
        gen = np.random.default_rng(8)
        d, _ = separated_block_matrix(gen, [4, 4, 4])
        a = build_adjacency(d, nearest_neighbor_sets(d, 3))
        base = spectral_cluster(laplacian_spectrum(a, 3), 3, rng=RngStream(1))
        perm = gen.permutation(12)
        shuffled = spectral_cluster(laplacian_spectrum(a[np.ix_(perm, perm)], 3), 3, rng=RngStream(1))
        assert clustering_error(shuffled, base[perm]) == 0.0

    def test_deterministic(self):
        gen = np.random.default_rng(4)
        d, _ = separated_block_matrix(gen, [5, 5])
        a = build_adjacency(d, nearest_neighbor_sets(d, 2))
        np.testing.assert_array_equal(
            spectral_cluster(laplacian_spectrum(a, 2), 2, rng=RngStream(2)),
            spectral_cluster(laplacian_spectrum(a, 2), 2, rng=RngStream(2)),
        )

    def test_single_cluster(self):
        d = four_node_matrix()
        a = build_adjacency(d, nearest_neighbor_sets(d, 2))
        np.testing.assert_array_equal(spectral_cluster(laplacian_spectrum(a, 1), 1), np.zeros(4, dtype=int))

    def test_isolated_node_gets_own_label(self):
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = 1.0
        with pytest.warns(RuntimeWarning):
            labels = spectral_cluster(laplacian_spectrum(a, 2), 2)
        np.testing.assert_array_equal(labels, [0, 0, 1])

    def test_isolated_first_node_is_named_zero(self):
        a = np.zeros((3, 3))
        a[1, 2] = a[2, 1] = 1.0
        with pytest.warns(RuntimeWarning):
            labels = spectral_cluster(laplacian_spectrum(a, 2), 2)
        np.testing.assert_array_equal(labels, [0, 1, 1])

    def test_isolated_nodes_beyond_budget_need_distances(self):
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = 1.0
        with pytest.warns(RuntimeWarning):
            with pytest.raises(ValueError):
                spectral_cluster(laplacian_spectrum(a, 2), 2)

    def test_isolated_nodes_attach_to_nearest(self):
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = 1.0
        d = np.zeros((4, 4))
        d[0, 1] = d[1, 0] = 0.3
        d[0, 2] = d[2, 0] = 0.1
        d[1, 2] = d[2, 1] = 0.8
        d[0, 3] = d[3, 0] = 0.8
        d[1, 3] = d[3, 1] = 0.1
        d[2, 3] = d[3, 2] = 0.9
        with pytest.warns(RuntimeWarning):
            labels = spectral_cluster(laplacian_spectrum(a, 2), 2, dist=lambda index: d[index])
        np.testing.assert_array_equal(labels, [0, 1, 0, 1])

    def test_core_smaller_than_the_cluster_count(self):
        """Core nodes 1 and 3 take two clusters and isolated node 0 the third; nodes 2 and 4 join their nearest."""
        a = np.zeros((5, 5))
        a[1, 3] = a[3, 1] = 1.0
        position = np.array([0.0, 1.0, 1.8, 3.0, 4.0])
        d = np.abs(np.subtract.outer(position, position))
        with pytest.warns(RuntimeWarning, match="3 isolated node"):
            labels = spectral_cluster(laplacian_spectrum(a, 2), 3, dist=lambda index: d[index])
        np.testing.assert_array_equal(labels, [0, 1, 1, 2, 2])

    def test_fully_isolated_graph(self):
        d = four_node_matrix()
        with pytest.warns(RuntimeWarning):
            labels = spectral_cluster(laplacian_spectrum(np.zeros((4, 4)), 2), 2, dist=lambda index: d[index])
        assert set(labels) == {0, 1}
        assert labels[0] == 0

    def test_rejects_bad_cluster_count(self):
        spectrum = laplacian_spectrum(np.ones((3, 3)) - np.eye(3), 3)
        with pytest.raises(ValueError):
            spectral_cluster(spectrum, 0)
        with pytest.raises(ValueError):
            spectral_cluster(spectrum, 4)


class TestEstimateClusterCount:
    def test_complete_graph_gives_one(self):
        a = np.ones((6, 6)) - np.eye(6)
        assert estimate_cluster_count(laplacian_spectrum(a, 6).graph_eigenvalues(), 5) == 1

    def test_counts_separated_blocks(self):
        gen = np.random.default_rng(23)
        for n_blocks in (2, 3, 4):
            d, _ = separated_block_matrix(gen, [4] * n_blocks)
            a = build_adjacency(d, nearest_neighbor_sets(d, 3))
            assert estimate_cluster_count(laplacian_spectrum(a, 9).graph_eigenvalues(), 8) == n_blocks

    def test_cap_is_respected(self):
        gen = np.random.default_rng(6)
        d, _ = separated_block_matrix(gen, [4, 4, 4, 4])
        a = build_adjacency(d, nearest_neighbor_sets(d, 3))
        assert estimate_cluster_count(laplacian_spectrum(a, 3).graph_eigenvalues(), 2) <= 2

    def test_single_node(self):
        assert estimate_cluster_count(laplacian_spectrum(np.zeros((1, 1)), 2).graph_eigenvalues(), 1) == 1

    def test_rejects_bad_cap(self):
        eigenvalues = laplacian_spectrum(np.ones((3, 3)) - np.eye(3), 3).graph_eigenvalues()
        with pytest.raises(ValueError):
            estimate_cluster_count(eigenvalues, 0)
        with pytest.raises(ValueError):
            estimate_cluster_count(eigenvalues, 4)


class TestClusterFromDistances:
    def test_known_count(self):
        gen = np.random.default_rng(44)
        d, truth = separated_block_matrix(gen, [4, 4])
        result = nnpc_from_distances(d, 3, 2, rng=RngStream(0))
        assert isinstance(result, NnpcResult)
        assert result.n_clusters == 2
        assert clustering_error(result.labels, truth) == 0.0

    def test_estimated_count(self):
        gen = np.random.default_rng(45)
        d, truth = separated_block_matrix(gen, [5, 5, 5])
        result = nnpc_from_distances(d, 4, None, rng=RngStream(0))
        assert result.n_clusters == 3
        assert clustering_error(result.labels, truth) == 0.0

    def test_one_eigensolve_per_call(self, monkeypatch):
        calls = []

        def counted(matrix, count=None):
            calls.append(count)
            return eig_symmetric(matrix, count)

        monkeypatch.setattr("psdcluster.nnpc.eig_symmetric", counted)
        d = gapped_block_matrix(np.random.default_rng(46), [30, 30], gap=5.0)
        assert nnpc_from_distances(d, 5, None).n_clusters == 2
        assert calls == [11 - 2]  # max_clusters + 1 pairs, the 2 zeros supplied

    def test_one_validation_per_call(self, monkeypatch):
        calls = []

        def counted(dist):
            calls.append(np.shape(dist))
            return validate_distance_matrix(dist)

        monkeypatch.setattr("psdcluster.nnpc.validate_distance_matrix", counted)
        d, _ = separated_block_matrix(np.random.default_rng(47), [5, 5])
        assert nnpc_from_distances(d, 4, None).n_clusters == 2
        assert calls == [(10, 10)]

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), q=st.integers(1, 6), n_blocks=st.integers(2, 5),
           estimate=st.booleans(), data=st.data())
    def test_permutation_equivariant(self, seed, q, n_blocks, estimate, data):
        """Permuting the input permutes the labels, up to renaming.

        Only cases where the partition is decided by the data alone are drawn:
        - Blocks hold q + 1 to 2q + 1 points, so every q-NN set stays inside
          its block (within-block distances are below 0.2, cross-block ones
          above 0.5) and links every node to at least half of the rest of
          its block. Each block is then one connected component, the
          embedding puts each component on one point, and k-means finds the
          components whatever its restarts draw. With more components than
          clusters, the restarts would choose which ones merge.
        - No row has a tie between its q-th and (q+1)-th distance. There the
          lower-index tie-break picks the q-NN set, and it is not
          permutation-equivariant.
        - With an estimated count, the eigengap at the block count beats
          every other gap by more than rounding, so the two runs cannot
          estimate different counts.
        """
        sizes = data.draw(st.lists(st.integers(q + 1, 2 * q + 1), min_size=n_blocks, max_size=n_blocks))
        gen = np.random.default_rng(seed)
        d, truth = separated_block_matrix(gen, sizes)
        n = d.shape[0]
        ranked = np.sort(d + np.diag(np.full(n, np.inf)), axis=1)
        assume(np.all(ranked[:, q - 1] < ranked[:, q]))
        a = build_adjacency(d, nearest_neighbor_sets(d, q))
        assert connected_components(a, directed=False)[0] == n_blocks
        if estimate:
            max_clusters = min(10, n)
            gaps = np.diff(laplacian_spectrum(a, max_clusters + 1).graph_eigenvalues()[: max_clusters + 1])
            assume(gaps[n_blocks - 1] > np.delete(gaps, n_blocks - 1).max(initial=0.0) + 1e-9)
        n_clusters = None if estimate else n_blocks
        perm = gen.permutation(n)
        base = nnpc_from_distances(d, q, n_clusters, rng=RngStream(0))
        shuffled = nnpc_from_distances(d[np.ix_(perm, perm)], q, n_clusters, rng=RngStream(1))
        assert base.n_clusters == shuffled.n_clusters == n_blocks
        assert clustering_error(base.labels, truth) == 0.0
        np.testing.assert_array_equal(shuffled.labels, relabel_first_seen(base.labels[perm], n_blocks))

    def test_rejects_an_asymmetric_matrix(self):
        d, _ = separated_block_matrix(np.random.default_rng(48), [4, 4])
        d[0, 5] += 0.1
        with pytest.raises(ValueError, match="symmetric"):
            nnpc_from_distances(d, 3, 2)


def both_paths(values, q, n_clusters, seed):
    """(labels, count, warnings) of nnpc_from_spectra and of nnpc_from_distances on the same rows."""
    outcomes = []
    for run in (
        lambda: nnpc_from_spectra(half_spectrum_rows(values), q, n_clusters, rng=RngStream(seed)),
        lambda: nnpc_from_distances(distance_matrix(values), q, n_clusters, rng=RngStream(seed)),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run()
        outcomes.append((result.labels, result.n_clusters, [str(w.message) for w in caught]))
    return outcomes


class TestFromSpectra:
    """Matrix-free nnpc equals nnpc_from_distances on the matrix of the same rows."""

    @settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @given(
        n_groups=st.integers(1, 4),
        size=st.one_of(st.integers(1, 30), st.integers(60, 100)),
        bins=st.integers(2, 6),
        spread=st.sampled_from([0.0, 0.3, 3.0]),
        estimate=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_matches_the_dense_path(self, n_groups, size, bins, spread, estimate, seed, data):
        gen = np.random.default_rng(seed)
        n = n_groups * size
        assume(n >= 2)
        q = data.draw(st.integers(1, min(n - 1, 12)))
        n_clusters = None if estimate else data.draw(st.integers(1, min(n, 5)))
        centers = gen.integers(0, 4, (n_groups, bins)).astype(float)
        values = np.repeat(centers, size, axis=0) + spread * gen.random((n, bins)).round(1)
        blocked, dense = both_paths(values, q, n_clusters, seed)
        np.testing.assert_array_equal(blocked[0], dense[0])
        assert blocked[1:] == dense[1:]

    @settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @given(
        core=st.one_of(st.just(0), st.integers(2, 5), st.integers(6, 40)),
        outliers=st.integers(2, 6),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_isolated_nodes_beyond_the_budget(self, core, outliers, seed, data):
        """Outliers 1e6 apart have underflowed edge weights, so they are isolated nodes
        that outnumber the clusters and are placed by their distance rows; a core of 2-5
        rows can be smaller than the cluster count."""
        gen = np.random.default_rng(seed)
        q = data.draw(st.integers(1, max(1, min(core - 2, 5))))
        n_clusters = data.draw(st.integers(1, outliers))
        far = 1e6 * (1.0 + gen.permutation(outliers))[:, None] * gen.random((outliers, 4))
        blocked, dense = both_paths(np.vstack([gen.random((core, 4)), far]), q, n_clusters, seed)
        np.testing.assert_array_equal(blocked[0], dense[0])
        assert blocked[1:] == dense[1:] == (n_clusters, [f"{outliers} isolated node(s) in the neighborhood graph"])


def test_end_to_end_on_synthetic_data():
    models = [benchmark_models()[0], benchmark_models()[2]]
    data = make_benchmark_dataset(models, 10, 512, 0.0, RngStream(11))
    result = nnpc_cluster(data.observations, 3, 2, rng=RngStream(12))
    assert clustering_error(result.labels, data.labels) == 0.0


def test_end_to_end_with_estimated_count():
    models = [benchmark_models()[0], benchmark_models()[2]]
    data = make_benchmark_dataset(models, 10, 512, 0.0, RngStream(11))
    result = nnpc_cluster(data.observations, 3, rng=RngStream(12))
    assert result.n_clusters == 2
    assert clustering_error(result.labels, data.labels) == 0.0
