"""Numerical kernel tests.

Oracles: closed-form eigen cases evaluated by hand, exhaustive
label-assignment search for k-means, and brute-force permutation search for
the assignment problem.
"""

from itertools import permutations, product

import numpy as np
import pytest

from scipy.sparse import csr_array, diags_array
from scipy.sparse.linalg import aslinearoperator

from psdcluster import numerics
from psdcluster.numerics import (
    RngStream,
    eig_symmetric,
    kmeans,
    min_cost_assignment,
)


def wcss_of(points, labels, k):
    total = 0.0
    for j in range(k):
        members = points[labels == j]
        if len(members):
            total += ((members - members.mean(axis=0)) ** 2).sum()
    return total


def best_wcss_exhaustive(points, k):
    """Minimum within-cluster sum of squares over all surjective labelings."""
    n = len(points)
    best = np.inf
    for assignment in product(range(k), repeat=n):
        labels = np.array(assignment)
        if len(np.unique(labels)) != k:
            continue
        best = min(best, wcss_of(points, labels, k))
    return best


class TestRngStream:
    def test_same_seed_same_draws(self):
        a = RngStream(123, 4).generator().random(10)
        b = RngStream(123, 4).generator().random(10)
        np.testing.assert_array_equal(a, b)

    def test_streams_are_distinct(self):
        a = RngStream(123, 0).generator().random(10)
        b = RngStream(123, 1).generator().random(10)
        assert not np.array_equal(a, b)

    def test_seeds_are_distinct(self):
        a = RngStream(1).generator().random(10)
        b = RngStream(2).generator().random(10)
        assert not np.array_equal(a, b)

    def test_generator_restarts_fresh(self):
        stream = RngStream(7, 2)
        first = stream.generator().random(5)
        second = stream.generator().random(5)
        np.testing.assert_array_equal(first, second)


class TestEigSymmetric:
    def test_two_by_two_hand_case(self):
        # [[1,-1],[-1,1]] has eigenvalues 0 and 2
        out = eig_symmetric([[1.0, -1.0], [-1.0, 1.0]])
        np.testing.assert_allclose(out.eigenvalues, [0.0, 2.0], atol=1e-12)

    def test_diagonal_matrix(self):
        out = eig_symmetric(np.diag([3.0, -1.0, 2.0]))
        np.testing.assert_allclose(out.eigenvalues, [-1.0, 2.0, 3.0], atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        gen = np.random.default_rng(5)
        for _ in range(10):
            n = int(gen.integers(2, 12))
            base = gen.standard_normal((n, n))
            m = (base + base.T) / 2
            out = eig_symmetric(m)
            v, w = out.eigenvectors, out.eigenvalues
            assert np.all(np.diff(w) >= -1e-12)
            np.testing.assert_allclose(v.T @ v, np.eye(n), atol=1e-9)
            np.testing.assert_allclose(v @ np.diag(w) @ v.T, m, atol=1e-9)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            eig_symmetric(np.ones((2, 3)))
        with pytest.raises(ValueError):
            eig_symmetric([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            eig_symmetric(csr_array(np.array([[np.inf, 0.0], [0.0, 1.0]])))
        with pytest.raises(ValueError):
            eig_symmetric(np.eye(3), 0)
        with pytest.raises(ValueError):
            eig_symmetric(np.eye(3), 4)

    @pytest.mark.parametrize("form", ["dense", "sparse", "operator"])
    def test_partial_solve_matches_full(self, form, monkeypatch):
        # a path graph Laplacian plus a random diagonal: distinct eigenvalues
        gen = np.random.default_rng(6)
        n = 300
        m = diags_array([np.full(n - 1, -1.0), 2.0 + gen.uniform(0, 1, n), np.full(n - 1, -1.0)], offsets=[-1, 0, 1])
        full = eig_symmetric(m.toarray())
        matrix = {"dense": m.toarray(), "sparse": m.tocsr(), "operator": aslinearoperator(m)}[form]
        for cutoff in (0, 10**9):  # ARPACK, then LAPACK
            monkeypatch.setattr(numerics, "DENSE_EIGH_MAX_N", cutoff)
            out = eig_symmetric(matrix, 5)
            np.testing.assert_allclose(out.eigenvalues, full.eigenvalues[:5], rtol=0.0, atol=1e-12)
            signs = np.sign((out.eigenvectors * full.eigenvectors[:, :5]).sum(axis=0))
            np.testing.assert_allclose(out.eigenvectors * signs, full.eigenvectors[:, :5], atol=1e-9)

    def test_arpack_is_repeatable(self, monkeypatch):
        monkeypatch.setattr(numerics, "DENSE_EIGH_MAX_N", 0)
        m = diags_array([np.full(99, -1.0), np.full(100, 2.0), np.full(99, -1.0)], offsets=[-1, 0, 1]).tocsr()
        first, second = eig_symmetric(m, 4), eig_symmetric(m, 4)
        np.testing.assert_array_equal(first.eigenvalues, second.eigenvalues)
        np.testing.assert_array_equal(first.eigenvectors, second.eigenvectors)


class TestKmeans:
    def test_separated_blobs(self):
        gen = np.random.default_rng(0)
        a = gen.normal(0.0, 0.05, size=(10, 2))
        b = gen.normal(5.0, 0.05, size=(10, 2))
        labels = kmeans(np.vstack([a, b]), 2)
        assert len(set(labels[:10])) == 1
        assert len(set(labels[10:])) == 1
        assert labels[0] != labels[10]

    def test_k_equals_one_and_n(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        np.testing.assert_array_equal(kmeans(pts, 1), [0, 0, 0])
        assert sorted(kmeans(pts, 3)) == [0, 1, 2]

    def test_matches_exhaustive_partition_search(self):
        gen = np.random.default_rng(99)
        for trial in range(12):
            n = int(gen.integers(4, 8))
            k = int(gen.integers(2, 4))
            pts = gen.standard_normal((n, 2))
            labels = kmeans(pts, k, restarts=20, rng=RngStream(trial))
            ours = wcss_of(pts, labels, k)
            best = best_wcss_exhaustive(pts, k)
            assert ours <= best + 1e-9

    def test_deterministic(self):
        gen = np.random.default_rng(3)
        pts = gen.standard_normal((15, 3))
        first = kmeans(pts, 3, rng=RngStream(1))
        second = kmeans(pts, 3, rng=RngStream(1))
        np.testing.assert_array_equal(first, second)

    def test_order_independent(self):
        # shuffling the points shuffles the labels the same way
        gen = np.random.default_rng(11)
        pts = gen.standard_normal((12, 2))
        perm = gen.permutation(12)
        base = kmeans(pts, 3, rng=RngStream(5))
        shuffled = kmeans(pts[perm], 3, rng=RngStream(5))
        np.testing.assert_array_equal(shuffled, base[perm])

    def test_labels_are_compact(self):
        gen = np.random.default_rng(21)
        pts = gen.standard_normal((9, 2))
        labels = kmeans(pts, 3)
        assert set(labels) == {0, 1, 2}

    def test_duplicate_points(self):
        pts = np.zeros((6, 2))
        labels = kmeans(pts, 2)
        assert set(labels) <= {0, 1}

    def test_rejects_bad_arguments(self):
        pts = np.ones((3, 2))
        with pytest.raises(ValueError):
            kmeans(pts, 0)
        with pytest.raises(ValueError):
            kmeans(pts, 4)
        with pytest.raises(ValueError):
            kmeans(np.array([[np.inf, 0.0]]), 1)
        with pytest.raises(ValueError):
            kmeans(np.empty((0, 2)), 1)


class TestMinCostAssignment:
    def test_hand_case(self):
        # row 0 -> col 1 (1), row 1 -> col 0 (2), row 2 -> col 2 (2): total 5
        cost = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
        perm = min_cost_assignment(cost)
        np.testing.assert_array_equal(perm, [1, 0, 2])
        assert cost[np.arange(3), perm].sum() == 5.0

    def test_identity_on_diagonally_dominant(self):
        cost = np.full((4, 4), 10.0)
        np.fill_diagonal(cost, 0.0)
        np.testing.assert_array_equal(min_cost_assignment(cost), np.arange(4))

    def test_matches_brute_force(self):
        gen = np.random.default_rng(17)
        for _ in range(25):
            n = int(gen.integers(2, 7))
            cost = gen.random((n, n))
            perm = min_cost_assignment(cost)
            assert sorted(perm) == list(range(n))
            ours = cost[np.arange(n), perm].sum()
            best = min(cost[np.arange(n), p].sum() for p in map(list, permutations(range(n))))
            assert ours <= best + 1e-12

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            min_cost_assignment(np.ones((2, 3)))
        with pytest.raises(ValueError):
            min_cost_assignment([[np.inf, 1.0], [1.0, 0.0]])
