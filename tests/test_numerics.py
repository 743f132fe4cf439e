"""Numerical kernel tests.

Oracles: the builtin map for the ordered thread map, closed-form eigen
cases evaluated by hand, exhaustive label-assignment search for k-means,
and brute-force permutation search for the assignment problem.
"""

import gc
import threading
import time
import weakref
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.sparse import csr_array, diags_array
from scipy.sparse.linalg import aslinearoperator

from psdcluster import numerics
from psdcluster.numerics import (
    RngStream,
    eig_symmetric,
    kmeans,
    min_cost_assignment,
    ordered_map,
    relabel_first_seen,
)


class TestOrderedMap:
    """ordered_map gives the builtin map's results, in item order, on any thread count."""

    @pytest.fixture(params=[1, 2, 3])
    def workers(self, request, monkeypatch):
        monkeypatch.setattr(numerics, "worker_count", lambda: request.param)
        return request.param

    @staticmethod
    def uneven(item):
        time.sleep(0.002 * (item % 3))  # later items often finish first
        return item * item

    def test_results_come_in_item_order(self, workers):
        assert list(ordered_map(self.uneven, range(20))) == list(map(self.uneven, range(20)))
        assert list(ordered_map(self.uneven, iter([]))) == []

    def test_each_thread_holds_at_most_one_item(self, workers):
        taken, held = [], []

        def items():
            for item in range(12):
                taken.append(item)
                yield item

        for result in ordered_map(self.uneven, items()):
            held.append(len(taken) - result ** 0.5)  # taken and not yet yielded, this one included
        assert max(held) <= workers

    @pytest.mark.parametrize("threads", [3, 4])
    @pytest.mark.parametrize("size, most", [(numerics.PSD_CHUNK_BYTES // 2 + 1, 2), (2 * numerics.PSD_CHUNK_BYTES, 1)],
                             ids=["over-half-the-budget", "over-the-budget"])
    def test_a_group_holds_one_budget_of_items(self, monkeypatch, threads, size, most):
        monkeypatch.setattr(numerics, "worker_count", lambda: threads)
        taken, held, results = [], [], []

        def items():
            for item in range(12):
                taken.append(item)
                yield item

        for result in ordered_map(self.uneven, items(), size=lambda _: size):
            held.append(len(taken) - result ** 0.5)
            results.append(result)
        assert results == list(map(self.uneven, range(12)))
        assert max(held) == most  # the item that reaches the budget closes its group; an item over it runs alone

    def test_the_first_failure_in_item_order_wins(self, workers):
        ran, results = [], []

        def failing(item):
            ran.append(item)
            if item in (3, 5):
                time.sleep(0.02 if item == 3 else 0.0)  # item 5 fails first
                raise ValueError(f"item {item} failed")
            return item

        with pytest.raises(ValueError, match="^item 3 failed$"):
            for result in ordered_map(failing, range(40)):
                results.append(result)
        assert results == [0, 1, 2]
        assert max(ran) < 3 + 2 * workers  # no item is taken once a failure is seen

    def test_a_failure_to_take_an_item_comes_after_the_items_before_it(self, workers):
        def items():
            yield from range(4)
            raise KeyError("no fifth item")

        results = []
        with pytest.raises(KeyError, match="no fifth item"):
            for result in ordered_map(self.uneven, items()):
                results.append(result)
        assert results == [0, 1, 4, 9]

    @pytest.mark.parametrize("position", [0, 1, 2, 5])
    @pytest.mark.parametrize("stage", ["func", "take"])
    def test_a_failed_map_leaves_nothing_for_the_cycle_collector(self, workers, stage, position):
        """With the collector off, every item is freed once the failure is handled: no reference cycle holds one."""

        class Item:
            def __init__(self, index):
                self.index = index

        refs = []

        def items():
            for index in range(8):
                if stage == "take" and index == position:
                    raise KeyError(f"item {index} failed")
                item = Item(index)
                refs.append(weakref.ref(item))
                yield item

        def failing(item):
            if item.index == position:
                raise ValueError(f"item {item.index} failed")
            return item.index

        gc.disable()
        try:
            try:
                for _ in ordered_map(failing, items()):
                    pass
            except (KeyError, ValueError) as exc:
                raised = exc.args[0]
            alive = [ref().index for ref in refs if ref() is not None]
        finally:
            gc.enable()
        assert raised == f"item {position} failed"
        assert alive == []

    def test_a_nested_map_runs_on_its_items_thread(self, workers):
        def outer(item):
            here = threading.get_ident()
            return all(ident == here for ident in ordered_map(lambda _: threading.get_ident(), range(4)))

        assert all(ordered_map(outer, range(6)))

    def test_closing_early_leaves_no_thread(self, workers):
        before = threading.active_count()
        results = ordered_map(self.uneven, range(20))
        assert next(results) == 0
        results.close()
        assert threading.active_count() == before


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

    def test_lloyd_returns_the_wcss_of_its_labels(self):
        gen = np.random.default_rng(8)
        for _ in range(10):
            pts = gen.standard_normal((20, 2))
            k = int(gen.integers(1, 5))
            labels, wcss = numerics._lloyd(pts, pts[gen.choice(20, k, replace=False)])
            assert wcss == pytest.approx(wcss_of(pts, labels, k), rel=1e-12)


def relabel_by_loop(labels, k):
    """Renumber labels by first appearance, one label at a time."""
    mapping = [-1] * k
    next_id = 0
    for lab in labels:
        if mapping[lab] < 0:
            mapping[lab] = next_id
            next_id += 1
    return np.array([mapping[lab] for lab in labels])


class TestRelabelFirstSeen:
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(data=st.data(), k=st.integers(1, 8))
    def test_matches_the_first_appearance_loop(self, data, k):
        # short vectors leave most of 0..k-1 out; a length-1 vector is drawn often
        labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=3 * k)))
        np.testing.assert_array_equal(relabel_first_seen(labels, k), relabel_by_loop(labels, k))


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
