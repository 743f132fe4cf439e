"""Clustering score tests.

Oracles: a hand-filled confusion matrix, the frozen 4-point example (error
0.25, entropy score 0.5), and invariance under random label bijections.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdcluster.metrics import clustering_error, confusion_entropy, confusion_matrix


def relabel(labels, gen):
    """Apply a random bijection to the label values."""
    values = np.unique(labels)
    perm = gen.permutation(len(values))
    mapping = dict(zip(values.tolist(), values[perm].tolist()))
    return np.array([mapping[v] for v in labels])


class TestConfusionMatrix:
    def test_hand_case(self):
        counts = confusion_matrix([1, 2, 2, 2], [1, 1, 2, 2])
        np.testing.assert_array_equal(counts, [[1, 1], [0, 2]])

    def test_exact_match_is_diagonal(self):
        counts = confusion_matrix([0, 1, 2, 0], [0, 1, 2, 0])
        np.testing.assert_array_equal(counts, np.diag([2, 1, 1]))

    def test_arbitrary_label_values(self):
        counts = confusion_matrix(["x", "y"], [10, 20])
        np.testing.assert_array_equal(counts, np.eye(2))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 1], [0])
        with pytest.raises(ValueError):
            confusion_matrix([], [])


class TestClusteringError:
    def test_frozen_example(self):
        assert clustering_error([1, 2, 2, 2], [1, 1, 2, 2]) == 0.25

    def test_zero_on_exact_and_renamed(self):
        truth = [0, 0, 1, 1, 2]
        assert clustering_error(truth, truth) == 0.0
        assert clustering_error([2, 2, 0, 0, 1], truth) == 0.0

    def test_range(self):
        gen = np.random.default_rng(3)
        for _ in range(100):
            n = int(gen.integers(2, 30))
            truth = gen.integers(0, 4, size=n)
            predicted = gen.integers(0, 4, size=n)
            ce = clustering_error(predicted, truth)
            assert 0.0 <= ce <= 1.0

    def test_worst_case_balanced_two(self):
        # any 2-labeling of a balanced pair matches at least half
        gen = np.random.default_rng(5)
        truth = np.repeat([0, 1], 10)
        for _ in range(50):
            predicted = gen.integers(0, 2, size=20)
            assert clustering_error(predicted, truth) <= 0.5


class TestConfusionEntropy:
    def test_frozen_example(self):
        assert confusion_entropy([1, 2, 2, 2], [1, 1, 2, 2]) == 0.5

    def test_zero_on_exact_recovery(self):
        truth = [0, 1, 2, 0, 1, 2]
        assert confusion_entropy(truth, truth) == 0.0
        assert confusion_entropy([1, 2, 0, 1, 2, 0], truth) == 0.0

    def test_single_cluster_scores_zero(self):
        assert confusion_entropy([0, 0, 0], [0, 0, 0]) == 0.0

    def test_uniform_confusion_scores_one(self):
        # each true cluster spreads evenly over both predicted labels
        truth = [0, 0, 1, 1]
        predicted = [0, 1, 0, 1]
        assert confusion_entropy(predicted, truth) == pytest.approx(1.0)

    def test_range(self):
        gen = np.random.default_rng(7)
        for _ in range(100):
            n = int(gen.integers(2, 30))
            truth = gen.integers(0, 4, size=n)
            predicted = gen.integers(0, 4, size=n)
            s = confusion_entropy(predicted, truth)
            assert 0.0 <= s <= 1.0 + 1e-12


class TestScoreRelations:
    def test_zero_error_implies_zero_entropy(self):
        gen = np.random.default_rng(11)
        for _ in range(100):
            n = int(gen.integers(2, 25))
            truth = gen.integers(0, 4, size=n)
            predicted = relabel(truth, gen)
            assert clustering_error(predicted, truth) == 0.0
            assert confusion_entropy(predicted, truth) == 0.0

    def test_zero_entropy_implies_zero_error_for_full_label_use(self):
        # when the prediction uses as many labels as the truth, deterministic
        # confusion rows force a bijection
        gen = np.random.default_rng(13)
        checked = 0
        for _ in range(500):
            n = int(gen.integers(4, 25))
            truth = gen.integers(0, 3, size=n)
            predicted = gen.integers(0, 3, size=n)
            if len(np.unique(predicted)) != len(np.unique(truth)):
                continue
            if confusion_entropy(predicted, truth) == 0.0:
                checked += 1
                assert clustering_error(predicted, truth) == 0.0
        assert checked > 0

    def test_collapsed_prediction_can_zero_entropy_but_not_error(self):
        # an all-same prediction leaves every confusion row deterministic,
        # so the entropy score is 0 while half the points are misclustered
        truth = [0, 0, 1, 1]
        predicted = [0, 0, 0, 0]
        assert confusion_entropy(predicted, truth) == 0.0
        assert clustering_error(predicted, truth) == 0.5


class TestPermutationInvariance:
    def test_scores_ignore_label_names(self):
        gen = np.random.default_rng(17)
        for _ in range(200):
            n = int(gen.integers(2, 30))
            k = int(gen.integers(1, 6))
            truth = gen.integers(0, k, size=n)
            predicted = gen.integers(0, k, size=n)
            ce = clustering_error(predicted, truth)
            s = confusion_entropy(predicted, truth)
            shuffled = relabel(predicted, gen)
            assert clustering_error(shuffled, truth) == ce
            assert confusion_entropy(shuffled, truth) == pytest.approx(s, abs=1e-12)
            # renaming the truth labels leaves the scores alone as well
            renamed_truth = relabel(truth, gen)
            assert clustering_error(predicted, renamed_truth) == ce
            assert confusion_entropy(predicted, renamed_truth) == pytest.approx(s, abs=1e-12)

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(
        pairs=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=40),
        predicted_names=st.permutations(range(-3, 3)),
        truth_names=st.permutations(["a", "b", "c", "d", "e", "f"]),
    )
    def test_renaming_labels_is_a_property_of_both_scores(self, pairs, predicted_names, truth_names):
        predicted = np.array([p for p, _ in pairs])
        truth = np.array([t for _, t in pairs])
        renamed_predicted = np.array([predicted_names[p] for p in predicted])
        renamed_truth = np.array([truth_names[t] for t in truth])
        ce = clustering_error(predicted, truth)
        s = confusion_entropy(predicted, truth)
        assert clustering_error(renamed_predicted, renamed_truth) == ce
        assert confusion_entropy(renamed_predicted, renamed_truth) == pytest.approx(s, abs=1e-12)
