"""Unit tests for the deterministic KNN substrate."""

import numpy as np
import pytest

from repro.core.knn import KNNClassifier, majority_label, top_k_rows


class TestMajorityLabel:
    def test_clear_majority(self):
        assert majority_label([1, 1, 0]) == 1

    def test_tie_breaks_to_smallest_label(self):
        assert majority_label([0, 1]) == 0
        assert majority_label([2, 1]) == 1

    def test_single_vote(self):
        assert majority_label([3]) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            majority_label([])


class TestTopKRows:
    def test_orders_by_similarity_descending(self):
        sims = np.array([0.1, 0.9, 0.5])
        assert top_k_rows(sims, 2).tolist() == [1, 2]

    def test_tie_prefers_smaller_row_index(self):
        sims = np.array([0.5, 0.5, 0.5])
        assert top_k_rows(sims, 2).tolist() == [0, 1]

    def test_k_equals_n(self):
        sims = np.array([0.3, 0.1, 0.2])
        assert top_k_rows(sims, 3).tolist() == [0, 2, 1]

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            top_k_rows(np.array([1.0]), 2)


class TestKNNClassifier:
    def test_1nn_predicts_nearest(self):
        clf = KNNClassifier(k=1).fit(np.array([[0.0], [10.0]]), [0, 1])
        assert clf.predict_one(np.array([1.0])) == 0
        assert clf.predict_one(np.array([9.0])) == 1

    def test_3nn_majority(self):
        X = np.array([[0.0], [0.5], [1.0], [10.0]])
        clf = KNNClassifier(k=3).fit(X, [0, 0, 1, 1])
        assert clf.predict_one(np.array([0.2])) == 0

    def test_predict_matrix(self):
        X = np.array([[0.0], [10.0]])
        clf = KNNClassifier(k=1).fit(X, [0, 1])
        preds = clf.predict(np.array([[1.0], [9.0]]))
        assert preds.tolist() == [0, 1]

    def test_accuracy(self):
        X = np.array([[0.0], [10.0]])
        clf = KNNClassifier(k=1).fit(X, [0, 1])
        assert clf.accuracy(np.array([[1.0], [9.0]]), [0, 0]) == 0.5

    def test_requires_fit(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            KNNClassifier(k=1).predict_one(np.zeros(1))

    def test_k_larger_than_train_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            KNNClassifier(k=5).fit(np.zeros((3, 1)), [0, 1, 0])

    def test_neighbors_ordering(self):
        X = np.array([[0.0], [1.0], [2.0]])
        clf = KNNClassifier(k=2).fit(X, [0, 1, 0])
        assert clf.neighbors_one(np.array([0.1])).tolist() == [0, 1]

    def test_deterministic_tie_break_between_equidistant_rows(self):
        X = np.array([[1.0], [-1.0], [5.0]])
        clf = KNNClassifier(k=1).fit(X, [0, 1, 0])
        # rows 0 and 1 are equidistant from 0; smaller index wins
        assert clf.predict_one(np.array([0.0])) == 0

    def test_label_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            KNNClassifier(k=1).fit(np.zeros((2, 1)), [0, -2])

    def test_k_validation(self):
        with pytest.raises(ValueError):
            KNNClassifier(k=0)

    def test_rbf_kernel_same_predictions_as_euclidean(self):
        rng = np.random.default_rng(5)
        X, y = rng.normal(size=(20, 3)), rng.integers(0, 2, size=20)
        T = rng.normal(size=(10, 3))
        a = KNNClassifier(k=3, kernel="euclidean").fit(X, y).predict(T)
        b = KNNClassifier(k=3, kernel="rbf").fit(X, y).predict(T)
        assert np.array_equal(a, b)


def predict_loop(clf: KNNClassifier, T: np.ndarray) -> np.ndarray:
    """The per-point reference :meth:`KNNClassifier.predict` must equal."""
    return np.array([clf.predict_one(t) for t in T], dtype=np.int64)


class TestVectorisedPredict:
    @pytest.mark.parametrize("kernel", ["euclidean", "rbf", "linear", "cosine"])
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_per_point_loop(self, kernel, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 40))
        n_labels = int(rng.integers(2, 5))
        # Coarse integer grids make similarity and vote ties common;
        # repeated rows make exact duplicates.
        X = rng.integers(-2, 3, size=(n, int(rng.integers(1, 4)))).astype(float)
        X[n // 2 :] = X[: n - n // 2]
        y = rng.integers(0, n_labels, size=n)
        T = rng.integers(-2, 3, size=(25, X.shape[1])).astype(float)
        T[:3] = 0.0  # a zero test vector: every cosine similarity is 0
        for k in {1, 2, min(3, n), n}:
            clf = KNNClassifier(k=k, kernel=kernel).fit(X, y)
            assert np.array_equal(clf.predict(T), predict_loop(clf, T)), k

    def test_blocks_agree_with_one_block(self, monkeypatch):
        import repro.core.knn as knn

        rng = np.random.default_rng(9)
        X, y = rng.normal(size=(30, 4)), rng.integers(0, 3, size=30)
        T = rng.normal(size=(50, 4))
        clf = KNNClassifier(k=5).fit(X, y)
        whole = clf.predict(T)
        monkeypatch.setattr(knn, "PREDICT_BLOCK_BYTES", 30 * 4 * 8 * 3)
        assert np.array_equal(clf.predict(T), whole)
        assert np.array_equal(whole, predict_loop(clf, T))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflows
    @pytest.mark.parametrize("kernel", ["euclidean", "rbf", "linear", "cosine"])
    def test_a_non_finite_similarity_takes_the_reference_order(self, kernel):
        # Finite inputs whose similarities overflow: +-inf, and NaN (inf/inf)
        # for the cosine kernel.
        X = np.array([[1e200, 1.0], [1.0, 0.0], [-1e200, 2.0], [2.0, 1.0], [0.0, 0.0]])
        y = np.array([1, 0, 1, 0, 1])
        T = np.array([[1e200, 0.0], [0.5, 0.5], [-1e200, -1e200], [3.0, 3.0]])
        for k in (1, 2, 3, 5):
            clf = KNNClassifier(k=k, kernel=kernel).fit(X, y)
            assert np.array_equal(clf.predict(T), predict_loop(clf, T)), k
