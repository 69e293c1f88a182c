"""A deterministic K-nearest-neighbour classifier (the paper's substrate, §3).

The classifier follows the textbook recipe the paper states: compute the
similarity of the test example to every training example, take the ``K``
examples with the largest similarity, and return the majority label.

Determinism matters here more than in an ordinary KNN implementation: the CP
engines reason about *every* possible world, so the substrate, the
brute-force oracle and the counting algorithms must all agree on one total
order. We therefore fix the two tie-breaking rules globally:

* **Similarity ties** are broken by row index — the *smaller* row index is
  treated as more similar (the paper: "we can always break a tie by favoring
  a smaller i and j").
* **Vote ties** are broken by label value — the *smallest* label among the
  most-voted wins.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.kernels import Kernel, resolve_kernel
from repro.utils.validation import check_matrix, check_positive_int, check_vector

__all__ = ["KNNClassifier", "majority_label", "top_k_rows"]

#: Budget for the ``(rows, n, d)`` float64 kernel temporary of one block
#: of :meth:`KNNClassifier.predict`.
PREDICT_BLOCK_BYTES = 1 << 20


def majority_label(labels: Sequence[int], tally_size: int | None = None) -> int:
    """Majority vote with the library-wide tie-break (smallest label wins)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("cannot vote over an empty label set")
    counts = np.bincount(labels, minlength=tally_size or 0)
    # argmax returns the first (= smallest) index among maxima.
    return int(np.argmax(counts))


def top_k_rows(similarities: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` most similar rows under the global total order.

    Rows are ranked by ``(similarity desc, row index asc)``; the returned
    indices are sorted from most to least similar.
    """
    similarities = np.asarray(similarities, dtype=np.float64)
    n = similarities.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds the number of rows {n}")
    # lexsort sorts by the last key first; negate similarity for descending
    # order and rely on row index (ascending) to break ties.
    order = np.lexsort((np.arange(n), -similarities))
    return order[:k]


class KNNClassifier:
    """K-nearest-neighbour classification over a *complete* training set.

    Parameters
    ----------
    k:
        Number of neighbours (the paper's evaluation uses ``k=3``).
    kernel:
        Similarity kernel; defaults to negative Euclidean distance.

    Examples
    --------
    >>> import numpy as np
    >>> clf = KNNClassifier(k=1).fit(np.array([[0.0], [10.0]]), [0, 1])
    >>> clf.predict_one(np.array([1.0]))
    0
    """

    def __init__(self, k: int = 3, kernel: Kernel | str | None = None) -> None:
        self.k = check_positive_int(k, "k")
        self.kernel = resolve_kernel(kernel)
        self._features: np.ndarray | None = None
        self._labels: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        return self._features is not None

    def fit(self, features: np.ndarray, labels: Sequence[int]) -> "KNNClassifier":
        """Memorise the training set (KNN is a lazy learner)."""
        features = check_matrix(features, "features")
        labels_arr = np.asarray(labels, dtype=np.int64)
        if labels_arr.ndim != 1 or labels_arr.shape[0] != features.shape[0]:
            raise ValueError(
                f"labels must be a vector of length {features.shape[0]}, got shape {labels_arr.shape}"
            )
        if labels_arr.min() < 0:
            raise ValueError("labels must be non-negative integers")
        if self.k > features.shape[0]:
            raise ValueError(f"k={self.k} exceeds the training-set size {features.shape[0]}")
        self._features = features
        self._labels = labels_arr
        return self

    def _require_fitted(self) -> tuple[np.ndarray, np.ndarray]:
        if self._features is None or self._labels is None:
            raise RuntimeError("classifier is not fitted; call fit() first")
        return self._features, self._labels

    # ------------------------------------------------------------------
    def neighbors_one(self, t: np.ndarray) -> np.ndarray:
        """Row indices of the K nearest neighbours of ``t`` (most similar first)."""
        features, _ = self._require_fitted()
        t = check_vector(t, "t", length=features.shape[1])
        sims = self.kernel.similarities(features, t)
        return top_k_rows(sims, self.k)

    def predict_one(self, t: np.ndarray) -> int:
        """Predicted label for a single test example."""
        _, labels = self._require_fitted()
        top = self.neighbors_one(t)
        return majority_label(labels[top])

    def predict(self, test_features: np.ndarray) -> np.ndarray:
        """Predicted labels for a matrix of test examples.

        Equal to :meth:`predict_one` on every row, computed a block of
        rows at a time: one ``kernel.pairwise`` call per block (blocks
        sized so a ``(rows, n, d)`` kernel temporary stays within
        :data:`PREDICT_BLOCK_BYTES`), the top ``k`` picked by ``k`` rounds
        of ``argmax`` (which returns the first maximum, i.e. the smaller
        row index on a similarity tie) and the vote by ``argmax`` over a
        per-row label tally (the smaller label on a vote tie). A row with
        a non-finite similarity, whose order ``argmax`` and
        :func:`top_k_rows` do not share, takes :func:`top_k_rows`.
        """
        features, labels = self._require_fitted()
        test_features = check_matrix(test_features, "test_features", n_cols=features.shape[1])
        n, d = features.shape
        n_labels = int(labels.max()) + 1
        step = max(PREDICT_BLOCK_BYTES // max(n * d * 8, 1), 1)
        out = np.empty(test_features.shape[0], dtype=np.int64)
        for r0 in range(0, test_features.shape[0], step):
            sims = self.kernel.pairwise(features, test_features[r0 : r0 + step])
            rows = np.arange(sims.shape[0])
            left = sims.copy()
            tally = np.zeros((sims.shape[0], n_labels), dtype=np.int64)
            for _ in range(self.k):
                taken = np.argmax(left, axis=1)
                tally[rows, labels[taken]] += 1
                left[rows, taken] = -np.inf
            votes = np.argmax(tally, axis=1)
            for i in np.flatnonzero(~np.isfinite(sims).all(axis=1)):
                votes[i] = majority_label(labels[top_k_rows(sims[i], self.k)])
            out[r0 : r0 + sims.shape[0]] = votes
        return out

    def accuracy(self, test_features: np.ndarray, test_labels: Sequence[int]) -> float:
        """Fraction of correct predictions on a labelled test set."""
        predictions = self.predict(test_features)
        test_labels_arr = np.asarray(test_labels, dtype=np.int64)
        if test_labels_arr.shape != predictions.shape:
            raise ValueError(
                f"test_labels must have shape {predictions.shape}, got {test_labels_arr.shape}"
            )
        return float(np.mean(predictions == test_labels_arr))

    def __repr__(self) -> str:
        return f"KNNClassifier(k={self.k}, kernel={self.kernel!r})"
