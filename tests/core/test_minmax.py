"""Unit tests for the MM (MinMax) algorithm."""

import numpy as np
import pytest

from repro.core.batch_engine import PreparedBatch
from repro.core.bruteforce import brute_force_counts
from repro.core.dataset import IncompleteDataset
from repro.core.minmax import (
    extreme_world_similarities,
    minmax_check,
    minmax_checks_all,
    predictable_labels,
)
from repro.core.planner import ExecutionOptions, execute_query, make_query
from repro.service.partition import merge_sim_blocks, plan_row_partitions
from tests.conftest import random_incomplete_dataset


class TestExtremeWorlds:
    def test_target_rows_use_max_similarity(self):
        sims = [np.array([0.1, 0.9]), np.array([0.5, 0.2])]
        labels = np.array([0, 1])
        extreme = extreme_world_similarities(sims, labels, target_label=0)
        assert extreme[0] == 0.9  # label 0 row: max
        assert extreme[1] == 0.2  # other row: min

    def test_extreme_world_dominates_all_worlds(self):
        """Lemma B.1: E_l maximises label-l's vote chances over all worlds."""
        rng = np.random.default_rng(0)
        from repro.core.kernels import NegativeEuclideanKernel
        from repro.core.knn import majority_label, top_k_rows
        from repro.core.scan import candidate_similarities
        from repro.core.worlds import iter_worlds

        kernel = NegativeEuclideanKernel()
        for _ in range(10):
            dataset = random_incomplete_dataset(rng, n_labels=2)
            t = rng.normal(size=dataset.n_features)
            sims = candidate_similarities(dataset, t, kernel)
            for target in (0, 1):
                extreme = extreme_world_similarities(sims, dataset.labels, target)
                extreme_predicts = (
                    majority_label(dataset.labels[top_k_rows(extreme, 1)], 2) == target
                )
                some_world_predicts = False
                for _choice, features in iter_worlds(dataset):
                    from repro.core.knn import KNNClassifier

                    clf = KNNClassifier(k=1).fit(features, dataset.labels)
                    if clf.predict_one(t) == target:
                        some_world_predicts = True
                        break
                assert extreme_predicts == some_world_predicts


class TestMinmaxVsBruteForce:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_q1_matches_enumeration(self, k):
        rng = np.random.default_rng(42 + k)
        for _ in range(20):
            dataset = random_incomplete_dataset(rng, n_labels=2)
            t = rng.normal(size=dataset.n_features)
            counts = brute_force_counts(dataset, t, k=k)
            total = sum(counts)
            for label in (0, 1):
                assert minmax_check(dataset, t, label, k=k) == (counts[label] == total)

    def test_checks_all_has_at_most_one_true(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            dataset = random_incomplete_dataset(rng, n_labels=2)
            t = rng.normal(size=dataset.n_features)
            result = minmax_checks_all(dataset, t, k=3)
            assert sum(result) <= 1

    def test_certain_dataset_is_detected(self):
        # All rows of one label: prediction trivially certain.
        dataset = IncompleteDataset(
            [np.array([[0.0], [1.0]]), np.array([[2.0], [3.0]]), np.array([[1.5]])],
            labels=[1, 1, 1],
        )
        assert minmax_check(dataset, np.array([0.0]), 1, k=1)
        assert minmax_checks_all(dataset, np.array([0.0]), k=1) == [False, True]


class TestMulticlassGuard:
    def test_multiclass_rejected_by_default(self):
        rng = np.random.default_rng(9)
        dataset = random_incomplete_dataset(rng, n_labels=3)
        t = rng.normal(size=dataset.n_features)
        with pytest.raises(ValueError, match="binary"):
            minmax_check(dataset, t, 0, k=1)

    def test_multiclass_heuristic_is_sound_as_necessary_condition(self):
        """With allow_multiclass, E_l predicting l is implied by existence."""
        rng = np.random.default_rng(10)
        for _ in range(10):
            dataset = random_incomplete_dataset(rng, n_labels=3)
            t = rng.normal(size=dataset.n_features)
            counts = brute_force_counts(dataset, t, k=1)
            winners = predictable_labels(dataset, t, k=1, allow_multiclass=True)
            for label, count in enumerate(counts):
                if count > 0 and counts[label] == sum(counts):
                    # A certainly-predicted label must survive the heuristic.
                    assert winners == [label] or label in winners

    def test_label_out_of_range(self):
        rng = np.random.default_rng(11)
        dataset = random_incomplete_dataset(rng, n_labels=2)
        t = rng.normal(size=dataset.n_features)
        with pytest.raises(ValueError, match="label"):
            minmax_check(dataset, t, 5, k=1)


def _ragged_dataset(seed: int, n_rows: int = 8, n_labels: int = 2) -> IncompleteDataset:
    rng = np.random.default_rng(seed)
    sets = [rng.normal(size=(int(rng.integers(1, 4)), 2)) for _ in range(n_rows)]
    labels = [int(label) for label in rng.integers(0, n_labels, size=n_rows)]
    labels[0] = 0
    labels[1] = n_labels - 1
    return IncompleteDataset(sets, labels)


class TestMinMaxMerge:
    """The ``batch`` backend's MinMax check — the one the gateway runs on
    its merged similarity matrix — against the ``sequential`` reference."""

    @pytest.mark.parametrize("flavor", ["binary", "multiclass"])
    def test_labels_match_sequential(self, flavor):
        dataset = _ragged_dataset(5)
        test_X = np.random.default_rng(5).normal(size=(4, 2))
        query = make_query(dataset, test_X, kind="certain_label", flavor=flavor, k=2)
        reference = execute_query(query, backend="sequential").values
        assert execute_query(query, backend="batch").values == reference

    def test_pinned_rows_override_extremes(self):
        dataset = _ragged_dataset(6)
        test_X = np.random.default_rng(6).normal(size=(3, 2))
        pins = {row: 0 for row in dataset.uncertain_rows()[:2]}
        assert pins
        query = make_query(dataset, test_X, kind="certain_label", k=2, pins=pins)
        reference = execute_query(query, backend="sequential").values
        assert execute_query(query, backend="batch").values == reference

    @pytest.mark.parametrize("n_executors", [1, 2, 3, 5, 10_000])
    def test_labels_over_gathered_blocks_match_sequential(self, n_executors):
        """The gateway's path, in process: slice the similarity matrix at
        the candidate spans of one partition per executor, merge the
        blocks back and hand the result to ``batch`` as its prepared
        matrix; the MinMax labels must not depend on the cut."""
        dataset = _ragged_dataset(9)
        test_X = np.random.default_rng(9).normal(size=(6, 2))
        query = make_query(dataset, test_X, kind="certain_label", k=1)
        full = PreparedBatch(dataset, test_X, k=1).sims_matrix
        offsets = dataset.candidate_layout().offsets
        blocks = [
            full[:, int(offsets[part.start]) : int(offsets[part.stop])]
            for part in plan_row_partitions(dataset.n_rows, n_executors)
        ]
        merged = merge_sim_blocks(blocks)
        assert np.array_equal(merged, full)
        gathered = PreparedBatch(dataset, test_X, k=1, sims_matrix=merged)
        options = ExecutionOptions(prepared=gathered, cache=False)
        reference = execute_query(query, backend="sequential").values
        assert {0, 1, None} <= set(reference)  # both labels and a non-certain point
        assert execute_query(query, backend="batch", options=options).values == reference

    def test_batch_rejects_out_of_range_pins(self):
        dataset = _ragged_dataset(8)

        def labels(pins):
            query = make_query(
                dataset, np.zeros((1, 2)), kind="certain_label", k=1, pins=pins
            )
            return execute_query(query, backend="batch").values

        with pytest.raises(IndexError, match="out of range"):
            labels({0: 99})
        # numpy's negative indexing must not let row=-1 pin the last row.
        with pytest.raises(IndexError, match="row -1 out of range"):
            labels({-1: 0})
