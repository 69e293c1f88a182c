"""Unit tests for the public Q1/Q2 API."""

import numpy as np
import pytest

from repro.core.bruteforce import brute_force_counts
from repro.core.engine import sortscan_counts
from repro.core.minmax import minmax_check
from repro.core.multiclass import sortscan_counts_multiclass
from repro.core.planner import PlanError
from repro.core.queries import certain_label, q1, q2, q2_counts
from repro.core.sortscan import sortscan_counts_naive
from repro.core.sortscan_tree import sortscan_counts_tree
from tests.conftest import random_incomplete_dataset

#: The planned front door and every Q2 engine of the paper's Figure 4.
Q2_ENGINES = {
    "auto": q2_counts,
    "engine": sortscan_counts,
    "tree": sortscan_counts_tree,
    "multiclass": sortscan_counts_multiclass,
    "naive": sortscan_counts_naive,
    "bruteforce": brute_force_counts,
}


def counts_check(engine):
    """A Q1 check derived from a Q2 engine's counts."""

    def check(dataset, t, label, k):
        counts = engine(dataset, t, k=k)
        return counts[label] == sum(counts)

    return check


#: The planned Q1 front door, MinMax, and Q1 via two counting engines.
Q1_CHECKS = {
    "auto": q1,
    "minmax": minmax_check,
    "engine": counts_check(sortscan_counts),
    "bruteforce": counts_check(brute_force_counts),
}


class TestQ2:
    def test_figure6(self, figure6_dataset):
        dataset, t = figure6_dataset
        assert q2_counts(dataset, t, k=1) == [6, 2]
        assert q2(dataset, t, 0, k=1) == 6
        assert q2(dataset, t, 1, k=1) == 2

    @pytest.mark.parametrize("engine", list(Q2_ENGINES))
    def test_all_backends_agree(self, figure6_dataset, engine):
        dataset, t = figure6_dataset
        assert Q2_ENGINES[engine](dataset, t, k=1) == [6, 2]

    def test_unknown_backend(self, figure6_dataset):
        dataset, t = figure6_dataset
        with pytest.raises(PlanError, match="quantum"):
            q2_counts(dataset, t, backend="quantum")

    def test_label_out_of_range(self, figure6_dataset):
        dataset, t = figure6_dataset
        with pytest.raises(ValueError, match="label"):
            q2(dataset, t, 7, k=1)


class TestQ1:
    def test_uncertain_point(self, figure6_dataset):
        dataset, t = figure6_dataset
        assert not q1(dataset, t, 0, k=1)
        assert not q1(dataset, t, 1, k=1)

    @pytest.mark.parametrize("check", list(Q1_CHECKS))
    def test_backends_agree_on_random_binary(self, check):
        rng = np.random.default_rng(0)
        for _ in range(10):
            dataset = random_incomplete_dataset(rng, n_labels=2)
            t = rng.normal(size=dataset.n_features)
            counts = brute_force_counts(dataset, t, k=3)
            total = sum(counts)
            for label in (0, 1):
                expected = counts[label] == total
                assert Q1_CHECKS[check](dataset, t, label, k=3) == expected

    def test_multiclass_uses_counting_path(self):
        rng = np.random.default_rng(1)
        dataset = random_incomplete_dataset(rng, n_labels=3)
        t = rng.normal(size=dataset.n_features)
        counts = brute_force_counts(dataset, t, k=1)
        total = sum(counts)
        for label in range(3):
            assert q1(dataset, t, label, k=1) == (counts[label] == total)

    def test_minmax_refused_for_multiclass(self):
        rng = np.random.default_rng(2)
        dataset = random_incomplete_dataset(rng, n_labels=3)
        t = rng.normal(size=dataset.n_features)
        with pytest.raises(ValueError, match="binary"):
            minmax_check(dataset, t, 0, k=1)


class TestCertainLabel:
    def test_none_when_uncertain(self, figure6_dataset):
        dataset, t = figure6_dataset
        assert certain_label(dataset, t, k=1) is None

    def test_matches_counts_on_random_instances(self):
        rng = np.random.default_rng(3)
        for n_labels in (2, 3):
            for _ in range(10):
                dataset = random_incomplete_dataset(rng, n_labels=n_labels)
                t = rng.normal(size=dataset.n_features)
                counts = q2_counts(dataset, t, k=3)
                total = sum(counts)
                expected = next(
                    (lbl for lbl, c in enumerate(counts) if c == total), None
                )
                assert certain_label(dataset, t, k=3) == expected

    def test_certain_when_all_labels_equal(self):
        from repro.core.dataset import IncompleteDataset

        dataset = IncompleteDataset(
            [np.array([[0.0], [1.0]]), np.array([[5.0]])], labels=[1, 1]
        )
        assert certain_label(dataset, np.array([0.3]), k=1) == 1
