"""Q1 and Q2 checked against sampled possible worlds.

Exhaustive replay (``repro.core.bruteforce``) stops at a few million
worlds. Past that, sampling still gives a one-sided check: a sampled world
is a real world, so its KNN prediction must carry a positive Q2 count and
must equal the certain label whenever Q1 reports one. On small datasets
the sampled label frequencies must also converge to the exact Q2
probabilities, which holds only if :func:`sample_world_choice` draws
worlds uniformly.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.dataset import IncompleteDataset
from repro.core.entropy import counts_to_probabilities
from repro.core.knn import KNNClassifier
from repro.core.queries import certain_label, q2_counts
from repro.core.worlds import DEFAULT_MAX_WORLDS, iter_world_choices, sample_world_choice
from tests.conftest import random_incomplete_dataset


def large_dataset(rng: np.random.Generator, n_labels: int) -> IncompleteDataset:
    """14 rows of 3 candidates: 3^14 (about 4.8M) worlds.

    Each row's candidates scatter around one centre, so test points near a
    well-separated centre get certain labels and points between centres
    do not; both branches of the check are exercised.
    """
    centres = 2.0 * rng.normal(size=(14, 2))
    sets = [centre + 0.3 * rng.normal(size=(3, 2)) for centre in centres]
    labels = rng.integers(0, n_labels, size=14)
    labels[:n_labels] = np.arange(n_labels)
    return IncompleteDataset(sets, labels)


def sampled_predictions(
    dataset: IncompleteDataset, points: np.ndarray, k: int, n_samples: int, seed: int
) -> np.ndarray:
    """``(n_samples, n_points)`` KNN predictions over sampled worlds."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_samples):
        world = dataset.world(sample_world_choice(dataset, rng))
        rows.append(KNNClassifier(k=k).fit(world, dataset.labels).predict(points))
    return np.asarray(rows)


class TestSampledRefutation:
    """Datasets with millions of worlds: too many to replay, enough to sample."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n_labels", [2, 3])
    @pytest.mark.parametrize("k", [1, 3])
    def test_no_sampled_world_contradicts_q1_or_q2(self, seed: int, n_labels: int, k: int) -> None:
        rng = np.random.default_rng(seed)
        dataset = large_dataset(rng, n_labels)
        points = rng.normal(size=(4, dataset.n_features))
        predictions = sampled_predictions(dataset, points, k, n_samples=150, seed=seed)
        for i, t in enumerate(points):
            counts = q2_counts(dataset, t, k=k)
            assert sum(counts) == dataset.n_worlds()
            seen = set(predictions[:, i].tolist())
            assert all(counts[label] > 0 for label in seen)
            label = certain_label(dataset, t, k=k)
            if label is not None:
                assert seen == {label}
                assert counts[label] == dataset.n_worlds()
            else:
                assert sum(1 for c in counts if c > 0) >= 2

    def test_instances_hold_certain_and_uncertain_points(self) -> None:
        verdicts = []
        for seed in range(6):
            rng = np.random.default_rng(seed)
            dataset = large_dataset(rng, n_labels=2)
            for t in rng.normal(size=(4, dataset.n_features)):
                verdicts.append(certain_label(dataset, t, k=3) is not None)
        assert any(verdicts) and not all(verdicts)

    def test_instances_are_beyond_exhaustive_replay(self) -> None:
        dataset = large_dataset(np.random.default_rng(0), n_labels=2)
        assert dataset.n_worlds() == 3**14 > DEFAULT_MAX_WORLDS
        with pytest.raises(ValueError, match="max_worlds"):
            next(iter_world_choices(dataset))


class TestSampledFrequencies:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k", [1, 3])
    def test_label_frequencies_converge_to_q2_probabilities(self, seed: int, k: int) -> None:
        rng = np.random.default_rng(100 + seed)
        dataset = random_incomplete_dataset(rng, n_rows=6, n_labels=2, max_candidates=3)
        points = rng.normal(size=(3, dataset.n_features))
        n_samples = 1500
        predictions = sampled_predictions(dataset, points, k, n_samples=n_samples, seed=seed)
        # Hoeffding: a frequency strays more than eps with probability at
        # most 2 exp(-2 n eps^2), about 1e-9 here.
        eps = math.sqrt(math.log(2 / 1e-9) / (2 * n_samples))
        for i, t in enumerate(points):
            exact = counts_to_probabilities(q2_counts(dataset, t, k=k))
            observed = np.bincount(predictions[:, i], minlength=dataset.n_labels) / n_samples
            assert np.all(np.abs(observed - exact) <= eps)

    def test_every_world_is_drawn_uniformly(self) -> None:
        dataset = IncompleteDataset(
            [np.zeros((2, 1)), np.zeros((3, 1)), np.zeros((1, 1))], labels=[0, 1, 0]
        )
        rng = np.random.default_rng(9)
        n_samples = 6000
        tally: dict[tuple[int, ...], int] = {}
        for _ in range(n_samples):
            choice = sample_world_choice(dataset, rng)
            tally[choice] = tally.get(choice, 0) + 1
        assert set(tally) == set(iter_world_choices(dataset))
        expected = n_samples / dataset.n_worlds()
        sigma = math.sqrt(expected * (1 - 1 / dataset.n_worlds()))
        assert all(abs(n - expected) <= 5 * sigma for n in tally.values())
