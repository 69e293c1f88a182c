"""CP queries with uncertain labels: exact counter vs. oracle, MM extension."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import IncompleteDataset
from repro.core.label_uncertainty import (
    LabelUncertainDataset,
    label_uncertain_certain_label,
    label_uncertain_counts,
    label_uncertain_counts_bruteforce,
    label_uncertain_minmax_check,
)
from repro.core.queries import q2_counts


def random_label_uncertain(
    rng: np.random.Generator,
    n_rows: int = 5,
    n_labels: int = 2,
    max_candidates: int = 3,
    flip_prob: float = 0.4,
) -> LabelUncertainDataset:
    sets = [
        rng.normal(size=(int(rng.integers(1, max_candidates + 1)), 2))
        for _ in range(n_rows)
    ]
    label_sets = []
    for i in range(n_rows):
        if rng.random() < flip_prob:
            label_sets.append(tuple(range(n_labels)))
        else:
            label_sets.append((int(rng.integers(n_labels)),))
    # guarantee both extreme labels appear somewhere as possibilities
    label_sets[0] = (0,)
    label_sets[-1] = (n_labels - 1,)
    return LabelUncertainDataset(sets, label_sets)


class TestModel:
    def test_world_count_multiplies_feature_and_label_choices(self) -> None:
        ds = LabelUncertainDataset(
            [np.zeros((2, 1)), np.zeros((3, 1))], [(0, 1), (1,)]
        )
        assert ds.n_worlds() == 2 * 3 * 2 * 1

    def test_mismatched_lengths_rejected(self) -> None:
        with pytest.raises(ValueError, match="label sets"):
            LabelUncertainDataset([np.zeros((1, 1))], [(0,), (1,)])

    def test_empty_label_set_rejected(self) -> None:
        with pytest.raises(ValueError, match="empty"):
            LabelUncertainDataset([np.zeros((1, 1))], [()])

    def test_negative_label_rejected(self) -> None:
        with pytest.raises(ValueError, match="negative"):
            LabelUncertainDataset([np.zeros((1, 1))], [(-1,)])

    def test_duplicate_labels_deduplicated(self) -> None:
        ds = LabelUncertainDataset([np.zeros((1, 1))], [(1, 1, 0)])
        assert ds.label_sets == ((1, 0),)

    def test_has_certain_labels(self) -> None:
        certain = LabelUncertainDataset([np.zeros((1, 1))] * 2, [(0,), (1,)])
        assert certain.has_certain_labels()
        uncertain = LabelUncertainDataset([np.zeros((1, 1))] * 2, [(0, 1), (1,)])
        assert not uncertain.has_certain_labels()

    def test_from_incomplete_lift(self) -> None:
        base = IncompleteDataset([np.zeros((2, 1)), np.ones((1, 1))], [0, 1])
        lifted = LabelUncertainDataset.from_incomplete(base, flip_rows=[0])
        assert lifted.label_sets == ((0, 1), (1,))
        assert lifted.n_worlds() == base.n_worlds() * 2


def _rebuilt_restriction(
    dataset: LabelUncertainDataset, row: int, candidate_index: int
) -> LabelUncertainDataset:
    """A pin by rebuilding and re-validating every row."""
    sets = [dataset.candidates(i) for i in range(dataset.n_rows)]
    sets[row] = sets[row][candidate_index : candidate_index + 1]
    return LabelUncertainDataset(sets, list(dataset.label_sets))


class TestRestrictRow:
    @pytest.mark.parametrize("seed", range(8))
    def test_pins_equal_a_rebuild(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        dataset = random_label_uncertain(
            rng, n_rows=6, n_labels=int(rng.integers(2, 4)), max_candidates=4
        )
        rebuilt = dataset
        for _ in range(4):
            row = int(rng.integers(dataset.n_rows))
            candidate_index = int(rng.integers(dataset.candidates(row).shape[0]))
            dataset = dataset.restrict_row(row, candidate_index)
            rebuilt = _rebuilt_restriction(rebuilt, row, candidate_index)
            assert dataset.label_sets == rebuilt.label_sets
            assert np.array_equal(
                dataset.candidate_counts(), rebuilt.candidate_counts()
            )
            for i in range(dataset.n_rows):
                assert np.array_equal(dataset.candidates(i), rebuilt.candidates(i))
            assert dataset.fingerprint() == rebuilt.fingerprint()
            assert dataset.n_worlds() == rebuilt.n_worlds()

    def test_out_of_range_pins_rejected(self) -> None:
        dataset = LabelUncertainDataset([np.zeros((2, 1))], [(0, 1)])
        with pytest.raises(IndexError, match="row 1 out of range"):
            dataset.restrict_row(1, 0)
        with pytest.raises(IndexError, match="candidate 2 out of range"):
            dataset.restrict_row(0, 2)


class TestCertainLabelReduction:
    """Singleton label sets must reproduce the feature-only counts exactly."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=9999),
        k=st.integers(min_value=1, max_value=3),
    )
    def test_reduces_to_q2_counts(self, seed: int, k: int) -> None:
        rng = np.random.default_rng(seed)
        base_sets = [
            rng.normal(size=(int(rng.integers(1, 4)), 2)) for _ in range(5)
        ]
        labels = rng.integers(0, 2, size=5)
        labels[:2] = [0, 1]
        base = IncompleteDataset(base_sets, labels)
        lifted = LabelUncertainDataset(base_sets, [(int(y),) for y in labels])
        t = rng.normal(size=2)
        assert label_uncertain_counts(lifted, t, k=k) == q2_counts(base, t, k=k)


class TestExactVsBruteForce:
    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=9999),
        k=st.integers(min_value=1, max_value=3),
        n_labels=st.integers(min_value=2, max_value=3),
    )
    def test_counts_match_enumeration(self, seed: int, k: int, n_labels: int) -> None:
        rng = np.random.default_rng(seed)
        ds = random_label_uncertain(rng, n_rows=5, n_labels=n_labels)
        t = rng.normal(size=2)
        fast = label_uncertain_counts(ds, t, k=k)
        oracle = label_uncertain_counts_bruteforce(ds, t, k=k)
        assert fast == oracle

    def test_counts_sum_to_world_count(self, rng: np.random.Generator) -> None:
        ds = random_label_uncertain(rng, n_rows=6, n_labels=3)
        t = rng.normal(size=2)
        counts = label_uncertain_counts(ds, t, k=3)
        assert sum(counts) == ds.n_worlds()

    def test_fully_flipped_row_in_top1_splits_counts(self) -> None:
        # Single certain-feature row right on top of t with both labels
        # possible: each label gets exactly half of the worlds.
        ds = LabelUncertainDataset(
            [np.array([[0.0]]), np.array([[10.0]])], [(0, 1), (0,)]
        )
        counts = label_uncertain_counts(ds, np.array([0.0]), k=1)
        assert counts == [ds.n_worlds() // 2, ds.n_worlds() // 2]

    def test_k_exceeding_rows_rejected(self) -> None:
        ds = LabelUncertainDataset([np.zeros((1, 1))], [(0,)])
        with pytest.raises(ValueError, match="exceeds"):
            label_uncertain_counts(ds, np.array([0.0]), k=2)

    def test_bruteforce_world_cap(self) -> None:
        sets = [np.zeros((4, 1)) for _ in range(12)]
        ds = LabelUncertainDataset(sets, [(0, 1)] * 12)
        with pytest.raises(ValueError, match="cap"):
            label_uncertain_counts_bruteforce(ds, np.array([0.0]), k=1)


class TestMinMaxExtension:
    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=9999),
        k=st.integers(min_value=1, max_value=3),
    )
    def test_mm_agrees_with_counting(self, seed: int, k: int) -> None:
        rng = np.random.default_rng(seed)
        ds = random_label_uncertain(rng, n_rows=5, n_labels=2)
        t = rng.normal(size=2)
        counts = label_uncertain_counts(ds, t, k=k)
        total = sum(counts)
        for label in range(2):
            expected = counts[label] == total
            assert label_uncertain_minmax_check(ds, t, label, k=k) == expected

    def test_mm_rejects_multiclass(self) -> None:
        ds = LabelUncertainDataset([np.zeros((1, 1))] * 3, [(0,), (1,), (2,)])
        with pytest.raises(ValueError, match="binary"):
            label_uncertain_minmax_check(ds, np.array([0.0]), 0, k=1)

    def test_mm_rejects_bad_label(self) -> None:
        ds = LabelUncertainDataset([np.zeros((1, 1))] * 2, [(0,), (1,)])
        with pytest.raises(ValueError, match="label"):
            label_uncertain_minmax_check(ds, np.array([0.0]), 7, k=1)


class TestCertainLabel:
    def test_certain_when_labels_agree_despite_flips(self) -> None:
        # All label sets are {0}: label 0 is certain whatever the features do.
        sets = [np.random.default_rng(0).normal(size=(3, 1)) for _ in range(4)]
        ds = LabelUncertainDataset(sets, [(0,)] * 4)
        assert label_uncertain_certain_label(ds, np.array([0.0]), k=3) == 0

    def test_uncertain_when_top1_label_flips(self) -> None:
        ds = LabelUncertainDataset(
            [np.array([[0.0]]), np.array([[10.0]])], [(0, 1), (0,)]
        )
        assert label_uncertain_certain_label(ds, np.array([0.0]), k=1) is None

    def test_label_uncertainty_only_decreases_certainty(self, rng: np.random.Generator) -> None:
        # Flipping a row's label set can never make an uncertain point certain.
        base_sets = [rng.normal(size=(2, 2)) for _ in range(5)]
        labels = [0, 1, 0, 1, 0]
        base = IncompleteDataset(base_sets, labels)
        t = rng.normal(size=2)
        lifted = LabelUncertainDataset.from_incomplete(base, flip_rows=[2])
        base_counts = q2_counts(base, t, k=3)
        lifted_label = label_uncertain_certain_label(lifted, t, k=3)
        if lifted_label is not None:
            # certainty under flips implies certainty without them
            assert base_counts[lifted_label] == sum(base_counts)
