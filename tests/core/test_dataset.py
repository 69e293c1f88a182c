"""Unit tests for the incomplete-dataset data model."""

import numpy as np
import pytest

from repro.core.dataset import IncompleteDataset


def simple_dataset() -> IncompleteDataset:
    return IncompleteDataset(
        [np.array([[0.0, 0.0]]), np.array([[1.0, 1.0], [2.0, 2.0]])],
        labels=[0, 1],
    )


class TestConstruction:
    def test_basic_shape_accessors(self):
        ds = simple_dataset()
        assert ds.n_rows == 2
        assert len(ds) == 2
        assert ds.n_features == 2
        assert ds.n_labels == 2

    def test_candidate_counts(self):
        ds = simple_dataset()
        assert ds.candidate_counts().tolist() == [1, 2]

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="at least one row"):
            IncompleteDataset([], labels=[])

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            IncompleteDataset([np.zeros((1, 2))], labels=[0, 1])

    def test_negative_labels_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            IncompleteDataset([np.zeros((1, 2))], labels=[-1])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="columns"):
            IncompleteDataset([np.zeros((1, 2)), np.zeros((1, 3))], labels=[0, 1])

    def test_nan_candidates_rejected(self):
        bad = np.array([[np.nan, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            IncompleteDataset([bad], labels=[0])

    def test_candidates_are_read_only(self):
        ds = simple_dataset()
        with pytest.raises(ValueError):
            ds.candidates(0)[0, 0] = 99.0

    def test_input_mutation_does_not_leak(self):
        source = np.array([[1.0, 1.0]])
        ds = IncompleteDataset([source], labels=[0])
        source[0, 0] = 42.0
        assert ds.candidates(0)[0, 0] == 1.0


class TestUncertainty:
    def test_certainty_flags(self):
        ds = simple_dataset()
        assert ds.is_certain(0)
        assert not ds.is_certain(1)
        assert ds.certain_rows() == [0]
        assert ds.uncertain_rows() == [1]
        assert ds.n_uncertain == 1

    def test_world_count(self):
        ds = IncompleteDataset(
            [np.zeros((2, 1)), np.zeros((3, 1)), np.zeros((1, 1))], labels=[0, 1, 0]
        )
        assert ds.n_worlds() == 6

    def test_world_count_is_exact_bigint(self):
        ds = IncompleteDataset([np.zeros((2, 1))] * 70, labels=[0, 1] * 35)
        assert ds.n_worlds() == 2**70

    def test_from_complete(self):
        features = np.arange(6, dtype=float).reshape(3, 2)
        ds = IncompleteDataset.from_complete(features, [0, 1, 0])
        assert ds.n_worlds() == 1
        assert ds.uncertain_rows() == []


class TestDerivation:
    def test_with_row_fixed(self):
        ds = simple_dataset()
        fixed = ds.with_row_fixed(1, np.array([2.0, 2.0]))
        assert fixed.is_certain(1)
        assert fixed.candidates(1).tolist() == [[2.0, 2.0]]
        # original unchanged
        assert not ds.is_certain(1)

    def test_with_row_fixed_rejects_foreign_value(self):
        ds = simple_dataset()
        with pytest.raises(ValueError, match="not among"):
            ds.with_row_fixed(1, np.array([9.0, 9.0]))

    def test_restrict_row(self):
        ds = simple_dataset()
        restricted = ds.restrict_row(1, 0)
        assert restricted.candidates(1).tolist() == [[1.0, 1.0]]

    def test_restrict_row_out_of_range(self):
        ds = simple_dataset()
        with pytest.raises(IndexError):
            ds.restrict_row(1, 5)

    @pytest.mark.parametrize(
        "derive, sets, labels",
        [
            (lambda d: d.restrict_row(1, 1), [[[0.0, 0.0]], [[2.0, 2.0]]], [0, 1]),
            (
                lambda d: d.with_row_fixed(1, np.array([1.0, 1.0])),
                [[[0.0, 0.0]], [[1.0, 1.0]]],
                [0, 1],
            ),
            (
                lambda d: d.append_row(np.array([[3.0, 3.0], [4.0, 4.0]]), 2),
                [[[0.0, 0.0]], [[1.0, 1.0], [2.0, 2.0]], [[3.0, 3.0], [4.0, 4.0]]],
                [0, 1, 2],
            ),
            (lambda d: d.delete_row(0), [[[1.0, 1.0], [2.0, 2.0]]], [1]),
        ],
        ids=["restrict_row", "with_row_fixed", "append_row", "delete_row"],
    )
    def test_derived_dataset_equals_public_construction(self, derive, sets, labels):
        derived = derive(simple_dataset())
        built = IncompleteDataset([np.array(s) for s in sets], labels)
        assert derived.n_rows == built.n_rows
        assert derived.n_features == built.n_features
        for row in range(built.n_rows):
            assert np.array_equal(derived.candidates(row), built.candidates(row))
            assert not derived.candidates(row).flags.writeable
        assert np.array_equal(derived.labels, built.labels)
        assert derived.labels.dtype == np.int64
        assert not derived.labels.flags.writeable
        assert derived.fingerprint() == built.fingerprint()

    def test_appended_row_is_copied(self):
        row = np.array([[3.0, 3.0]])
        appended = simple_dataset().append_row(row, 0)
        row[0, 0] = 99.0
        assert appended.candidates(2).tolist() == [[3.0, 3.0]]

    def test_derivations_still_check_their_arguments(self):
        ds = simple_dataset()
        with pytest.raises(IndexError, match="row 2 out of range"):
            ds.restrict_row(2, 0)
        with pytest.raises(IndexError, match="row -1 out of range"):
            ds.restrict_row(-1, 0)
        with pytest.raises(IndexError, match="row 5 out of range"):
            ds.delete_row(5)
        with pytest.raises(ValueError, match="columns"):
            ds.append_row(np.zeros((1, 3)), 0)
        with pytest.raises(ValueError, match="finite"):
            ds.append_row(np.array([[np.nan, 0.0]]), 0)
        with pytest.raises(ValueError, match="at least one candidate"):
            ds.append_row(np.zeros((0, 2)), 0)
        with pytest.raises(ValueError, match="non-negative"):
            ds.append_row(np.zeros((1, 2)), -1)

    def test_world_materialisation(self):
        ds = simple_dataset()
        world = ds.world([0, 1])
        assert world.tolist() == [[0.0, 0.0], [2.0, 2.0]]

    def test_world_choice_length_checked(self):
        ds = simple_dataset()
        with pytest.raises(ValueError, match="length"):
            ds.world([0])

    def test_world_choice_range_checked(self):
        ds = simple_dataset()
        with pytest.raises(IndexError):
            ds.world([0, 7])
