"""Unit tests for the delta-maintenance layer (:mod:`repro.core.deltas`).

The sequence-level bit-identity guarantees live in
``tests/fuzz/test_update_sequences.py``; this file pins the unit
semantics — the delta vocabulary, the irrelevance (provenance) rule, the
per-delta reports, the warm-state handoff and every validation error.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import IncompleteDataset
from repro.core.deltas import (
    CellRepair,
    DeltaMaintainedState,
    RowAppend,
    RowDelete,
    apply_delta_to_dataset,
    dominating_rows,
    row_is_irrelevant,
)
from repro.core.entropy import prediction_entropy
from repro.core.prepared import PreparedQuery
from repro.core.queries import q2_counts
from tests.conftest import random_incomplete_dataset


def small_dataset() -> IncompleteDataset:
    # Rows 0 and 1 are dirty (2 candidates each), rows 2 and 3 are clean.
    return IncompleteDataset(
        [
            np.array([[0.0, 0.0], [6.0, 6.0]]),
            np.array([[10.0, 10.0], [4.0, 4.0]]),
            np.array([[1.0, 1.0]]),
            np.array([[9.0, 9.0]]),
        ],
        labels=[0, 1, 0, 1],
    )


def probe_points() -> np.ndarray:
    return np.array([[0.5, 0.5], [9.5, 9.5], [5.0, 5.0]])


class TestDeltaVocabulary:
    def test_apply_delta_to_dataset_matches_dataset_methods(self):
        dataset = small_dataset()
        repaired = apply_delta_to_dataset(dataset, CellRepair(0, 1))
        assert repaired.fingerprint() == dataset.restrict_row(0, 1).fingerprint()

        new_row = np.array([[2.0, 2.0], [3.0, 3.0]])
        appended = apply_delta_to_dataset(dataset, RowAppend(new_row, 1))
        assert appended.fingerprint() == dataset.append_row(new_row, 1).fingerprint()

        deleted = apply_delta_to_dataset(dataset, RowDelete(1))
        assert deleted.fingerprint() == dataset.delete_row(1).fingerprint()

    def test_apply_delta_to_dataset_rejects_unknown_type(self):
        with pytest.raises(TypeError, match="unknown delta type"):
            apply_delta_to_dataset(small_dataset(), object())


class TestIrrelevanceRule:
    def test_dominating_rows_counts_strictly_greater_mins(self):
        mins = np.array([0.9, 0.5, 0.3, 0.5])
        assert dominating_rows(mins, 0.5) == 1  # ties do not dominate
        assert dominating_rows(mins, 0.2) == 4
        assert dominating_rows(mins, 0.9) == 0

    def test_row_is_irrelevant_excludes_the_row_itself(self):
        # Row 0's own min beats `best`, but it cannot dominate itself.
        mins = np.array([0.9, 0.8, 0.1])
        assert not row_is_irrelevant(mins, row=0, best=0.7, k=2)
        # With k=1 the single other dominator (row 1) suffices.
        assert row_is_irrelevant(mins, row=0, best=0.7, k=1)

    def test_irrelevant_row_never_in_provenance(self):
        dataset = small_dataset()
        state = DeltaMaintainedState(dataset, probe_points(), k=1)
        # For the point at (0.5, 0.5), row 3 at (9, 9) is hopeless: rows 2
        # and 0 both guarantee a closer neighbour, so with k=1 its choice
        # can never matter.
        assert 3 not in state.provenance(0)


class TestDeltaApplication:
    def test_repair_matches_fresh_q2_counts(self):
        dataset = small_dataset()
        points = probe_points()
        state = DeltaMaintainedState(dataset, points, k=3)
        state.apply(CellRepair(0, 0))
        restricted = dataset.restrict_row(0, 0)
        for i, point in enumerate(points):
            assert state.counts(i) == q2_counts(restricted, point, k=3)

    def test_append_matches_fresh_q2_counts(self):
        dataset = small_dataset()
        points = probe_points()
        state = DeltaMaintainedState(dataset, points, k=3)
        new_row = np.array([[2.0, 2.0], [7.0, 7.0], [5.0, 5.0]])
        state.apply(RowAppend(new_row, 0))
        grown = dataset.append_row(new_row, 0)
        for i, point in enumerate(points):
            assert state.counts(i) == q2_counts(grown, point, k=3)

    def test_delete_matches_fresh_q2_counts(self):
        dataset = small_dataset()
        points = probe_points()
        state = DeltaMaintainedState(dataset, points, k=3)
        state.apply(RowDelete(1))
        shrunk = dataset.delete_row(1)
        for i, point in enumerate(points):
            assert state.counts(i) == q2_counts(shrunk, point, k=3)

    def test_append_can_grow_the_label_space(self):
        dataset = small_dataset()
        state = DeltaMaintainedState(dataset, probe_points(), k=3)
        state.apply(RowAppend(np.array([[5.0, 5.0]]), 2))  # new label
        assert state.dataset.n_labels == 3
        grown = dataset.append_row(np.array([[5.0, 5.0]]), 2)
        assert state.counts_all() == [
            q2_counts(grown, point, k=3) for point in probe_points()
        ]
        assert all(len(counts) == 3 for counts in state.counts_all())

    def test_repair_of_clean_row_is_a_counted_noop(self):
        dataset = small_dataset()
        state = DeltaMaintainedState(dataset, probe_points(), k=3)
        before = state.counts_all()
        report = state.apply(CellRepair(2, 0))  # row 2 has one candidate
        assert state.counts_all() == before
        assert report["n_recomputed"] == 0
        assert report["n_pruned"] == state.n_points

    def test_apply_many_returns_one_report_per_delta(self):
        state = DeltaMaintainedState(small_dataset(), probe_points(), k=2)
        reports = state.apply_many([CellRepair(0, 0), RowDelete(3)])
        assert [r["op"] for r in reports] == ["cell_repair", "row_delete"]
        assert [r["version"] for r in reports] == [1, 2]
        state.verify()

    def test_reports_partition_points_into_pruned_and_recomputed(self):
        state = DeltaMaintainedState(small_dataset(), probe_points(), k=1)
        report = state.apply(CellRepair(0, 0))
        assert report["n_pruned"] + report["n_recomputed"] == state.n_points
        assert sorted(report["touched_points"]) == report["touched_points"]
        assert len(report["touched_points"]) == report["n_recomputed"]
        # The running totals accumulate what the reports said.
        assert state.n_pruned == report["n_pruned"]
        assert state.n_recomputed == report["n_recomputed"]

    def test_version_increments_per_delta(self):
        state = DeltaMaintainedState(small_dataset(), probe_points(), k=2)
        assert state.version == 0
        state.apply(CellRepair(0, 1))
        assert state.version == 1
        state.apply(RowDelete(0))
        assert state.version == 2


class TestCleaningPins:
    """The cleaning workload: only repairs, one dirty row at a time."""

    @pytest.mark.parametrize("prune", (False, True))
    def test_initial_counts_match_prepared_query(self, rng, prune):
        dataset = random_incomplete_dataset(rng, n_rows=8)
        points = rng.normal(size=(4, dataset.n_features))
        state = DeltaMaintainedState(dataset, points, k=3, prune=prune)
        for i in range(points.shape[0]):
            assert state.counts(i) == PreparedQuery(dataset, points[i], k=3).counts()

    def test_single_point_vector_accepted(self, rng):
        dataset = random_incomplete_dataset(rng)
        state = DeltaMaintainedState(dataset, np.zeros(dataset.n_features), k=1)
        assert state.n_points == 1

    def test_single_point_vector_of_wrong_width_rejected(self, rng):
        dataset = random_incomplete_dataset(rng, n_features=2)
        with pytest.raises(ValueError, match="test_points must have shape"):
            DeltaMaintainedState(dataset, np.zeros(5), k=1)

    def test_counts_returns_copy(self):
        state = DeltaMaintainedState(small_dataset(), probe_points(), k=2)
        state.counts(0).append(999)
        state.counts_all()[0].append(999)
        assert len(state.counts(0)) == state.dataset.n_labels

    @pytest.mark.parametrize("prune", (False, True))
    def test_pin_sequence_matches_fresh_recount_after_every_step(self, rng, prune):
        dataset = random_incomplete_dataset(rng, n_rows=8, n_labels=3)
        points = rng.normal(size=(5, dataset.n_features))
        state = DeltaMaintainedState(dataset, points, k=3, prune=prune)
        for row in dataset.uncertain_rows():
            cand = int(rng.integers(dataset.candidate_counts()[row]))
            state.apply(CellRepair(row, cand))
            state.verify()  # raises on divergence

    def test_pin_out_of_range_candidate_rejected(self, rng):
        dataset = random_incomplete_dataset(rng, n_rows=8)
        state = DeltaMaintainedState(dataset, rng.normal(size=(4, 2)), k=3)
        row = dataset.uncertain_rows()[0]
        before = state.counts_all()
        with pytest.raises(IndexError, match="candidate 99 out of range"):
            state.apply(CellRepair(row, 99))
        assert state.counts_all() == before
        assert state.version == 0

    @pytest.mark.parametrize("prune", (False, True))
    def test_pinning_certain_row_is_noop_for_counts(self, rng, prune):
        dataset = random_incomplete_dataset(rng, n_rows=8)
        certain = dataset.certain_rows()
        assert certain, "the seeded draw has certain rows"
        state = DeltaMaintainedState(dataset, rng.normal(size=(4, 2)), k=3, prune=prune)
        before = state.counts_all()
        state.apply(CellRepair(certain[0], 0))
        assert state.counts_all() == before
        state.verify()

    def test_pin_many_applies_in_order(self, rng):
        dataset = random_incomplete_dataset(rng, n_rows=8)
        points = rng.normal(size=(4, 2))
        pins = [CellRepair(row, 0) for row in dataset.uncertain_rows()]
        batched = DeltaMaintainedState(dataset, points, k=3)
        stepped = DeltaMaintainedState(dataset, points, k=3)
        reports = batched.apply_many(pins)
        for pin in pins:
            stepped.apply(pin)
        assert [r["version"] for r in reports] == list(range(1, len(pins) + 1))
        assert batched.counts_all() == stepped.counts_all()
        assert batched.dataset.fingerprint() == stepped.dataset.fingerprint()
        batched.verify()

    @pytest.mark.parametrize("prune", (False, True))
    def test_all_rows_pinned_gives_single_world(self, rng, prune):
        dataset = random_incomplete_dataset(rng, n_rows=8)
        state = DeltaMaintainedState(dataset, rng.normal(size=(3, 2)), k=1, prune=prune)
        state.apply_many([CellRepair(row, 0) for row in range(dataset.n_rows)])
        for i in range(state.n_points):
            assert sum(state.counts(i)) == 1
            assert state.certain_label(i) is not None
            assert prediction_entropy(state.counts(i)) == 0.0

    @pytest.mark.parametrize("prune", (False, True))
    def test_pinning_every_uncertain_row_leaves_zero_entropy(self, rng, prune):
        # Entropy can rise along a pin sequence, but once every dirty row
        # is pinned only one world is left, so every point is certain.
        dataset = random_incomplete_dataset(rng, n_rows=8)
        state = DeltaMaintainedState(dataset, rng.normal(size=(3, 2)), k=3, prune=prune)
        state.apply_many([CellRepair(row, 0) for row in dataset.uncertain_rows()])
        assert [prediction_entropy(c) for c in state.counts_all()] == [0.0] * 3
        assert None not in state.certain_labels()

    @pytest.mark.parametrize("prune", (False, True))
    def test_certain_labels_consistent_with_counts(self, rng, prune):
        dataset = random_incomplete_dataset(rng, n_rows=8)
        state = DeltaMaintainedState(dataset, rng.normal(size=(6, 2)), k=3, prune=prune)
        for i, label in enumerate(state.certain_labels()):
            counts = state.counts(i)
            if label is None:
                assert sum(1 for c in counts if c > 0) > 1
            else:
                assert counts[label] == sum(counts)

    @pytest.mark.parametrize("prune", (False, True))
    def test_far_away_dirty_row_is_pruned(self, prune):
        # Nine tight rows around the test point, one dirty row far away:
        # repairing the far row takes the scalar rule for k=3.
        near = [np.array([[0.1 * i, 0.0]]) for i in range(9)]
        far = np.array([[50.0, 50.0], [60.0, 60.0], [70.0, 70.0]])
        dataset = IncompleteDataset(near + [far], labels=[0, 1] * 5)
        state = DeltaMaintainedState(dataset, np.zeros(2), k=3, prune=prune)
        before = state.counts(0)
        state.apply(CellRepair(9, 1))
        assert (state.n_pruned, state.n_recomputed) == (1, 0)
        assert state.counts(0) == [c // 3 for c in before]
        state.verify()

    @pytest.mark.parametrize("prune", (False, True))
    def test_nearby_dirty_row_is_recomputed(self, prune):
        near_dirty = np.array([[0.0, 0.0], [0.2, 0.0]])
        others = [np.array([[1.0 * (i + 1), 0.0]]) for i in range(5)]
        dataset = IncompleteDataset([near_dirty] + others, labels=[0, 1, 0, 1, 0, 1])
        state = DeltaMaintainedState(dataset, np.zeros(2), k=3, prune=prune)
        state.apply(CellRepair(0, 0))
        assert (state.n_pruned, state.n_recomputed) == (0, 1)
        state.verify()

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=1, max_value=3),
        n_labels=st.integers(min_value=2, max_value=3),
    )
    def test_random_pin_sequences_stay_exact(self, seed, k, n_labels):
        rng = np.random.default_rng(seed)
        dataset = random_incomplete_dataset(rng, n_rows=6, n_labels=n_labels)
        points = rng.normal(size=(3, dataset.n_features))
        state = DeltaMaintainedState(dataset, points, k=k)
        rows = dataset.uncertain_rows()
        rng.shuffle(rows)
        pinned = dataset
        for row in rows:
            cand = int(rng.integers(dataset.candidate_counts()[row]))
            state.apply(CellRepair(row, cand))
            pinned = pinned.restrict_row(row, cand)
        for i in range(3):
            assert state.counts(i) == PreparedQuery(pinned, points[i], k=k).counts()


class TestValidation:
    def test_k_must_fit_the_dataset(self):
        with pytest.raises(ValueError, match="exceeds the number of training rows"):
            DeltaMaintainedState(small_dataset(), probe_points(), k=5)

    def test_repair_row_out_of_range(self):
        state = DeltaMaintainedState(small_dataset(), probe_points(), k=2)
        with pytest.raises(IndexError, match="row 9 out of range"):
            state.apply(CellRepair(9, 0))

    def test_repair_candidate_out_of_range(self):
        state = DeltaMaintainedState(small_dataset(), probe_points(), k=2)
        with pytest.raises(IndexError, match="candidate 5 out of range"):
            state.apply(CellRepair(0, 5))

    def test_delete_cannot_drop_below_k(self):
        state = DeltaMaintainedState(small_dataset(), probe_points(), k=4)
        with pytest.raises(ValueError, match="cannot delete row 0"):
            state.apply(RowDelete(0))

    def test_delete_row_out_of_range(self):
        state = DeltaMaintainedState(small_dataset(), probe_points(), k=2)
        with pytest.raises(IndexError, match="row 7 out of range"):
            state.apply(RowDelete(7))

    def test_unknown_delta_type_rejected(self):
        state = DeltaMaintainedState(small_dataset(), probe_points(), k=2)
        with pytest.raises(TypeError, match="unknown delta type"):
            state.apply("not a delta")

    def test_sims_matrix_shape_checked(self):
        with pytest.raises(ValueError, match="sims_matrix must have shape"):
            DeltaMaintainedState(
                small_dataset(),
                probe_points(),
                k=2,
                sims_matrix=np.zeros((3, 2)),
            )

    def test_test_points_shape_checked(self):
        with pytest.raises(ValueError, match="test_points must have shape"):
            DeltaMaintainedState(small_dataset(), np.zeros((2, 5)), k=2)


class TestWarmStateHandoff:
    def test_sims_matrix_is_bit_identical_to_pairwise(self):
        dataset = small_dataset()
        points = probe_points()
        state = DeltaMaintainedState(dataset, points, k=3)
        state.apply(RowAppend(np.array([[3.0, 3.0], [6.0, 6.0]]), 0))
        state.apply(CellRepair(1, 1))
        current = state.dataset
        stacked = np.concatenate(
            [current.candidates(i) for i in range(current.n_rows)], axis=0
        )
        expected = state.kernel.pairwise(stacked, points)
        assert np.array_equal(state.sims_matrix(), expected)

    def test_prepared_batch_answers_like_a_cold_one(self):
        from repro.core.batch_engine import PreparedBatch

        dataset = small_dataset()
        points = probe_points()
        state = DeltaMaintainedState(dataset, points, k=3)
        state.apply(CellRepair(0, 0))
        warm = state.prepared_batch()
        cold = PreparedBatch(state.dataset, points, k=3, kernel=state.kernel)
        for i in range(len(points)):
            assert warm.query(i).counts() == cold.query(i).counts()

    def test_accepts_precomputed_sims_matrix(self):
        dataset = small_dataset()
        points = probe_points()
        cold = DeltaMaintainedState(dataset, points, k=3)
        warm = DeltaMaintainedState(
            dataset, points, k=3, sims_matrix=cold.sims_matrix()
        )
        assert warm.counts_all() == cold.counts_all()

    @pytest.mark.parametrize("prune", (False, True))
    def test_seeding_from_a_prepared_batch_shares_without_writing(self, prune):
        from repro.core.batch_engine import PreparedBatch

        dataset = random_incomplete_dataset(np.random.default_rng(5), n_rows=9)
        points = np.random.default_rng(6).normal(size=(4, dataset.n_features))
        batch = PreparedBatch(dataset, points, k=3)
        before = batch.sims_matrix.copy()
        seeded = DeltaMaintainedState(
            dataset, points, k=3, sims_matrix=batch.sims_matrix, prune=prune
        )
        unseeded = DeltaMaintainedState(dataset, points, k=3, prune=prune)
        assert np.shares_memory(seeded._row_sims[0], batch.sims_matrix)
        with pytest.raises(ValueError, match="read-only"):
            seeded._row_sims[0][0, 0] = 0.0
        assert np.array_equal(seeded._mins, unseeded._mins)
        assert np.array_equal(seeded._maxs, unseeded._maxs)
        dirty = dataset.uncertain_rows()
        deltas = [
            CellRepair(dirty[0], 1),
            RowAppend(np.zeros((2, dataset.n_features)), 0),
            RowDelete(dirty[1]),
        ]
        for delta in deltas:
            assert seeded.apply(delta) == unseeded.apply(delta)
            assert seeded.counts_all() == unseeded.counts_all()
        seeded.verify()
        assert np.array_equal(batch.sims_matrix, before)
        assert batch.sims_matrix.flags.writeable  # the batch's own flag is untouched

    def test_a_delta_never_writes_a_matrix_the_state_handed_out(self):
        dataset = random_incomplete_dataset(np.random.default_rng(7), n_rows=9)
        points = np.random.default_rng(8).normal(size=(3, dataset.n_features))
        state = DeltaMaintainedState(dataset, points, k=3, prune=True)
        unread = DeltaMaintainedState(dataset, points, k=3, prune=True)
        dirty = dataset.uncertain_rows()
        handed = []
        for delta in (
            CellRepair(dirty[0], 1),
            RowAppend(np.zeros((2, dataset.n_features)), 0),
            RowDelete(dirty[1]),
            RowDelete(0),
        ):
            matrix = state.sims_matrix()
            handed.append((matrix, matrix.copy(), state.prepared_batch()))
            assert state.apply(delta) == unread.apply(delta)
            assert state.sims_matrix() is not matrix
            state.verify()  # the spliced matrix equals a fresh recompute
        for matrix, copy, batch in handed:
            with pytest.raises(ValueError, match="read-only"):
                matrix[0, 0] = 0.0
            assert np.array_equal(matrix, copy)
            assert batch.sims_matrix is matrix
        assert unread._sims is None  # never read as a matrix: never spliced

    def test_verify_detects_corruption(self):
        state = DeltaMaintainedState(small_dataset(), probe_points(), k=3)
        state.verify()  # clean state passes
        state._counts[0][0] += 1
        with pytest.raises(AssertionError, match="maintained counts diverged"):
            state.verify()
