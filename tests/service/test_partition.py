"""Partition planning and similarity-block merging.

These are the pure building blocks under the gateway: contiguous
candidate-row spans (one per executor) and the lossless concatenation of
per-partition similarity blocks back into global order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.service.partition import (
    RowPartition,
    merge_sim_blocks,
    plan_row_partitions,
)


class TestPlanRowPartitions:
    def test_spans_tile_the_row_range_exactly(self):
        parts = plan_row_partitions(17, 4)
        assert [p.index for p in parts] == [0, 1, 2, 3]
        assert parts[0].start == 0
        assert parts[-1].stop == 17
        for prev, cur in zip(parts, parts[1:]):
            assert prev.stop == cur.start  # contiguous, no gap, no overlap

    def test_balanced_within_one_row(self):
        parts = plan_row_partitions(17, 4)
        sizes = [p.n_rows for p in parts]
        assert sum(sizes) == 17
        assert max(sizes) - min(sizes) <= 1

    def test_more_partitions_than_rows_clamps(self):
        parts = plan_row_partitions(3, 8)
        assert len(parts) == 3
        assert all(p.n_rows == 1 for p in parts)

    def test_single_partition_covers_everything(self):
        (part,) = plan_row_partitions(9, 1)
        assert (part.start, part.stop) == (0, 9)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            plan_row_partitions(0, 2)
        with pytest.raises(ValueError):
            plan_row_partitions(5, 0)
        with pytest.raises(ValueError):
            RowPartition(index=0, start=4, stop=4)


class TestOnePartitionPerExecutor:
    """The gateway's placement rule: partition ``i`` lives on executor ``i``."""

    def test_placement_is_deterministic(self):
        assert plan_row_partitions(37, 5) == plan_row_partitions(37, 5)

    @pytest.mark.parametrize(
        ("n_rows", "n_executors"), [(1, 1), (2, 3), (7, 2), (10, 3), (64, 5)]
    )
    def test_each_executor_owns_at_most_one_span(self, n_rows, n_executors):
        parts = plan_row_partitions(n_rows, n_executors)
        # One partition per executor that has rows to hold; none shares one.
        assert [p.index for p in parts] == list(range(min(n_rows, n_executors)))
        assert (parts[0].start, parts[-1].stop) == (0, n_rows)
        sizes = [p.n_rows for p in parts]
        assert max(sizes) - min(sizes) <= 1


class TestMerges:
    def test_sim_merge_over_planned_candidate_spans_restores_order(self):
        # Ragged candidate sets: a row span maps to a candidate span through
        # the stacked offsets, and the spans' blocks merge back losslessly.
        counts = np.array([1, 3, 2, 1, 4, 2, 1])
        offsets = np.concatenate([[0], np.cumsum(counts)])
        sims = np.random.default_rng(2).normal(size=(3, int(offsets[-1])))
        blocks = [
            sims[:, offsets[p.start] : offsets[p.stop]]
            for p in plan_row_partitions(len(counts), 3)
        ]
        assert [b.shape[1] for b in blocks] == [6, 5, 3]
        np.testing.assert_array_equal(merge_sim_blocks(blocks), sims)

    def test_sim_merge_restores_global_candidate_order(self):
        rng = np.random.default_rng(1)
        sims = rng.normal(size=(2, 9))
        merged = merge_sim_blocks([sims[:, :3], sims[:, 3:8], sims[:, 8:]])
        np.testing.assert_array_equal(merged, sims)

    def test_merge_of_empty_list_rejected(self):
        with pytest.raises(ValueError):
            merge_sim_blocks([])
