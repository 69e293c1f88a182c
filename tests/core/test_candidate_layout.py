"""The memoized candidate layout: one read-only stacked copy per dataset
version, shared by every query on it and never carried into a derived
version or a pickle."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.batch_engine import PreparedBatch
from repro.core.dataset import IncompleteDataset
from repro.core.deltas import CellRepair, RowAppend, RowDelete, apply_delta_to_dataset
from repro.core.kernels import _KERNELS_BY_NAME, resolve_kernel
from repro.core.planner import ExecutionOptions, execute_query, make_query
from repro.core.scan import _scan_from_sims


def random_dataset(seed: int, n_rows: int = 12) -> IncompleteDataset:
    rng = np.random.default_rng(seed)
    sets = [rng.normal(size=(int(rng.integers(1, 4)), 3)) for _ in range(n_rows)]
    labels = [int(label) for label in rng.integers(0, 2, size=n_rows)]
    labels[:2] = [0, 1]
    return IncompleteDataset(sets, labels)


def tied_dataset() -> IncompleteDataset:
    """Duplicate candidates within and across rows: every similarity ties
    with another one, so the scan order rests on the tie-break alone."""
    a, b = np.array([1.0, 0.0, 2.0]), np.array([0.0, 1.0, -1.0])
    sets = [np.stack([a, b]), np.stack([b, a]), a[None], np.stack([a, a, b]), b[None]]
    return IncompleteDataset(sets, [0, 1, 0, 1, 1])


def fresh_layout(dataset: IncompleteDataset):
    """The stacked layout rebuilt from the candidate sets, memo untouched."""
    counts = np.array(
        [dataset.candidates(i).shape[0] for i in range(dataset.n_rows)], dtype=np.int64
    )
    stacked = np.concatenate(
        [dataset.candidates(i) for i in range(dataset.n_rows)], axis=0
    )
    rows = np.repeat(np.arange(dataset.n_rows, dtype=np.int64), counts)
    cands = np.concatenate([np.arange(int(m), dtype=np.int64) for m in counts])
    return stacked, rows, cands, counts


class TestMemo:
    def test_arrays_are_read_only(self):
        layout = random_dataset(0).candidate_layout()
        for array in layout:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    def test_layout_matches_a_fresh_stack(self):
        dataset = random_dataset(1)
        layout = dataset.candidate_layout()
        for memo, fresh in zip(layout, fresh_layout(dataset)):
            assert memo.dtype == fresh.dtype
            assert np.array_equal(memo, fresh)
        assert np.array_equal(layout.offsets[1:], np.cumsum(layout.counts))
        assert layout.offsets[0] == 0

    def test_queries_on_one_version_share_the_layout(self):
        dataset = random_dataset(2)
        options = ExecutionOptions(cache=False)
        execute_query(make_query(dataset, np.zeros((1, 3)), k=2), "batch", options)
        first = dataset.candidate_layout()
        execute_query(make_query(dataset, np.ones((3, 3)), k=2), "batch", options)
        assert dataset.candidate_layout() is first
        prepared = PreparedBatch(dataset, np.zeros((2, 3)), k=2)
        assert prepared._rows is first.rows and prepared._offsets is first.offsets

    @pytest.mark.parametrize(
        "derive",
        [
            lambda d: d.restrict_row(0, 0),
            lambda d: d.with_row_fixed(0, d.candidates(0)[0]),
            lambda d: d.append_row(np.zeros((2, 3)), 1),
            lambda d: d.delete_row(1),
            lambda d: apply_delta_to_dataset(d, CellRepair(0, 0)),
            lambda d: apply_delta_to_dataset(d, RowAppend(np.ones((1, 3)), 0)),
            lambda d: apply_delta_to_dataset(d, RowDelete(2)),
        ],
        ids=[
            "restrict_row",
            "with_row_fixed",
            "append_row",
            "delete_row",
            "delta_repair",
            "delta_append",
            "delta_delete",
        ],
    )
    def test_derived_versions_start_without_the_parent_layout(self, derive):
        dataset = random_dataset(3)
        parent = dataset.candidate_layout()
        child = derive(dataset)
        assert child._layout is None
        layout = child.candidate_layout()
        assert layout is not parent
        for memo, fresh in zip(layout, fresh_layout(child)):
            assert np.array_equal(memo, fresh)

    def test_pickle_size_unchanged_by_a_query(self):
        dataset = random_dataset(4)
        # The fingerprint is the other lazily filled field, and it does
        # travel; fill it first so only the layout could change the size.
        dataset.fingerprint()
        before = len(pickle.dumps(dataset))
        execute_query(
            make_query(dataset, np.zeros((1, 3)), k=2),
            "batch",
            ExecutionOptions(cache=False),
        )
        assert dataset._layout is not None
        assert len(pickle.dumps(dataset)) == before
        clone = pickle.loads(pickle.dumps(dataset))
        assert clone._layout is None
        assert clone.fingerprint() == dataset.fingerprint()
        assert np.array_equal(
            clone.candidate_layout().stacked, dataset.candidate_layout().stacked
        )


class TestPreparedBatchFromMemo:
    @pytest.mark.parametrize("kernel", sorted(_KERNELS_BY_NAME))
    @pytest.mark.parametrize(
        "make", [random_dataset, lambda _: tied_dataset()], ids=["random", "tied"]
    )
    def test_bit_identical_to_a_fresh_stack(self, kernel, make):
        dataset = make(5)
        kernel = resolve_kernel(kernel)
        rng = np.random.default_rng(6)
        # Test points that coincide with candidates force exact ties too.
        test_X = np.vstack([rng.normal(size=(3, 3)), dataset.candidates(0)])
        stacked, rows, cands, counts = fresh_layout(dataset)
        fresh_sims = kernel.pairwise(stacked, test_X)
        prepared = PreparedBatch(dataset, test_X, k=2, kernel=kernel)
        assert np.array_equal(prepared.sims_matrix, fresh_sims)
        for index in range(test_X.shape[0]):
            fresh = _scan_from_sims(
                fresh_sims[index], rows, cands, dataset.labels.copy(), counts
            )
            memo = prepared.scan(index)
            assert np.array_equal(memo.rows, fresh.rows)
            assert np.array_equal(memo.cands, fresh.cands)
            assert np.array_equal(memo.sims, fresh.sims)
            assert np.array_equal(memo.row_counts, fresh.row_counts)
