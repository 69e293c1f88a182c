"""Equivalence and caching tests for the parallel batch CP query engine.

The ``batch`` backend's contract is that it NEVER changes results — only
how fast they arrive. Every test here therefore compares against the sequential
per-point path (:class:`repro.core.prepared.PreparedQuery`) and demands
bit-identical output, across ``n_jobs`` values, cache states and pinned-row
mappings.
"""

import numpy as np
import pytest

from repro.cleaning.cp_clean import run_cp_clean
from repro.cleaning.oracle import GroundTruthOracle
from repro.cleaning.sequential import CleaningSession
from repro.core.batch_engine import PreparedBatch, fanout_map, resolve_n_jobs
from repro.core.dataset import IncompleteDataset
from repro.core.planner import (
    BatchParallelBackend,
    ExecutionOptions,
    execute_query,
    make_query,
)
from repro.core.prepared import PreparedQuery
from repro.core.queries import certain_label
from repro.core.scan import compute_scan_order, compute_scan_orders
from repro.core.screening import screen_dataset
from tests.conftest import random_incomplete_dataset


def _workload(seed=0, n_rows=24, n_val=6, n_labels=2, max_candidates=3):
    rng = np.random.default_rng(seed)
    dataset = random_incomplete_dataset(
        rng, n_rows=n_rows, n_labels=n_labels, max_candidates=max_candidates
    )
    # Regenerate until at least two rows are dirty (the tests pin rows).
    while len(dataset.uncertain_rows()) < 2:
        dataset = random_incomplete_dataset(
            rng, n_rows=n_rows, n_labels=n_labels, max_candidates=max_candidates
        )
    test_X = rng.normal(size=(n_val, dataset.n_features))
    return dataset, test_X


def _sequential_counts(dataset, test_X, k, fixed=None):
    return [PreparedQuery(dataset, t, k=k).counts(fixed) for t in test_X]


def _scaled(factor, x):
    return factor * x


def _batch(dataset, test_X, kind="counts", pins=None, n_jobs=1, kernel=None):
    """Values of one uncached query on the ``batch`` backend."""
    query = make_query(dataset, test_X, kind=kind, k=3, pins=pins, kernel=kernel)
    options = ExecutionOptions(n_jobs=n_jobs, cache=False)
    return execute_query(query, backend="batch", options=options).values


def _cached(backend, dataset, test_X, pins=None):
    """Counts through ``backend`` with its shared result cache on."""
    query = make_query(dataset, test_X, kind="counts", k=3, pins=pins)
    return backend.execute(query, ExecutionOptions(cache=True))[0]


class TestPreparedBatch:
    def test_scan_orders_match_per_point_path(self):
        dataset, test_X = _workload()
        batch = PreparedBatch(dataset, test_X, k=3)
        batched = compute_scan_orders(dataset, test_X)
        for i, t in enumerate(test_X):
            reference = compute_scan_order(dataset, t)
            for scan in (batch.scan(i), batched[i]):
                assert np.array_equal(scan.rows, reference.rows)
                assert np.array_equal(scan.cands, reference.cands)
                assert np.array_equal(scan.sims, reference.sims)

    def test_batch_built_queries_behave_like_fresh_ones(self):
        dataset, test_X = _workload(seed=3)
        batch = PreparedBatch(dataset, test_X, k=3)
        target = dataset.uncertain_rows()[0]
        for i, t in enumerate(test_X):
            fresh = PreparedQuery(dataset, t, k=3)
            from_batch = batch.query(i)
            assert from_batch.counts() == fresh.counts()
            assert from_batch.counts_per_fixing(target) == fresh.counts_per_fixing(target)
            assert from_batch.certain_label_minmax() == fresh.certain_label_minmax()

    def test_k_larger_than_rows_rejected(self):
        dataset, test_X = _workload(n_rows=4)
        with pytest.raises(ValueError, match="exceeds the number of training rows"):
            PreparedBatch(dataset, test_X, k=10)

    def test_accepts_precomputed_sims(self):
        dataset, test_X = _workload(seed=9)
        dense = PreparedBatch(dataset, test_X, k=2)
        handed = PreparedBatch(dataset, test_X, k=2, sims_matrix=dense.sims_matrix)
        assert handed.sims_matrix is dense.sims_matrix  # no copy
        for index in range(test_X.shape[0]):
            assert np.array_equal(handed.scan(index).rows, dense.scan(index).rows)
            assert np.array_equal(handed.scan(index).sims, dense.scan(index).sims)
            assert handed.query(index).counts({}) == dense.query(index).counts({})

    def test_rejects_misshaped_sims(self):
        dataset, _ = _workload(seed=10)
        test_X = np.zeros((2, dataset.n_features))
        with pytest.raises(ValueError, match="sims_matrix"):
            PreparedBatch(dataset, test_X, k=1, sims_matrix=np.zeros((2, 3)))

    @pytest.mark.parametrize("rows", [1, 2, 5])
    def test_row_blocked_fill_matches_one_pairwise_call(self, rows, monkeypatch):
        from repro.core import batch_engine

        dataset, test_X = _workload(seed=12)
        dense = PreparedBatch(dataset, test_X, k=2)
        stacked = dataset.candidate_layout().stacked
        monkeypatch.setattr(
            batch_engine, "PAIRWISE_BLOCK_BYTES", rows * stacked.size * 8
        )
        blocked = PreparedBatch(dataset, test_X, k=2)
        assert np.array_equal(blocked.sims_matrix, dense.sims_matrix)


class TestBatchCountsEquivalence:
    @pytest.mark.parametrize("n_labels", [2, 3])
    def test_counts_identical_to_sequential(self, n_labels):
        dataset, test_X = _workload(seed=1, n_labels=n_labels)
        expected = _sequential_counts(dataset, test_X, k=3)
        assert _batch(dataset, test_X) == expected

    def test_counts_identical_with_n_jobs(self):
        dataset, test_X = _workload(seed=2)
        expected = _sequential_counts(dataset, test_X, k=3)
        assert _batch(dataset, test_X, n_jobs=2) == expected
        assert _batch(dataset, test_X, n_jobs=4) == expected

    def test_counts_identical_with_pinned_rows(self):
        dataset, test_X = _workload(seed=4)
        fixed = {row: 0 for row in dataset.uncertain_rows()[:2]}
        expected = _sequential_counts(dataset, test_X, k=3, fixed=fixed)
        assert _batch(dataset, test_X, pins=fixed) == expected
        assert _batch(dataset, test_X, pins=fixed, n_jobs=2) == expected

    def test_certain_labels_match_query_api(self):
        for n_labels in (2, 3):
            dataset, test_X = _workload(seed=5, n_labels=n_labels)
            expected = [certain_label(dataset, t, k=3) for t in test_X]
            assert _batch(dataset, test_X, kind="certain_label") == expected

    def test_out_of_range_pin_rejected(self):
        dataset, test_X = _workload(seed=6)
        row = dataset.uncertain_rows()[0]
        with pytest.raises(IndexError, match="out of range"):
            _batch(dataset, test_X, pins={row: 99})
        # The binary MinMax path must reject bad pins too, not silently
        # read a neighbouring row's similarity.
        assert dataset.n_labels == 2
        too_far = {row: int(dataset.candidates(row).shape[0])}
        with pytest.raises(IndexError, match="out of range"):
            _batch(dataset, test_X, kind="certain_label", pins=too_far)


class TestResultCache:
    def test_cache_hits_serve_identical_results(self):
        dataset, test_X = _workload(seed=7)
        backend = BatchParallelBackend()
        first = _cached(backend, dataset, test_X)
        assert backend.cache.hits == 0
        second = _cached(backend, dataset, test_X)
        assert second == first
        assert backend.cache.hits == len(test_X)
        # Cached results also match the sequential path, not just each other.
        assert second == _sequential_counts(dataset, test_X, k=3)

    def test_cache_hit_results_are_isolated_copies(self):
        dataset, test_X = _workload(seed=8)
        backend = BatchParallelBackend()
        first = _cached(backend, dataset, test_X)
        first[0][0] = -12345  # corrupt the caller's copy
        assert _cached(backend, dataset, test_X) == _sequential_counts(dataset, test_X, k=3)

    def test_distinct_pins_get_distinct_entries(self):
        dataset, test_X = _workload(seed=9)
        backend = BatchParallelBackend()
        row = dataset.uncertain_rows()[0]
        plain = _cached(backend, dataset, test_X)
        pinned = _cached(backend, dataset, test_X, pins={row: 1})
        assert pinned == _sequential_counts(dataset, test_X, k=3, fixed={row: 1})
        assert backend.cache.hits == 0  # different keys: no false sharing
        assert _cached(backend, dataset, test_X) == plain
        assert backend.cache.hits == len(test_X)

    def test_fingerprint_change_invalidates(self):
        """The shared cache never leaks results across dataset contents."""
        dataset, test_X = _workload(seed=10)
        backend = BatchParallelBackend()
        before = _cached(backend, dataset, test_X)

        row = dataset.uncertain_rows()[0]
        cleaned = dataset.restrict_row(row, 1)
        assert cleaned.fingerprint() != dataset.fingerprint()

        hits_before = backend.cache.hits
        after = _cached(backend, cleaned, test_X)
        assert backend.cache.hits == hits_before  # every lookup missed: new fingerprint
        assert after == _sequential_counts(cleaned, test_X, k=3)
        # The original dataset's entries are still valid and still served.
        assert _cached(backend, dataset, test_X) == before
        assert backend.cache.hits > hits_before

    def test_identical_content_shares_fingerprint(self):
        dataset, _ = _workload(seed=11)
        clone = IncompleteDataset(
            [dataset.candidates(i) for i in range(dataset.n_rows)], dataset.labels
        )
        assert clone.fingerprint() == dataset.fingerprint()

    def test_default_repr_kernels_never_alias_cache_entries(self):
        from repro.core.batch_engine import kernel_cache_key
        from repro.core.kernels import Kernel, RBFKernel

        class OpaqueKernel(Kernel):  # keeps object.__repr__
            def similarities(self, candidates, t):  # pragma: no cover
                raise NotImplementedError

        a, b = OpaqueKernel(), OpaqueKernel()
        assert kernel_cache_key(a) != kernel_cache_key(b)
        # Value-based reprs intentionally share keys across equal instances.
        assert kernel_cache_key(RBFKernel(2.0)) == kernel_cache_key(RBFKernel(2.0))
        assert kernel_cache_key(RBFKernel(2.0)) != kernel_cache_key(RBFKernel(3.0))

        class TweakedRBF(RBFKernel):  # inherits the parent's __repr__
            def similarities(self, candidates, t):  # pragma: no cover
                raise NotImplementedError

        # A subclass may compute different similarities, so an inherited
        # parameterised repr must not alias the parent's cache entries.
        assert kernel_cache_key(TweakedRBF(2.0)) != kernel_cache_key(RBFKernel(2.0))

    def test_shared_cache_across_threads_serves_consistent_values(self):
        """Calls on different threads sharing one result cache agree with
        the sequential reference throughout."""
        import threading

        dataset, test_X = _workload(seed=12)
        backend = BatchParallelBackend()
        expected = _sequential_counts(dataset, test_X, k=3)
        results: dict[int, list] = {}

        def run(slot: int) -> None:
            for _ in range(3):
                results[slot] = _cached(backend, dataset, test_X)

        threads = [threading.Thread(target=run, args=(slot,)) for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(results[slot] == expected for slot in results)


class TestFanout:
    def test_resolve_n_jobs(self):
        assert resolve_n_jobs(1) == 1
        assert resolve_n_jobs(3) == 3
        assert resolve_n_jobs(None) >= 1
        assert resolve_n_jobs(-1) >= 1
        with pytest.raises(ValueError):
            resolve_n_jobs(0)

    def test_fanout_map_covers_all_items(self):
        items = list(range(17))
        expected = [3 * x for x in items]  # the state reaches every call, in item order
        assert fanout_map(_scaled, items, n_jobs=1, state=3) == expected
        assert fanout_map(_scaled, items, n_jobs=3, state=3) == expected


class TestCleaningIntegration:
    def test_session_certainty_checks_match_seed_semantics(self):
        dataset, val_X = _workload(seed=12)
        session = CleaningSession(dataset, val_X, k=3)
        expected = [
            query.certain_label_minmax(session.fixed) for query in session.queries
        ]
        assert session.val_certain_labels() == expected
        row = dataset.uncertain_rows()[0]
        session.clean_row(row, 0)
        expected = [
            query.certain_label_minmax(session.fixed) for query in session.queries
        ]
        assert session.val_certain_labels() == expected

    @pytest.mark.parametrize("n_jobs,backend", [(1, "batch"), (2, "auto"), (2, "batch")])
    def test_cp_clean_report_invariant_under_executor_config(self, n_jobs, backend):
        dataset, val_X = _workload(seed=13, n_rows=16, n_val=4)
        oracle = GroundTruthOracle([0] * dataset.n_rows)
        baseline = run_cp_clean(dataset, val_X, oracle, k=3, max_cleaned=3)
        report = run_cp_clean(
            dataset, val_X, oracle, k=3, max_cleaned=3,
            n_jobs=n_jobs, backend=backend,
        )
        assert [s.row for s in report.steps] == [s.row for s in baseline.steps]
        assert [s.expected_entropy for s in report.steps] == [
            s.expected_entropy for s in baseline.steps
        ]
        assert report.final_fixed == baseline.final_fixed
        assert report.cp_fraction_final == baseline.cp_fraction_final


class TestEmptyTestSet:
    @pytest.mark.parametrize("kernel", ["euclidean", "rbf", "linear", "cosine"])
    def test_empty_test_matrix_yields_empty_results(self, kernel):
        dataset, _ = _workload(seed=15)
        empty = np.empty((0, dataset.n_features))
        assert _batch(dataset, empty, kernel=kernel) == []
        assert _batch(dataset, empty, kind="certain_label", kernel=kernel) == []
        # The backend itself, below the planner's zero-point shortcut.
        for kind in ("counts", "certain_label"):
            query = make_query(dataset, empty, kind=kind, k=3, kernel=kernel)
            assert BatchParallelBackend().execute(query)[0] == []
        assert screen_dataset(dataset, empty, k=3, kernel=kernel).cp_fraction == 1.0

    def test_empty_validation_set_session(self):
        dataset, _ = _workload(seed=16)
        empty = np.empty((0, dataset.n_features))
        session = CleaningSession(dataset, empty, k=3, kernel="linear")
        assert session.cp_fraction() == 1.0


class TestScreeningIntegration:
    def test_screening_matches_sequential_path(self):
        dataset, test_X = _workload(seed=14, n_labels=3)
        result = screen_dataset(dataset, test_X, k=3)
        assert result.counts == _sequential_counts(dataset, test_X, k=3)
        parallel = screen_dataset(dataset, test_X, k=3, n_jobs=2)
        assert parallel.counts == result.counts
        assert parallel.certain_labels == result.certain_labels
        assert parallel.entropies == result.entropies
