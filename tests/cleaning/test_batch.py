"""Batch cleaning rounds: equivalence at B=1, budgets, completion."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cleaning.batch import rank_rows_by_expected_entropy, run_batch_clean
from repro.cleaning.cp_clean import CPCleanStrategy, run_cp_clean
from repro.cleaning.oracle import GroundTruthOracle
from repro.cleaning.sequential import CleaningSession
from tests.conftest import random_incomplete_dataset


@pytest.fixture
def workload(rng: np.random.Generator):
    dataset = random_incomplete_dataset(rng, n_rows=10, n_labels=2)
    val_X = rng.normal(size=(5, dataset.n_features))
    gt = [int(rng.integers(m)) for m in dataset.candidate_counts()]
    return dataset, val_X, GroundTruthOracle(gt)


class TestRanking:
    def test_ranking_covers_all_remaining(self, workload) -> None:
        dataset, val_X, _ = workload
        session = CleaningSession(dataset, val_X, k=3)
        remaining = session.remaining_dirty_rows()
        ranked = rank_rows_by_expected_entropy(session, remaining)
        assert sorted(row for row, _ in ranked) == sorted(remaining)

    def test_ranking_is_sorted_by_entropy(self, workload) -> None:
        dataset, val_X, _ = workload
        session = CleaningSession(dataset, val_X, k=3)
        ranked = rank_rows_by_expected_entropy(session, session.remaining_dirty_rows())
        entropies = [entropy for _, entropy in ranked]
        assert entropies == sorted(entropies)

    def test_rank_head_matches_cpclean_pick(self, workload) -> None:
        dataset, val_X, _ = workload
        session = CleaningSession(dataset, val_X, k=3)
        remaining = session.remaining_dirty_rows()
        ranked = rank_rows_by_expected_entropy(session, remaining)
        pick, _ = CPCleanStrategy().select(session, remaining)
        assert ranked[0][0] == pick


class TestBatchRuns:
    def test_batch_size_one_matches_sequential(self, workload) -> None:
        dataset, val_X, oracle = workload
        sequential = run_cp_clean(dataset, val_X, oracle, k=3)
        batched = run_batch_clean(dataset, val_X, oracle, batch_size=1, k=3)
        assert batched.cleaned_rows() == sequential.cleaned_rows()
        assert batched.cp_fraction_final == 1.0

    @pytest.mark.parametrize("batch_size", [2, 4, 100])
    def test_batches_reach_full_certainty(self, workload, batch_size: int) -> None:
        dataset, val_X, oracle = workload
        report = run_batch_clean(dataset, val_X, oracle, batch_size=batch_size, k=3)
        assert report.cp_fraction_final == 1.0
        cleaned = report.cleaned_rows()
        assert len(cleaned) == len(set(cleaned))

    def test_batch_effort_bounded_by_dirty_rows(self, workload) -> None:
        # Batching loses adaptivity so effort usually grows, but a lucky
        # batch can also finish early — the only hard bounds are the dirty
        # row count and completing in whole rounds (final round may be cut
        # short by certification).
        dataset, val_X, oracle = workload
        sequential = run_batch_clean(dataset, val_X, oracle, batch_size=1, k=3)
        big = run_batch_clean(dataset, val_X, oracle, batch_size=4, k=3)
        n_dirty = dataset.n_uncertain
        assert sequential.n_cleaned <= n_dirty
        assert big.n_cleaned <= n_dirty
        # every round except possibly the last is a full batch
        assert big.n_cleaned % 4 == 0 or big.cp_fraction_final == 1.0

    def test_budget_respected_mid_batch(self, workload) -> None:
        dataset, val_X, oracle = workload
        report = run_batch_clean(
            dataset, val_X, oracle, batch_size=4, k=3, max_cleaned=3
        )
        assert report.n_cleaned <= 3

    def test_budget_zero_cleans_nothing(self, workload) -> None:
        dataset, val_X, oracle = workload
        report = run_batch_clean(dataset, val_X, oracle, batch_size=4, k=3, max_cleaned=0)
        assert report.n_cleaned == 0
        assert report.terminated_early or report.cp_fraction_final == 1.0

    def test_steps_in_one_round_share_cp_fraction(self, workload) -> None:
        dataset, val_X, oracle = workload
        report = run_batch_clean(dataset, val_X, oracle, batch_size=3, k=3)
        by_round: dict[float, list[int]] = {}
        for index, step in enumerate(report.steps):
            by_round.setdefault(step.cp_fraction_before, []).append(index)
        # indices within one round are contiguous
        for indices in by_round.values():
            assert indices == list(range(indices[0], indices[0] + len(indices)))

    def test_invalid_batch_size_rejected(self, workload) -> None:
        dataset, val_X, oracle = workload
        with pytest.raises(ValueError):
            run_batch_clean(dataset, val_X, oracle, batch_size=0, k=3)


class TestFinalCheck:
    """A run's final CP fraction is its last loop check's: no extra check.

    Every exit of the loop (all certain, no dirty rows left, budget spent)
    follows a check at unchanged pins, so a re-check could only repeat it.
    """

    @staticmethod
    def _count_checks(monkeypatch) -> list[dict]:
        calls: list[dict] = []
        original = CleaningSession.val_certain_labels

        def counted(self):
            calls.append(dict(self.fixed))
            return original(self)

        monkeypatch.setattr(CleaningSession, "val_certain_labels", counted)
        return calls

    @staticmethod
    def _rechecked(dataset, val_X, fixed) -> float:
        session = CleaningSession(dataset, val_X, k=3)
        for row, cand in fixed.items():
            session.clean_row(row, cand)
        return session.cp_fraction()

    @pytest.mark.parametrize("max_cleaned", [None, 0, 2])
    def test_sequential_run_checks_once_per_step_plus_exit(
        self, workload, monkeypatch, max_cleaned
    ) -> None:
        dataset, val_X, oracle = workload
        calls = self._count_checks(monkeypatch)
        report = run_cp_clean(dataset, val_X, oracle, k=3, max_cleaned=max_cleaned)
        assert len(calls) == report.n_cleaned + 1
        assert calls[-1] == report.final_fixed
        assert report.cp_fraction_final == self._rechecked(
            dataset, val_X, report.final_fixed
        )

    @pytest.mark.parametrize("max_cleaned", [None, 4])
    def test_batch_run_checks_once_per_round_plus_exit(
        self, workload, monkeypatch, max_cleaned
    ) -> None:
        dataset, val_X, oracle = workload
        calls = self._count_checks(monkeypatch)
        report = run_batch_clean(
            dataset, val_X, oracle, batch_size=3, k=3, max_cleaned=max_cleaned
        )
        rounds = -(-report.n_cleaned // 3)
        assert len(calls) == rounds + 1
        assert calls[-1] == report.final_fixed
        assert report.cp_fraction_final == self._rechecked(
            dataset, val_X, report.final_fixed
        )
