"""Ablation A3: sensitivity of certainty and cleaning effort to K and the
missing rate.

Not a paper table, but a design-space check: more
incompleteness must monotonically (in expectation) reduce the fraction of
CP'ed validation points; the choice of K shifts where certainty lands but
must not break the pipeline. Reported: CP'ed fraction before cleaning and
CPClean effort to certify everything.
"""

import pytest

from repro.cleaning.oracle import GroundTruthOracle
from repro.cleaning.cp_clean import run_cp_clean
from repro.cleaning.sequential import CleaningSession
from repro.data.task import build_cleaning_task
from repro.utils.tables import format_percent, format_table

RECIPE = "supreme"
N_TRAIN, N_VAL, N_TEST = 80, 16, 100


def _initial_cp_fraction(task):
    session = CleaningSession(task.incomplete, task.val_X, k=task.k)
    return session.cp_fraction()


def test_ablation_missing_rate(benchmark, emit):
    def run():
        rows = []
        for rate in (0.05, 0.1, 0.2, 0.4):
            task = build_cleaning_task(
                RECIPE,
                n_train=N_TRAIN,
                n_val=N_VAL,
                n_test=N_TEST,
                missing_rate=rate,
                seed=2,
            )
            initial = _initial_cp_fraction(task)
            report = run_cp_clean(
                task.incomplete, task.val_X, GroundTruthOracle(task.gt_choice), k=task.k
            )
            n_dirty = max(len(task.dirty_rows), 1)
            rows.append((rate, initial, report.n_cleaned / n_dirty))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        format_table(
            ["missing rate", "initial CP'ed", "CPClean effort"],
            [[format_percent(r), format_percent(i), format_percent(e)] for r, i, e in rows],
            title=f"Ablation A3a — missing rate vs certainty ({RECIPE})",
        )
    )
    # More missingness => less initial certainty (weak monotonicity).
    initials = [i for _r, i, _e in rows]
    assert initials[0] >= initials[-1] - 0.05


@pytest.mark.parametrize("k", [1, 3, 5])
def test_ablation_k(benchmark, emit, k):
    def run():
        task = build_cleaning_task(
            RECIPE, n_train=N_TRAIN, n_val=N_VAL, n_test=N_TEST, seed=2, k=k
        )
        initial = _initial_cp_fraction(task)
        report = run_cp_clean(
            task.incomplete, task.val_X, GroundTruthOracle(task.gt_choice), k=task.k
        )
        n_dirty = max(len(task.dirty_rows), 1)
        return initial, report.n_cleaned / n_dirty, report.cp_fraction_final

    initial, effort, final = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        format_table(
            ["K", "initial CP'ed", "CPClean effort", "final CP'ed"],
            [[k, format_percent(initial), format_percent(effort), format_percent(final)]],
            title="Ablation A3b — neighbourhood size K",
        )
    )
    assert final == pytest.approx(1.0)
