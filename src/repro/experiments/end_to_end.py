"""End-to-end comparison harness — regenerates the paper's Table 2.

For one dataset recipe and seed: build the cleaning task, evaluate Ground
Truth and Default Cleaning (the bounds), then BoostClean, HoloClean and
CPClean — the latter both run to full validation certainty and truncated at
a 20% cleaning budget, matching the two CPClean columns in Table 2.

The CPClean leg routes through the unified query planner
(:mod:`repro.core.planner`) via :func:`repro.cleaning.cp_clean.run_cp_clean`;
pass ``n_jobs`` to fan its per-row scoring scans out over worker processes
and ``backend`` to force a planner backend for the certainty checks (the
reproduced numbers are identical for every choice of either knob).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cleaning.baselines import default_clean_classifier, ground_truth_classifier
from repro.cleaning.boost_clean import run_boost_clean
from repro.cleaning.cp_clean import run_cp_clean
from repro.cleaning.holo_clean import run_holo_clean
from repro.cleaning.oracle import GroundTruthOracle
from repro.core.knn import KNNClassifier
from repro.data.task import CleaningTask, build_cleaning_task
from repro.experiments.metrics import gap_closed

__all__ = ["EndToEndResult", "run_end_to_end", "average_end_to_end"]


@dataclass
class EndToEndResult:
    """One row of Table 2 (plus the raw accuracies behind it)."""

    dataset: str
    ground_truth_accuracy: float
    default_accuracy: float
    boost_clean_gap: float
    holo_clean_gap: float
    cp_clean_gap: float
    cp_clean_examples_cleaned: float  # fraction of dirty examples cleaned
    cp_clean_budget_gap: float  # gap closed with the 20% budget
    raw: dict = field(default_factory=dict)


def _world_accuracy(task: CleaningTask, fixed: dict[int, int]) -> float:
    """Test accuracy of the representative world of a partially cleaned dataset.

    Cleaned rows take the human answer; still-dirty rows take the candidate
    closest to the default imputation (any world is valid once validation is
    fully CP'ed; this choice also behaves sensibly mid-run).
    """
    choice = task.default_choice.copy()
    for row, cand in fixed.items():
        choice[row] = cand
    world = task.incomplete.world([int(c) for c in choice])
    clf = KNNClassifier(k=task.k).fit(world, task.train_labels)
    return clf.accuracy(task.test_X, task.test_y)


def run_end_to_end(
    recipe: str,
    n_train: int = 120,
    n_val: int = 24,
    n_test: int = 300,
    seed: int = 0,
    budget_fraction: float = 0.2,
    boost_rounds: int = 1,
    task: CleaningTask | None = None,
    n_jobs: int | None = 1,
    backend: str = "auto",
) -> EndToEndResult:
    """Run the full Table-2 comparison for one dataset and seed."""
    if task is None:
        task = build_cleaning_task(recipe, n_train=n_train, n_val=n_val, n_test=n_test, seed=seed)

    gt_acc = ground_truth_classifier(task).accuracy(task.test_X, task.test_y)
    default_acc = default_clean_classifier(task).accuracy(task.test_X, task.test_y)

    boost_acc = run_boost_clean(task, n_rounds=boost_rounds).accuracy(task.test_X, task.test_y)

    holo_table = run_holo_clean(task.dirty_train, task.repair_space)
    holo_clf = KNNClassifier(k=task.k).fit(
        task.encoder.encode_table(holo_table), task.train_labels
    )
    holo_acc = holo_clf.accuracy(task.test_X, task.test_y)

    oracle = GroundTruthOracle(task.gt_choice)
    report = run_cp_clean(
        task.incomplete, task.val_X, oracle, k=task.k, n_jobs=n_jobs, backend=backend,
    )
    cp_acc = _world_accuracy(task, report.final_fixed)

    n_dirty = max(len(task.dirty_rows), 1)
    budget = max(1, round(budget_fraction * n_dirty))
    budget_fixed = {
        step.row: step.chosen_candidate for step in report.steps[:budget]
    }
    cp_budget_acc = _world_accuracy(task, budget_fixed)

    return EndToEndResult(
        dataset=task.name,
        ground_truth_accuracy=gt_acc,
        default_accuracy=default_acc,
        boost_clean_gap=gap_closed(boost_acc, default_acc, gt_acc),
        holo_clean_gap=gap_closed(holo_acc, default_acc, gt_acc),
        cp_clean_gap=gap_closed(cp_acc, default_acc, gt_acc),
        cp_clean_examples_cleaned=report.n_cleaned / n_dirty,
        cp_clean_budget_gap=gap_closed(cp_budget_acc, default_acc, gt_acc),
        raw={
            "boost_accuracy": boost_acc,
            "holo_accuracy": holo_acc,
            "cp_accuracy": cp_acc,
            "cp_budget_accuracy": cp_budget_acc,
            "n_dirty": n_dirty,
            "n_cleaned": report.n_cleaned,
            "cp_fraction_final": report.cp_fraction_final,
        },
    )


def average_end_to_end(
    recipe: str,
    seeds: list[int],
    n_train: int = 120,
    n_val: int = 24,
    n_test: int = 300,
    budget_fraction: float = 0.2,
    n_jobs: int | None = 1,
    backend: str = "auto",
) -> EndToEndResult:
    """Average :func:`run_end_to_end` over seeds (reduces small-scale noise)."""
    results = [
        run_end_to_end(
            recipe,
            n_train=n_train,
            n_val=n_val,
            n_test=n_test,
            seed=seed,
            budget_fraction=budget_fraction,
            n_jobs=n_jobs,
            backend=backend,
        )
        for seed in seeds
    ]
    return EndToEndResult(
        dataset=recipe,
        ground_truth_accuracy=float(np.mean([r.ground_truth_accuracy for r in results])),
        default_accuracy=float(np.mean([r.default_accuracy for r in results])),
        boost_clean_gap=float(np.mean([r.boost_clean_gap for r in results])),
        holo_clean_gap=float(np.mean([r.holo_clean_gap for r in results])),
        cp_clean_gap=float(np.mean([r.cp_clean_gap for r in results])),
        cp_clean_examples_cleaned=float(
            np.mean([r.cp_clean_examples_cleaned for r in results])
        ),
        cp_clean_budget_gap=float(np.mean([r.cp_clean_budget_gap for r in results])),
        raw={"seeds": list(seeds), "individual": results},
    )
