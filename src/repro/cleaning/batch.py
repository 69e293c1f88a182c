"""Batch cleaning: several human answers per selection round.

Algorithm 3 re-optimises after every single human answer. Real cleaning
workflows (crowdsourcing, data-steward queues) hand out *batches*: the
system picks ``batch_size`` rows at once, humans clean them in parallel,
and only then does the system look again. This module implements that
variant of CPClean:

* each round ranks the remaining dirty rows by the same expected-entropy
  objective (Equation 4, one single-scan evaluation per row per validation
  point) and submits the ``batch_size`` best;
* the certainty check and re-ranking happen once per round, not per row.

Batching trades adaptivity for latency: the batch is chosen without seeing
the answers inside it, so it can include rows a sequential run would have
skipped (the adaptivity gap of greedy policies) — though a batch can also
get lucky and finish early. ``batch_size=1`` reproduces the sequential
algorithm exactly (tested), and certification always completes.
"""

from __future__ import annotations

import numpy as np

from repro.cleaning.oracle import CleaningOracle
from repro.cleaning.report import CleaningReport, CleaningStep
from repro.cleaning.sequential import CleaningSession
from repro.core.dataset import IncompleteDataset
from repro.core.kernels import Kernel
from repro.utils.validation import check_positive_int

__all__ = ["rank_rows_by_expected_entropy", "run_batch_clean"]


def rank_rows_by_expected_entropy(
    session: CleaningSession, remaining: list[int]
) -> list[tuple[int, float]]:
    """All remaining rows with their expected post-cleaning entropy, best first.

    The scoring is exactly CPClean's selection objective (Equation 4 under
    the uniform prior), computed through the session's batch executor —
    parallel across rows when the session has ``n_jobs > 1``; ties break
    toward the smaller row index.
    """
    entropies = session.expected_entropies(remaining)
    scored = [(row, entropies[row]) for row in remaining]
    scored.sort(key=lambda item: (item[1], item[0]))
    return scored


def run_batch_clean(
    dataset: IncompleteDataset,
    val_X: np.ndarray,
    oracle: CleaningOracle,
    batch_size: int = 5,
    k: int = 3,
    kernel: Kernel | str | None = None,
    max_cleaned: int | None = None,
    on_step=None,
    n_jobs: int | None = 1,
    backend: str = "auto",
) -> CleaningReport:
    """CPClean with ``batch_size`` human answers per selection round.

    ``batch_size=1`` reproduces the sequential algorithm exactly. Returns
    the usual :class:`~repro.cleaning.report.CleaningReport`; steps within
    one round share their ``cp_fraction_before`` value (the check runs once
    per round). ``n_jobs``/``backend`` configure the session's
    planner-routed query execution (wall-clock only; the report is
    identical).
    """
    batch_size = check_positive_int(batch_size, "batch_size")
    session = CleaningSession(
        dataset, val_X, k=k, kernel=kernel, n_jobs=n_jobs, backend=backend
    )
    report = CleaningReport()
    iteration = 0
    while True:
        cp_before = session.cp_fraction()
        if cp_before >= 1.0:
            break
        remaining = session.remaining_dirty_rows()
        if not remaining:
            break
        if max_cleaned is not None and iteration >= max_cleaned:
            report.terminated_early = True
            break
        budget_left = (
            batch_size if max_cleaned is None else min(batch_size, max_cleaned - iteration)
        )
        ranked = rank_rows_by_expected_entropy(session, remaining)
        for row, expected_entropy in ranked[:budget_left]:
            candidate = oracle(row)
            session.clean_row(row, candidate)
            step = CleaningStep(
                iteration=iteration,
                row=row,
                chosen_candidate=candidate,
                cp_fraction_before=cp_before,
                expected_entropy=expected_entropy,
            )
            report.steps.append(step)
            if on_step is not None:
                on_step(step)
            iteration += 1
    report.final_fixed = dict(session.fixed)
    # Every exit follows a check at the final pins.
    report.cp_fraction_final = cp_before
    return report
