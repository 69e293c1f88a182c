"""CPClean — cleaning by sequential information maximisation (paper §4.1).

Algorithm 3: at every step, for every not-yet-cleaned dirty row ``i`` and
every candidate ``x_{i,j}``, estimate the validation-prediction entropy that
would remain if a human revealed ``c_i = x_{i,j}``; average over candidates
(the uniform prior of Eq. (4)) and clean the row with the smallest expected
remaining entropy. The entropies come from exact Q2 counts.

The per-row evaluation uses
:meth:`repro.core.prepared.PreparedQuery.counts_per_fixing`, which computes
the Q2 counts of *all* "row fixed to candidate j" variants against one
validation point in a single sort-scan, so one selection step costs
``O(n_dirty * |Dval|)`` scans instead of ``O(n_dirty * M * |Dval|)`` full
query evaluations. The scans are scored through
:meth:`repro.cleaning.sequential.CleaningSession.expected_entropies`, which
fans the candidate rows out across the session's worker pool when
``n_jobs > 1`` (results are identical for every ``n_jobs``).

``CPCleanStrategy`` plugs into :class:`repro.cleaning.sequential.CleaningSession`;
:func:`run_cp_clean` is the packaged end-to-end entry point.
"""

from __future__ import annotations

import numpy as np

from repro.cleaning.oracle import CleaningOracle
from repro.cleaning.report import CleaningReport
from repro.cleaning.sequential import CleaningSession, CleaningStrategy
from repro.core.dataset import IncompleteDataset
from repro.core.kernels import Kernel

__all__ = ["CPCleanStrategy", "run_cp_clean"]


class CPCleanStrategy(CleaningStrategy):
    """Greedy minimum-expected-entropy selection (Algorithm 3, lines 5-9)."""

    name = "cpclean"

    def select(self, session: CleaningSession, remaining: list[int]) -> tuple[int, float | None]:
        if not remaining:
            raise ValueError("no dirty rows remain to select from")
        # Expected remaining entropy after cleaning each row, Eq. (4):
        # uniform prior over which candidate is the truth, averaged over
        # the validation set (Eq. (3)). Scored via the session's batch
        # executor (parallel across rows when the session has n_jobs > 1).
        entropies = session.expected_entropies(remaining)
        best_row = remaining[0]
        best_entropy = float("inf")
        for row in remaining:
            expected = entropies[row]
            if expected < best_entropy - 1e-15:
                best_entropy = expected
                best_row = row
        return best_row, best_entropy


def run_cp_clean(
    dataset: IncompleteDataset,
    val_X: np.ndarray,
    oracle: CleaningOracle,
    k: int = 3,
    kernel: Kernel | str | None = None,
    max_cleaned: int | None = None,
    on_step=None,
    n_jobs: int | None = 1,
    backend: str = "auto",
) -> CleaningReport:
    """Run CPClean until all validation points are CP'ed (or budget is hit).

    Returns the :class:`~repro.cleaning.report.CleaningReport`; the cleaned
    dataset is recoverable through ``report.final_fixed`` (any world of the
    partially cleaned dataset has the same validation accuracy as the
    ground-truth world once every validation point is CP'ed — the paper's
    termination guarantee). ``n_jobs``/``backend`` configure
    the session's planner-routed query execution (see
    :class:`CleaningSession`); they change the wall-clock, never the report.
    """
    session = CleaningSession(
        dataset, val_X, k=k, kernel=kernel, n_jobs=n_jobs, backend=backend
    )
    return session.run(CPCleanStrategy(), oracle, max_cleaned=max_cleaned, on_step=on_step)
