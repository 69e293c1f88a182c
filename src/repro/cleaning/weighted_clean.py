"""CPClean under a non-uniform candidate prior.

Equation (4) estimates the post-cleaning entropy with a *uniform* prior over
which candidate is the truth, and the paper notes a uniform prior "already
works well". When better information exists — repair confidences from a
probabilistic cleaner such as HoloClean, or distance-to-default scores —
the same greedy machinery applies with the prior swapped in:

* the selection step weighs each hypothetical answer by ``p_{i,j}`` instead
  of ``1/m_i``;
* the entropy of a validation point becomes the entropy of the *weighted*
  prediction distribution (:mod:`repro.core.weighted`), i.e. the classifier
  evaluated over a block tuple-independent probabilistic database.

The weighted evaluations route through the unified planner
(:mod:`repro.core.planner`) with the session's prepared batch handed
along, so scoring a candidate row against the whole validation set shares
one vectorised distance pass and can fan out over the session's worker
pool — the weighted flavor inherits the same batch execution the binary
path got in PR 1.

With the uniform prior this strategy selects exactly the same rows as
:class:`~repro.cleaning.cp_clean.CPCleanStrategy` (tested), so it is a
strict generalisation — at a constant-factor cost for exact rational
arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from repro.cleaning.oracle import CleaningOracle
from repro.cleaning.report import CleaningReport
from repro.cleaning.sequential import CleaningSession, CleaningStrategy
from repro.core.dataset import IncompleteDataset
from repro.core.kernels import Kernel
from repro.core.planner import ExecutionOptions, execute_query, make_query
from repro.core.weighted import condition_weights, uniform_candidate_weights

__all__ = ["WeightedCPCleanStrategy", "run_weighted_cp_clean", "distance_to_default_weights"]


def _entropy(probabilities: list[Fraction]) -> float:
    """Shannon entropy (nats) of an exact distribution."""
    out = 0.0
    for p in probabilities:
        if p > 0:
            value = float(p)
            out -= value * math.log(value)
    return out


def distance_to_default_weights(
    dataset: IncompleteDataset, default_choice: np.ndarray, sharpness: float = 1.0
) -> list[list[Fraction]]:
    """A simple informative prior: candidates near the default repair are likelier.

    Weight of candidate ``j`` of row ``i`` is proportional to
    ``1 / (1 + sharpness * ||x_{i,j} - x_{i,default}||)``, normalised to sum
    to one with exact rationals (weights are rounded to a 1e-6 grid first so
    the normalisation stays exact).
    """
    weights: list[list[Fraction]] = []
    for row in range(dataset.n_rows):
        candidates = dataset.candidates(row)
        anchor = candidates[int(default_choice[row])]
        raw = [
            1.0 / (1.0 + sharpness * float(np.linalg.norm(candidate - anchor)))
            for candidate in candidates
        ]
        grid = [Fraction(max(int(round(value * 1_000_000)), 1), 1_000_000) for value in raw]
        total = sum(grid)
        weights.append([w / total for w in grid])
    return weights


class WeightedCPCleanStrategy(CleaningStrategy):
    """Greedy minimum expected *weighted* entropy selection.

    Parameters
    ----------
    weights:
        ``weights[i][j]`` is the prior probability that candidate ``j`` of
        row ``i`` is the true value; ``None`` means uniform (recovering the
        paper's Equation 4 and the plain CPClean selection).
    backend:
        Planner backend for the weighted evaluations (``"auto"`` lets the
        planner pick — the batch backend for a multi-point validation
        set). Wall-clock only; the exact rational results are identical.
    """

    name = "cpclean-weighted"

    def __init__(
        self, weights: list[list[Fraction]] | None = None, backend: str = "auto"
    ) -> None:
        self._weights = weights
        self.backend = backend

    # ------------------------------------------------------------------
    def _session_weights(self, session: CleaningSession) -> list[list[Fraction]]:
        if self._weights is None:
            self._weights = uniform_candidate_weights(session.dataset)
        if len(self._weights) != session.dataset.n_rows:
            raise ValueError(
                f"weights cover {len(self._weights)} rows, dataset has "
                f"{session.dataset.n_rows}"
            )
        return self._weights

    def _val_probabilities(
        self, session: CleaningSession, conditioned: list[list[Fraction]]
    ) -> list[list[Fraction]]:
        """Weighted prediction distributions of every validation point."""
        query = make_query(
            session.dataset,
            session.val_X,
            kind="counts",
            flavor="weighted",
            k=session.k,
            kernel=session.kernel,
            weights=conditioned,
        )
        # Each conditioned prior is asked once: nothing to cache.
        options = ExecutionOptions(
            n_jobs=session.n_jobs, cache=False, prepared=session.batch
        )
        return execute_query(query, backend=self.backend, options=options).values

    def select(self, session: CleaningSession, remaining: list[int]) -> tuple[int, float | None]:
        if not remaining:
            raise ValueError("no dirty rows remain to select from")
        weights = condition_weights(self._session_weights(session), session.fixed)
        best_row, best_entropy = remaining[0], float("inf")
        for row in remaining:
            row_weights = weights[row]
            expected = 0.0
            for cand, prior in enumerate(row_weights):
                if prior == 0:
                    continue
                conditioned = condition_weights(weights, {row: cand})
                for probabilities in self._val_probabilities(session, conditioned):
                    expected += float(prior) * _entropy(probabilities)
            expected /= max(session.n_val, 1)
            if expected < best_entropy - 1e-15:
                best_entropy = expected
                best_row = row
        return best_row, best_entropy


def run_weighted_cp_clean(
    dataset: IncompleteDataset,
    val_X: np.ndarray,
    oracle: CleaningOracle,
    weights: list[list[Fraction]] | None = None,
    k: int = 3,
    kernel: Kernel | str | None = None,
    max_cleaned: int | None = None,
    on_step=None,
    n_jobs: int | None = 1,
    backend: str = "auto",
) -> CleaningReport:
    """Run CPClean with a non-uniform candidate prior.

    ``n_jobs``/``backend`` configure the planner-routed
    query execution (wall-clock only; the report is identical).
    """
    session = CleaningSession(
        dataset, val_X, k=k, kernel=kernel, n_jobs=n_jobs, backend=backend
    )
    # The incremental backend maintains integer counts only; weighted
    # evaluations fall back to the planner's choice in that case.
    strategy_backend = backend if backend in ("sequential", "batch") else "auto"
    return session.run(
        WeightedCPCleanStrategy(weights, backend=strategy_backend), oracle,
        max_cleaned=max_cleaned, on_step=on_step,
    )
