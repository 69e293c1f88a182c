"""Alternative row-selection policies for the cleaning session (ablation).

The paper commits to one selection rule — minimum expected entropy
(sequential information maximisation, Algorithm 3). This module adds
cheaper heuristic policies that plug into the same
:class:`~repro.cleaning.sequential.CleaningSession`, so the ablation bench
can quantify how much of CPClean's advantage comes from the principled
objective versus from merely being *validation-aware* at all:

* :class:`ReachCountStrategy` — clean the row that can still enter the
  top-K of the most not-yet-CP'ed validation points (a pure reachability
  argument using per-row min/max similarities; no counting at all).
* :class:`MembershipUncertaintyStrategy` — clean the row whose top-K
  membership probability is most undecided, summed over the uncertain
  validation points (one label-free polynomial scan per point, cheaper
  than the full entropy objective).
* :class:`DirtiestFirstStrategy` — validation-oblivious strawman: clean
  the row with the most candidates first.

All policies share CPClean's termination rule (all validation points
CP'ed), so they differ only in *how fast* they get there — exactly the
quantity Figure 9 plots for CPClean vs. RandomClean.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from repro.cleaning.oracle import CleaningOracle
from repro.cleaning.report import CleaningReport
from repro.cleaning.sequential import CleaningSession, CleaningStrategy
from repro.core.dataset import IncompleteDataset
from repro.core.kernels import Kernel
from repro.core.topk_prob import topk_inclusion_probabilities

__all__ = [
    "ReachCountStrategy",
    "MembershipUncertaintyStrategy",
    "DirtiestFirstStrategy",
    "run_policy",
    "POLICIES",
]


def _uncertain_points(session: CleaningSession) -> list[int]:
    """Indices of validation points that are not yet CP'ed."""
    return [
        i for i, label in enumerate(session.val_certain_labels()) if label is None
    ]


class ReachCountStrategy(CleaningStrategy):
    """Clean the row that can reach the top-K of the most uncertain points.

    A row *reaches* a validation point when its best candidate similarity
    is not dominated by ``K`` other rows' guaranteed similarities — the
    same criterion :func:`~repro.core.deltas.row_is_irrelevant` applies
    for delta pruning, inverted into a selection score.
    """

    name = "reach-count"

    def select(self, session: CleaningSession, remaining: list[int]) -> tuple[int, float | None]:
        if not remaining:
            raise ValueError("no dirty rows remain to select from")
        uncertain = _uncertain_points(session)
        best_row, best_score = remaining[0], -1
        for row in remaining:
            score = 0
            for point in uncertain:
                query = session.queries[point]
                sims = query._row_sims
                best = sims[row].max()  # remaining rows are never pinned
                n_dominating = 0
                for other in range(session.dataset.n_rows):
                    if other == row:
                        continue
                    pinned = session.fixed.get(other)
                    low = sims[other][pinned] if pinned is not None else sims[other].min()
                    if low > best:
                        n_dominating += 1
                if n_dominating < session.k:
                    score += 1
            if score > best_score:
                best_row, best_score = row, score
        return best_row, None


class MembershipUncertaintyStrategy(CleaningStrategy):
    """Clean the row with the most undecided top-K membership.

    Score of a row = ``Σ_points (1/2 - |P(row in top-K) - 1/2|)`` over the
    not-yet-CP'ed validation points; the row closest to a coin flip in the
    most places is cleaned first.
    """

    name = "membership"

    def select(self, session: CleaningSession, remaining: list[int]) -> tuple[int, float | None]:
        if not remaining:
            raise ValueError("no dirty rows remain to select from")
        uncertain = _uncertain_points(session)
        dataset = _pinned_dataset(session)
        scores = {row: Fraction(0) for row in remaining}
        for point in uncertain:
            probabilities = topk_inclusion_probabilities(
                dataset, session.val_X[point], k=session.k, kernel=session.kernel
            )
            half = Fraction(1, 2)
            for row in remaining:
                scores[row] += half - abs(probabilities[row] - half)
        best_row = max(remaining, key=lambda row: (scores[row], -row))
        return best_row, None


class DirtiestFirstStrategy(CleaningStrategy):
    """Validation-oblivious strawman: most candidates first, ties by index."""

    name = "dirtiest-first"

    def select(self, session: CleaningSession, remaining: list[int]) -> tuple[int, float | None]:
        if not remaining:
            raise ValueError("no dirty rows remain to select from")
        counts = session.dataset.candidate_counts()
        return max(remaining, key=lambda row: (int(counts[row]), -row)), None


def _pinned_dataset(session: CleaningSession) -> IncompleteDataset:
    """The session's dataset with all human answers applied."""
    dataset = session.dataset
    for row, candidate in session.fixed.items():
        dataset = dataset.restrict_row(row, candidate)
    return dataset


#: Name -> zero-argument strategy factory, for the ablation harness.
POLICIES = {
    "reach-count": ReachCountStrategy,
    "membership": MembershipUncertaintyStrategy,
    "dirtiest-first": DirtiestFirstStrategy,
}


def run_policy(
    strategy: CleaningStrategy,
    dataset: IncompleteDataset,
    val_X: np.ndarray,
    oracle: CleaningOracle,
    k: int = 3,
    kernel: Kernel | str | None = None,
    max_cleaned: int | None = None,
    on_step=None,
) -> CleaningReport:
    """Run any selection policy inside the standard cleaning session."""
    session = CleaningSession(dataset, val_X, k=k, kernel=kernel)
    return session.run(strategy, oracle, max_cleaned=max_cleaned, on_step=on_step)
