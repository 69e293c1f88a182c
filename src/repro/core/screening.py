"""Batch screening: CP-certify a whole test set in one call.

The first question a practitioner asks of this library is not about one
test point but about a dataset: *"how much of my training data's
incompleteness actually matters for my predictions?"* This module answers
it in one call — for every point of a test matrix it gathers the exact Q2
counts, the CP'ed label (if any) and the prediction entropy, and summarises
the certificate: the fraction of points whose prediction **no amount of
data cleaning can change** (§2's "Connections to Data Cleaning").

Screening is the library's canonical batch workload, so it routes through
the unified planner (:mod:`repro.core.planner`): ``backend="auto"`` picks
the batch backend — distances for the whole test matrix in one vectorised
pass, per-point counting scans fanned out over ``n_jobs`` worker processes
— with results identical to querying each point on its own, and identical
for every explicit ``backend`` choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.dataset import IncompleteDataset
from repro.core.entropy import certain_label_from_counts, prediction_entropy
from repro.core.kernels import Kernel
from repro.core.planner import ExecutionOptions, execute_query, make_query

__all__ = ["ScreeningResult", "screen_dataset"]


@dataclass
class ScreeningResult:
    """Per-point and aggregate outcome of :func:`screen_dataset`.

    Attributes
    ----------
    counts:
        Exact Q2 counts per point (``counts[i][y]`` worlds predict ``y``).
    certain_labels:
        The CP'ed label per point, ``None`` where worlds disagree.
    entropies:
        Prediction entropy per point (nats; 0 exactly when CP'ed).
    k, n_worlds:
        The query parameter and the common world count, for the report.
    """

    counts: list[list[int]] = field(default_factory=list)
    certain_labels: list[int | None] = field(default_factory=list)
    entropies: list[float] = field(default_factory=list)
    k: int = 3
    n_worlds: int = 1

    @property
    def n_points(self) -> int:
        return len(self.counts)

    @property
    def n_certain(self) -> int:
        """How many points are CP'ed."""
        return sum(1 for label in self.certain_labels if label is not None)

    @property
    def cp_fraction(self) -> float:
        """Fraction of points whose prediction cleaning cannot change."""
        if not self.counts:
            return 1.0
        return self.n_certain / self.n_points

    def uncertain_points(self) -> list[int]:
        """Indices of points that are not CP'ed, most contested first."""
        contested = [
            i for i, label in enumerate(self.certain_labels) if label is None
        ]
        return sorted(contested, key=lambda i: (-self.entropies[i], i))

    def predicted_labels(self) -> list[int]:
        """Majority-of-worlds label per point (defined even when not CP'ed)."""
        return [
            int(np.argmax(point_counts)) for point_counts in self.counts
        ]

    def summary(self) -> str:
        """A short human-readable report."""
        lines = [
            f"screened {self.n_points} points over {self.n_worlds} possible worlds (k={self.k})",
            f"certainly predicted: {self.n_certain}/{self.n_points} "
            f"({self.cp_fraction:.0%})",
        ]
        contested = self.uncertain_points()
        if contested:
            worst = contested[0]
            lines.append(
                f"most contested point: #{worst} "
                f"(entropy {self.entropies[worst]:.3f} nats, counts {self.counts[worst]})"
            )
        else:
            lines.append("cleaning the training data cannot change any of these predictions.")
        return "\n".join(lines)


def screen_dataset(
    dataset: IncompleteDataset,
    test_X: np.ndarray,
    k: int = 3,
    kernel: Kernel | str | None = None,
    n_jobs: int | None = 1,
    backend: str = "auto",
) -> ScreeningResult:
    """Run the counting query against every row of ``test_X``.

    Returns a :class:`ScreeningResult`; cost is one sort-scan per test
    point (`O(NM log NM)` each), independent of the exponential world
    count. ``n_jobs`` fans the scans out over worker processes and
    ``backend`` forces a planner backend; neither changes the result.
    """
    query = make_query(dataset, test_X, kind="counts", k=k, kernel=kernel)
    options = ExecutionOptions(n_jobs=n_jobs, cache=False)
    result = ScreeningResult(k=k, n_worlds=dataset.n_worlds())
    for counts in execute_query(query, backend=backend, options=options).values:
        result.counts.append(counts)
        result.certain_labels.append(certain_label_from_counts(counts))
        result.entropies.append(prediction_entropy(counts))
    return result
