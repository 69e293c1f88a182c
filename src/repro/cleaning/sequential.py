"""The shared human-in-the-loop cleaning session (paper §4, Algorithm 3 skeleton).

Both CPClean and the RandomClean baseline run the same outer loop:

1. stop when every validation example is certainly predicted (or a budget
   is exhausted);
2. select the next dirty training row by some strategy;
3. ask the (simulated) human oracle for its true candidate;
4. fix the row and repeat.

:class:`CleaningSession` owns the loop, the CP bookkeeping, and the query
infrastructure: certainty checks route through the unified planner
(:mod:`repro.core.planner`), with the session's
:class:`~repro.core.batch_engine.PreparedBatch` (the vectorised
candidate-distance state for the whole validation set) handed to whichever
backend the planner runs. Every check asks under a pin set no earlier
check saw, so the checks bypass the planner's result cache. The
``backend`` parameter picks the execution strategy: ``"auto"`` runs the
checks on the ``incremental`` backend for every label space. It keeps
exact Q2 counts maintained across cleaning steps — one :class:`~repro.core.deltas.DeltaMaintainedState`, seeded from
the session's prepared batch with no kernel call, each pin a
:class:`~repro.core.deltas.CellRepair` — instead of recounting every
validation point after every pin. The expected-entropy
scoring of candidate rows can fan out across ``n_jobs`` worker processes.
Strategies only implement :meth:`CleaningStrategy.select`; the per-point
:class:`~repro.core.prepared.PreparedQuery` objects remain available as
``session.queries`` for code that works one point at a time.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping, Sequence

import numpy as np

from repro.cleaning.oracle import CleaningOracle
from repro.cleaning.report import CleaningReport, CleaningStep
from repro.core.batch_engine import PreparedBatch, fanout_map
from repro.core.dataset import IncompleteDataset
from repro.core.deltas import (
    CellRepair,
    Delta,
    DeltaMaintainedState,
    RowDelete,
)
from repro.core.entropy import prediction_entropy
from repro.core.kernels import Kernel, resolve_kernel
from repro.core.planner import ExecutionOptions, execute_query, get_backend, make_query

__all__ = ["CleaningStrategy", "CleaningSession"]


class CleaningStrategy(ABC):
    """Chooses which dirty row to clean next."""

    name = "abstract"

    @abstractmethod
    def select(self, session: "CleaningSession", remaining: list[int]) -> tuple[int, float | None]:
        """Return ``(row, expected_entropy_or_None)`` for the next cleaning step."""


def _expected_entropy_worker(state: tuple, row: int) -> float:
    """Fan-out worker: expected post-cleaning entropy of one candidate row.

    ``state`` is ``(session, fixed)``; forked workers inherit it, so the
    session's prepared queries are shared read-only across them.
    """
    session, fixed = state
    return session._expected_entropy_of(row, fixed)


class CleaningSession:
    """One cleaning run over an incomplete training set and a validation set.

    Parameters
    ----------
    dataset, val_X, k, kernel:
        The cleaning problem, as in the paper.
    n_jobs:
        Worker processes for the expected-entropy scoring fan-out (and for
        certainty checks on an explicit ``"batch"`` backend; the
        ``incremental`` checks run in process). ``1`` = in-process;
        ``None``/``-1`` = all CPUs. Results are identical for every value
        (tested).
    backend:
        Planner backend for the per-step certainty checks:
        ``"sequential"``, ``"batch"``, ``"incremental"``,
        or ``"auto"`` (default), which picks ``"incremental"`` for every
        label space: exact Q2 counts maintained across cleaning steps, so a
        check after one more pin recounts only the validation points whose
        support set holds the pinned row. Every choice returns
        bit-identical labels (tested); only wall-clock changes.
    """

    def __init__(
        self,
        dataset: IncompleteDataset,
        val_X: np.ndarray,
        k: int = 3,
        kernel: Kernel | str | None = None,
        n_jobs: int | None = 1,
        backend: str = "auto",
    ) -> None:
        self.dataset = dataset
        self.k = k
        self.kernel = resolve_kernel(kernel)
        self.n_jobs = n_jobs
        self.batch = PreparedBatch(dataset, val_X, k=k, kernel=self.kernel)
        self.val_X = self.batch.test_X
        self._delta_state: DeltaMaintainedState | None = None
        self.fixed: dict[int, int] = {}
        self.backend = backend
        if backend != "auto":
            get_backend(backend)  # fail fast on unknown backend names
        # Checks re-ask one query family with a growing pin set, which the
        # incremental backend's maintained counts absorb one pin at a time.
        self._check_backend = "incremental" if backend == "auto" else backend

    # ------------------------------------------------------------------
    @property
    def queries(self) -> list:
        """Per-point :class:`~repro.core.prepared.PreparedQuery` objects.

        Delegates to the session's prepared batch (which materialises and
        caches them per point), so a base-data delta — which swaps the
        batch — only rebuilds the queries that are actually read again.
        """
        return self.batch.queries()

    @property
    def n_val(self) -> int:
        return self.val_X.shape[0]

    def remaining_dirty_rows(self) -> list[int]:
        """Dirty rows that have not been cleaned yet."""
        return [row for row in self.dataset.uncertain_rows() if row not in self.fixed]

    def val_certain_labels(self) -> list[int | None]:
        """The CP'ed label (or None) of every validation point, given cleaning so far.

        Routed through the planner onto the session's check backend; the
        session's prepared batch is handed along so no backend re-prepares
        state the session already holds.
        """
        query = make_query(
            self.dataset,
            self.val_X,
            kind="certain_label",
            k=self.k,
            kernel=self.kernel,
            pins=self.fixed,
        )
        options = ExecutionOptions(n_jobs=self.n_jobs, cache=False, prepared=self.batch)
        return execute_query(query, backend=self._check_backend, options=options).values

    def cp_fraction(self) -> float:
        """Fraction of validation points currently CP'ed.

        An empty validation set is trivially fully certain (there is
        nothing left for cleaning to change), so it reports 1.0.
        """
        labels = self.val_certain_labels()
        if not labels:
            return 1.0
        return sum(label is not None for label in labels) / len(labels)

    def all_certain(self) -> bool:
        return all(label is not None for label in self.val_certain_labels())

    # ------------------------------------------------------------------
    def _expected_entropy_of(self, row: int, fixed: Mapping[int, int]) -> float:
        """Expected remaining entropy after cleaning ``row`` (Eq. 4, uniform prior)."""
        m = int(self.dataset.candidate_counts()[row])
        total = 0.0
        for query in self.queries:
            variants = query.counts_per_fixing(row, fixed)
            total += sum(prediction_entropy(counts) for counts in variants)
        return total / (m * max(self.n_val, 1))

    def expected_entropies(self, rows: Sequence[int]) -> dict[int, float]:
        """CPClean's selection objective for every row, fanned out over workers.

        ``result[row]`` is the expected post-cleaning validation entropy of
        cleaning ``row`` (Equation 4 under the uniform prior, averaged over
        the validation set per Equation 3). With ``n_jobs > 1`` the rows
        are scored in parallel worker processes; scores are bit-identical
        to the in-process loop because each row's computation is untouched.
        """
        rows = list(rows)
        scores = fanout_map(
            _expected_entropy_worker,
            rows,
            n_jobs=self.n_jobs,
            state=(self, dict(self.fixed)),
        )
        return dict(zip(rows, scores))

    # ------------------------------------------------------------------
    def checkpoint(self) -> dict:
        """A JSON-able snapshot of cleaning progress.

        This is the unit :mod:`repro.service` ships over the wire after
        every ``/clean/step`` call: the pins applied so far, the current
        per-point certain labels, and the derived certainty summary. The
        certainty check runs once; everything else is bookkeeping.
        """
        labels = self.val_certain_labels()
        n_certain = sum(label is not None for label in labels)
        return {
            "n_cleaned": len(self.fixed),
            "fixed": {int(row): int(cand) for row, cand in sorted(self.fixed.items())},
            "certain_labels": [None if lbl is None else int(lbl) for lbl in labels],
            "n_certain": n_certain,
            "cp_fraction": n_certain / len(labels) if labels else 1.0,
            "all_certain": n_certain == len(labels),
            "remaining_dirty_rows": self.remaining_dirty_rows(),
        }

    def clean_row(self, row: int, candidate: int) -> None:
        """Record a human answer: pin ``row`` to ``candidate``."""
        if row in self.fixed:
            raise ValueError(f"row {row} was already cleaned")
        counts = self.dataset.candidate_counts()
        if not 0 <= candidate < counts[row]:
            raise IndexError(
                f"candidate {candidate} out of range for row {row} with {counts[row]} candidates"
            )
        self.fixed[row] = candidate

    # ------------------------------------------------------------------
    # Physical base-data deltas (the service's PATCH traffic)
    # ------------------------------------------------------------------
    def apply_repair(self, row: int, candidate: int) -> dict:
        """Physically repair ``row`` to ``candidate`` via the delta layer.

        Unlike :meth:`clean_row` — which records a *hypothetical* pin that
        queries condition on — a repair rewrites the dataset itself. See
        :meth:`apply_delta` for how the warm state follows in O(Δ).
        """
        return self.apply_delta(CellRepair(int(row), int(candidate)))

    def apply_delta(self, delta: Delta) -> dict:
        """Apply one base-data delta and update the session's warm state.

        The session keeps a :class:`~repro.core.deltas.DeltaMaintainedState`
        seeded from the prepared batch's similarity matrix (no kernel
        recompute) whose recounts scan only the rows a prune certificate
        keeps (bit-identical counts), absorbs the delta there, and swaps in
        the state's reassembled
        :class:`~repro.core.batch_engine.PreparedBatch` — so
        the certainty checks and entropy scoring that follow see the new
        dataset version without a full re-preparation.

        Pins are reconciled with the delta: a :class:`CellRepair` matching
        an existing pin absorbs it (the pin is physical now) while a
        conflicting one raises ``ValueError``; a :class:`RowDelete` drops
        the deleted row's pin and shifts later pinned rows down by one.
        Returns the delta report (see :meth:`DeltaMaintainedState.apply`).
        """
        if isinstance(delta, CellRepair):
            pinned = self.fixed.get(delta.row)
            if pinned is not None and pinned != delta.candidate:
                raise ValueError(
                    f"repair of row {delta.row} to candidate {delta.candidate} "
                    f"conflicts with the session pin to candidate {pinned}"
                )
        if self._delta_state is None:
            self._delta_state = DeltaMaintainedState(
                self.dataset,
                self.val_X,
                k=self.k,
                kernel=self.kernel,
                sims_matrix=self.batch.sims_matrix,
                prune=True,
            )
        report = self._delta_state.apply(delta)
        self.dataset = self._delta_state.dataset
        self.batch = self._delta_state.prepared_batch()
        if isinstance(delta, CellRepair):
            self.fixed.pop(delta.row, None)  # the pin is physical now
        elif isinstance(delta, RowDelete):
            self.fixed = {
                (row - 1 if row > delta.row else row): cand
                for row, cand in self.fixed.items()
                if row != delta.row
            }
        return report

    def run(
        self,
        strategy: CleaningStrategy,
        oracle: CleaningOracle,
        max_cleaned: int | None = None,
        on_step=None,
    ) -> CleaningReport:
        """Execute the cleaning loop (Algorithm 3's outer structure).

        ``on_step(step)`` is an optional callback invoked after every
        cleaning interaction (used by the experiment harness to trace
        accuracy curves). Every exit follows a certainty check at the final
        pins, so that check's fraction is the report's final one.
        """
        report = CleaningReport()
        iteration = 0
        while True:
            cp_before = self.cp_fraction()
            if cp_before >= 1.0:
                break
            remaining = self.remaining_dirty_rows()
            if not remaining:
                break
            if max_cleaned is not None and iteration >= max_cleaned:
                report.terminated_early = True
                break
            row, expected_entropy = strategy.select(self, remaining)
            candidate = oracle(row)
            self.clean_row(row, candidate)
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
        report.final_fixed = dict(self.fixed)
        report.cp_fraction_final = cp_before
        return report
