"""Delta maintenance of CP state: O(Δ) updates instead of full recompute.

The paper's cleaning loop is inherently incremental — every repaired cell
*restricts* a candidate set — and live serving adds two more write shapes:
appending freshly labelled rows and retiring rows. This module defines the
three deltas and a maintained state that absorbs them without re-running
the kernel or re-counting every validation point:

* :class:`CellRepair` — restrict a row to one of its candidates (the
  physical form of a cleaning pin);
* :class:`RowAppend` — add a new (candidate set, label) training row;
* :class:`RowDelete` — remove a training row.

One maintenance rule covers all three delta kinds via a *provenance*
annotation. For every test point the state knows its **support set**: the
rows whose candidate choice can possibly change the point's prediction (a
row is outside the support set iff at least ``k`` other rows have a
guaranteed minimum similarity strictly above the row's best possible
similarity — then the top-K is filled without it in every world). Each
maintained Q2 count vector is thereby annotated with
the rows it truly depends on, and a delta touching row ``r`` splits the
points into:

* points with ``r`` **outside** the support set — the count vector
  transforms by an exact big-integer scalar (divide by ``m_r`` for a
  repair or delete, multiply by ``m_new`` for an append); the certain
  label is untouched;
* points with ``r`` **inside** the support set — recounted with one scan
  each, from maintained similarities (no kernel work).

Similarities are maintained per row as ``(n_points, m_row)`` blocks. The
built-in kernels compute ``pairwise`` with per-element reductions that do
not depend on which other candidates share the call (see
:mod:`repro.core.kernels`), so a block computed for an appended row alone
is bit-identical to the corresponding slice of a from-scratch pairwise
over the whole stacked candidate matrix — which is what makes every
maintained count provably equal to a full recompute
(``tests/fuzz/test_update_sequences.py`` holds the state to that standard
over random delta interleavings).

:meth:`DeltaMaintainedState.prepared_batch` reassembles a
:class:`~repro.core.batch_engine.PreparedBatch` from the maintained blocks
— a concatenation, not a kernel call — which is how
:class:`repro.service.registry.DatasetEntry` keeps warm prepared state
across ``PATCH`` traffic and how
:meth:`repro.cleaning.sequential.CleaningSession.apply_repair` turns a
hypothetical pin into a physical repair without re-preparing. The
planner's ``incremental`` backend
(:class:`repro.core.planner.IncrementalBackend`) keeps one state per
query family and applies each new pin as a :class:`CellRepair`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.batch_engine import PreparedBatch, _counts_from_scan
from repro.core.dataset import IncompleteDataset
from repro.core.entropy import certain_label_from_counts
from repro.core.kernels import Kernel, resolve_kernel
from repro.core.pruning import (
    accumulate_prune_stats,
    certificate_from_intervals,
    empty_prune_stats,
    prune_mask,
    window_scan,
)
from repro.core.scan import _scan_from_sims
from repro.utils.validation import check_matrix, check_positive_int

__all__ = [
    "CellRepair",
    "RowAppend",
    "RowDelete",
    "Delta",
    "apply_delta_to_dataset",
    "dominating_rows",
    "row_is_irrelevant",
    "DeltaMaintainedState",
]


# ---------------------------------------------------------------------------
# The delta vocabulary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellRepair:
    """Restrict ``row`` to its ``candidate``-th value (a physical repair)."""

    row: int
    candidate: int


@dataclass(frozen=True, eq=False)
class RowAppend:
    """Append a new training row with candidate set ``candidates`` / ``label``."""

    candidates: np.ndarray
    label: int


@dataclass(frozen=True)
class RowDelete:
    """Remove training row ``row`` (later rows shift down by one)."""

    row: int


Delta = CellRepair | RowAppend | RowDelete


def apply_delta_to_dataset(dataset: IncompleteDataset, delta: Delta) -> IncompleteDataset:
    """The pure dataset-level effect of one delta (no maintained state)."""
    if isinstance(delta, CellRepair):
        return dataset.restrict_row(delta.row, delta.candidate)
    if isinstance(delta, RowAppend):
        return dataset.append_row(delta.candidates, delta.label)
    if isinstance(delta, RowDelete):
        return dataset.delete_row(delta.row)
    raise TypeError(f"unknown delta type {type(delta).__name__}")


# ---------------------------------------------------------------------------
# The shared irrelevance (provenance) rule
# ---------------------------------------------------------------------------


def dominating_rows(mins: np.ndarray, best: float) -> int:
    """How many rows have a guaranteed similarity strictly above ``best``."""
    return int(np.count_nonzero(mins > best))


def row_is_irrelevant(mins: np.ndarray, row: int, best: float, k: int) -> bool:
    """True iff ``row`` can never enter the top-K for this point.

    ``mins`` holds every row's minimum candidate similarity to the point
    and ``best`` the target row's maximum. When at least ``k`` *other*
    rows beat ``best`` with their worst candidate, the top-K is filled
    without the row in every world, so its candidate choice never affects
    the prediction. This is the scalar form of the rule;
    :class:`DeltaMaintainedState` applies it vectorised over points.
    """
    n_dominating = dominating_rows(mins, best) - (1 if mins[row] > best else 0)
    return n_dominating >= k


def _exact_scale(counts: list[int], numer: int, denom: int) -> list[int]:
    """``counts * numer / denom`` with the division proven exact."""
    if denom == 1:
        return [c * numer for c in counts]
    scaled = [c * numer // denom for c in counts]
    if [c * denom for c in scaled] != [c * numer for c in counts]:
        raise AssertionError(
            f"internal error: pruned counts not divisible by {denom}"
        )
    return scaled


# ---------------------------------------------------------------------------
# The maintained state
# ---------------------------------------------------------------------------


def _read_only(matrix: np.ndarray) -> np.ndarray:
    matrix.flags.writeable = False
    return matrix


class DeltaMaintainedState:
    """Exact Q2 counts for many test points, maintained across deltas.

    Parameters
    ----------
    dataset:
        The incomplete training set. Deltas derive new (immutable)
        datasets; :attr:`dataset` always names the current version.
    test_points:
        The points whose counts are maintained, shape ``(n_points, d)``.
    k, kernel:
        KNN parameters, as for :func:`repro.core.queries.q2_counts`.
    sims_matrix:
        Optional precomputed ``(n_points, total_candidates)`` similarity
        matrix (e.g. from an existing
        :class:`~repro.core.batch_engine.PreparedBatch`) to skip the
        initial kernel call. Must describe exactly ``(dataset,
        test_points, kernel)``. The state keeps read-only views of it,
        so seeding copies nothing and never writes the caller's matrix.
    prune:
        With ``True`` every recount builds its scan from the *kept* rows
        only: the maintained per-point min/max envelopes already are the
        candidate intervals the certificate rule needs, so pruning costs
        one vectorised mask — no extra interval pass. Counts stay
        bit-identical (:meth:`verify` still passes) and ``prune_stats``
        accumulates the telemetry.
    """

    def __init__(
        self,
        dataset: IncompleteDataset,
        test_points: Sequence[np.ndarray] | np.ndarray,
        k: int = 3,
        kernel: Kernel | str | None = None,
        *,
        sims_matrix: np.ndarray | None = None,
        prune: bool = False,
    ) -> None:
        self.k = check_positive_int(k, "k")
        if self.k > dataset.n_rows:
            raise ValueError(
                f"k={self.k} exceeds the number of training rows {dataset.n_rows}"
            )
        self.dataset = dataset
        self.kernel = resolve_kernel(kernel)
        points = np.asarray(test_points, dtype=np.float64)
        if points.ndim == 1:
            points = points.reshape(1, -1)
        if points.ndim != 2 or points.shape[1] != dataset.n_features:
            raise ValueError(
                f"test_points must have shape (n_points, {dataset.n_features}), "
                f"got {points.shape}"
            )
        self._points = points
        layout = dataset.candidate_layout()
        if sims_matrix is None:
            sims_matrix = self.kernel.pairwise(layout.stacked, points)
        else:
            sims_matrix = np.asarray(sims_matrix, dtype=np.float64)
            expected = (points.shape[0], int(layout.offsets[-1]))
            if sims_matrix.shape != expected:
                raise ValueError(
                    f"sims_matrix must have shape {expected}, got {sims_matrix.shape}"
                )
        starts = layout.offsets[:-1]
        # Per-row (n_points, m_row) similarity blocks — the maintained form.
        # They are read-only views: a handed matrix (a PreparedBatch's) is
        # shared, never copied or written; a delta replaces a row's block.
        shared = sims_matrix.view()
        shared.flags.writeable = False
        self._row_sims: list[np.ndarray] = np.split(shared, starts[1:], axis=1)
        # Per-row candidate counts: the blocks' widths, kept as one array so
        # a pruned recount reads its scale and totals without a row loop.
        self._widths = layout.counts.astype(np.int64)
        # The blocks side by side, kept once :meth:`sims_matrix` is asked
        # for: each delta then splices the touched row's columns into a new
        # array. A state nobody reads as a matrix (the ``incremental``
        # backend's) keeps none and copies nothing on a delta.
        self._sims: np.ndarray | None = None
        self._mins = np.minimum.reduceat(sims_matrix, starts, axis=1)
        self._maxs = np.maximum.reduceat(sims_matrix, starts, axis=1)
        self.prune = bool(prune)
        self.prune_stats = empty_prune_stats()
        self._counts: list[list[int]] = [
            self._recount(point) for point in range(self.n_points)
        ]
        self.version = 0
        self.n_pruned = 0
        self.n_recomputed = 0

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        """Number of maintained test points."""
        return int(self._points.shape[0])

    @property
    def test_points(self) -> np.ndarray:
        """The maintained test matrix (``(n_points, d)``)."""
        return self._points

    def counts(self, point: int) -> list[int]:
        """Current Q2 counts of test point ``point``."""
        return list(self._counts[point])

    def counts_all(self) -> list[list[int]]:
        """Current Q2 counts of every maintained point (copies, point order)."""
        return [list(c) for c in self._counts]

    def certain_label(self, point: int) -> int | None:
        """The CP'ed label of point ``point``, or ``None``."""
        return certain_label_from_counts(self._counts[point])

    def certain_labels(self) -> list[int | None]:
        """CP'ed label per point (``None`` where not certain)."""
        return [certain_label_from_counts(c) for c in self._counts]

    def provenance(self, point: int) -> frozenset[int]:
        """The support set of ``point``: rows its counts truly depend on.

        A delta touching a row *outside* this set transforms the point's
        counts by an exact scalar and cannot change its certain label —
        the annotation the surgical invalidation in
        :mod:`repro.service.registry` keys on.
        """
        relevant = ~self._irrelevant_mask_for_point(point)
        return frozenset(int(r) for r in np.nonzero(relevant)[0])

    # ------------------------------------------------------------------
    # The provenance rule, vectorised
    # ------------------------------------------------------------------
    def _irrelevant_mask_for_point(self, point: int) -> np.ndarray:
        """Per-row irrelevance at one point (rule of :func:`row_is_irrelevant`)."""
        return prune_mask(self._mins[point], self._maxs[point], self.k)

    def _irrelevant_mask(self, row: int) -> np.ndarray:
        """Per-point: is ``row`` outside the support set? (``(n_points,)``)"""
        bests = self._maxs[:, row]
        n_dominating = np.count_nonzero(self._mins > bests[:, None], axis=1)
        n_dominating = n_dominating - (self._mins[:, row] > bests)
        return n_dominating >= self.k

    def _append_irrelevant_mask(self, new_maxs: np.ndarray) -> np.ndarray:
        """Per-point irrelevance of a row about to be appended."""
        n_dominating = np.count_nonzero(self._mins > new_maxs[:, None], axis=1)
        return n_dominating >= self.k

    # ------------------------------------------------------------------
    # Counting from maintained similarities
    # ------------------------------------------------------------------
    def _recount(self, point: int) -> list[int]:
        """One fresh scan for ``point`` from the maintained similarity blocks.

        With :attr:`prune` on, the scan is built from the kept rows' blocks
        only — the maintained envelopes are exactly the per-row candidate
        intervals, so the certificate is one O(N)
        :func:`~repro.core.pruning.certificate_from_intervals` call — the
        kernel walks only the kept rows' boundary window
        (:func:`~repro.core.pruning.window_scan`), and the reduced counts
        are scaled back by the pruned rows' world multiplicity. Exact: a
        pruned row is outside every world's top-K, so its candidates only
        multiply the count of each world.
        """
        if self.prune:
            return self._recount_pruned(point)
        layout = self.dataset.candidate_layout()
        sims = np.concatenate([block[point] for block in self._row_sims])
        scan = _scan_from_sims(
            sims, layout.rows, layout.cands, self.dataset.labels.copy(), layout.counts
        )
        return _counts_from_scan(scan, self.k, self.dataset.n_labels)

    def _recount_pruned(self, point: int) -> list[int]:
        cert = certificate_from_intervals(
            self._mins[point], self._maxs[point], self.k, self._widths
        )
        keep = cert.keep_rows
        widths = self._widths[keep]
        sims = np.concatenate([self._row_sims[row][point] for row in keep.tolist()])
        rows = np.repeat(np.arange(keep.shape[0], dtype=np.int64), widths)
        n_kept = int(widths.sum())
        starts = np.repeat(np.cumsum(widths) - widths, widths)
        cands = np.arange(n_kept, dtype=np.int64) - starts
        labels = self.dataset.labels[keep].copy()
        # The kept subset of the full scan order IS the scan order of the
        # kept problem (the sort key (sim, row, cand) restricts to a strict
        # total order on any subset; the monotone row remap preserves it),
        # and only its boundary window reaches the kernel, so counting it and
        # scaling back is bit-identical.
        window, head = window_scan(sims, rows, cands, labels, widths, cert.threshold)
        counts = _counts_from_scan(window, self.k, self.dataset.n_labels, head)
        total = int(self._widths.sum())
        accumulate_prune_stats(
            self.prune_stats,
            {
                "n_rows": cert.n_rows,
                "n_rows_pruned": cert.n_pruned,
                "n_candidates": total,
                "n_pruned": total - window.n_candidates,
                "n_scanned": window.n_candidates,
                "early_terminated": False,
            },
        )
        return [count * cert.scale for count in counts]

    def _resize_labels(
        self, counts: list[int], new_n_labels: int, point: int
    ) -> list[int]:
        """Adjust a pruned count vector when a delta changes the label space.

        Appends extend with zero-count labels; deletes drop trailing labels
        that (provably, for a pruned point) never won a world.
        """
        if new_n_labels > len(counts):
            return counts + [0] * (new_n_labels - len(counts))
        if new_n_labels < len(counts):
            if any(counts[new_n_labels:]):
                raise AssertionError(
                    f"internal error: dropped label has non-zero count at "
                    f"point {point}: {counts}"
                )
            return counts[:new_n_labels]
        return counts

    # ------------------------------------------------------------------
    # Delta application
    # ------------------------------------------------------------------
    def apply(self, delta: Delta) -> dict:
        """Apply one delta; returns a report of what the update touched.

        The report maps ``op`` (delta kind), ``row``, ``version`` (the
        state's version after the delta), ``n_pruned`` / ``n_recomputed``
        (points handled by the scalar rule vs recounted this delta) and
        ``touched_points`` (the recounted point indices — exactly the
        points whose provenance contained the touched row).
        """
        if isinstance(delta, CellRepair):
            report = self._apply_repair(delta.row, delta.candidate)
        elif isinstance(delta, RowAppend):
            report = self._apply_append(delta.candidates, delta.label)
        elif isinstance(delta, RowDelete):
            report = self._apply_delete(delta.row)
        else:
            raise TypeError(f"unknown delta type {type(delta).__name__}")
        self.version += 1
        report["version"] = self.version
        return report

    def apply_many(self, deltas: Sequence[Delta]) -> list[dict]:
        """Apply several deltas in order; one report per delta."""
        return [self.apply(delta) for delta in deltas]

    def _apply_repair(self, row: int, candidate: int) -> dict:
        if not 0 <= row < self.dataset.n_rows:
            raise IndexError(f"row {row} out of range for {self.dataset.n_rows} rows")
        m_row = self._row_sims[row].shape[1]
        if not 0 <= candidate < m_row:
            raise IndexError(
                f"candidate {candidate} out of range for row {row} "
                f"with {m_row} candidates"
            )
        irrelevant = self._irrelevant_mask(row)
        self.dataset = self.dataset.restrict_row(row, candidate)
        pinned = self._row_sims[row][:, candidate].copy()
        self._row_sims[row] = pinned.reshape(-1, 1)
        self._splice(row, m_row, self._row_sims[row])
        self._widths[row] = 1
        self._mins[:, row] = pinned
        self._maxs[:, row] = pinned
        touched: list[int] = []
        for point in range(self.n_points):
            if m_row == 1 or irrelevant[point]:
                self._counts[point] = _exact_scale(self._counts[point], 1, m_row)
                self.n_pruned += 1
            else:
                self._counts[point] = self._recount(point)
                touched.append(point)
                self.n_recomputed += 1
        return {
            "op": "cell_repair",
            "row": row,
            "n_pruned": self.n_points - len(touched),
            "n_recomputed": len(touched),
            "touched_points": touched,
        }

    def _apply_append(self, candidates: np.ndarray, label: int) -> dict:
        candidates = check_matrix(
            candidates, "candidates", n_cols=self.dataset.n_features
        )
        self.dataset = self.dataset.append_row(candidates, label)
        new_n_labels = self.dataset.n_labels
        m_new = candidates.shape[0]
        block = self.kernel.pairwise(candidates, self._points)
        new_maxs = block.max(axis=1)
        irrelevant = self._append_irrelevant_mask(new_maxs)
        self._row_sims.append(block)
        self._splice(len(self._widths), 0, block)
        self._widths = np.append(self._widths, m_new)
        self._mins = np.concatenate(
            [self._mins, block.min(axis=1)[:, None]], axis=1
        )
        self._maxs = np.concatenate([self._maxs, new_maxs[:, None]], axis=1)
        touched: list[int] = []
        for point in range(self.n_points):
            if irrelevant[point]:
                counts = self._resize_labels(
                    self._counts[point], new_n_labels, point
                )
                self._counts[point] = _exact_scale(counts, m_new, 1)
                self.n_pruned += 1
            else:
                self._counts[point] = self._recount(point)
                touched.append(point)
                self.n_recomputed += 1
        return {
            "op": "row_append",
            "row": self.dataset.n_rows - 1,
            "n_pruned": self.n_points - len(touched),
            "n_recomputed": len(touched),
            "touched_points": touched,
        }

    def _apply_delete(self, row: int) -> dict:
        if not 0 <= row < self.dataset.n_rows:
            raise IndexError(f"row {row} out of range for {self.dataset.n_rows} rows")
        if self.dataset.n_rows - 1 < self.k:
            raise ValueError(
                f"cannot delete row {row}: k={self.k} would exceed the "
                f"remaining {self.dataset.n_rows - 1} rows"
            )
        m_row = self._row_sims[row].shape[1]
        irrelevant = self._irrelevant_mask(row)
        self.dataset = self.dataset.delete_row(row)
        new_n_labels = self.dataset.n_labels
        del self._row_sims[row]
        self._splice(row, m_row, np.empty((self.n_points, 0)))
        self._widths = np.delete(self._widths, row)
        self._mins = np.delete(self._mins, row, axis=1)
        self._maxs = np.delete(self._maxs, row, axis=1)
        touched: list[int] = []
        for point in range(self.n_points):
            if irrelevant[point]:
                counts = _exact_scale(self._counts[point], 1, m_row)
                self._counts[point] = self._resize_labels(
                    counts, new_n_labels, point
                )
                self.n_pruned += 1
            else:
                self._counts[point] = self._recount(point)
                touched.append(point)
                self.n_recomputed += 1
        return {
            "op": "row_delete",
            "row": row,
            "n_pruned": self.n_points - len(touched),
            "n_recomputed": len(touched),
            "touched_points": touched,
        }

    def _splice(self, row: int, width: int, block: np.ndarray) -> None:
        """In the kept matrix, if any, put ``block`` in place of the
        ``width`` columns row ``row`` starts at, as a new array: no matrix
        handed out earlier is ever written."""
        if self._sims is None:
            return
        start = int(self._widths[:row].sum())
        sims = self._sims
        self._sims = _read_only(
            np.concatenate([sims[:, :start], block, sims[:, start + width :]], axis=1)
        )

    # ------------------------------------------------------------------
    # Warm-state handoff and verification
    # ------------------------------------------------------------------
    def sims_matrix(self) -> np.ndarray:
        """The maintained ``(n_points, total_candidates)`` similarity matrix.

        Bit-identical to ``kernel.pairwise(stacked_candidates, test_points)``
        on the current dataset, with no kernel work: assembled from the
        maintained blocks on the first call, then kept and spliced by each
        delta. It is read-only, and later deltas never write it.
        """
        if self._sims is None:
            self._sims = _read_only(np.concatenate(self._row_sims, axis=1))
        return self._sims

    def prepared_batch(self) -> PreparedBatch:
        """A :class:`~repro.core.batch_engine.PreparedBatch` for the current
        dataset version, built from maintained similarities (no kernel call)."""
        return PreparedBatch(
            self.dataset,
            self._points,
            k=self.k,
            kernel=self.kernel,
            sims_matrix=self.sims_matrix(),
        )

    def verify(self) -> None:
        """Cross-check every maintained count against a full recompute."""
        fresh = DeltaMaintainedState(
            self.dataset, self._points, k=self.k, kernel=self.kernel
        )
        expected = fresh.sims_matrix()
        maintained = [np.concatenate(self._row_sims, axis=1)]
        if self._sims is not None:
            maintained.append(self._sims)
        if not all(np.array_equal(sims, expected) for sims in maintained):
            raise AssertionError("maintained similarities diverged from recompute")
        for point in range(self.n_points):
            if self._counts[point] != fresh._counts[point]:
                raise AssertionError(
                    f"maintained counts diverged at point {point}: "
                    f"{self._counts[point]} != {fresh._counts[point]}"
                )
