"""Exactness-preserving candidate pruning with per-row certificates.

Before a counting scan touches a single polynomial, one vectorised pass
over the candidate similarities can prove that most rows are *irrelevant*:
row ``r`` can never enter any world's top-K set when at least ``k`` other
rows' **worst-case** similarity strictly dominates ``r``'s **best-case**
similarity — in every world those ``k`` rows rank strictly above every
candidate of ``r`` (strict dominance beats any tie-break). This is the
same irrelevance rule the delta-maintenance layer uses for update pruning
(:func:`repro.core.deltas.row_is_irrelevant`), promoted to a first-class
pre-scan pass with an explicit, checkable certificate.

Dropping an irrelevant row is exact, not approximate:

* *membership*: the top-K set of every world is contained in the kept
  rows, so the per-world prediction — and for top-K queries, every kept
  row's membership indicator — is a function of the kept rows' candidate
  choices alone;
* *counting*: each pruned row contributes a free factor of its world
  multiplicity (its candidate count, times its label-set size for
  label-uncertain data), so the full counts equal the reduced-problem
  counts times one exact big-integer ``scale``. Probabilistic (weighted)
  queries marginalise the pruned rows to a factor of exactly 1, so the
  reduced :class:`~fractions.Fraction` probabilities *are* the full ones;
* *order*: kept rows are re-indexed monotonically, so the scan tie-break
  ``(similarity, row desc, cand desc)`` orders the kept positions exactly
  as before and the reduced scan is the subsequence of the original one.

``tests/fuzz/test_pruning.py`` holds both halves of the certificate to the
brute-force world oracle: pruned rows never appear in any world's top-K,
and every query answer is bit-identical with pruning on or off.

The reduced scans feed the exact counting kernels
(:func:`repro.core.batch_engine._counts_from_scan` and friends) for
``counts`` queries, and the vectorised decision kernels of
:mod:`repro.core.scan_kernels` — the generalized Fig-9 early-termination
scan — for ``certain_label``/``check`` queries.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from repro.core.batch_engine import _counts_from_scan
from repro.core.dataset import IncompleteDataset
from repro.core.scan import ScanOrder
from repro.core.scan_kernels import DecisionScan, decision_winners

__all__ = [
    "PruneCertificate",
    "interval_arrays",
    "batch_interval_arrays",
    "prune_mask",
    "certificate_from_intervals",
    "world_product",
    "apply_pins_to_scan",
    "restrict_scan",
    "positive_support_scan",
    "pruned_counts_from_sims",
    "pruned_decision_from_sims",
    "empty_prune_stats",
    "accumulate_prune_stats",
    "pruned_topk_counts_from_scan",
    "pruned_weighted_probabilities",
    "pruned_label_uncertain_counts",
]


# ---------------------------------------------------------------------------
# Similarity intervals
# ---------------------------------------------------------------------------


def interval_arrays(scan: ScanOrder) -> tuple[np.ndarray, np.ndarray]:
    """Per-row ``[min, max]`` candidate similarity of an *effective* scan.

    The scan must have pins folded (every position active), so a pinned
    row's single remaining position collapses its interval to a point.
    """
    n = scan.n_rows
    mins = np.full(n, np.inf, dtype=np.float64)
    maxs = np.full(n, -np.inf, dtype=np.float64)
    np.minimum.at(mins, scan.rows, scan.sims)
    np.maximum.at(maxs, scan.rows, scan.sims)
    return mins, maxs


def batch_interval_arrays(
    sims_matrix: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row intervals for *every* test point at once from a similarity matrix.

    ``sims_matrix`` is the ``(T, P)`` candidate-order similarity matrix of a
    :class:`~repro.core.batch_engine.PreparedBatch`; ``offsets`` its row
    segment starts (``offsets[r]:offsets[r+1]`` is row ``r``). Returns
    ``(mins, maxs)`` of shape ``(T, N)`` — one ``reduceat`` per extreme, no
    per-point work.
    """
    starts = np.asarray(offsets[:-1], dtype=np.intp)
    mins = np.minimum.reduceat(sims_matrix, starts, axis=1)
    maxs = np.maximum.reduceat(sims_matrix, starts, axis=1)
    return mins, maxs


def prune_mask(mins: np.ndarray, maxs: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of provably irrelevant rows.

    Row ``r`` is prunable iff at least ``k`` other rows have
    ``min > maxs[r]``. The self term never fires (``mins[r] <= maxs[r]``),
    so one sort plus one ``searchsorted`` answers all rows at once. The
    rule is exactly :func:`repro.core.deltas.row_is_irrelevant`,
    vectorised.
    """
    sorted_mins = np.sort(mins)
    n_dominating = mins.shape[0] - np.searchsorted(sorted_mins, maxs, side="right")
    return n_dominating >= k


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PruneCertificate:
    """Witness that dropping ``pruned_rows`` cannot change any answer.

    ``scale`` is the exact number of free world choices the pruned rows
    contribute (product of their world multiplicities — 1 for probability
    queries, where the pruned mass marginalises to 1). ``row_mins`` /
    ``row_maxs`` are the intervals the certificate was issued from;
    :meth:`verify` re-derives the domination argument from them.
    """

    k: int
    keep_rows: np.ndarray
    pruned_rows: np.ndarray
    scale: int
    row_mins: np.ndarray
    row_maxs: np.ndarray

    @property
    def n_rows(self) -> int:
        return int(self.row_mins.shape[0])

    @property
    def n_kept(self) -> int:
        return int(self.keep_rows.shape[0])

    @property
    def n_pruned(self) -> int:
        return int(self.pruned_rows.shape[0])

    def verify(self) -> None:
        """Re-check the domination argument; raises ``AssertionError`` if broken."""
        kept_mins = self.row_mins[self.keep_rows]
        for row in self.pruned_rows.tolist():
            dominated_by = int(np.sum(kept_mins > self.row_maxs[row]))
            if dominated_by < self.k:
                raise AssertionError(
                    f"certificate broken: pruned row {row} is dominated by only "
                    f"{dominated_by} kept rows (need >= {self.k})"
                )
        if self.n_kept < self.k:
            raise AssertionError(
                f"certificate broken: only {self.n_kept} kept rows for k={self.k}"
            )


def world_product(world_counts: Sequence[int] | np.ndarray) -> int:
    """The exact product of ``world_counts`` as a Python int.

    Multiplicities repeat a lot (a handful of distinct candidate-set
    sizes), so one exact power per distinct value replaces a big-integer
    multiply per row — a certificate's scale runs over almost every row.
    """
    values, exponents = np.unique(
        np.asarray(world_counts, dtype=np.int64), return_counts=True
    )
    return math.prod(
        value**exponent
        for value, exponent in zip(values.tolist(), exponents.tolist())
    )


def certificate_from_intervals(
    mins: np.ndarray,
    maxs: np.ndarray,
    k: int,
    world_counts: Sequence[int] | np.ndarray,
) -> PruneCertificate:
    """Issue a :class:`PruneCertificate` from per-row similarity intervals.

    ``world_counts[r]`` is the world multiplicity the scale absorbs when
    row ``r`` is pruned. The ``k`` rows with the largest worst-case
    similarity can never be pruned (at most ``k - 1`` rows sit strictly
    above any of them), so at least ``k`` rows are always kept.
    """
    n = int(mins.shape[0])
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} rows")
    mask = prune_mask(mins, maxs, k)
    pruned = np.flatnonzero(mask)
    keep = np.flatnonzero(~mask)
    scale = world_product(np.asarray(world_counts, dtype=np.int64)[pruned])
    return PruneCertificate(
        k=k,
        keep_rows=keep,
        pruned_rows=pruned,
        scale=scale,
        row_mins=mins,
        row_maxs=maxs,
    )


# ---------------------------------------------------------------------------
# Scan surgery
# ---------------------------------------------------------------------------


def apply_pins_to_scan(scan: ScanOrder, fixed: Mapping[int, int] | None) -> ScanOrder:
    """Fold pins into the scan: drop non-pinned positions, set counts to 1.

    The counting kernels treat a pin by skipping inactive positions; this
    produces the identical effective problem as an explicit (sub)scan, so
    downstream passes need no pin bookkeeping at all.
    """
    if not fixed:
        return scan
    counts = scan.row_counts.copy()
    pinned = np.full(scan.n_rows, -1, dtype=np.int64)
    for row, cand in fixed.items():
        if not 0 <= cand < counts[row]:
            raise IndexError(
                f"fixed candidate {cand} out of range for row {row} "
                f"with {counts[row]} candidates"
            )
        pinned[row] = cand
        counts[row] = 1
    row_pins = pinned[scan.rows]
    active = (row_pins < 0) | (scan.cands == row_pins)
    return ScanOrder(
        rows=scan.rows[active],
        cands=scan.cands[active],
        sims=scan.sims[active],
        row_labels=scan.row_labels,
        row_counts=counts,
    )


def restrict_scan(scan: ScanOrder, keep_rows: np.ndarray) -> ScanOrder:
    """The scan restricted to ``keep_rows``, with rows re-indexed.

    Keeps the original position order — a subsequence of a total order is
    that total order on the subset, and the monotone row re-indexing
    preserves the ``(similarity, row desc, cand desc)`` tie-break.
    """
    keep_mask = np.zeros(scan.n_rows, dtype=bool)
    keep_mask[keep_rows] = True
    new_index = np.cumsum(keep_mask) - 1
    position_mask = keep_mask[scan.rows]
    return ScanOrder(
        rows=new_index[scan.rows[position_mask]],
        cands=scan.cands[position_mask],
        sims=scan.sims[position_mask],
        row_labels=scan.row_labels[keep_mask],
        row_counts=scan.row_counts[keep_mask],
    )


def positive_support_scan(
    scan: ScanOrder, weights: Sequence[Sequence[Fraction]]
) -> tuple[ScanOrder, list[list[Fraction]]]:
    """Drop zero-weight candidates; re-index surviving candidates per row.

    Worlds containing a zero-weight candidate have probability 0, so the
    positive-support problem has identical probabilities — and pins
    conditioned into point-mass weights are subsumed by this filter. Each
    surviving row's weights still sum to exactly 1.
    """
    positive = np.fromiter(
        (weights[int(r)][int(c)] > 0 for r, c in zip(scan.rows, scan.cands)),
        dtype=bool,
        count=scan.n_candidates,
    )
    counts = scan.row_counts.copy()
    new_cands = scan.cands.copy()
    reduced_weights: list[list[Fraction]] = []
    for row, row_weights in enumerate(weights):
        keep = [j for j, w in enumerate(row_weights) if w > 0]
        counts[row] = len(keep)
        reduced_weights.append([row_weights[j] for j in keep])
        rank = {j: new_j for new_j, j in enumerate(keep)}
        row_positions = np.flatnonzero((scan.rows == row) & positive)
        new_cands[row_positions] = [rank[int(c)] for c in scan.cands[row_positions]]
    reduced = ScanOrder(
        rows=scan.rows[positive],
        cands=new_cands[positive],
        sims=scan.sims[positive],
        row_labels=scan.row_labels,
        row_counts=counts,
    )
    return reduced, reduced_weights


# ---------------------------------------------------------------------------
# Stats plumbing
# ---------------------------------------------------------------------------

#: The counter keys every pruned path reports per point. ``n_candidates``
#: and ``n_scanned`` count candidate positions (post-pin); ``n_pruned`` is
#: their difference; ``early_terminated`` is per-point boolean, accumulated
#: as ``n_early_terminated``.
_POINT_KEYS = ("n_rows", "n_rows_pruned", "n_candidates", "n_pruned", "n_scanned")


def empty_prune_stats() -> dict:
    """A fresh accumulator for :func:`accumulate_prune_stats`."""
    totals = {key: 0 for key in _POINT_KEYS}
    totals["n_points"] = 0
    totals["n_early_terminated"] = 0
    return totals


def accumulate_prune_stats(totals: dict, stats: Mapping) -> dict:
    """Fold one point's prune stats into a running summary (in place)."""
    if not totals:
        totals.update(empty_prune_stats())
    totals["n_points"] += 1
    for key in _POINT_KEYS:
        totals[key] += int(stats.get(key, 0))
    totals["n_early_terminated"] += bool(stats.get("early_terminated", False))
    return totals


# ---------------------------------------------------------------------------
# Pruned query paths
# ---------------------------------------------------------------------------


def _stats(
    effective: ScanOrder,
    certificate: PruneCertificate,
    n_scanned: int,
    early_terminated: bool,
) -> dict:
    reduced_positions = effective.n_candidates - int(
        np.sum(effective.row_counts[certificate.pruned_rows])
    )
    return {
        "n_rows": certificate.n_rows,
        "n_rows_pruned": certificate.n_pruned,
        "n_candidates": effective.n_candidates,
        "n_pruned": effective.n_candidates - reduced_positions,
        "n_scanned": n_scanned,
        "early_terminated": bool(early_terminated),
    }


def _reduced_problem(
    scan: ScanOrder, k: int, fixed: Mapping[int, int] | None
) -> tuple[ScanOrder, ScanOrder, PruneCertificate]:
    """Common prologue: fold pins, issue a certificate, restrict the scan."""
    effective = apply_pins_to_scan(scan, fixed)
    mins, maxs = interval_arrays(effective)
    cert = certificate_from_intervals(mins, maxs, k, effective.row_counts)
    reduced = restrict_scan(effective, cert.keep_rows) if cert.n_pruned else effective
    return effective, reduced, cert


def _reduced_from_sims(
    sims_row: np.ndarray,
    rows: np.ndarray,
    cands: np.ndarray,
    labels: np.ndarray,
    counts: np.ndarray,
    k: int,
    fixed: Mapping[int, int] | None,
) -> tuple[int, ScanOrder, PruneCertificate]:
    """Prune *before* sorting: certificate + reduced scan from raw sims.

    This is the batch backend's fast path — the full scan's
    ``O(P log P)`` lexsort is replaced by a sort of only the surviving
    positions, and the dropped positions never touch the counting kernel.
    The subset sort with the same ``(similarity, row desc, cand desc)``
    keys reproduces the full scan's order on the subset exactly (the order
    is total: ``(row, cand)`` pairs are unique).
    """
    n = int(counts.shape[0])
    eff_counts = np.asarray(counts, dtype=np.int64).copy()
    if fixed:
        pinned = np.full(n, -1, dtype=np.int64)
        for row, cand in fixed.items():
            if not 0 <= cand < eff_counts[row]:
                raise IndexError(
                    f"fixed candidate {cand} out of range for row {row} "
                    f"with {eff_counts[row]} candidates"
                )
            pinned[row] = cand
            eff_counts[row] = 1
        row_pins = pinned[rows]
        active = (row_pins < 0) | (cands == row_pins)
        act_rows, act_cands, act_sims = rows[active], cands[active], sims_row[active]
    else:
        act_rows, act_cands, act_sims = rows, cands, sims_row

    mins = np.full(n, np.inf, dtype=np.float64)
    maxs = np.full(n, -np.inf, dtype=np.float64)
    np.minimum.at(mins, act_rows, act_sims)
    np.maximum.at(maxs, act_rows, act_sims)
    cert = certificate_from_intervals(mins, maxs, k, eff_counts)

    keep_mask = np.zeros(n, dtype=bool)
    keep_mask[cert.keep_rows] = True
    position_mask = keep_mask[act_rows]
    sub_rows = act_rows[position_mask]
    sub_cands = act_cands[position_mask]
    sub_sims = act_sims[position_mask]
    order = np.lexsort((-sub_cands, -sub_rows, sub_sims))
    new_index = np.cumsum(keep_mask) - 1
    reduced = ScanOrder(
        rows=new_index[sub_rows[order]],
        cands=sub_cands[order],
        sims=sub_sims[order],
        row_labels=np.asarray(labels, dtype=np.int64)[keep_mask],
        row_counts=eff_counts[keep_mask],
    )
    return int(act_rows.shape[0]), reduced, cert


def _sims_stats(
    n_effective: int,
    reduced: ScanOrder,
    cert: PruneCertificate,
    n_scanned: int,
    early_terminated: bool,
) -> dict:
    return {
        "n_rows": cert.n_rows,
        "n_rows_pruned": cert.n_pruned,
        "n_candidates": n_effective,
        "n_pruned": n_effective - reduced.n_candidates,
        "n_scanned": n_scanned,
        "early_terminated": bool(early_terminated),
    }


def pruned_counts_from_sims(
    sims_row: np.ndarray,
    rows: np.ndarray,
    cands: np.ndarray,
    labels: np.ndarray,
    counts: np.ndarray,
    k: int,
    n_labels: int,
    fixed: Mapping[int, int] | None = None,
) -> tuple[list[int], dict]:
    """Q2 counts straight from candidate-order similarities, pruned first.

    Bit-identical to ``_counts_from_scan(scan_of(sims_row), ...)``; the
    full sort never happens.
    """
    n_effective, reduced, cert = _reduced_from_sims(
        sims_row, rows, cands, labels, counts, k, fixed
    )
    result = _counts_from_scan(reduced, k, n_labels)
    if cert.scale != 1:
        result = [count * cert.scale for count in result]
    return result, _sims_stats(n_effective, reduced, cert, reduced.n_candidates, False)


def pruned_decision_from_sims(
    sims_row: np.ndarray,
    rows: np.ndarray,
    cands: np.ndarray,
    labels: np.ndarray,
    counts: np.ndarray,
    k: int,
    n_labels: int,
    fixed: Mapping[int, int] | None = None,
) -> tuple[DecisionScan, dict]:
    """Certain-label verdict straight from candidate-order similarities."""
    n_effective, reduced, cert = _reduced_from_sims(
        sims_row, rows, cands, labels, counts, k, fixed
    )
    decision = decision_winners(reduced, k, n_labels)
    return decision, _sims_stats(
        n_effective, reduced, cert, decision.positions_scanned, decision.early_terminated
    )


def pruned_topk_counts_from_scan(
    scan: ScanOrder, k: int, fixed: Mapping[int, int] | None = None
) -> tuple[list[int], dict]:
    """Top-K inclusion counts with pruning: pruned rows are *never* members.

    Kept rows' membership depends only on kept rows' choices, so their
    counts are the reduced counts times the scale; pruned rows' counts are
    exactly 0.
    """
    from repro.core.topk_prob import topk_inclusion_counts_from_scan

    effective, reduced, cert = _reduced_problem(scan, k, fixed)
    reduced_counts = topk_inclusion_counts_from_scan(reduced, k)
    result = [0] * effective.n_rows
    for new_index, row in enumerate(cert.keep_rows.tolist()):
        result[row] = reduced_counts[new_index] * cert.scale
    return result, _stats(effective, cert, reduced.n_candidates, False)


def pruned_weighted_probabilities(
    dataset: IncompleteDataset,
    t: np.ndarray,
    weights: Sequence[Sequence[Fraction]],
    k: int,
    kernel=None,
    scan: ScanOrder | None = None,
) -> tuple[list[Fraction], dict]:
    """Weighted label probabilities over the pruned positive-support problem.

    Pins must already be conditioned into the weights
    (:func:`repro.core.weighted.condition_weights` makes them point
    masses); the positive-support filter then subsumes them. The pruned
    rows' weight mass marginalises to exactly 1, so the reduced Fractions
    equal the full ones bit-for-bit.
    """
    from repro.core.scan import compute_scan_order
    from repro.core.weighted import _validate_weights, weighted_prediction_probabilities

    weights = _validate_weights(dataset, list(weights))
    if scan is None:
        scan = compute_scan_order(dataset, t, kernel)
    effective, reduced_weights = positive_support_scan(scan, weights)
    mins, maxs = interval_arrays(effective)
    cert = certificate_from_intervals(mins, maxs, k, effective.row_counts)
    if cert.n_pruned == 0:
        probabilities = weighted_prediction_probabilities(
            dataset, t, k=k, weights=list(weights), kernel=kernel, scan=scan
        )
        return probabilities, _stats(effective, cert, effective.n_candidates, False)
    keep = cert.keep_rows.tolist()
    reduced_scan = restrict_scan(effective, cert.keep_rows)
    reduced_dataset = IncompleteDataset(
        [
            dataset.candidates(row)[
                [j for j, w in enumerate(weights[row]) if w > 0]
            ]
            for row in keep
        ],
        [dataset.label_of(row) for row in keep],
    )
    probabilities = weighted_prediction_probabilities(
        reduced_dataset,
        t,
        k=k,
        weights=[reduced_weights[row] for row in keep],
        kernel=kernel,
        scan=reduced_scan,
    )
    # The reduced label space may shrink when only pruned rows carried the
    # top label ids; those labels can never win (the top-K is inside the
    # kept rows), so padding with exact zeros reproduces the full answer.
    result = probabilities + [Fraction(0)] * (dataset.n_labels - len(probabilities))
    return result, _stats(effective, cert, reduced_scan.n_candidates, False)


def pruned_label_uncertain_counts(
    dataset,
    t: np.ndarray,
    k: int,
    kernel=None,
    scan: ScanOrder | None = None,
    fixed: Mapping[int, int] | None = None,
) -> tuple[list[int], dict]:
    """Label-uncertain Q2 counts over the pruned (feature, label) worlds.

    The irrelevance rule is label-agnostic — a pruned row is outside every
    world's top-K whatever its label — so each pruned row contributes
    ``m_r * |L_r|`` free choices to the scale. The reduced problem shrinks
    the O(N^2)-ish DP on both axes.
    """
    from repro.core.label_uncertainty import (
        LabelUncertainDataset,
        label_uncertain_counts,
    )
    from repro.core.scan import compute_scan_order

    if scan is None:
        scan = compute_scan_order(dataset.feature_dataset, t, kernel)
    effective = apply_pins_to_scan(scan, fixed)
    label_sizes = [len(label_set) for label_set in dataset.label_sets]
    world_counts = [
        int(m) * size for m, size in zip(effective.row_counts, label_sizes)
    ]
    mins, maxs = interval_arrays(effective)
    cert = certificate_from_intervals(mins, maxs, k, world_counts)
    keep = cert.keep_rows.tolist()
    n_labels = dataset.n_labels
    if cert.n_pruned == 0 and not fixed:
        reduced_dataset, reduced_scan = dataset, effective
    else:
        reduced_scan = restrict_scan(effective, cert.keep_rows)
        reduced_dataset = LabelUncertainDataset(
            [
                dataset.candidates(row)[
                    fixed[row] : fixed[row] + 1
                ]
                if fixed and row in fixed
                else dataset.candidates(row)
                for row in keep
            ],
            [dataset.label_sets[row] for row in keep],
        )
    counts = label_uncertain_counts(
        reduced_dataset, t, k=k, kernel=kernel, scan=reduced_scan
    )
    # The reduced label space may be smaller when pruned rows carried the
    # largest label ids; pad back to the full space.
    result = [0] * n_labels
    for label, count in enumerate(counts):
        result[label] = count * cert.scale
    return result, _stats(effective, cert, reduced_scan.n_candidates, False)
