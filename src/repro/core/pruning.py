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

The rule has one order statistic at its heart: ``T``, the ``k``-th largest
row minimum (:func:`dominance_threshold`, one ``np.partition``). A row is
pruned iff its maximum is below ``T``, so a certificate costs O(N) after
the row envelopes (one segment ``reduceat`` per extreme over the
candidate layout). ``T`` also bounds the counting scan from below: a kept
candidate below ``T`` has ``k`` rows strictly above it in every world, so
it is never the K-th neighbour and its support is exactly 0. Those
candidates form a prefix of the ascending scan, and the counts path folds
them into the kernel's start state instead of walking them
(:func:`window_scan`); only the boundary window ``>= T`` is sorted and
walked.

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

``tests/fuzz/test_boundary_window.py`` holds the window to the unpruned
per-point reference on threshold ties, pins at the threshold and ``±inf``
similarities.

The reduced scans feed the exact counting kernels
(:func:`repro.core.batch_engine._counts_from_scan` and friends) for
``counts`` queries, and the vectorised decision kernels of
:mod:`repro.core.scan_kernels` — the generalized Fig-9 early-termination
scan — for ``certain_label``/``check`` queries. A decision scan walks its
whole kept scan from the bottom, so it keeps its early exit and folds no
head.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from repro.core.batch_engine import _counts_from_scan
from repro.core.dataset import IncompleteDataset
from repro.core.scan import ScanOrder, _scan_from_sims, check_ranked
from repro.core.scan_kernels import DecisionScan, decision_winners

__all__ = [
    "PruneCertificate",
    "interval_arrays",
    "batch_interval_arrays",
    "dominance_threshold",
    "prune_mask",
    "certificate_from_intervals",
    "world_product",
    "apply_pins_to_scan",
    "restrict_scan",
    "positive_support_scan",
    "window_scan",
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
    row's single remaining position collapses its interval to a point. A
    row with no position keeps the empty interval ``[inf, -inf]``.

    A stable sort by row turns the scan into row segments that keep its
    ascending similarity order, so each segment's first and last entries
    are the row's extremes. NumPy's stable sort is a radix sort on 8- and
    16-bit keys, so with the narrowest key type this is O(P) for up to
    65,536 rows.
    """
    n = scan.n_rows
    mins = np.full(n, np.inf, dtype=np.float64)
    maxs = np.full(n, -np.inf, dtype=np.float64)
    sizes = np.bincount(scan.rows, minlength=n)
    present = sizes > 0
    if present.any():
        keys = scan.rows.astype(np.min_scalar_type(n - 1))
        by_row = scan.sims[np.argsort(keys, kind="stable")]
        ends = np.cumsum(sizes[present])
        mins[present] = by_row[ends - sizes[present]]
        maxs[present] = by_row[ends - 1]
    return mins, maxs


def batch_interval_arrays(
    sims_matrix: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row intervals from candidate-order similarities, by row segment.

    ``sims_matrix`` is one point's ``(P,)`` candidate-order similarity row
    or the ``(T, P)`` matrix of a
    :class:`~repro.core.batch_engine.PreparedBatch`; ``offsets`` its row
    segment starts (``offsets[r]:offsets[r+1]`` is row ``r``, every
    segment non-empty). Returns ``(mins, maxs)`` of shape ``(N,)`` or
    ``(T, N)`` — one ``reduceat`` per extreme, no per-point work.
    """
    starts = np.asarray(offsets[:-1], dtype=np.intp)
    mins = np.minimum.reduceat(sims_matrix, starts, axis=-1)
    maxs = np.maximum.reduceat(sims_matrix, starts, axis=-1)
    return mins, maxs


def dominance_threshold(mins: np.ndarray, k: int) -> float:
    """``T``, the ``k``-th largest row minimum: one ``np.partition``, O(N).

    At least ``k`` rows have every candidate at or above ``T``, and for any
    ``x``, at least ``k`` rows have ``min > x`` exactly when ``T > x``. So a
    row whose maximum is below ``T`` is dominated (:func:`prune_mask`), and
    a candidate position below ``T`` has ``k`` rows strictly above it in
    every world: it is never the K-th neighbour, which is what lets
    :func:`window_scan` fold it into the counting kernel's start state.

    A NaN minimum (a row with a NaN similarity) raises ``ValueError``
    (:func:`~repro.core.scan.check_ranked`) rather than yield a threshold.
    """
    n = int(mins.shape[0])
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} rows")
    check_ranked(mins)
    return float(np.partition(mins, n - k)[n - k])


def prune_mask(mins: np.ndarray, maxs: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of provably irrelevant rows: ``maxs < T``.

    Row ``r`` is prunable iff at least ``k`` other rows have
    ``min > maxs[r]``, i.e. iff the :func:`dominance_threshold` ``T``
    exceeds ``maxs[r]`` (the self term never fires: ``mins[r] <=
    maxs[r]``). The rule is exactly
    :func:`repro.core.deltas.row_is_irrelevant`, vectorised in O(N).
    """
    return maxs < dominance_threshold(mins, k)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PruneCertificate:
    """Witness that dropping ``pruned_rows`` cannot change any answer.

    ``scale`` is the exact number of free world choices the pruned rows
    contribute (product of their world multiplicities — 1 for probability
    queries, where the pruned mass marginalises to 1). ``row_mins`` /
    ``row_maxs`` are the intervals the certificate was issued from, and
    ``threshold`` their :func:`dominance_threshold` (derived when not
    given): the kept rows are those whose maximum reaches it, and a kept
    candidate below it is never the K-th neighbour. :meth:`verify`
    re-derives both arguments from the intervals.
    """

    k: int
    keep_rows: np.ndarray
    pruned_rows: np.ndarray
    scale: int
    row_mins: np.ndarray
    row_maxs: np.ndarray
    threshold: float | None = None

    def __post_init__(self) -> None:
        if self.threshold is None:
            threshold = dominance_threshold(self.row_mins, self.k)
            object.__setattr__(self, "threshold", threshold)

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
        at_or_above = int(np.sum(kept_mins >= self.threshold))
        if at_or_above < self.k:
            raise AssertionError(
                f"certificate broken: only {at_or_above} kept rows lie wholly at "
                f"or above the threshold {self.threshold} (need >= {self.k})"
            )


def world_product(world_counts: Sequence[int] | np.ndarray) -> int:
    """The exact product of ``world_counts`` (non-negative) as a Python int.

    Multiplicities repeat a lot (a handful of distinct candidate-set
    sizes), so one exact power per distinct value replaces a big-integer
    multiply per row — a certificate's scale runs over almost every row.
    One ``bincount`` tallies the values.
    """
    tally = np.bincount(np.asarray(world_counts, dtype=np.int64))
    values = np.flatnonzero(tally)
    return math.prod(
        value**exponent
        for value, exponent in zip(values.tolist(), tally[values].tolist())
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
    above any of them), so at least ``k`` rows are always kept. O(N):
    one :func:`dominance_threshold` and the :func:`prune_mask` comparison.
    """
    threshold = dominance_threshold(mins, k)
    mask = maxs < threshold
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
        threshold=threshold,
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
#: counts candidate positions (post-pin). ``n_scanned`` counts the positions
#: the kernel actually walked: for counts, the boundary window
#: (:func:`window_scan`); for a decision scan, the kept positions up to its
#: early exit. ``n_pruned`` counts every position never handed to the
#: kernel: the pruned rows' and, for counts, the folded head below the
#: threshold, so ``n_scanned + n_pruned == n_candidates`` for counts.
#: ``n_rows_pruned`` counts the certificate's pruned rows alone.
#: ``early_terminated`` is per-point boolean, accumulated as
#: ``n_early_terminated``.
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
    cert: PruneCertificate,
    n_candidates: int,
    reduced: ScanOrder,
    n_scanned: int | None = None,
    early_terminated: bool = False,
) -> dict:
    """One point's counters: ``n_pruned`` counts the positions never handed
    to the kernel (``reduced`` holds the rest), ``n_scanned`` the positions
    it walked — all of ``reduced`` unless given."""
    return {
        "n_rows": cert.n_rows,
        "n_rows_pruned": cert.n_pruned,
        "n_candidates": n_candidates,
        "n_pruned": n_candidates - reduced.n_candidates,
        "n_scanned": reduced.n_candidates if n_scanned is None else n_scanned,
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
) -> tuple[int, tuple, PruneCertificate]:
    """Prune *before* sorting: the certificate and the kept positions.

    The arrays are one point's candidate layout
    (:meth:`~repro.core.dataset.IncompleteDataset.candidate_layout`): row
    ``r``'s candidates ``0 .. m_r - 1`` are the ``r``-th contiguous
    segment. So the row envelopes are one ``reduceat`` per extreme, the
    certificate is O(N), and only the kept rows' segments are gathered (a
    pinned row's segment is its pinned position). Returns the number of
    effective positions, the kept problem as unsorted
    ``(sims, rows, cands, labels, counts)`` arrays with rows re-indexed
    monotonically, and the certificate. Sorting any subset of the kept
    positions by the ``(similarity, row desc, cand desc)`` keys reproduces
    the full scan's order on it (the order is total: ``(row, cand)``
    pairs are unique).
    """
    counts = np.asarray(counts, dtype=np.int64)
    n = int(counts.shape[0])
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    mins, maxs = batch_interval_arrays(sims_row, offsets)
    starts = offsets[:-1]
    eff_counts = counts
    if fixed:
        for row, cand in fixed.items():
            if not 0 <= cand < counts[row]:
                raise IndexError(
                    f"fixed candidate {cand} out of range for row {row} "
                    f"with {counts[row]} candidates"
                )
        pin_rows = np.fromiter(fixed.keys(), dtype=np.int64, count=len(fixed))
        pin_at = starts[pin_rows] + np.fromiter(
            fixed.values(), dtype=np.int64, count=len(fixed)
        )
        mins[pin_rows] = maxs[pin_rows] = sims_row[pin_at]
        starts = starts.copy()
        starts[pin_rows] = pin_at
        eff_counts = counts.copy()
        eff_counts[pin_rows] = 1
    cert = certificate_from_intervals(mins, maxs, k, eff_counts)

    keep = cert.keep_rows
    widths = eff_counts[keep]
    ends = np.cumsum(widths)
    positions = np.repeat(starts[keep] - (ends - widths), widths) + np.arange(ends[-1])
    new_index = np.empty(n, dtype=np.int64)
    new_index[keep] = np.arange(keep.shape[0])
    kept = (
        sims_row[positions],
        new_index[rows[positions]],
        cands[positions],
        np.asarray(labels, dtype=np.int64)[keep],
        widths,
    )
    return int(eff_counts.sum()), kept, cert


def window_scan(
    sims: np.ndarray,
    rows: np.ndarray,
    cands: np.ndarray,
    labels: np.ndarray,
    counts: np.ndarray,
    threshold: float,
) -> tuple[ScanOrder, np.ndarray]:
    """The boundary window of a kept problem, and the head it leaves out.

    ``sims``/``rows``/``cands`` hold the problem's positions in any order
    (all of them, or at least those at or above ``threshold``). A position
    below the certificate's threshold has ``k`` rows strictly above it in
    every world, so its support is exactly 0, and in the ascending scan
    such positions form a prefix. Only the window ``sims >= threshold`` is
    sorted; ``head[r]`` counts row ``r``'s candidates below it, which is
    the start state :func:`~repro.core.batch_engine._counts_from_scan`
    folds in closed form. Positions tied at the threshold stay in the
    window.
    """
    in_window = sims >= threshold
    window_rows = rows[in_window]
    head = counts - np.bincount(window_rows, minlength=counts.shape[0])
    window = _scan_from_sims(
        sims[in_window], window_rows, cands[in_window], labels, counts
    )
    return window, head


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
    """Q2 counts straight from candidate-layout similarities, pruned first.

    Bit-identical to ``_counts_from_scan(scan_of(sims_row), ...)``; the
    full sort never happens, and the kernel walks only the boundary
    window (:func:`window_scan`).
    """
    n_effective, kept, cert = _reduced_from_sims(
        sims_row, rows, cands, labels, counts, k, fixed
    )
    window, head = window_scan(*kept, cert.threshold)
    result = _counts_from_scan(window, k, n_labels, head)
    if cert.scale != 1:
        result = [count * cert.scale for count in result]
    return result, _stats(cert, n_effective, window)


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
    """Certain-label verdict straight from candidate-layout similarities.

    The decision scan walks every kept position from the bottom up, so it
    can stop early on a mixed verdict; it folds no head.
    """
    n_effective, kept, cert = _reduced_from_sims(
        sims_row, rows, cands, labels, counts, k, fixed
    )
    reduced = _scan_from_sims(*kept)
    decision = decision_winners(reduced, k, n_labels)
    return decision, _stats(
        cert, n_effective, reduced, decision.positions_scanned, decision.early_terminated
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
    return result, _stats(cert, effective.n_candidates, reduced)


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
        return probabilities, _stats(cert, effective.n_candidates, effective)
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
    return result, _stats(cert, effective.n_candidates, reduced_scan)


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
    return result, _stats(cert, effective.n_candidates, reduced_scan)
