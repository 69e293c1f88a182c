"""Vectorized tally kernels over a sort-scan — the generalized Fig-9 check.

The counting engines walk a :class:`~repro.core.scan.ScanOrder` position by
position and, at each boundary, ask the truncated label polynomials which
tallies have support. For the *decision* kinds (``certain_label`` /
``check``) the full big-integer counts are overkill: a tally has nonzero
support at a boundary iff a purely combinatorial feasibility test passes,
and the certain-label verdict is locked the moment two distinct winners
have been seen anywhere in the scan (the paper's Fig-9 early-termination
idea, generalized from the binary MinMax check to every flavor that scans).

This module computes that feasibility test *set-at-a-time*: one pass of
NumPy cumulative sums builds, for every boundary position at once, the
per-label "forced above" and "still open" tallies the polynomial engine
tracks incrementally, and the decision scan then checks whole chunks of
positions per vector operation, stopping at the first chunk that proves
the answer mixed. Pure-Python per-position references of the same arrays
and the same scan (:func:`_build_scan_arrays_python`,
:func:`_decision_winners_python`) are kept private; the vectorised kernels
are checked against them bit-for-bit in ``tests/core/test_scan_kernels.py``.

Exactness
---------
For a boundary position ``p`` with boundary row ``i`` (label ``y``), the
engine's support for a tally ``t`` with winner ``w`` is a product of
polynomial coefficients ``coeff[label][want - forced[label]]`` scaled by
positive forced-world factors (see ``_counts_from_scan`` in
:mod:`repro.core.batch_engine`). Every polynomial is a product of linear
factors ``(a + b z)`` with ``a >= 1`` and ``b >= 0``, so coefficient ``c``
is nonzero **iff** ``0 <= c <= #(open factors)`` — no cancellation is
possible. Support is therefore nonzero iff, for every label ``l``::

    forced[l](p) <= want_l <= forced[l](p) + open[l](p) - own(l, p)

where ``forced[l](p)`` counts label-``l`` rows not yet advanced after
position ``p``, ``open[l](p)`` counts advanced label-``l`` rows whose
candidate set is not yet exhausted, and ``own(l, p)`` subtracts the
boundary row itself when it is still open (its factor is divided out of
the excluded coefficients). The set of labels with nonzero Q2 count is
exactly the union of feasible winners over all positions, so
``certain_label`` is decided without touching a single big integer.

Integer promotion note: the exact counting kernel keeps Python integers on
purpose — CPython only promotes beyond machine words when a count exceeds
them, which is precisely when float64 (52-bit mantissa) would silently
round. The vectorized kernels here never form counts at all, and the
pruning layer (:mod:`repro.core.pruning`) shifts world multiplicity out of
the scanned problem into one exact scale factor, so the magnitudes that do
reach the counting loop stay in the machine-word fast path far longer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.tally import tallies_with_prediction

__all__ = [
    "ScanTallies",
    "DecisionScan",
    "build_scan_arrays",
    "decision_winners",
]

@lru_cache(maxsize=None)
def decision_plans(
    k: int, n_labels: int
) -> tuple[tuple[tuple[int, tuple[tuple[int, int], ...]], ...], ...]:
    """Per boundary-row label: ``(winner, wants)`` per admissible tally.

    Same pre-resolution as the batch counting kernel's tally plans: for a
    boundary of label ``y`` only tallies with ``tally[y] >= 1`` can have
    support, and the boundary's own label needs one slot fewer from the
    polynomial side.
    """
    plans = []
    for y in range(n_labels):
        plan = []
        for tally, winner in tallies_with_prediction(k, n_labels):
            if tally[y] < 1:
                continue
            wants = tuple(
                (label, slots - 1 if label == y else slots)
                for label, slots in enumerate(tally)
            )
            plan.append((winner, wants))
        plans.append(tuple(plan))
    return tuple(plans)


@dataclass(frozen=True)
class ScanTallies:
    """Per-position tally snapshots for a whole scan, batched.

    Attributes
    ----------
    boundary_labels:
        ``(P,)`` label of the boundary row at each position.
    forced:
        ``(P, L)`` — ``forced[p, l]`` is the number of label-``l`` rows not
        yet advanced after position ``p`` (each contributes one guaranteed
        top-K slot of its label).
    cap:
        ``(P, L)`` — the largest feasible slot demand per label:
        ``forced + open``, minus one on the boundary row's own label while
        that row is still open (its factor is excluded at its boundary).

    A tally demand ``want_l`` is feasible at ``p`` iff
    ``forced[p, l] <= want_l <= cap[p, l]`` for every label.
    """

    boundary_labels: np.ndarray
    forced: np.ndarray
    cap: np.ndarray

    @property
    def n_positions(self) -> int:
        return int(len(self.boundary_labels))


@dataclass(frozen=True)
class DecisionScan:
    """Outcome of a decision scan over one test point.

    When the scan ran to the end, ``winners`` is exactly the set of labels
    with nonzero Q2 count. When ``early_terminated`` is True the scan
    stopped after seeing two distinct winners, so ``winners`` is a subset
    of size >= 2 — either way :attr:`certain_label` (``None`` unless the
    winner set is a singleton) is exact. ``positions_scanned`` counts the
    boundary positions inspected before stopping.
    """

    winners: frozenset[int]
    positions_scanned: int
    early_terminated: bool

    @property
    def certain_label(self) -> int | None:
        if len(self.winners) == 1:
            return next(iter(self.winners))
        return None


def _check_effective_scan(scan) -> None:
    total = int(sum(int(m) for m in scan.row_counts))
    if total != scan.n_candidates:
        raise ValueError(
            "scan is not in effective form: row_counts sum to "
            f"{total} but the scan has {scan.n_candidates} positions "
            "(fold pins with repro.core.pruning.apply_pins_to_scan first)"
        )


def build_scan_arrays(scan, n_labels: int) -> ScanTallies:
    """Batched boundary snapshots for every position of ``scan``.

    ``scan`` must be *effective*: pins already folded, so every position is
    active and ``row_counts`` are the per-row numbers of scanned
    candidates. Identical to the per-position reference
    :func:`_build_scan_arrays_python`.
    """
    _check_effective_scan(scan)
    rows = np.asarray(scan.rows, dtype=np.int64)
    labels = np.asarray(scan.row_labels, dtype=np.int64)
    counts = np.asarray(scan.row_counts, dtype=np.int64)
    n_positions = rows.shape[0]
    if n_positions == 0:
        empty = np.zeros((0, n_labels), dtype=np.int64)
        return ScanTallies(rows.copy(), empty, empty.copy())

    # 1-based occurrence rank of each row within the scan (the engine's
    # alpha counter), computed with one stable sort instead of a scan loop.
    order = np.argsort(rows, kind="stable")
    sorted_rows = rows[order]
    positions = np.arange(n_positions, dtype=np.int64)
    group_start = np.where(
        np.concatenate(([True], sorted_rows[1:] != sorted_rows[:-1])), positions, 0
    )
    np.maximum.accumulate(group_start, out=group_start)
    alpha = np.empty(n_positions, dtype=np.int64)
    alpha[order] = positions - group_start + 1

    boundary_labels = labels[rows]
    m = counts[rows]
    is_first = alpha == 1  # the row leaves the forced-above set here
    is_last = alpha == m  # the row's candidate set is exhausted here

    first_mat = np.zeros((n_positions, n_labels), dtype=np.int64)
    first_mat[is_first, boundary_labels[is_first]] = 1
    cum_first = np.cumsum(first_mat, axis=0)
    last_mat = np.zeros((n_positions, n_labels), dtype=np.int64)
    last_mat[is_last, boundary_labels[is_last]] = 1
    cum_last = np.cumsum(last_mat, axis=0)

    total_per_label = np.bincount(labels, minlength=n_labels).astype(np.int64)
    forced = total_per_label[None, :] - cum_first
    cap = forced + (cum_first - cum_last)
    # Exclude the boundary row's own open factor at its own boundary.
    boundary_open = alpha < m
    cap[boundary_open, boundary_labels[boundary_open]] -= 1
    return ScanTallies(boundary_labels, forced, cap)


def _build_scan_arrays_python(scan, n_labels: int) -> ScanTallies:
    """The per-position reference for :func:`build_scan_arrays`."""
    _check_effective_scan(scan)
    rows = [int(r) for r in scan.rows]
    labels = [int(label) for label in scan.row_labels]
    counts = [int(m) for m in scan.row_counts]
    n_positions = len(rows)

    forced = [0] * n_labels
    for label in labels:
        forced[label] += 1
    open_ = [0] * n_labels
    alpha = [0] * len(counts)

    boundary_labels = [0] * n_positions
    forced_out = [[0] * n_labels for _ in range(n_positions)]
    cap_out = [[0] * n_labels for _ in range(n_positions)]
    for pos, row in enumerate(rows):
        a = alpha[row] = alpha[row] + 1
        label = labels[row]
        if a == 1:
            forced[label] -= 1
            open_[label] += 1
        if a == counts[row]:
            open_[label] -= 1
        boundary_labels[pos] = label
        for target in range(n_labels):
            forced_out[pos][target] = forced[target]
            cap_out[pos][target] = forced[target] + open_[target]
        if a < counts[row]:
            cap_out[pos][label] -= 1

    return ScanTallies(
        np.asarray(boundary_labels, dtype=np.int64),
        np.asarray(forced_out, dtype=np.int64).reshape(n_positions, n_labels),
        np.asarray(cap_out, dtype=np.int64).reshape(n_positions, n_labels),
    )


#: Positions examined per vector step of the chunked decision scan. Small
#: enough that a clearly-mixed answer stops after a sliver of the scan,
#: large enough that the per-chunk Python overhead amortises.
DECISION_CHUNK = 256


def decision_winners(
    scan,
    k: int,
    n_labels: int,
    chunk: int = DECISION_CHUNK,
) -> DecisionScan:
    """The set of labels with nonzero Q2 count, with early termination.

    Walks the scan in chunks; after each chunk, if two distinct winners
    have been seen the verdict (``certain_label is None``) is locked and
    the scan stops. Equivalent to
    ``{y: counts[y] > 0}`` for the exact counting kernel on the same scan.
    """
    tallies = build_scan_arrays(scan, n_labels)
    plans = decision_plans(k, n_labels)
    n_positions = tallies.n_positions
    winners: set[int] = set()
    position = 0
    while position < n_positions:
        end = min(n_positions, position + chunk)
        chunk_labels = tallies.boundary_labels[position:end]
        chunk_forced = tallies.forced[position:end]
        chunk_cap = tallies.cap[position:end]
        for label in range(n_labels):
            mask = chunk_labels == label
            if not mask.any():
                continue
            forced = chunk_forced[mask]
            cap = chunk_cap[mask]
            for winner, wants in plans[label]:
                if winner in winners:
                    continue
                feasible = np.ones(forced.shape[0], dtype=bool)
                for target, want in wants:
                    feasible &= (forced[:, target] <= want) & (want <= cap[:, target])
                    if not feasible.any():
                        break
                else:
                    winners.add(winner)
        position = end
        if len(winners) >= 2:
            return DecisionScan(frozenset(winners), position, position < n_positions)
    return DecisionScan(frozenset(winners), n_positions, False)


def _decision_winners_python(scan, k: int, n_labels: int) -> DecisionScan:
    """The per-position reference for :func:`decision_winners`: running
    counters and a stop at the first position that proves the answer mixed."""
    _check_effective_scan(scan)
    rows = [int(r) for r in scan.rows]
    labels = [int(label) for label in scan.row_labels]
    counts = [int(m) for m in scan.row_counts]
    plans = decision_plans(k, n_labels)

    forced = [0] * n_labels
    for label in labels:
        forced[label] += 1
    open_ = [0] * n_labels
    alpha = [0] * len(counts)
    winners: set[int] = set()

    for pos, row in enumerate(rows):
        a = alpha[row] = alpha[row] + 1
        label = labels[row]
        if a == 1:
            forced[label] -= 1
            open_[label] += 1
        if a == counts[row]:
            open_[label] -= 1
        own_open = a < counts[row]
        for winner, wants in plans[label]:
            if winner in winners:
                continue
            for target, want in wants:
                cap = forced[target] + open_[target]
                if target == label and own_open:
                    cap -= 1
                if not forced[target] <= want <= cap:
                    break
            else:
                winners.add(winner)
        if len(winners) >= 2:
            return DecisionScan(frozenset(winners), pos + 1, pos + 1 < len(rows))
    return DecisionScan(frozenset(winners), len(rows), False)
