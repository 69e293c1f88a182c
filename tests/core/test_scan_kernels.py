"""Tests for the vectorized decision kernels of ``repro.core.scan_kernels``.

The contract under test: the vectorised kernels (``numpy`` chunked) and
their private per-position references (``python``) build identical
boundary-snapshot arrays, agree on the certain-label verdict everywhere,
and — when run to completion — report exactly the set of labels whose
exact Q2 count is nonzero.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch_engine import _counts_from_scan
from repro.core.dataset import IncompleteDataset
from repro.core.entropy import certain_label_from_counts
from repro.core.pruning import apply_pins_to_scan
from repro.core.scan import ScanOrder, compute_scan_order
from repro.core.scan_kernels import (
    _build_scan_arrays_python,
    _decision_winners_python,
    build_scan_arrays,
    decision_winners,
)

SEEDS = list(range(20))

#: The decision scan and its per-position reference, by implementation.
DECISIONS = {"numpy": decision_winners, "python": _decision_winners_python}


def random_scan(seed: int):
    """A random effective scan plus its ``(k, n_labels)`` parameters."""
    rng = np.random.default_rng(seed)
    n_labels = int(rng.integers(2, 4))
    n_rows = int(rng.integers(3, 8))
    sets = [rng.normal(size=(int(rng.integers(1, 4)), 2)) for _ in range(n_rows)]
    labels = [int(label) for label in rng.integers(0, n_labels, size=n_rows)]
    labels[0] = 0
    labels[1] = n_labels - 1
    dataset = IncompleteDataset(sets, labels)
    t = rng.normal(size=2)
    k = int(rng.integers(1, n_rows + 1))
    scan = compute_scan_order(dataset, t, None)
    if rng.integers(0, 2):  # fold a random pin half the time
        counts = dataset.candidate_counts()
        row = int(rng.integers(0, n_rows))
        scan = apply_pins_to_scan(scan, {row: int(rng.integers(0, counts[row]))})
    return scan, k, n_labels


def exact_winners(scan, k: int, n_labels: int) -> frozenset[int]:
    counts = _counts_from_scan(scan, k, n_labels)
    return frozenset(label for label, count in enumerate(counts) if count > 0)


# ---------------------------------------------------------------------------
# Effective-scan guard
# ---------------------------------------------------------------------------


def test_rejects_non_effective_scan():
    scan, k, n_labels = random_scan(0)
    broken = ScanOrder(
        rows=scan.rows[:-1],
        cands=scan.cands[:-1],
        sims=scan.sims[:-1],
        row_labels=scan.row_labels,
        row_counts=scan.row_counts,
    )
    with pytest.raises(ValueError, match="effective form"):
        decision_winners(broken, k, n_labels)
    with pytest.raises(ValueError, match="effective form"):
        build_scan_arrays(broken, n_labels)
    with pytest.raises(ValueError, match="effective form"):
        _decision_winners_python(broken, k, n_labels)
    with pytest.raises(ValueError, match="effective form"):
        _build_scan_arrays_python(broken, n_labels)


# ---------------------------------------------------------------------------
# numpy vs python differential
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_scan_arrays_identical_across_implementations(seed):
    scan, _, n_labels = random_scan(seed)
    a = build_scan_arrays(scan, n_labels)
    b = _build_scan_arrays_python(scan, n_labels)
    np.testing.assert_array_equal(a.boundary_labels, b.boundary_labels)
    np.testing.assert_array_equal(a.forced, b.forced)
    np.testing.assert_array_equal(a.cap, b.cap)


@pytest.mark.parametrize("seed", SEEDS)
def test_decision_agrees_across_implementations(seed):
    scan, k, n_labels = random_scan(seed)
    a = decision_winners(scan, k, n_labels)
    b = _decision_winners_python(scan, k, n_labels)
    # The verdict is exact for both; the winner *sets* are only specified
    # exactly when a scan ran to completion (early termination may stop
    # after any >= 2 winners, and the chunked scan stops later).
    assert a.certain_label == b.certain_label
    if not a.early_terminated and not b.early_terminated:
        assert a.winners == b.winners
    assert 0 < a.positions_scanned <= scan.n_candidates
    assert 0 < b.positions_scanned <= scan.n_candidates


# ---------------------------------------------------------------------------
# Against the exact counting kernel
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_complete_scan_reports_exact_winner_set(seed):
    scan, k, n_labels = random_scan(seed)
    reference = exact_winners(scan, k, n_labels)
    # A chunk larger than the scan disables early termination for the
    # numpy implementation, so its winner set must be the exact one.
    full = decision_winners(scan, k, n_labels, chunk=scan.n_candidates + 1)
    assert not full.early_terminated
    assert full.winners == reference
    assert full.certain_label == certain_label_from_counts(
        _counts_from_scan(scan, k, n_labels)
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("implementation", DECISIONS)
def test_verdict_matches_exact_counts(seed, implementation):
    scan, k, n_labels = random_scan(seed)
    reference = certain_label_from_counts(_counts_from_scan(scan, k, n_labels))
    decision = DECISIONS[implementation](scan, k, n_labels)
    assert decision.certain_label == reference
    # Early termination only ever fires once the verdict is mixed.
    if decision.early_terminated:
        assert decision.certain_label is None
        assert len(decision.winners) >= 2
        assert decision.winners <= exact_winners(scan, k, n_labels)


@pytest.mark.parametrize("implementation", DECISIONS)
def test_chunked_scan_early_terminates_on_mixed_prefix(implementation):
    # Every row is wildly dirty: one candidate far away (so each row
    # advances early in the ascending-similarity scan) and one near the
    # test point (so it stays open to the very end). Once all but k rows
    # have advanced, tallies of both labels are feasible — the verdict
    # is mixed a fraction into the scan and the tail must be skipped.
    rng = np.random.default_rng(7)
    n_rows = 300
    sets = [
        np.vstack(
            [[100.0 + row, 0.0], 0.01 * rng.normal(size=2)]
        )
        for row in range(n_rows)
    ]
    labels = [row % 2 for row in range(n_rows)]
    dataset = IncompleteDataset(sets, labels)
    scan = compute_scan_order(dataset, np.zeros(2), None)
    decision = DECISIONS[implementation](scan, 3, 2)
    assert decision.certain_label is None
    assert decision.early_terminated
    assert decision.positions_scanned < scan.n_candidates
