"""Unit tests for ``repro.core.pruning``: certificates, scan surgery, and
bit-identity of every pruned query path against its unpruned reference.

The fuzz half (world-enumeration soundness oracle, pruned backends
against the unpruned ``sequential`` reference) lives in ``tests/fuzz/test_pruning.py``; these tests
pin down the building blocks one at a time.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.core import pruning as pruning_module, scan_kernels
from repro.core.batch_engine import _counts_from_scan
from repro.core.dataset import IncompleteDataset
from repro.core.deltas import row_is_irrelevant
from repro.core.entropy import certain_label_from_counts
from repro.core.label_uncertainty import LabelUncertainDataset, label_uncertain_counts
from repro.core.planner import (
    ExecutionOptions,
    execute_query,
    make_query,
)
from repro.core.prepared import PreparedQuery
from repro.core.pruning import (
    accumulate_prune_stats,
    apply_pins_to_scan,
    certificate_from_intervals,
    empty_prune_stats,
    interval_arrays,
    positive_support_scan,
    prune_mask,
    pruned_counts_from_sims,
    pruned_decision_from_sims,
    pruned_label_uncertain_counts,
    pruned_topk_counts_from_scan,
    pruned_weighted_probabilities,
    restrict_scan,
    world_product,
)
from repro.core.scan import compute_scan_order
from repro.core.topk_prob import topk_inclusion_counts_from_scan
from repro.core.weighted import condition_weights, weighted_prediction_probabilities

SEEDS = list(range(15))


def random_problem(seed: int, n_labels: int | None = None, clustered: bool = False):
    """A random ``(dataset, t, k, pins)`` problem; ``clustered`` guarantees
    the certificate actually fires (tight candidate clusters, many rows)."""
    rng = np.random.default_rng(seed)
    n_labels = n_labels or int(rng.integers(2, 4))
    if clustered:
        n_rows = int(rng.integers(12, 20))
        centers = rng.normal(size=(n_rows, 2))
        sets = [
            center + 0.01 * rng.normal(size=(int(rng.integers(2, 4)), 2))
            for center in centers
        ]
    else:
        n_rows = int(rng.integers(4, 9))
        sets = [rng.normal(size=(int(rng.integers(1, 4)), 2)) for _ in range(n_rows)]
    labels = [int(label) for label in rng.integers(0, n_labels, size=n_rows)]
    labels[0] = 0
    labels[1] = n_labels - 1
    dataset = IncompleteDataset(sets, labels)
    t = rng.normal(size=2)
    k = int(rng.integers(1, min(4, n_rows) + 1))
    counts = dataset.candidate_counts()
    dirty = dataset.uncertain_rows()
    chosen = rng.permutation(dirty)[: int(rng.integers(0, len(dirty) + 1))]
    pins = {int(row): int(rng.integers(0, counts[int(row)])) for row in chosen}
    return dataset, t, k, pins


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_prune_mask_matches_row_is_irrelevant(seed):
    dataset, t, k, _ = random_problem(seed)
    scan = compute_scan_order(dataset, t, None)
    mins, maxs = interval_arrays(scan)
    mask = prune_mask(mins, maxs, k)
    for row in range(dataset.n_rows):
        assert mask[row] == row_is_irrelevant(mins, row, maxs[row], k)


def _sort_searchsorted_mask(mins, maxs, k):
    """The earlier O(N log N) form of the rule, kept as a reference: row
    ``r`` is prunable iff at least ``k`` rows have ``min > maxs[r]``."""
    sorted_mins = np.sort(mins)
    n_dominating = mins.shape[0] - np.searchsorted(sorted_mins, maxs, side="right")
    return n_dominating >= k


def _interval_case(seed):
    """Seeded ``(mins, maxs)`` with ties, duplicate minima and +-inf."""
    rng = np.random.default_rng(seed)
    # More rows than distinct values, so minima always repeat.
    n = int(rng.integers(9, 30))
    values = np.array([-np.inf, -2.0, -1.0, 0.0, 0.5, 1.0, 2.0, np.inf])
    a = rng.choice(values, size=n)
    b = rng.choice(values, size=n)
    return np.minimum(a, b), np.maximum(a, b)


@pytest.mark.parametrize("seed", range(40))
def test_prune_mask_matches_the_sort_searchsorted_rule(seed):
    mins, maxs = _interval_case(seed)
    n = mins.shape[0]
    for k in sorted({1, max(n // 2, 1), n}):
        expected = _sort_searchsorted_mask(mins, maxs, k)
        assert np.array_equal(prune_mask(mins, maxs, k), expected)
        cert = certificate_from_intervals(mins, maxs, k, np.ones(n, dtype=np.int64))
        assert np.array_equal(cert.pruned_rows, np.flatnonzero(expected))
        cert.verify()


def test_prune_mask_on_rows_tied_at_the_threshold():
    # Three rows share the minimum 1.0; with k=2 the threshold is 1.0, and a
    # row whose maximum equals it is not strictly dominated, so it is kept.
    mins = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
    maxs = np.array([2.0, 1.0, 1.0, 1.0, 0.5])
    assert prune_mask(mins, maxs, 2).tolist() == [False, False, False, False, True]
    assert np.array_equal(prune_mask(mins, maxs, 2), _sort_searchsorted_mask(mins, maxs, 2))


def test_nan_intervals_are_rejected():
    mins = np.array([0.0, np.nan, 1.0])
    maxs = np.array([0.5, np.nan, 2.0])
    with pytest.raises(ValueError, match="NaN"):
        prune_mask(mins, maxs, 1)
    with pytest.raises(ValueError, match="NaN"):
        certificate_from_intervals(mins, maxs, 1, [1, 1, 1])


@pytest.mark.parametrize("backend", ["sequential", "batch", "incremental"])
def test_nan_similarity_is_rejected_on_every_backend(backend):
    """An overflowing dot product (``inf + -inf``) gives a NaN similarity.
    NaN ranks nothing, so every backend refuses the query alike instead of
    sorting it as the largest similarity."""
    from repro.core.kernels import LinearKernel

    big = 1e200
    sets = [
        np.array([[big, big], [0.0, 0.1]]),
        np.array([[1.0, 0.0]]),
        np.array([[0.5, 0.2], [0.1, 0.1]]),
        np.array([[0.3, 0.3]]),
    ]
    dataset = IncompleteDataset(sets, [0, 1, 1, 0])
    t = np.array([big, -big])
    assert np.isnan(LinearKernel().similarities(sets[0], t)).any()
    query = make_query(dataset, t, kind="counts", k=1, kernel=LinearKernel())
    with pytest.raises(ValueError, match="NaN"):
        execute_query(query, backend=backend, options=ExecutionOptions(cache=False))


@pytest.mark.parametrize("seed", SEEDS)
def test_certificate_verifies_and_keeps_at_least_k(seed):
    dataset, t, k, _ = random_problem(seed, clustered=True)
    scan = compute_scan_order(dataset, t, None)
    mins, maxs = interval_arrays(scan)
    cert = certificate_from_intervals(mins, maxs, k, scan.row_counts)
    cert.verify()
    assert cert.n_kept >= k
    assert cert.n_kept + cert.n_pruned == dataset.n_rows
    expected_scale = 1
    for row in cert.pruned_rows.tolist():
        expected_scale *= int(scan.row_counts[row])
    assert cert.scale == expected_scale


def test_certificate_fires_on_clustered_rows():
    dataset, t, k, _ = random_problem(3, clustered=True)
    scan = compute_scan_order(dataset, t, None)
    mins, maxs = interval_arrays(scan)
    cert = certificate_from_intervals(mins, maxs, k, scan.row_counts)
    assert cert.n_pruned > 0  # tight clusters must dominate far rows


def test_certificate_verify_detects_corruption():
    dataset, t, k, _ = random_problem(3, clustered=True)
    scan = compute_scan_order(dataset, t, None)
    mins, maxs = interval_arrays(scan)
    cert = certificate_from_intervals(mins, maxs, k, scan.row_counts)
    assert cert.n_pruned > 0
    swapped = type(cert)(
        k=cert.k,
        # Claim the pruned rows are kept and vice versa: domination breaks.
        keep_rows=cert.pruned_rows,
        pruned_rows=cert.keep_rows,
        scale=cert.scale,
        row_mins=cert.row_mins,
        row_maxs=cert.row_maxs,
    )
    with pytest.raises(AssertionError, match="certificate broken"):
        swapped.verify()


def test_certificate_rejects_bad_k():
    mins = np.zeros(3)
    maxs = np.ones(3)
    with pytest.raises(ValueError, match="out of range"):
        certificate_from_intervals(mins, maxs, 4, [1, 1, 1])


def _flavor_world_counts(flavor, dataset, t, pins):
    """``(effective scan, world counts)`` exactly as each flavor's pruned
    path hands them to its certificate."""
    rng = np.random.default_rng(len(pins))
    if flavor == "weighted":
        weights = []
        for m in dataset.candidate_counts():
            raw = [Fraction(int(rng.integers(1, 6))) for _ in range(int(m))]
            weights.append([w / sum(raw) for w in raw])
        conditioned = condition_weights(weights, pins)
        effective, _ = positive_support_scan(compute_scan_order(dataset, t, None), conditioned)
        return effective, effective.row_counts
    if flavor == "topk":
        query = make_query(dataset, t, flavor="topk", k=1, pins=pins)
        effective = compute_scan_order(query.restricted_dataset, t, None)
        return effective, effective.row_counts
    if flavor == "label_uncertainty":
        lu = LabelUncertainDataset.from_incomplete(dataset, flip_rows=[0, 2])
        effective = apply_pins_to_scan(compute_scan_order(dataset, t, None), pins)
        sizes = [len(label_set) for label_set in lu.label_sets]
        return effective, [int(m) * size for m, size in zip(effective.row_counts, sizes)]
    effective = apply_pins_to_scan(compute_scan_order(dataset, t, None), pins)
    return effective, effective.row_counts


@pytest.mark.parametrize("seed", SEEDS[:8])
@pytest.mark.parametrize("flavor", ["counts", "weighted", "topk", "label_uncertainty"])
def test_scale_equals_direct_product(seed, flavor):
    """The certificate's scale (one exact power per distinct multiplicity)
    equals the pruned rows' direct product, with and without pins."""
    dataset, t, k, pins = random_problem(seed, n_labels=2, clustered=True)
    for fixed in ({}, pins):
        effective, counts = _flavor_world_counts(flavor, dataset, t, fixed)
        mins, maxs = interval_arrays(effective)
        cert = certificate_from_intervals(mins, maxs, k, counts)
        assert cert.n_pruned > 0
        assert cert.scale == math.prod(
            int(counts[row]) for row in cert.pruned_rows.tolist()
        )


def test_scale_with_a_zero_multiplicity():
    dataset, t, k, _ = random_problem(3, clustered=True)
    scan = compute_scan_order(dataset, t, None)
    mins, maxs = interval_arrays(scan)
    direct = certificate_from_intervals(mins, maxs, k, scan.row_counts)
    for row, expected in ((int(direct.keep_rows[0]), direct.scale), (int(direct.pruned_rows[0]), 0)):
        counts = scan.row_counts.copy()
        counts[row] = 0
        assert certificate_from_intervals(mins, maxs, k, counts).scale == expected


def test_world_product_is_exact_beyond_int64():
    counts = [3] * 50 + [7] * 40 + [1] * 5
    assert world_product(counts) == 3**50 * 7**40
    assert world_product([]) == 1


# ---------------------------------------------------------------------------
# Scan surgery
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_restrict_scan_is_an_order_preserving_subsequence(seed):
    dataset, t, k, pins = random_problem(seed)
    scan = apply_pins_to_scan(compute_scan_order(dataset, t, None), pins)
    mins, maxs = interval_arrays(scan)
    cert = certificate_from_intervals(mins, maxs, k, scan.row_counts)
    reduced = restrict_scan(scan, cert.keep_rows)
    keep = set(cert.keep_rows.tolist())
    expected_sims = [
        float(sim) for row, sim in zip(scan.rows, scan.sims) if int(row) in keep
    ]
    assert [float(sim) for sim in reduced.sims] == expected_sims
    # Monotone re-indexing: relative row order within the scan is intact.
    remap = {int(row): new for new, row in enumerate(cert.keep_rows.tolist())}
    expected_rows = [remap[int(row)] for row in scan.rows if int(row) in keep]
    assert [int(row) for row in reduced.rows] == expected_rows


def test_apply_pins_to_scan_rejects_bad_candidate():
    dataset, t, _, _ = random_problem(0)
    scan = compute_scan_order(dataset, t, None)
    with pytest.raises(IndexError, match="out of range"):
        apply_pins_to_scan(scan, {0: 99})


# ---------------------------------------------------------------------------
# Pruned query paths vs their unpruned references
# ---------------------------------------------------------------------------


def _candidate_order(dataset, t):
    """A point's candidate-order arrays (what the batch backend holds):
    ``(sims, rows, cands, labels, counts)``."""
    scan = compute_scan_order(dataset, t, None)
    order = np.argsort(scan.rows * 10_000 + scan.cands, kind="stable")
    return (
        scan.sims[order],
        scan.rows[order],
        scan.cands[order],
        scan.row_labels,
        scan.row_counts,
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("clustered", (False, True))
def test_pruned_counts_from_sims_bit_identical(seed, clustered):
    dataset, t, k, pins = random_problem(seed, clustered=clustered)
    reference = PreparedQuery(dataset, t, k=k).counts(pins or None)
    counts, stats = pruned_counts_from_sims(
        *_candidate_order(dataset, t), k, dataset.n_labels, pins or None
    )
    assert counts == reference
    assert stats["n_rows"] == dataset.n_rows
    assert stats["n_scanned"] + stats["n_pruned"] == stats["n_candidates"]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("implementation", ("numpy", "python"))
def test_pruned_decision_matches_counts_verdict(seed, implementation, monkeypatch):
    if implementation == "python":
        monkeypatch.setattr(
            pruning_module, "decision_winners", scan_kernels._decision_winners_python
        )
    dataset, t, k, pins = random_problem(seed, clustered=True)
    reference = certain_label_from_counts(PreparedQuery(dataset, t, k=k).counts(pins or None))
    decision, stats = pruned_decision_from_sims(
        *_candidate_order(dataset, t),
        k,
        dataset.n_labels,
        pins or None,
    )
    assert decision.certain_label == reference
    assert stats["n_scanned"] <= stats["n_candidates"] - stats["n_pruned"]


@pytest.mark.parametrize("seed", SEEDS)
def test_pruned_topk_counts_bit_identical(seed):
    dataset, t, k, pins = random_problem(seed, clustered=True)
    effective = apply_pins_to_scan(compute_scan_order(dataset, t, None), pins or None)
    reference = topk_inclusion_counts_from_scan(effective, k)
    counts, _ = pruned_topk_counts_from_scan(
        compute_scan_order(dataset, t, None), k, pins or None
    )
    assert counts == reference


@pytest.mark.parametrize("seed", SEEDS)
def test_pruned_weighted_probabilities_bit_identical(seed):
    dataset, t, k, pins = random_problem(seed, n_labels=2, clustered=True)
    rng = np.random.default_rng(seed + 99)
    weights = []
    for m in dataset.candidate_counts():
        raw = [Fraction(int(rng.integers(1, 6))) for _ in range(int(m))]
        total = sum(raw)
        weights.append([w / total for w in raw])
    conditioned = condition_weights(weights, pins) if pins else weights
    reference = weighted_prediction_probabilities(dataset, t, k=k, weights=conditioned)
    probabilities, _ = pruned_weighted_probabilities(dataset, t, conditioned, k)
    assert probabilities == reference
    query = make_query(
        dataset, t, kind="certain_label", flavor="weighted", k=k, pins=pins, weights=weights
    )
    certain = [label for label, p in enumerate(reference) if p == 1]
    assert _pruned_batch(query) == [certain[0] if certain else None]


@pytest.mark.parametrize("seed", SEEDS)
def test_pruned_label_uncertain_counts_bit_identical(seed):
    dataset, t, k, _ = random_problem(seed, clustered=True)
    rng = np.random.default_rng(seed + 7)
    flip_rows = [
        int(row) for row in rng.permutation(dataset.n_rows)[: int(rng.integers(1, 3))]
    ]
    lu = LabelUncertainDataset.from_incomplete(dataset, flip_rows=flip_rows)
    reference = label_uncertain_counts(lu, t, k=k)
    counts, _ = pruned_label_uncertain_counts(lu, t, k)
    assert counts == reference
    query = make_query(lu, t, kind="certain_label", k=k)
    assert _pruned_batch(query) == [certain_label_from_counts(reference)]


def _pruned_batch(query):
    """``query``'s values on the ``batch`` backend, which always prunes."""
    result = execute_query(query, backend="batch", options=ExecutionOptions(cache=False))
    assert result.stats["prune"] is True
    return result.values


# ---------------------------------------------------------------------------
# Stats plumbing
# ---------------------------------------------------------------------------


def test_accumulate_prune_stats():
    totals = empty_prune_stats()
    accumulate_prune_stats(
        totals,
        {"n_rows": 5, "n_rows_pruned": 3, "n_candidates": 10, "n_pruned": 6,
         "n_scanned": 4, "early_terminated": True},
    )
    accumulate_prune_stats(
        totals,
        {"n_rows": 5, "n_rows_pruned": 0, "n_candidates": 10, "n_pruned": 0,
         "n_scanned": 10, "early_terminated": False},
    )
    assert totals == {
        "n_rows": 10,
        "n_rows_pruned": 3,
        "n_candidates": 20,
        "n_pruned": 6,
        "n_scanned": 14,
        "n_points": 2,
        "n_early_terminated": 1,
    }


# ---------------------------------------------------------------------------
# What the stats report
# ---------------------------------------------------------------------------


def test_execution_options_have_no_prune_knob():
    # Pruning keeps every answer bit-identical, so no caller selects it.
    with pytest.raises(TypeError):
        ExecutionOptions(prune="auto")


@pytest.mark.parametrize("backend", ["sequential", "batch"])
@pytest.mark.parametrize("kind", ["certain_label", "check"])
def test_binary_minmax_path_reports_no_pruning(backend, kind):
    """The binary MinMax decision runs no pruning pass and must not claim one."""
    rng = np.random.default_rng(7)
    dataset, _, _, pins = random_problem(7, n_labels=2, clustered=True)
    test_X = rng.normal(size=(16, 2))
    label = 0 if kind == "check" else None
    query = make_query(dataset, test_X, kind=kind, k=2, pins=pins, label=label)
    options = ExecutionOptions(cache=False)
    result = execute_query(query, backend=backend, options=options)
    assert result.stats == {"flavor": "binary", "kind": kind, "prune": False}
    if backend == "batch":
        # Counting the same points does run the pass, and says so.
        counts = make_query(dataset, test_X, kind="counts", k=2, pins=pins)
        stats = execute_query(counts, backend=backend, options=options).stats
        assert stats["prune"] is True
        assert stats["n_points"] == 16


def test_sequential_never_prunes():
    """``sequential`` is the unpruned reference: it reports no pruning pass."""
    dataset, t, k, pins = random_problem(3, clustered=True)
    query = make_query(dataset, t, kind="counts", k=k, pins=pins)
    result = execute_query(query, backend="sequential")
    assert result.stats == {"flavor": query.flavor, "kind": "counts", "prune": False}
    # The pruned batch path agrees with the unpruned reference.
    assert _pruned_batch(query) == result.values
