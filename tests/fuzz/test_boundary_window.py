"""Fuzz harness for the boundary window of the Q2 counting kernel.

The pruned counts path folds every candidate below the certificate's
threshold ``T`` (the k-th largest row minimum) into the kernel's start
state and walks only the window of positions with similarity ``>= T``
(:func:`repro.core.pruning.window_scan`). These cases hold that path to
the unpruned per-point reference, :meth:`PreparedQuery.counts`, bit for
bit, on the shapes where the window's edge is easiest to get wrong:

* candidates tied exactly at ``T`` across rows (grid-valued candidates);
* pinned rows whose pinned candidate sits at ``T``;
* 3 and 4 labels;
* single-candidate rows;
* ``k`` in ``{1, 2, n - 1, n}``;
* ``+inf`` / ``-inf`` similarities from the linear kernel.

A coverage test asserts that the seeds really produce each of these. The
delta-maintenance recount uses the same window, so
:class:`~repro.core.deltas.DeltaMaintainedState` counts over seeded
:class:`~repro.core.deltas.CellRepair` chains are compared with a fresh
state's and with the reference after every repair.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dataset import IncompleteDataset
from repro.core.deltas import CellRepair, DeltaMaintainedState
from repro.core.kernels import LinearKernel, NegativeEuclideanKernel
from repro.core.prepared import PreparedQuery
from repro.core.pruning import pruned_counts_from_sims

SEEDS = list(range(60))

#: Linear-kernel test point: the first feature times ``±HUGE`` overflows to
#: ``±inf``, the second stays finite, so no ``inf - inf`` NaN can form.
HUGE = 1e200


def _ks(n_rows: int) -> list[int]:
    return sorted({1, min(2, n_rows), max(n_rows - 1, 1), n_rows})


def window_case(seed: int):
    """``(dataset, t, kernel, pins)`` with many exact similarity ties.

    Candidates sit on a small integer grid, so equal distances recur
    across rows; a quarter of the seeds use the linear kernel with
    overflowing features, so some similarities are ``±inf``.
    """
    rng = np.random.default_rng(seed)
    n_labels = (2, 3, 4)[seed % 3]
    n_rows = int(rng.integers(max(n_labels, 3), 9))
    linear = seed % 4 == 3
    if linear:
        first = np.array([-HUGE, -1.0, 0.0, 1.0, HUGE])
        sets = [
            np.column_stack(
                [
                    rng.choice(first, size=m),
                    rng.integers(-2, 3, size=m).astype(float),
                ]
            )
            for m in rng.integers(1, 4, size=n_rows)
        ]
        t = np.array([HUGE, 1.0])
        kernel = LinearKernel()
    else:
        sets = [
            rng.integers(0, 4, size=(int(m), 2)).astype(float)
            for m in rng.integers(1, 4, size=n_rows)
        ]
        t = rng.integers(0, 4, size=2).astype(float)
        kernel = NegativeEuclideanKernel()
    labels = [int(label) for label in rng.integers(0, n_labels, size=n_rows)]
    labels[: n_labels] = range(n_labels)  # the label space is exactly as declared
    dataset = IncompleteDataset(sets, labels)
    dirty = dataset.uncertain_rows()
    pins = {}
    if dirty and seed % 2:
        counts = dataset.candidate_counts()
        chosen = rng.permutation(dirty)[: int(rng.integers(1, len(dirty) + 1))]
        pins = {int(row): int(rng.integers(counts[int(row)])) for row in chosen}
    return dataset, t, kernel, pins


def _layout_problem(dataset, t, kernel):
    """The candidate-layout arrays the batch backend hands the pruner."""
    layout = dataset.candidate_layout()
    sims = kernel.pairwise(layout.stacked, t.reshape(1, -1))[0]
    return sims, layout.rows, layout.cands, dataset.labels.copy(), layout.counts


def _threshold(sims, layout_counts, pins, k):
    """``T`` recomputed from scratch: the k-th largest pinned row minimum."""
    offsets = np.concatenate(([0], np.cumsum(layout_counts)))
    mins = []
    for row in range(len(layout_counts)):
        segment = sims[offsets[row] : offsets[row + 1]]
        mins.append(segment[pins[row]] if row in pins else segment.min())
    return sorted(mins, reverse=True)[k - 1], offsets


@pytest.mark.parametrize("seed", SEEDS)
def test_window_counts_equal_the_unpruned_reference(seed):
    dataset, t, kernel, pins = window_case(seed)
    problem = _layout_problem(dataset, t, kernel)
    for k in _ks(dataset.n_rows):
        reference = PreparedQuery(dataset, t, k=k, kernel=kernel).counts(pins or None)
        counts, stats = pruned_counts_from_sims(
            *problem, k, dataset.n_labels, pins or None
        )
        assert counts == reference, f"seed={seed} k={k} pins={pins}"
        assert stats["n_scanned"] + stats["n_pruned"] == stats["n_candidates"]


def _coverage(seed: int) -> set[str]:
    """Which edge shapes one seed's cases exercise (over all its ``k``)."""
    dataset, t, kernel, pins = window_case(seed)
    sims, _, _, _, counts = _layout_problem(dataset, t, kernel)
    hit = {f"labels={dataset.n_labels}"}
    if (counts == 1).any():
        hit.add("single-candidate row")
    if np.isinf(sims).any():
        hit.add("inf similarity")
    for k in _ks(dataset.n_rows):
        for shape, value in (("k=1", 1), ("k=2", 2), ("k=n-1", dataset.n_rows - 1)):
            if k == value:
                hit.add(shape)
        if k == dataset.n_rows:
            hit.add("k=n")
        threshold, offsets = _threshold(sims, counts, pins, k)
        rows_at_t = set()
        for row in range(dataset.n_rows):
            segment = sims[offsets[row] : offsets[row + 1]]
            if row in pins:
                segment = segment[pins[row] : pins[row] + 1]
                if segment[0] == threshold:
                    hit.add("pinned row at T")
            if (segment == threshold).any():
                rows_at_t.add(row)
        if len(rows_at_t) >= 2:
            hit.add("tie at T across rows")
        if (sims < threshold).any():
            hit.add("non-empty head")
    return hit


def test_cases_cover_the_window_edges():
    """The seeds above are not vacuous: every edge shape occurs repeatedly."""
    tally: dict[str, int] = {}
    for seed in SEEDS:
        for shape in _coverage(seed):
            tally[shape] = tally.get(shape, 0) + 1
    wanted = (
        "tie at T across rows",
        "pinned row at T",
        "labels=3",
        "labels=4",
        "single-candidate row",
        "k=1",
        "k=2",
        "k=n-1",
        "k=n",
        "inf similarity",
        "non-empty head",
    )
    missing = {shape: tally.get(shape, 0) for shape in wanted if tally.get(shape, 0) < 3}
    assert not missing, f"edge shapes hit fewer than 3 times: {missing}"


def _repair_chain(seed: int):
    """A dataset, its test points and a seeded chain of cell repairs."""
    rng = np.random.default_rng(1000 + seed)
    n_labels = (2, 3, 4)[seed % 3]
    n_rows = int(rng.integers(6, 12))
    sets = [
        rng.integers(0, 5, size=(int(m), 2)).astype(float)
        for m in rng.integers(1, 5, size=n_rows)
    ]
    labels = [int(label) for label in rng.integers(0, n_labels, size=n_rows)]
    labels[:n_labels] = range(n_labels)
    dataset = IncompleteDataset(sets, labels)
    points = rng.integers(0, 5, size=(4, 2)).astype(float)
    counts = dataset.candidate_counts()
    dirty = rng.permutation(dataset.uncertain_rows())
    chain = [CellRepair(int(row), int(rng.integers(counts[int(row)]))) for row in dirty]
    k = int(rng.integers(1, n_rows + 1))
    return dataset, points, k, chain


@pytest.mark.parametrize("seed", list(range(12)))
def test_maintained_counts_equal_a_fresh_state_along_repair_chains(seed):
    dataset, points, k, chain = _repair_chain(seed)
    state = DeltaMaintainedState(dataset, points, k=k, prune=True)
    for step, delta in enumerate(chain):
        state.apply(delta)
        fresh = DeltaMaintainedState(state.dataset, points, k=k, prune=True)
        assert state.counts_all() == fresh.counts_all(), f"seed={seed} step={step}"
        reference = [
            PreparedQuery(state.dataset, point, k=k).counts() for point in points
        ]
        assert state.counts_all() == reference, f"seed={seed} step={step}"
        stats = state.prune_stats
        assert stats["n_scanned"] + stats["n_pruned"] == stats["n_candidates"]
