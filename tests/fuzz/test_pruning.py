"""Fuzz harness for the prune certificate: soundness and bit-identity.

Two properties over 30 seeded random cases:

1. **Soundness** — for every issued certificate, enumerate the worlds
   (the cartesian product of candidate choices) and check, world by
   world, that each pruned row is strictly dominated by at least ``k``
   rows. That is the tie-break-free statement of "never in any world's
   top-K": whatever convention breaks similarity ties, a row with ``k``
   strictly-greater rows above it cannot be a k-nearest neighbour.
2. **Bit-identity** — every backend that can plan the query returns
   exactly the values of the unpruned ``sequential`` reference (``batch``
   and ``incremental`` always prune), and for the decision kinds the
   pruned ``batch`` path agrees under the vectorised decision scan and
   its per-position reference. The cases come from
   :mod:`tests.fuzz.cp_cases`, so flavors, pins and weights all cycle
   through.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core import pruning, scan_kernels
from repro.core.planner import ExecutionOptions, PlanError, execute_query
from repro.core.pruning import (
    certificate_from_intervals,
    interval_arrays,
    prune_mask,
)
from repro.core.scan import compute_scan_order

from tests.fuzz.cp_cases import random_case, random_dataset

SEEDS = list(range(30))

#: Enumerating every world is the oracle; cap the blow-up per case.
MAX_WORLDS = 5_000


def _soundness_problem(seed: int):
    """A random soundness case; odd seeds cluster candidates so the
    certificate demonstrably fires on a healthy fraction of cases."""
    rng = np.random.default_rng(seed)
    n_labels = int(rng.integers(2, 4))
    if seed % 2:
        n_rows = int(rng.integers(8, 12))
        centers = rng.normal(size=(n_rows, 2))
        sets = [
            center + 0.02 * rng.normal(size=(int(rng.integers(1, 3)), 2))
            for center in centers
        ]
        labels = [int(label) for label in rng.integers(0, n_labels, size=n_rows)]
        labels[0], labels[1] = 0, n_labels - 1
        from repro.core.dataset import IncompleteDataset

        dataset = IncompleteDataset(sets, labels)
    else:
        dataset = random_dataset(rng, n_labels)
    t = rng.normal(size=2)
    k = int(rng.integers(1, dataset.n_rows + 1))
    return dataset, t, k


@pytest.mark.parametrize("seed", SEEDS)
def test_pruned_rows_dominated_in_every_world(seed):
    dataset, t, k, = _soundness_problem(seed)
    scan = compute_scan_order(dataset, t, None)
    mins, maxs = interval_arrays(scan)
    cert = certificate_from_intervals(mins, maxs, k, scan.row_counts)
    cert.verify()
    assert np.array_equal(
        np.sort(np.concatenate([cert.keep_rows, cert.pruned_rows])),
        np.arange(dataset.n_rows),
    )
    if cert.n_pruned == 0:
        return

    # Candidate similarities per row, in candidate order.
    sims_of = {}
    for row, cand, sim in zip(scan.rows, scan.cands, scan.sims):
        sims_of[(int(row), int(cand))] = float(sim)
    counts = [int(m) for m in scan.row_counts]
    n_worlds = int(np.prod(counts, dtype=object))
    rng = np.random.default_rng(seed + 10_000)
    if n_worlds <= MAX_WORLDS:
        worlds = itertools.product(*[range(m) for m in counts])
    else:  # uniform sample; the exhaustive check runs on the small cases
        worlds = (
            tuple(int(rng.integers(0, m)) for m in counts) for _ in range(500)
        )
    pruned = cert.pruned_rows.tolist()
    for world in worlds:
        world_sims = np.array(
            [sims_of[(row, choice)] for row, choice in enumerate(world)]
        )
        for row in pruned:
            n_strictly_above = int(np.sum(world_sims > world_sims[row]))
            assert n_strictly_above >= k, (
                f"seed={seed}: pruned row {row} has only {n_strictly_above} "
                f"rows strictly above it in world {world} (need >= {k})"
            )


def test_soundness_seeds_actually_prune():
    """The harness must exercise the interesting branch, not vacuously pass."""
    n_pruning_cases = 0
    for seed in SEEDS:
        dataset, t, k = _soundness_problem(seed)
        scan = compute_scan_order(dataset, t, None)
        mins, maxs = interval_arrays(scan)
        if prune_mask(mins, maxs, k).any():
            n_pruning_cases += 1
    assert n_pruning_cases >= len(SEEDS) // 3


# ---------------------------------------------------------------------------
# Pruned backends vs the unpruned reference, x flavors x pins x weights
# ---------------------------------------------------------------------------


_OPTIONS = ExecutionOptions(cache=False)


@pytest.mark.parametrize("seed", SEEDS)
def test_pruned_backends_bit_identical_to_sequential(seed, monkeypatch):
    query, oracle, description = random_case(seed)
    reference = execute_query(query, backend="sequential", options=_OPTIONS)
    assert reference.stats["prune"] is False, description
    reference = reference.values
    if oracle is not None:
        assert reference == oracle, f"{description}: diverged from brute force"
    for backend in ("batch", "incremental"):
        try:
            result = execute_query(query, backend=backend, options=_OPTIONS)
        except PlanError:
            continue  # backend cannot serve this flavor/kind; fine
        assert result.values == reference, f"{description}: backend={backend} diverged"
        assert result.stats.get("prune") in (True, False)

    # Decision kinds additionally cross-check the decision scan against its
    # per-position reference through the pruned batch path.
    if query.kind in ("certain_label", "check"):
        implementations = {
            "numpy": scan_kernels.decision_winners,
            "python": scan_kernels._decision_winners_python,
        }
        for implementation, decide in implementations.items():
            monkeypatch.setattr(pruning, "decision_winners", decide)
            result = execute_query(query, backend="batch", options=_OPTIONS)
            assert result.values == reference, (
                f"{description}: scan kernel {implementation} diverged"
            )
