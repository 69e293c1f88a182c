"""Ablation A5: incremental CP maintenance vs. per-step recomputation.

CPClean's inner loop re-evaluates Q2 for every validation point after every
cleaning step. :class:`~repro.core.deltas.DeltaMaintainedState` applies
each cleaning step as a :class:`~repro.core.deltas.CellRepair` and prunes
(test point, cleaned row) pairs where the row provably never enters the
top-K, replacing a full scan with an exact big-integer division. This bench
cleans every dirty row of a synthetic workload twice — once recomputing
from scratch, once incrementally — asserts bit-identical counts, and
reports the speedup and the prune hit rate.
"""

import time

import numpy as np

from repro.core.deltas import CellRepair, DeltaMaintainedState
from repro.core.prepared import PreparedQuery
from repro.experiments.complexity import random_instance
from repro.utils.tables import format_table

N, M, K, N_VAL = 150, 3, 3, 12


def _workload():
    rng = np.random.default_rng(7)
    dataset, _ = random_instance(N, M, n_labels=2, n_features=4, seed=rng)
    points = rng.normal(size=(N_VAL, 4))
    pins = [(row, 0) for row in dataset.uncertain_rows()]
    return dataset, points, pins


def test_ablation_incremental_vs_recompute(benchmark, emit):
    dataset, points, pins = _workload()

    def incremental():
        state = DeltaMaintainedState(dataset, points, k=K)
        state.apply_many([CellRepair(row, cand) for row, cand in pins])
        return state

    state = benchmark.pedantic(incremental, rounds=1, iterations=1)

    # Reference: full recomputation after every pin.
    queries = [PreparedQuery(dataset, points[i], k=K) for i in range(points.shape[0])]
    start = time.perf_counter()
    fixed: dict[int, int] = {}
    final = None
    for row, cand in pins:
        fixed[row] = cand
        final = [q.counts(fixed) for q in queries]
    recompute_time = time.perf_counter() - start

    assert final is not None
    assert [state.counts(i) for i in range(state.n_points)] == final, (
        "incremental counts must be bit-identical to per-step recomputation"
    )

    total_pairs = state.n_pruned + state.n_recomputed
    incr_time = benchmark.stats["mean"]
    emit(
        format_table(
            ["strategy", "time", "scans", "prune rate"],
            [
                [
                    "recompute every step",
                    f"{recompute_time * 1e3:.0f} ms",
                    str(total_pairs),
                    "0%",
                ],
                [
                    "incremental (pruned)",
                    f"{incr_time * 1e3:.0f} ms",
                    str(state.n_recomputed),
                    f"{100.0 * state.n_pruned / total_pairs:.0f}%",
                ],
            ],
            title=(
                f"Ablation A5 — incremental CP maintenance "
                f"(N={N}, M={M}, K={K}, |Dval|={N_VAL}, {len(pins)} cleaning steps)"
            ),
        )
    )
    assert state.n_pruned > 0, "expected at least some pruned (point, row) pairs"
