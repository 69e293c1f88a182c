"""Benchmark: exactness-preserving candidate pruning vs the full scan.

The prune certificate (:mod:`repro.core.pruning`) drops a training row
from a point's scan when at least ``k`` other rows' *worst-case*
candidate similarity strictly dominates its *best-case* one — a
condition that fires constantly on clustered-candidate workloads, where
each dirty row's repair candidates sit in a tight cluster and the
per-row similarity interval is narrow. This benchmark builds exactly
that workload and measures three things, emitted human-readable and as
``BENCH_pruning.json``:

1. **Speedup** — the exact Q2 counting query over the validation set on
   the ``batch`` backend, which prunes, vs the full scan: the unpruned
   counting kernel (``_counts_from_scan``) over every point's sorted
   scan of one :class:`~repro.core.batch_engine.PreparedBatch`. The CI
   acceptance bar is a >=2x wall-clock advantage (the default scale
   targets >=3x) with bit-identical counts.
2. **Telemetry** — the pruning counters the run reported: rows and
   candidate positions pruned, positions actually scanned. Beside them,
   the boundary window's own figures: the share of the kept rows'
   positions folded into the kernel's start state (the head below the
   certificate's threshold), and the counting kernel's time over the
   windows against its time over the whole kept scans (reported, not
   gated).
3. **Cross-backend identity** — the same query on the unpruned
   ``sequential`` reference and on ``batch``, both asserted
   bit-identical to the full-scan counts (pruning never changes an
   answer).

Run as a script::

    PYTHONPATH=src python benchmarks/bench_pruning.py [--smoke] [--output PATH]

``--smoke`` shrinks the workload to a few seconds for CI.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

import numpy as np

from conftest import bench_output_path, write_bench_report
from repro.core.batch_engine import PreparedBatch, _counts_from_scan
from repro.core.dataset import IncompleteDataset
from repro.core.planner import ExecutionOptions, _sims_problem, execute_query, make_query
from repro.core.pruning import _reduced_from_sims, window_scan
from repro.core.scan import _scan_from_sims
from repro.utils.tables import format_table

DEFAULT_OUTPUT = bench_output_path("pruning")

_WORKLOADS = {
    "smoke": dict(n_rows=240, m=8, n_val=24, n_features=4),
    "default": dict(n_rows=600, m=10, n_val=48, n_features=4),
}

K = 3
#: Candidate spread within one row's cluster, relative to the unit spread
#: of the row centers: small enough that per-row similarity intervals are
#: narrow and the certificate dominates most rows.
CLUSTER_SPREAD = 0.01


def clustered_workload(
    n_rows: int, m: int, n_val: int, n_features: int, seed: int = 1
) -> tuple[IncompleteDataset, np.ndarray]:
    """A dataset where every row's ``m`` candidates cluster around its center."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_rows, n_features))
    sets = [
        center + CLUSTER_SPREAD * rng.normal(size=(m, n_features))
        for center in centers
    ]
    labels = [int(label) for label in rng.integers(0, 2, size=n_rows)]
    labels[0], labels[1] = 0, 1  # both labels are guaranteed present
    val_X = rng.normal(size=(n_val, n_features))
    return IncompleteDataset(sets, labels), val_X


def _timed(run, repeats: int):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


def full_scan_counts(query) -> list[list[int]]:
    """The unpruned baseline: every point's sorted scan, fully counted."""
    prepared = PreparedBatch(query.dataset, query.test_X, k=query.k, kernel=query.kernel)
    return [
        _counts_from_scan(prepared.scan(index), query.k, query.n_labels)
        for index in range(prepared.n_points)
    ]


def bench_speedup(query, repeats: int) -> tuple[dict, dict, list]:
    t_off, off = _timed(lambda: full_scan_counts(query), repeats)
    t_on, on = _timed(
        lambda: execute_query(
            query, backend="batch", options=ExecutionOptions(cache=False)
        ),
        repeats,
    )
    assert on.values == off, "pruned counts diverged from the full scan"
    speedup = {
        "n_points": query.n_points,
        "unpruned_seconds": t_off,
        "pruned_seconds": t_on,
        "speedup": t_off / t_on,
    }
    telemetry = {
        key: on.stats[key]
        for key in (
            "n_rows",
            "n_rows_pruned",
            "n_candidates",
            "n_pruned",
            "n_scanned",
        )
    }
    return speedup, telemetry, off


def bench_window(query, repeats: int) -> dict:
    """The kernel over each point's boundary window vs its whole kept scan."""
    prepared = PreparedBatch(query.dataset, query.test_X, k=query.k, kernel=query.kernel)
    kept_scans, windows = [], []
    for index in range(prepared.n_points):
        _, kept, cert = _reduced_from_sims(*_sims_problem(prepared, index)[:6], None)
        kept_scans.append(_scan_from_sims(*kept))
        windows.append(window_scan(*kept, cert.threshold))
    t_kept, full = _timed(
        lambda: [_counts_from_scan(scan, query.k, query.n_labels) for scan in kept_scans],
        repeats,
    )
    t_window, folded = _timed(
        lambda: [
            _counts_from_scan(window, query.k, query.n_labels, head)
            for window, head in windows
        ],
        repeats,
    )
    assert folded == full, "window counts diverged from the kept-scan counts"
    n_kept = sum(scan.n_candidates for scan in kept_scans)
    n_head = sum(int(head.sum()) for _, head in windows)
    return {
        "kept_positions": n_kept,
        "head_positions": n_head,
        "head_share": n_head / n_kept,
        "kept_scan_kernel_seconds": t_kept,
        "window_kernel_seconds": t_window,
    }


def bench_identity(query, reference) -> dict:
    checks = []
    for backend, options in (
        ("sequential", ExecutionOptions(cache=False)),
        ("batch", ExecutionOptions(cache=False)),
    ):
        result = execute_query(query, backend=backend, options=options)
        assert result.values == reference, (
            f"{backend} diverged from the full-scan counts"
        )
        checks.append(
            {
                "backend": backend,
                "n_rows_pruned": result.stats.get("n_rows_pruned", 0),
                "identical": True,
            }
        )
    return {"configurations": checks}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="tiny workload for CI (a few seconds)"
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=DEFAULT_OUTPUT,
        help=f"where to write the JSON report (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)

    scale = "smoke" if args.smoke else "default"
    size = _WORKLOADS[scale]
    dataset, val_X = clustered_workload(
        size["n_rows"], size["m"], size["n_val"], size["n_features"]
    )
    query = make_query(dataset, val_X, kind="counts", k=K)

    speedup, telemetry, reference = bench_speedup(query, repeats=2)
    window = bench_window(query, repeats=2)
    identity = bench_identity(query, reference)

    report = {
        "benchmark": "pruning",
        "scale": scale,
        "workload": {
            "n_rows": dataset.n_rows,
            "candidates_per_row": size["m"],
            "n_val": int(val_X.shape[0]),
            "n_features": size["n_features"],
            "k": K,
            "cluster_spread": CLUSTER_SPREAD,
        },
        "speedup": speedup,
        "telemetry": telemetry,
        "window": window,
        "identity": identity,
    }
    write_bench_report(args.output, report)

    print(
        format_table(
            ["configuration", "seconds", "speedup"],
            [
                ["full scan (unpruned)", f"{speedup['unpruned_seconds']:.3f}", "1.00x"],
                [
                    "batch (pruned)",
                    f"{speedup['pruned_seconds']:.3f}",
                    f"{speedup['speedup']:.2f}x",
                ],
            ],
            title=(
                f"Exact Q2 counts, {speedup['n_points']} points x "
                f"{dataset.n_rows} clustered rows ({scale} scale)"
            ),
        )
    )
    print()
    print(
        format_table(
            ["quantity", "value"],
            [
                [
                    "rows pruned",
                    f"{telemetry['n_rows_pruned']}/{telemetry['n_rows']}",
                ],
                [
                    "candidate positions pruned",
                    f"{telemetry['n_pruned']}/{telemetry['n_candidates']}",
                ],
                ["positions scanned", str(telemetry["n_scanned"])],
                [
                    "kept positions folded into the start state",
                    f"{window['head_positions']}/{window['kept_positions']} "
                    f"({window['head_share']:.1%})",
                ],
                [
                    "kernel seconds, whole kept scans",
                    f"{window['kept_scan_kernel_seconds']:.4f}",
                ],
                [
                    "kernel seconds, boundary windows",
                    f"{window['window_kernel_seconds']:.4f}",
                ],
            ],
            title="Prune-certificate telemetry (batch backend)",
        )
    )
    print()
    print(
        format_table(
            ["backend", "rows pruned", "identical"],
            [
                [row["backend"], str(row["n_rows_pruned"]), "yes"]
                for row in identity["configurations"]
            ],
            title="Cross-backend identity (pruned batch vs the unpruned sequential reference)",
        )
    )

    if speedup["speedup"] < 2.0:
        print(
            f"FAIL: pruning is only {speedup['speedup']:.2f}x over the full "
            "scan; the bar is 2x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
