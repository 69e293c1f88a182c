"""Benchmark: the service broker's micro-batching under concurrent load.

The serving question the broker exists to answer: when 16 client threads
fire single-point certainty queries at the same dataset, what does
coalescing them into planner batch calls cost or buy against dispatching
each request on its own? Two runs over the *same* workload (identical
points, 16 threads, result caching off so every request really
executes):

* **per-request** — ``max_batch=1``: every query is its own planner
  call on the vectorised local path (``batch`` backend, the dataset's
  memoized candidate layout; asserted, not assumed);
* **micro-batched** — a ``window_s`` coalescing window with
  ``max_batch`` points per flush: concurrent requests on the query
  family share one planner call.

Per-request dispatch used to run the per-row ``sequential`` scan for
every point, and micro-batching beat it by 6-14x. Against the vectorised
path a point costs about as much as the broker's own bookkeeping, so
coalescing no longer buys throughput at this size (0.70-1.02x on a
2-CPU box). The bars are therefore regression guards: a flush must
really coalesce (at most a quarter as many planner calls as requests),
and micro-batching may cost at most half the per-request throughput —
a window that stops filling and waits out its timer on every flush
falls below that. Values must be bit-identical between the two modes
— batching is a latency/throughput decision, never a semantic one. The
report records absolute times and the CPU count.

Emits ``BENCH_service.json``. Run as a script::

    PYTHONPATH=src python benchmarks/bench_service.py [--smoke] [--output PATH]

``--smoke`` shrinks the workload to a few seconds for CI.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
import threading
import time

import numpy as np

from conftest import bench_output_path, write_bench_report
from repro.core.planner import ExecutionOptions, execute_query, make_query
from repro.service import DatasetRegistry, QueryBroker
from repro.utils.tables import format_table

DEFAULT_OUTPUT = bench_output_path("service")

N_THREADS = 16

#: Micro-batched throughput must stay at least this fraction of
#: per-request throughput, and each flush must serve on average at least
#: ``MIN_POINTS_PER_CALL`` points.
MIN_THROUGHPUT_RATIO = 0.5
MIN_POINTS_PER_CALL = 4

_WORKLOADS = {
    "smoke": dict(n_train=100, n_points=128, max_batch=16, window_s=0.01),
    "default": dict(n_train=150, n_points=256, max_batch=32, window_s=0.01),
}


def _client_load(
    registry: DatasetRegistry,
    points: np.ndarray,
    window_s: float,
    max_batch: int,
) -> tuple[float, list, dict, set]:
    """Run the 16-thread single-point workload; return
    (seconds, values, metrics, serving backends)."""
    broker = QueryBroker(
        registry,
        window_s=window_s,
        max_batch=max_batch,
        max_pending=4 * len(points),
        cache=False,  # every request must actually execute
    )
    values: list = [None] * len(points)
    backends: set = set()

    def worker(indices: range) -> None:
        for index in indices:
            response = broker.query("bench", points[index], kind="certain_label")
            values[index] = response["values"][0]
            backends.add(response["backend"])

    threads = [
        threading.Thread(target=worker, args=(range(t, len(points), N_THREADS),))
        for t in range(N_THREADS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    metrics = broker.metrics()
    broker.close()
    return elapsed, values, metrics, backends


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

    registry = DatasetRegistry()
    entry = registry.register_recipe(
        "bench", recipe="supreme", n_train=size["n_train"], n_val=8, seed=1
    )
    rng = np.random.default_rng(7)
    points = rng.normal(size=(size["n_points"], entry.dataset.n_features)) * 0.5

    t_request, values_request, metrics_request, backends_request = _client_load(
        registry, points, window_s=0.0, max_batch=1
    )
    t_batched, values_batched, metrics_batched, backends_batched = _client_load(
        registry, points, window_s=size["window_s"], max_batch=size["max_batch"]
    )
    assert backends_request == backends_batched == {"batch"}, (
        "the baseline must be the vectorised local path, got "
        f"{sorted(backends_request | backends_batched)}"
    )

    assert values_batched == values_request, (
        "micro-batched values diverged from per-request dispatch"
    )
    # And both must match a direct single-call planner execution.
    direct = execute_query(
        make_query(entry.dataset, points, kind="certain_label", k=entry.k),
        options=ExecutionOptions(cache=False),
    ).values
    assert values_request == direct, "served values diverged from execute_query"

    n = len(points)
    speedup = t_request / t_batched
    points_per_call = n / metrics_batched["batches_executed"]
    report = {
        "benchmark": "service",
        "scale": scale,
        "workload": {
            "recipe": "supreme",
            "n_train": entry.dataset.n_rows,
            "n_points": n,
            "n_threads": N_THREADS,
            "kind": "certain_label",
        },
        "per_request": {
            "backend": "batch",
            "seconds": t_request,
            "queries_per_sec": n / t_request,
            "batches_executed": metrics_request["batches_executed"],
        },
        "micro_batched": {
            "window_s": size["window_s"],
            "max_batch": size["max_batch"],
            "seconds": t_batched,
            "queries_per_sec": n / t_batched,
            "batches_executed": metrics_batched["batches_executed"],
            "coalesced_batches": metrics_batched["coalesced_batches"],
            "max_batch_size": metrics_batched["max_batch_size"],
            "points_per_call": points_per_call,
        },
        "speedup": speedup,
        "bars": {
            "min_throughput_ratio": MIN_THROUGHPUT_RATIO,
            "min_points_per_call": MIN_POINTS_PER_CALL,
        },
        "values_bit_identical": True,
    }
    write_bench_report(args.output, report)

    print(
        format_table(
            ["dispatch", "planner calls", "seconds", "queries/sec", "speedup"],
            [
                [
                    "per-request",
                    str(metrics_request["batches_executed"]),
                    f"{t_request:.3f}",
                    f"{n / t_request:.0f}",
                    "1.00x",
                ],
                [
                    f"micro-batched (<= {size['max_batch']})",
                    str(metrics_batched["batches_executed"]),
                    f"{t_batched:.3f}",
                    f"{n / t_batched:.0f}",
                    f"{speedup:.2f}x",
                ],
            ],
            title=(
                f"{n} single-point certainty queries from {N_THREADS} client "
                f"threads, {os.cpu_count()} CPUs ({scale} scale)"
            ),
        )
    )

    failed = False
    if points_per_call < MIN_POINTS_PER_CALL:
        print(
            f"FAIL: micro-batching served {points_per_call:.1f} points per "
            f"planner call; the bar is {MIN_POINTS_PER_CALL}",
            file=sys.stderr,
        )
        failed = True
    if speedup < MIN_THROUGHPUT_RATIO:
        print(
            f"FAIL: micro-batched broker runs at {speedup:.2f}x the throughput "
            f"of per-request dispatch; the bar is {MIN_THROUGHPUT_RATIO}x",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
