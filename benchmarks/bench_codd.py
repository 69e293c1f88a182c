"""Benchmark: the vectorized certain-answer engine vs the naive oracle.

Three measurements, emitted both as human-readable tables and as
machine-readable JSON (``BENCH_codd.json``):

1. **Speedup vs the naive oracle** — the same select-project SQL query
   (certain *and* possible answers) run once by literal possible-world
   enumeration (:func:`repro.codd.certain.certain_answers_naive`) and once
   by the vectorized stacked-grid engine. The acceptance bar is a **>=5x**
   wall-clock advantage with bit-identical
   :class:`~repro.codd.relation.Relation` results — the naive oracle pays
   ``|D|^n`` worlds where the grid pays the sum of row-local completions.
2. **Vectorized vs the streaming reference** — the same query on a table
   far too large for world enumeration, comparing the stacked-grid engine
   against the streaming per-row Python generators
   (:func:`repro.codd.certain.certain_select_project_rowwise` and its
   possible twin). Reported for scale; the JSON carries the measured
   ratio.
3. **Grid reuse** — evaluation time on a cold grid vs a pinned
   :class:`~repro.codd.vectorized.StackedTable` (what the service
   registry keeps warm per registered table).

Run as a script::

    PYTHONPATH=src python benchmarks/bench_codd.py [--smoke] [--output PATH]

``--smoke`` shrinks the workload to a couple of seconds for CI.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

import numpy as np

from conftest import bench_output_path, write_bench_report
from repro.codd.certain import (
    certain_answers_naive,
    certain_select_project_rowwise,
    possible_answers_naive,
    possible_select_project_rowwise,
)
from repro.codd.codd_table import CoddTable, Null
from repro.codd.sql import parse_sql
from repro.codd.vectorized import (
    StackedTable,
    certain_answers_vectorized,
    possible_answers_vectorized,
)
from repro.utils.tables import format_table

DEFAULT_OUTPUT = bench_output_path("codd")

_WORKLOADS = {
    # The naive comparison table must stay enumerable: worlds = 3^n_null.
    "smoke": dict(n_rows=60, n_null=7, big_rows=20_000, big_null=2_000),
    "default": dict(n_rows=80, n_null=9, big_rows=60_000, big_null=6_000),
}

QUERY_SQL = "SELECT region FROM sales WHERE amount >= 40 AND amount < 140"


def build_table(n_rows: int, n_null: int, seed: int) -> CoddTable:
    """A sales-like table: string region, numeric amount, some NULL amounts."""
    rng = np.random.default_rng(seed)
    regions = ["north", "south", "east", "west"]
    rows = []
    null_rows = set(rng.choice(n_rows, size=n_null, replace=False).tolist())
    for r in range(n_rows):
        region = regions[int(rng.integers(0, len(regions)))]
        if r in null_rows:
            base = int(rng.integers(0, 150))
            amount = Null([base, base + 25, base + 50])
        else:
            amount = int(rng.integers(0, 200))
        rows.append((region, amount))
    return CoddTable(("region", "amount"), rows)


def _best_of(repeats: int, func):
    best, value = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        value = func()
        best = min(best, time.perf_counter() - start)
    return best, value


def bench_vs_naive(table: CoddTable, query, name: str, repeats: int) -> dict:
    t_naive, naive = _best_of(
        repeats,
        lambda: (
            certain_answers_naive(query, table, name=name),
            possible_answers_naive(query, table, name=name),
        ),
    )
    t_vec, vectorized = _best_of(
        repeats,
        lambda: (
            certain_answers_vectorized(query, table, name=name),
            possible_answers_vectorized(query, table, name=name),
        ),
    )
    assert vectorized[0] == naive[0], "certain answers diverged from the oracle"
    assert vectorized[1] == naive[1], "possible answers diverged from the oracle"
    return {
        "n_rows": len(table),
        "n_worlds": str(table.n_worlds()),
        "n_certain": len(naive[0]),
        "n_possible": len(naive[1]),
        "naive_seconds": t_naive,
        "vectorized_seconds": t_vec,
        "speedup": t_naive / t_vec,
        "identical": True,
    }


def bench_vs_reference(table: CoddTable, query, name: str, repeats: int) -> dict:
    t_ref, reference = _best_of(
        repeats,
        lambda: (
            certain_select_project_rowwise(query, table, name=name),
            possible_select_project_rowwise(query, table, name=name),
        ),
    )
    t_vec, vectorized = _best_of(
        repeats,
        lambda: (
            certain_answers_vectorized(query, table, name=name),
            possible_answers_vectorized(query, table, name=name),
        ),
    )
    assert vectorized[0] == reference[0] and vectorized[1] == reference[1]
    return {
        "n_rows": len(table),
        "n_null_cells": table.n_variables,
        "reference_seconds": t_ref,
        "vectorized_seconds": t_vec,
        "speedup": t_ref / t_vec,
        "identical": True,
    }


def bench_grid_reuse(table: CoddTable, query, name: str, repeats: int) -> dict:
    t_cold, _ = _best_of(
        repeats, lambda: certain_answers_vectorized(query, table, name=name)
    )
    pinned = StackedTable(table)
    t_warm, _ = _best_of(
        repeats,
        lambda: certain_answers_vectorized(query, table, name=name, stacked=pinned),
    )
    return {
        "cold_seconds": t_cold,
        "pinned_seconds": t_warm,
        "speedup": t_cold / t_warm,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="tiny workload for CI (a couple of seconds)"
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=DEFAULT_OUTPUT,
        help=f"where to write the JSON report (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)

    scale = "smoke" if args.smoke else "default"
    size = _WORKLOADS[scale]
    query = parse_sql(QUERY_SQL)

    small = build_table(size["n_rows"], size["n_null"], seed=7)
    naive_cmp = bench_vs_naive(small, query, "sales", repeats=2)

    big = build_table(size["big_rows"], size["big_null"], seed=8)
    reference_cmp = bench_vs_reference(big, query, "sales", repeats=3)
    reuse = bench_grid_reuse(big, query, "sales", repeats=3)

    report = {
        "benchmark": "codd",
        "scale": scale,
        "query": QUERY_SQL,
        "vs_naive": naive_cmp,
        "vs_streaming_reference": reference_cmp,
        "grid_reuse": reuse,
    }
    write_bench_report(args.output, report)

    print(
        format_table(
            ["engine", "seconds", "speedup"],
            [
                ["naive (world enumeration)", f"{naive_cmp['naive_seconds']:.4f}", "1.00x"],
                [
                    "vectorized (stacked grid)",
                    f"{naive_cmp['vectorized_seconds']:.4f}",
                    f"{naive_cmp['speedup']:.1f}x",
                ],
            ],
            title=(
                f"Certain + possible answers, {naive_cmp['n_rows']} rows, "
                f"{naive_cmp['n_worlds']} worlds ({scale} scale)"
            ),
        )
    )
    print()
    print(
        format_table(
            ["engine", "seconds", "speedup"],
            [
                [
                    "streaming reference (python)",
                    f"{reference_cmp['reference_seconds']:.4f}",
                    "1.00x",
                ],
                [
                    "vectorized (stacked grid)",
                    f"{reference_cmp['vectorized_seconds']:.4f}",
                    f"{reference_cmp['speedup']:.1f}x",
                ],
            ],
            title=(
                f"Same query, {reference_cmp['n_rows']} rows / "
                f"{reference_cmp['n_null_cells']} NULL cells (enumeration infeasible)"
            ),
        )
    )
    print()
    print(
        f"grid reuse: cold {reuse['cold_seconds']:.4f}s vs pinned "
        f"{reuse['pinned_seconds']:.4f}s ({reuse['speedup']:.1f}x)"
    )

    if naive_cmp["speedup"] < 5.0:
        print(
            f"FAIL: vectorized engine is only {naive_cmp['speedup']:.2f}x over "
            "the naive oracle; the bar is 5x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
