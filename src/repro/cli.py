"""Command-line interface: ``python -m repro <command>``.

Three commands cover the library's headline workflows:

* ``demo``   — the paper's Figure 6 walkthrough (the two CP queries);
* ``screen`` — Q1 screening of a validation set over a dirty recipe
  ("how much of this dataset's incompleteness actually matters?");
* ``clean``  — a full CPClean session against a simulated human oracle,
  with the RandomClean comparison at equal budget.

``query`` answers one CP query over a recipe's validation set — in
process through the query planner, or against a running service with
``--url`` — and with ``--explain`` prints how it was executed: the
chosen backend, the plan reason, and the certificate-pruning /
early-termination counters.

Two more commands serve the paper's database side: ``sql`` runs a
SELECT-FROM-WHERE query over a dirty CSV with certain/possible-answer
semantics (``--engine`` forces a codd engine backend, ``--url`` routes the
query through a running ``repro serve`` instance's ``/sql`` endpoint), and
``serve`` starts the HTTP query service. ``patch`` sends live base-data
writes (cell repairs, row appends/deletes, Codd NULL fixes) to a running
service; the server maintains its warm CP state in O(Δ) and bumps the
dataset version that every query response echoes.

The CLI is a thin layer over the library; every command accepts ``--seed``
and size flags so runs are reproducible and laptop-sized by default. The
query-heavy commands (``screen``, ``clean``, ``csv-screen``) also accept
``--backend {auto,sequential,batch,incremental}`` (force a query-planner
backend; ``auto`` lets the cost model choose) and ``--n-jobs`` (fan
per-point CP scans out over worker processes); neither knob changes the
printed results, only wall-clock time.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Certain Predictions for KNN over incomplete data (VLDB 2020 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="run the paper's Figure 6 example")

    screen = sub.add_parser("screen", help="Q1-screen a dirty dataset recipe")
    _add_task_flags(screen)

    clean = sub.add_parser("clean", help="run a CPClean session on a recipe")
    _add_task_flags(clean)
    clean.add_argument(
        "--budget",
        type=int,
        default=None,
        help="maximum number of rows to have the human clean (default: until certain)",
    )
    clean.add_argument(
        "--batch",
        type=int,
        default=1,
        help="human answers per selection round (1 = the paper's sequential Algorithm 3)",
    )

    csv_screen = sub.add_parser(
        "csv-screen",
        help="Q1-screen a dirty CSV file and rank the rows worth cleaning",
    )
    csv_screen.add_argument("--input", required=True, help="path to the CSV file")
    csv_screen.add_argument("--label", required=True, help="name of the label column")
    csv_screen.add_argument("--n-val", type=int, default=32)
    csv_screen.add_argument("--k", type=int, default=3)
    csv_screen.add_argument("--seed", type=int, default=0)
    _add_executor_flags(csv_screen)
    csv_screen.add_argument(
        "--top",
        type=int,
        default=5,
        help="how many cleaning recommendations to print",
    )

    query = sub.add_parser(
        "query",
        help="run one CP query and, with --explain, show how it was executed",
        description=(
            "Answer a CP query over a recipe's validation set — in-process "
            "through the query planner, or (with --url) against a running "
            "`repro serve` instance's /query endpoint. --explain prints the chosen "
            "backend, the plan reason and the pruning / early-termination "
            "counters of the execution."
        ),
    )
    from repro.data.recipes import recipe_names as _recipe_names

    query.add_argument("--recipe", choices=_recipe_names(), default="supreme")
    query.add_argument("--n-train", type=int, default=100)
    query.add_argument("--n-val", type=int, default=24)
    query.add_argument("--missing-rate", type=float, default=None)
    query.add_argument("--k", type=int, default=None, help="KNN neighbours (default: 3 in-process, the dataset's k via --url)")
    query.add_argument("--seed", type=int, default=0)
    query.add_argument(
        "--kind",
        choices=("counts", "certain_label", "check"),
        default="certain_label",
        help="what to compute per validation point (default certain_label)",
    )
    query.add_argument(
        "--flavor",
        choices=("auto", "binary", "multiclass", "topk"),
        default="auto",
        help="CP query flavor (default auto: inferred from the dataset)",
    )
    query.add_argument(
        "--label", type=int, default=None, help="target label for --kind check"
    )
    query.add_argument(
        "--points",
        type=_positive_int_flag("--points"),
        default=None,
        help="query only the first N validation points (default: all)",
    )
    query.add_argument(
        "--explain",
        action="store_true",
        help="print the chosen backend, plan reason and pruning counters",
    )
    query.add_argument(
        "--url",
        default=None,
        help=(
            "base URL of a running `repro serve`; the query runs server-side "
            "over /query against --dataset's registered validation set"
        ),
    )
    query.add_argument(
        "--dataset",
        default=None,
        help="registered dataset name on the server (required with --url)",
    )
    query.add_argument(
        "--limit",
        type=_positive_int_flag("--limit"),
        default=10,
        help="print at most this many per-point values",
    )
    _add_executor_flags(query)

    serve = sub.add_parser(
        "serve",
        help="run the CP query service (JSON API over HTTP)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8970, help="0 = ephemeral port")
    from repro.data.recipes import recipe_names

    serve.add_argument(
        "--recipe",
        choices=recipe_names(),
        default=None,
        help="preload one dirty-dataset recipe (with its validation set and oracle)",
    )
    serve.add_argument(
        "--dataset-name",
        default=None,
        help="registry name for the preloaded recipe (default: the recipe name)",
    )
    serve.add_argument("--n-train", type=int, default=100)
    serve.add_argument("--n-val", type=int, default=24)
    serve.add_argument("--missing-rate", type=float, default=None)
    serve.add_argument("--k", type=int, default=3)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--window-ms",
        type=_float_flag("--window-ms", 0.0, inclusive=True),
        default=10.0,
        help="micro-batching window for single-point queries (0 disables coalescing)",
    )
    serve.add_argument(
        "--max-batch",
        type=_positive_int_flag("--max-batch"),
        default=16,
        help="flush a pending micro-batch at this many points",
    )
    serve.add_argument(
        "--max-pending",
        type=_positive_int_flag("--max-pending"),
        default=256,
        help="admission control: reject (429) beyond this many in-flight requests",
    )
    serve.add_argument(
        "--ttl",
        type=_float_flag("--ttl", 0.0, inclusive=False),
        default=30.0,
        help="result-cache time-to-live in seconds",
    )
    serve.add_argument(
        "--executors",
        type=int,
        default=0,
        help=(
            "executor worker processes for the partitioned gateway topology "
            "(0 = classic single-process service); answers are bit-identical "
            "either way"
        ),
    )
    serve.add_argument(
        "--executor-timeout",
        type=_float_flag("--executor-timeout", 0.0, inclusive=False),
        default=30.0,
        help="per-executor request timeout in seconds before retry/respawn",
    )
    serve.add_argument(
        "--slow-ms",
        type=_float_flag("--slow-ms", 0.0, inclusive=False),
        default=None,
        help=(
            "slow-query log threshold: requests slower than this emit one "
            "structured JSON line to stderr (default: off)"
        ),
    )
    serve.add_argument(
        "--access-log",
        action="store_true",
        help="emit one structured JSON access-log line per request to stderr",
    )
    serve.add_argument(
        "--no-trace",
        action="store_true",
        help="disable span collection (metrics stay on; /debug/traces is empty)",
    )
    serve.add_argument(
        "--trace-buffer",
        type=_positive_int_flag("--trace-buffer"),
        default=256,
        help="recent traces kept for /debug/traces (a bounded ring)",
    )
    _add_executor_flags(serve)
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the broker's result cache",
    )

    metrics = sub.add_parser(
        "metrics",
        help="fetch and pretty-print /metrics from a running repro serve",
        description=(
            "Scrape a running service's /metrics endpoint and print the "
            "top-line numbers a human wants first: throughput, cache hit "
            "rate, and latency quantiles derived from the served "
            "histograms. --format raw dumps the JSON; --format prometheus "
            "prints the text exposition; --traces lists recent span trees "
            "from /debug/traces instead."
        ),
    )
    metrics.add_argument(
        "--url", required=True, help="base URL of a running `repro serve`"
    )
    metrics.add_argument(
        "--format",
        choices=("summary", "raw", "prometheus"),
        default="summary",
        help="summary (default): human top-lines; raw: the /metrics JSON; "
        "prometheus: the text exposition",
    )
    metrics.add_argument(
        "--traces",
        action="store_true",
        help="list recent traces from /debug/traces instead of metrics",
    )
    metrics.add_argument(
        "--limit",
        type=_positive_int_flag("--limit"),
        default=None,
        help="with --traces: at most this many recent traces",
    )

    patch = sub.add_parser(
        "patch",
        help="apply live writes to a dataset on a running repro serve instance",
        description=(
            "Send base-data writes to a registered dataset (cell repairs, "
            "row appends, row deletes) or Codd table (NULL-cell fixes) of a "
            "running service. Mixed delta kinds are applied repairs first, "
            "then appends, then deletes; --fix cannot be combined with the "
            "delta flags (a registry entry is one kind or the other)."
        ),
    )
    patch.add_argument("--url", required=True, help="base URL of a running `repro serve`")
    patch.add_argument("--name", required=True, help="registry name of the dataset/table")
    patch.add_argument(
        "--repair",
        nargs=2,
        metavar=("ROW", "CANDIDATE"),
        action="append",
        type=int,
        default=None,
        help="pin dirty row ROW to its candidate repair CANDIDATE (repeatable)",
    )
    patch.add_argument(
        "--append-row",
        nargs=2,
        metavar=("CANDIDATES", "LABEL"),
        action="append",
        default=None,
        help=(
            "append a training row: CANDIDATES is the candidate completions "
            "as ';'-separated feature vectors with ','-separated features "
            '(e.g. "1.0,2.0;1.5,2.0"), LABEL its class (repeatable)'
        ),
    )
    patch.add_argument(
        "--delete-row",
        metavar="ROW",
        action="append",
        type=int,
        default=None,
        help="delete training row ROW (later row indices shift down; repeatable)",
    )
    patch.add_argument(
        "--fix",
        nargs=3,
        metavar=("ROW", "COLUMN", "VALUE"),
        action="append",
        default=None,
        help="fix a Codd table's NULL cell at (ROW, COLUMN) to VALUE (repeatable)",
    )

    sql = sub.add_parser(
        "sql",
        help="run a SQL query over a dirty CSV with certain-answer semantics",
    )
    sql.add_argument("--input", required=True, help="path to the CSV file")
    sql.add_argument("--label", required=True, help="name of the label column")
    sql.add_argument(
        "--query",
        required=True,
        help="SELECT ... FROM <name> [JOIN <name> ON ...] [WHERE ...] "
        "[GROUP BY ...] (the CSV table is bound to every name the "
        "FROM/JOIN clauses use, so self-joins work)",
    )
    sql.add_argument(
        "--limit", type=int, default=20, help="print at most this many answer rows"
    )
    sql.add_argument(
        "--engine",
        choices=("auto", "vectorized", "naive"),
        default="auto",
        help=(
            "certain-answer engine backend (default auto: the cost model "
            "picks; results are identical for every choice)"
        ),
    )
    sql.add_argument(
        "--url",
        default=None,
        help=(
            "base URL of a running `repro serve` instance; with it the "
            "query runs server-side over the /sql endpoint (the CSV's Codd "
            "table ships inline) instead of in-process"
        ),
    )
    sql.add_argument(
        "--explain",
        action="store_true",
        help=(
            "print the optimized logical plan and the rewrite rules the "
            "planner applied before the answers"
        ),
    )
    return parser


def _add_task_flags(parser: argparse.ArgumentParser) -> None:
    from repro.data.recipes import recipe_names

    parser.add_argument("--recipe", choices=recipe_names(), default="supreme")
    parser.add_argument("--n-train", type=int, default=100)
    parser.add_argument("--n-val", type=int, default=24)
    parser.add_argument("--n-test", type=int, default=200)
    parser.add_argument("--missing-rate", type=float, default=None)
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    _add_executor_flags(parser)


def _n_jobs_flag(value: str) -> int:
    try:
        n_jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--n-jobs must be an integer, got {value!r}"
        ) from None
    # Only two shapes are meaningful: a positive worker count, or the
    # conventional -1 sentinel for "all CPUs". Zero and other negatives
    # used to be accepted (and silently meant "all CPUs"), which hid typos.
    if n_jobs < 1 and n_jobs != -1:
        raise argparse.ArgumentTypeError(
            f"--n-jobs must be a positive integer or -1 (all CPUs), got {n_jobs}"
        )
    return n_jobs


def _positive_int_flag(flag: str):
    def parse(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{flag} must be an integer, got {value!r}"
            ) from None
        if number < 1:
            raise argparse.ArgumentTypeError(
                f"{flag} must be a positive integer, got {number}"
            )
        return number

    return parse


def _float_flag(flag: str, minimum: float, inclusive: bool):
    def parse(value: str) -> float:
        try:
            number = float(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{flag} must be a number, got {value!r}"
            ) from None
        if number != number:  # NaN compares False to every bound below
            raise argparse.ArgumentTypeError(f"{flag} must be a number, got NaN")
        if number < minimum or (not inclusive and number == minimum):
            bound = f">= {minimum}" if inclusive else f"> {minimum}"
            raise argparse.ArgumentTypeError(f"{flag} must be {bound}, got {number}")
        return number

    return parse


def _add_executor_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=("auto", "sequential", "batch", "incremental"),
        default="auto",
        help=(
            "query-planner backend for CP queries (default auto: the cost "
            "model picks; results are identical for every choice)"
        ),
    )
    parser.add_argument(
        "--n-jobs",
        type=_n_jobs_flag,
        default=1,
        help="worker processes for CP query fan-out (-1 = all CPUs; default 1)",
    )


def _command_demo() -> int:
    from repro.core.dataset import IncompleteDataset
    from repro.core.queries import certain_label, q2_counts

    dataset = IncompleteDataset(
        [np.array([[5.0], [2.0]]), np.array([[6.0], [4.0]]), np.array([[3.0], [1.0]])],
        labels=[1, 1, 0],
    )
    t = np.array([0.0])
    counts = q2_counts(dataset, t, k=1)
    print("Figure 6 dataset:", dataset)
    print(f"Q2 counts for t=0, 1-NN: {counts} (paper: [6, 2])")
    print(f"certain label: {certain_label(dataset, t, k=1)} (None = not CP'ed)")
    return 0


def _build_task(args: argparse.Namespace):
    from repro.data.task import build_cleaning_task

    return build_cleaning_task(
        args.recipe,
        n_train=args.n_train,
        n_val=args.n_val,
        n_test=args.n_test,
        missing_rate=args.missing_rate,
        k=args.k,
        seed=args.seed,
    )


def _command_screen(args: argparse.Namespace) -> int:
    from repro.core.screening import screen_dataset

    task = _build_task(args)
    result = screen_dataset(
        task.incomplete,
        task.val_X,
        k=task.k,
        n_jobs=args.n_jobs,
        backend=args.backend,
    )
    certain, total = result.n_certain, result.n_points
    print(f"recipe={task.name} dirty_rows={len(task.dirty_rows)}/{task.incomplete.n_rows}")
    print(f"validation points certainly predicted: {certain}/{total} ({result.cp_fraction:.0%})")
    if certain == total:
        print("all validation predictions are certain: cleaning cannot change them.")
    else:
        print(f"{total - certain} predictions still depend on how the data is cleaned.")
    return 0


def _command_clean(args: argparse.Namespace) -> int:
    from repro.cleaning.oracle import GroundTruthOracle
    from repro.cleaning.cp_clean import run_cp_clean
    from repro.cleaning.random_clean import run_random_clean
    from repro.core.knn import KNNClassifier
    from repro.experiments.metrics import gap_closed

    task = _build_task(args)
    gt_acc = KNNClassifier(k=task.k).fit(task.train_gt_X, task.train_labels).accuracy(
        task.test_X, task.test_y
    )
    default_acc = KNNClassifier(k=task.k).fit(
        task.train_default_X, task.train_labels
    ).accuracy(task.test_X, task.test_y)
    print(f"recipe={task.name} dirty={len(task.dirty_rows)} "
          f"GT acc={gt_acc:.3f} default acc={default_acc:.3f}")

    oracle = GroundTruthOracle(task.gt_choice)
    if args.batch > 1:
        from repro.cleaning.batch import run_batch_clean

        report = run_batch_clean(
            task.incomplete, task.val_X, oracle, batch_size=args.batch,
            k=task.k, max_cleaned=args.budget,
            n_jobs=args.n_jobs, backend=args.backend,
        )
    else:
        report = run_cp_clean(
            task.incomplete, task.val_X, oracle, k=task.k, max_cleaned=args.budget,
            n_jobs=args.n_jobs, backend=args.backend,
        )

    def world_accuracy(fixed):
        choice = task.default_choice.copy()
        for row, cand in fixed.items():
            choice[row] = cand
        world = task.incomplete.world([int(c) for c in choice])
        return KNNClassifier(k=task.k).fit(world, task.train_labels).accuracy(
            task.test_X, task.test_y
        )

    cp_acc = world_accuracy(report.final_fixed)
    print(f"CPClean: cleaned {report.n_cleaned} rows, "
          f"val CP'ed {report.cp_fraction_final:.0%}, "
          f"test acc {cp_acc:.3f}, gap closed "
          f"{gap_closed(cp_acc, default_acc, gt_acc):.0%}")

    random_report = run_random_clean(
        task.incomplete, task.val_X, oracle, k=task.k,
        max_cleaned=report.n_cleaned, seed=args.seed,
    )
    rand_acc = world_accuracy(random_report.final_fixed)
    print(f"RandomClean (same budget): test acc {rand_acc:.3f}, gap closed "
          f"{gap_closed(rand_acc, default_acc, gt_acc):.0%}")
    return 0


def _command_csv_screen(args: argparse.Namespace) -> int:
    from repro.cleaning.information import information_gains
    from repro.cleaning.sequential import CleaningSession
    from repro.core.screening import screen_dataset
    from repro.data.ingest import load_csv_workload

    workload = load_csv_workload(
        args.input, args.label, n_val=args.n_val, k=args.k, seed=args.seed
    )
    incomplete = workload.incomplete
    dirty = incomplete.uncertain_rows()
    print(
        f"file={args.input} rows={workload.table.n_rows} "
        f"train={incomplete.n_rows} val={workload.val_X.shape[0]} "
        f"dirty={len(dirty)} worlds={incomplete.n_worlds()}"
    )

    result = screen_dataset(
        incomplete, workload.val_X, k=args.k,
        n_jobs=args.n_jobs, backend=args.backend,
    )
    certain, total = result.n_certain, result.n_points
    print(f"validation points certainly predicted: {certain}/{total} ({result.cp_fraction:.0%})")
    if certain == total:
        print("all validation predictions are certain: cleaning cannot change them.")
        return 0

    session = CleaningSession(
        incomplete, workload.val_X, k=args.k,
        n_jobs=args.n_jobs, backend=args.backend,
    )
    gains = information_gains(session)
    ranked = sorted(gains.items(), key=lambda item: (-item[1], item[0]))
    print(f"\nrows worth cleaning first (top {min(args.top, len(ranked))}):")
    for row, gain in ranked[: args.top]:
        csv_row = int(workload.train_rows[row]) + 2  # 1-based + header line
        print(
            f"  csv line {csv_row}: {incomplete.candidates(row).shape[0]} candidate "
            f"repairs, information gain {gain:.4f} nats"
        )
    return 0


def _print_query_values(values, limit: int) -> None:
    for index, value in enumerate(values[:limit]):
        print(f"  point {index}: {value}")
    if len(values) > limit:
        print(f"  ... {len(values) - limit} more")


def _print_explain(backend: str, reason: str, stats: dict) -> None:
    """The --explain footer: plan choice + the backend's pruning counters."""
    print(f"plan: backend={backend}" + (f" ({reason})" if reason else ""))
    if not stats:
        print("prune: (backend reported no execution stats)")
        return
    pruned = bool(stats.get("prune"))
    print(
        f"prune: {'on' if pruned else 'off'} "
        f"(flavor={stats.get('flavor')}, kind={stats.get('kind')})"
    )
    if pruned:
        print(
            f"  rows pruned:       {stats.get('n_rows_pruned', 0)}"
            f"/{stats.get('n_rows', 0)}"
        )
        print(
            f"  candidates pruned: {stats.get('n_pruned', 0)}"
            f"/{stats.get('n_candidates', 0)} "
            f"({stats.get('n_scanned', 0)} positions scanned)"
        )
        print(
            f"  early-terminated:  {stats.get('n_early_terminated', 0)}"
            f"/{stats.get('n_points', 0)} decision scans"
        )
    for key in ("n_rows_skipped", "n_recomputed"):
        if key in stats:
            print(f"  {key}: {stats[key]}")


def _command_query(args: argparse.Namespace) -> int:
    if args.url is not None:
        if not args.dataset:
            print("--url requires --dataset NAME", file=sys.stderr)
            return 2
        if args.points is not None:
            print(
                "--points is ignored with --url (the server queries the "
                "dataset's whole registered validation set)",
                file=sys.stderr,
            )
        from repro.service import ServiceClient, ServiceError

        client = ServiceClient(args.url)
        try:
            response = client.query(
                args.dataset,
                points="validation",
                kind=args.kind,
                flavor=args.flavor,
                k=args.k,
                label=args.label,
                backend=None if args.backend == "auto" else args.backend,
                explain=args.explain,
            )
        except ServiceError as exc:
            print(f"service error: {exc}", file=sys.stderr)
            return 2
        print(
            f"dataset={args.dataset} kind={response['kind']} "
            f"flavor={response['flavor']} points={response['n_points']} "
            f"backend={response['backend']} version={response['version']}"
        )
        _print_query_values(response["values"], args.limit)
        if args.explain:
            block = response.get("explain") or {}
            _print_explain(
                block.get("backend", response["backend"]),
                block.get("reason", ""),
                block.get("stats", {}),
            )
        return 0

    from repro.core.planner import (
        ExecutionOptions,
        PlanError,
        execute_query,
        make_query,
    )
    from repro.data.task import build_cleaning_task

    k = 3 if args.k is None else args.k
    task = build_cleaning_task(
        args.recipe,
        n_train=args.n_train,
        n_val=args.n_val,
        missing_rate=args.missing_rate,
        k=k,
        seed=args.seed,
    )
    points = task.val_X if args.points is None else task.val_X[: args.points]
    try:
        query = make_query(
            task.incomplete,
            points,
            kind=args.kind,
            flavor=args.flavor,
            k=k,
            label=args.label,
        )
        # One query per process: a result cache would never be read.
        options = ExecutionOptions(n_jobs=args.n_jobs, cache=False)
        result = execute_query(query, backend=args.backend, options=options)
    except (PlanError, ValueError) as exc:
        print(f"query error: {exc}", file=sys.stderr)
        return 2
    print(
        f"recipe={task.name} kind={query.kind} flavor={query.flavor} "
        f"k={k} points={points.shape[0]}"
    )
    _print_query_values(result.values, args.limit)
    if args.explain:
        _print_explain(result.plan.backend, result.plan.reason, dict(result.stats))
    return 0


def _command_sql(args: argparse.Namespace) -> int:
    from repro.codd.engine import CoddPlanError, answer_query, optimize_for
    from repro.codd.from_table import codd_table_from_dirty_table
    from repro.codd.sql import SqlError, parse_sql, referenced_tables
    from repro.data.io import read_csv

    try:
        names = referenced_tables(args.query)
    except SqlError as exc:
        print(f"SQL error: {exc}", file=sys.stderr)
        return 2

    table, schema = read_csv(args.input, args.label)
    codd = codd_table_from_dirty_table(table, schema=schema)
    print(
        f"file={args.input} rows={len(codd)} null_cells={codd.n_variables} "
        f"possible_worlds={codd.n_worlds()}"
    )

    # The CSV table answers to whatever name(s) the query's FROM/JOIN
    # clauses use — a self-join of the CSV against itself is legal SQL.
    try:
        query = parse_sql(
            args.query, schemas={name: codd.schema for name in names}
        )
    except SqlError as exc:
        print(f"SQL error: {exc}", file=sys.stderr)
        return 2
    database = {name: codd for name in names}
    if args.url is not None:
        from repro.service import ServiceClient, ServiceError

        client = ServiceClient(args.url)
        try:
            response = client.sql(
                args.query,
                mode="both",
                backend=args.engine,
                codd_table=codd,
                explain=args.explain,
            )
        except ServiceError as exc:
            print(f"service error: {exc}", file=sys.stderr)
            return 2
        sure = response["results"]["certain"]
        maybe = response["results"]["possible"]
        print(
            f"served by {args.url} (engine: {response['backends']['certain']}, "
            f"cached: {response['cached']})"
        )
        if args.explain and response.get("explain"):
            _print_sql_explain(
                response["explain"].get("plan"),
                response["explain"].get("rewrites") or (),
            )
    else:
        optimized = optimize_for(query, database)
        try:
            certain_result = answer_query(
                query, database, mode="certain", backend=args.engine,
                optimize=optimized,
            )
            maybe = answer_query(
                query, database, mode="possible", backend=args.engine,
                optimize=optimized,
            ).relation
        except CoddPlanError as exc:
            print(f"plan error: {exc}", file=sys.stderr)
            return 2
        sure = certain_result.relation
        print(f"engine: {certain_result.plan.backend} ({certain_result.plan.reason})")
        if args.explain:
            _print_sql_explain(
                certain_result.logical.render()
                if certain_result.logical is not None
                else None,
                certain_result.rewrites,
            )
    uncertain = maybe.rows - sure.rows
    print(f"\ncertain answers ({len(sure)} rows, true in every world):")
    for row in sorted(sure.rows, key=repr)[: args.limit]:
        print("  " + ", ".join(str(v) for v in row))
    if len(sure) > args.limit:
        print(f"  ... {len(sure) - args.limit} more")
    print(f"\npossible-but-not-certain answers ({len(uncertain)} rows):")
    for row in sorted(uncertain, key=repr)[: args.limit]:
        print("  " + ", ".join(str(v) for v in row))
    if len(uncertain) > args.limit:
        print(f"  ... {len(uncertain) - args.limit} more")
    return 0


def _print_sql_explain(plan: str | None, rewrites) -> None:
    print("\noptimized plan:")
    if plan:
        for line in plan.splitlines():
            print("  " + line)
    else:
        print("  (optimizer declined; query ran as written)")
    if rewrites:
        print("rewrites applied: " + ", ".join(rewrites))
    else:
        print("rewrites applied: (none)")


def _parse_cell_value(text: str):
    """``--fix`` VALUE arrives as a string; recover the scalar it denotes."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            continue
    return text


def _command_patch(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient, ServiceError

    deltas: list[dict] = []
    for row, candidate in args.repair or []:
        deltas.append({"op": "cell_repair", "row": row, "candidate": candidate})
    for candidates, label in args.append_row or []:
        try:
            matrix = [
                [float(feature) for feature in vector.split(",")]
                for vector in candidates.split(";")
            ]
            deltas.append(
                {"op": "row_append", "candidates": matrix, "label": int(label)}
            )
        except ValueError:
            print(
                f"bad --append-row spec {candidates!r} {label!r} (want "
                '"f1,f2;f1,f2" and an integer label)',
                file=sys.stderr,
            )
            return 2
    for row in args.delete_row or []:
        deltas.append({"op": "row_delete", "row": row})
    fixes = []
    for row, column, value in args.fix or []:
        try:
            fixes.append(
                {
                    "op": "fix_cell",
                    "row": int(row),
                    "column": int(column),
                    "value": _parse_cell_value(value),
                }
            )
        except ValueError:
            print("bad --fix spec: row/column must be integers", file=sys.stderr)
            return 2
    if bool(deltas) == bool(fixes):
        print(
            "provide delta flags (--repair / --append-row / --delete-row) "
            "or --fix flags, and not both",
            file=sys.stderr,
        )
        return 2

    client = ServiceClient(args.url)
    try:
        if deltas:
            result = client.patch(args.name, deltas=deltas)
        else:
            result = client.patch(args.name, fixes=fixes)
    except ServiceError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return 2

    print(
        f"{args.name}: version {result['version']}, "
        f"fingerprint {result['fingerprint'][:12]}, "
        f"{result['n_worlds']} possible worlds"
    )
    for report in result["reports"]:
        detail = ", ".join(
            f"{key}={report[key]}"
            for key in (
                "row",
                "column",
                "n_pruned",
                "n_recomputed",
                "touched_points",
                "version",
            )
            if key in report
        )
        print(f"  {report['op']}: {detail}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.service import DatasetRegistry
    from repro.service.http import serve as serve_forever

    registry = DatasetRegistry()
    if args.recipe is not None:
        name = args.dataset_name or args.recipe
        registry.register_recipe(
            name,
            recipe=args.recipe,
            n_train=args.n_train,
            n_val=args.n_val,
            missing_rate=args.missing_rate,
            k=args.k,
            seed=args.seed,
            backend=args.backend,
            n_jobs=args.n_jobs,
        )
        print(f"registered recipe {args.recipe!r} as dataset {name!r}")
    serve_forever(
        registry,
        host=args.host,
        port=args.port,
        window_s=args.window_ms / 1000.0,
        max_batch=args.max_batch,
        max_pending=args.max_pending,
        backend=args.backend,
        n_jobs=args.n_jobs,
        cache=not args.no_cache,
        ttl_s=args.ttl,
        executors=args.executors,
        executor_timeout_s=args.executor_timeout,
        trace=not args.no_trace,
        trace_buffer=args.trace_buffer,
        slow_ms=args.slow_ms,
        access_log=args.access_log,
    )
    return 0


def _format_quantiles(histogram: dict) -> str:
    """``p50=1.2ms p95=3.4ms p99=7.8ms`` from one histogram snapshot."""
    from repro.obs import quantile_from_buckets

    parts = []
    for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
        value = quantile_from_buckets(histogram, q)
        parts.append(f"{label}=—" if value is None else f"{label}={value * 1e3:.2f}ms")
    return " ".join(parts)


def _command_metrics(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    if args.traces:
        traces = client.traces(limit=args.limit)
        if not traces:
            print("no buffered traces (is tracing enabled on the server?)")
            return 0
        for record in traces:
            print(json.dumps(record, indent=2, default=str))
        return 0
    if args.format == "prometheus":
        print(client.metrics(format="prometheus"), end="")
        return 0
    payload = client.metrics()
    if args.format == "raw":
        print(json.dumps(payload, indent=2, default=str))
        return 0

    broker = payload.get("broker", {})
    obs = payload.get("obs", {})
    uptime = float(payload.get("uptime_s", 0.0))
    requests = int(broker.get("requests", 0))
    print(f"service        {args.url}")
    print(f"uptime         {uptime:.1f}s")
    throughput = requests / uptime if uptime > 0 else 0.0
    print(f"requests       {requests} ({throughput:.2f}/s over uptime)")
    served = int(broker.get("served_from_cache", 0))
    if requests:
        print(f"cache hit rate {served / requests:.1%} ({served} served from cache)")
    batches = int(broker.get("batches_executed", 0))
    if batches:
        print(
            f"micro-batches  {batches} "
            f"(max size {broker.get('max_batch_size', 0)}, "
            f"{broker.get('coalesced_batches', 0)} coalesced)"
        )
    gateway = broker.get("gateway")
    if gateway:
        print(
            f"gateway        {gateway.get('queries', 0)} queries over "
            f"{gateway.get('executors_alive', gateway.get('n_executors', 0))} executors "
            f"({gateway.get('respawns', 0)} respawns)"
        )
    histograms = obs.get("histograms", {})
    latency = {
        name: snap
        for name, snap in sorted(histograms.items())
        if name.startswith("broker_request_seconds")
        or name.startswith("http_request_seconds")
    }
    if latency:
        print("latency:")
        for name, snap in latency.items():
            if not snap.get("count"):
                continue
            print(f"  {name}: n={snap['count']} {_format_quantiles(snap)}")
    tracing = obs.get("tracing", {})
    if tracing:
        state = "on" if tracing.get("enabled") else "off"
        print(
            f"tracing        {state}: {tracing.get('published', 0)} traces "
            f"({tracing.get('buffered', 0)} buffered, "
            f"{tracing.get('slow_queries', 0)} slow)"
        )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "demo":
        return _command_demo()
    if args.command == "screen":
        return _command_screen(args)
    if args.command == "clean":
        return _command_clean(args)
    if args.command == "csv-screen":
        return _command_csv_screen(args)
    if args.command == "query":
        return _command_query(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "metrics":
        return _command_metrics(args)
    if args.command == "patch":
        return _command_patch(args)
    if args.command == "sql":
        return _command_sql(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
