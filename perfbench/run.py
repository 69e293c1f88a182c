"""End-to-end benchmark of the CP query service.

Each run is one fresh process that builds a real ``make_service`` (10 ms
micro-batch window, result cache on, tracing on, ``prune="auto"``),
drives it over HTTP from one closed-loop client in this process, and
replays a fixed, seeded operation sequence to completion: the same seed
always gives the same inputs and exactly the same operations, so two
commits do identical work. Every served answer is then checked bit for
bit against an in-process replay through the library.

    python3 perfbench/run.py --workload point_stream --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; the repository's ``src`` tree is put
on ``sys.path``. ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer ones (see ``perfbench/RATIONALE.md``). The bounded end-to-end
times are CPU times, which the host's varying CPU share does not move;
wall-clock throughput and latency are printed and recorded beside them.
The last stdout line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``; a
per-run record (op counts per class, sample counts, the service's
``/metrics`` counters, a CPU calibration time) is printed before it and
written under ``perfbench/records/``.

``--seconds`` scales the fixed work: every operation class gets
``max(200, 200 * seconds / 15)`` timed samples, so at the configured 15 s
each class has 200, and at least 10 samples lie beyond p95.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORDS = HERE / "records"

#: Set-ups per run; ``setup_s`` is the median of their CPU times.
SETUPS = 5
#: Untimed warm-up operations at the head of every sequence (one per class).
WARMUP = 2
#: Timed samples per operation class at the reference run length.
BASE_SAMPLES = 200
REFERENCE_SECONDS = 15

E2E_UNITS = {
    "setup_s": "s",
    "cpu_ms_per_op": "ms",
    "read_cpu_p50_ms": "ms",
    "write_cpu_p50_ms": "ms",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
}
#: Printed and recorded, but carrying no bound: on a shared host their
#: spread follows the CPU share the host gives the run (see RATIONALE.md).
WALL_UNITS = {
    "setup_wall_s": "s",
    "ops_per_s": "1/s",
    "read_p50_ms": "ms",
    "write_p50_ms": "ms",
    "read_p95_ms": "ms",
    "write_p95_ms": "ms",
}


def _bootstrap() -> bool:
    """Put ``src`` and this directory on ``sys.path``; False if no checkout."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return False
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    return True


def calibrate(iterations: int = 2_000_000) -> float:
    """Seconds for a fixed pure-Python loop: a machine-speed diagnostic."""
    start = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i & 7
    return time.perf_counter() - start


def _vm_hwm_mb(pid: int) -> float:
    """Peak RSS of another live process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def _cpu_s(pid: int) -> float:
    """User + system CPU seconds of another live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # Fields 14 and 15 of stat(5), counted after the ")" closing field 2.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def executor_pids(served: dict) -> list[int]:
    gateway = served["broker"].get("gateway") or {}
    return [
        executor["pid"]
        for executor in (gateway.get("executors") or {}).values()
        if executor.get("pid")
    ]


def peak_rss_mb(served: dict) -> float:
    """Peak RSS of this process (service + client) plus every executor's."""
    total = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return total + sum(_vm_hwm_mb(pid) for pid in executor_pids(served))


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) * 1000.0


def run_sequence(workload, seed: int, n: int, tracer=None) -> dict:
    """Set up ``SETUPS`` times, replay the sequence on the last set-up,
    and check every answer. Returns the raw observations."""
    from repro.service import DatasetRegistry, ServiceClient, make_service
    from workloads import CHUNK

    setup_times, setup_walls = [], []
    latencies: dict[str, list[float]] = {"read": [], "write": []}
    cpu_times: dict[str, list[float]] = {"read": [], "write": []}
    errors: list[str] = []
    server = None
    try:
        for replica in range(SETUPS):
            if server is not None:
                server.close()
                # Free the closed set-up now, not at some later collection,
                # so peak RSS never depends on when the collector ran.
                del registry, data, responses
                gc.collect()
            # Each set-up gets its own inputs, so content-keyed caches filled
            # by one set-up can never serve another.
            data_seed = seed * SETUPS + replica
            start, cpu_start = time.perf_counter(), time.process_time()
            data = workload.build(data_seed, n)
            ops = workload.plan(data, data_seed, n)
            registry = DatasetRegistry()
            workload.register(registry, data)
            server = make_service(registry, executors=workload.executors)
            client = ServiceClient(server.url)
            client.healthz()  # blocking: the socket listens from construction
            responses = [workload.send(client, op) for op in ops[:WARMUP]]
            setup_walls.append(time.perf_counter() - start)
            cpu = time.process_time() - cpu_start
            # Executors started with this set-up: all their CPU so far is its.
            pids = executor_pids(client.metrics())
            setup_times.append(cpu + sum(_cpu_s(pid) for pid in pids))

        # Start the timed sequence from the same collector state every run.
        gc.collect()
        if tracer is not None:
            tracer.install()
        def service_cpu() -> float:
            return time.process_time() + sum(_cpu_s(pid) for pid in pids)

        try:
            executor_start = sum(_cpu_s(pid) for pid in pids)
            cpu_start, wall_start = time.process_time(), time.perf_counter()
            stamps, cpu_marks = [wall_start], [service_cpu()]
            for index, op in enumerate(ops[WARMUP:]):
                span = tracer.begin_op(index) if tracer is not None else None
                start, cpu_op = time.perf_counter(), time.process_time()
                try:
                    response = workload.send(client, op)
                except Exception as exc:  # noqa: BLE001 — a failed op, counted below
                    response = None
                    errors.append(f"{op.cls} op {index}: {exc!r}")
                cpu_times[op.cls].append(time.process_time() - cpu_op)
                stamps.append(time.perf_counter())
                latencies[op.cls].append(stamps[-1] - start)
                if (index + 1) % CHUNK == 0:
                    cpu_marks.append(service_cpu())
                if span is not None:
                    tracer.end_op(span)
                responses.append(response)
            wall = time.perf_counter() - wall_start
            cpu = time.process_time() - cpu_start
            executor_cpu = sum(_cpu_s(pid) for pid in pids) - executor_start
        finally:
            if tracer is not None:
                tracer.uninstall()
        served = client.metrics()
        rss = peak_rss_mb(served)
    finally:
        if server is not None:
            server.close()
    check_start = time.perf_counter()
    ok = workload.check(data, ops, responses)
    check_s = time.perf_counter() - check_start
    return {
        "data": data,
        "ops": ops,
        "responses": responses,
        "ok": ok,
        "setup_times": setup_times,
        "setup_walls": setup_walls,
        "latencies": latencies,
        "cpu_times": cpu_times,
        "wall": wall,
        "rates": chunk_rates(stamps, CHUNK),
        "chunk_cpu": [
            (after - before) / CHUNK for before, after in zip(cpu_marks, cpu_marks[1:])
        ],
        "cpu": cpu,
        "executor_cpu": executor_cpu,
        "served": {"broker": served["broker"], "registry": served["registry"]},
        "rss": rss,
        "errors": errors,
        "check_s": check_s,
    }


def stop_helper_processes() -> None:
    """Stop and reap the forkserver and resource tracker that a gateway's
    executors leave behind, so the run ends with every child reaped.

    ``_stop`` is the standard library's own shutdown hook for these
    helpers (a no-op when the helper never started).
    """
    from multiprocessing import forkserver, resource_tracker

    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        helper._stop()


def class_counts(obs: dict) -> dict:
    timed = list(zip(obs["ops"], obs["ok"]))[WARMUP:]
    out = {}
    for cls in ("read", "write"):
        oks = [ok for op, ok in timed if op.cls == cls]
        out[cls] = {
            "attempted": len(oks),
            "succeeded": sum(oks),
            "failed": len(oks) - sum(oks),
            "samples": len(obs["latencies"][cls]),
        }
    return out


def chunk_rates(stamps: list[float], chunk: int) -> list[float]:
    """Ops per second of each full chunk of ``chunk`` consecutive timed
    ops, from the op-boundary timestamps."""
    return [
        chunk / (stamps[end] - stamps[end - chunk])
        for end in range(chunk, len(stamps), chunk)
    ]


def end_to_end(obs: dict) -> dict[str, float]:
    attempted = len(obs["ops"]) - WARMUP
    succeeded = sum(obs["ok"][WARMUP:])
    return {
        "setup_s": statistics.median(obs["setup_times"]),
        "cpu_ms_per_op": 1000.0 * statistics.median(obs["chunk_cpu"]),
        "read_cpu_p50_ms": _pct(obs["cpu_times"]["read"], 50),
        "write_cpu_p50_ms": _pct(obs["cpu_times"]["write"], 50),
        "success_ratio": succeeded / attempted,
        "peak_rss_mb": obs["rss"],
    }


def wall_metrics(obs: dict) -> dict[str, float]:
    """Wall-clock throughput and latency; see ``WALL_UNITS``."""
    return {
        "setup_wall_s": statistics.median(obs["setup_walls"]),
        # The median chunk, not the whole run: a few seconds in which the
        # shared host stalls the process move a whole-run mean, not this.
        "ops_per_s": statistics.median(obs["rates"]),
        **{
            f"{cls}_p{q}_ms": _pct(obs["latencies"][cls], q)
            for q in (50, 95)
            for cls in ("read", "write")
        },
    }


def served_counters(obs: dict) -> dict[str, float]:
    """Per-layer counters read from the service's public ``/metrics``."""
    broker = obs["served"]["broker"]
    prune = broker["prune"]
    requests = broker["requests"] + broker["sql_requests"]
    cached = broker["served_from_cache"] + broker["sql_served_from_cache"]
    batches = broker["batches_executed"]
    recomputed = [
        report["n_recomputed"]
        for op, response in zip(obs["ops"][WARMUP:], obs["responses"][WARMUP:])
        if op.cls == "write" and response is not None
        for report in response.get("reports", ())
        if "n_recomputed" in report
    ]
    return {
        "broker.cache_hit_ratio": cached / requests if requests else 0.0,
        "broker.batch_points": broker["points_executed"] / batches if batches else 0.0,
        "pruning.rows_pruned_ratio": (
            prune["n_rows_pruned"] / prune["n_rows"] if prune["n_rows"] else 0.0
        ),
        "scan_kernels.early_terminated_ratio": (
            prune["n_early_terminated"] / prune["n_points"] if prune["n_points"] else 0.0
        ),
        "deltas.recomputed_per_write": (
            sum(recomputed) / len(recomputed) if recomputed else 0.0
        ),
        "gateway.fallbacks": float(broker["gateway_fallbacks"]),
    }


def untraced_wall(args) -> float:
    """Timed-sequence wall time of the same run without tracing, measured
    in a fresh child process so no cache of this one carries over."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]
    child = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=False
    )
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RuntimeError(f"untraced child run failed: {child.stderr[-2000:]}")
    record = next(line for line in lines if line.startswith("record "))
    return json.loads(record[len("record "):])["timed_wall_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=REFERENCE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _bootstrap():
        print(f"no repro source tree under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2

    from layers import LAYER_UNITS, LayerTracer, planner_regret
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    n = max(BASE_SAMPLES, round(BASE_SAMPLES * args.seconds / REFERENCE_SECONDS))

    calibration = calibrate()
    tracer = None
    if args.trace:
        baseline_wall = untraced_wall(args)
        tracer = LayerTracer()
    try:
        obs = run_sequence(workload, args.seed, n, tracer)
    finally:
        stop_helper_processes()
    attempted = len(obs["ops"]) - WARMUP
    failed = attempted - sum(obs["ok"][WARMUP:])
    correct = all(obs["ok"])

    if tracer is None:
        metrics = end_to_end(obs)
        units = E2E_UNITS
    else:
        op_classes = {i: op.cls for i, op in enumerate(obs["ops"][WARMUP:])}
        metrics = tracer.layer_metrics(op_classes, workload.read_shape == "point")
        metrics.update(served_counters(obs))
        metrics["planner.regret"] = planner_regret(
            workload.regret_samples(obs["data"], obs["ops"])
        )
        metrics["trace.overhead_ratio"] = obs["wall"] / baseline_wall
        metrics["diag.calibration_s"] = calibration
        metrics["diag.cpu_per_wall"] = obs["cpu"] / obs["wall"]
        metrics = {name: metrics[name] for name in LAYER_UNITS}
        units = LAYER_UNITS

    record = {
        "workload": workload.name,
        "read_shape": workload.read_shape,
        "seed": args.seed,
        "trace": args.trace,
        "samples_per_class": n,
        "classes": class_counts(obs),
        "setup_cpu_s": obs["setup_times"],
        "setup_wall_s": obs["setup_walls"],
        "timed_wall_s": obs["wall"],
        "whole_run_ops_per_s": attempted / obs["wall"],
        "chunk_ops_per_s": obs["rates"],
        "chunk_cpu_ms_per_op": [1000.0 * x for x in obs["chunk_cpu"]],
        "cpu_ms": {
            cls: [round(1000.0 * x, 3) for x in values]
            for cls, values in obs["cpu_times"].items()
        },
        "check_s": obs["check_s"],
        "latencies_ms": {
            cls: [round(1000.0 * x, 3) for x in values]
            for cls, values in obs["latencies"].items()
        },
        "calibration_s": calibration,
        "cpu_per_wall": obs["cpu"] / obs["wall"],
        "cpus": os.cpu_count(),
        "served_metrics": obs["served"],
        "errors": obs["errors"][:20],
        "executor_cpu_s": obs["executor_cpu"],
        "end_to_end": end_to_end(obs),
        "wall": wall_metrics(obs),
        "metrics": metrics,
    }
    RECORDS.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (RECORDS / f"{stem}.json").write_text(json.dumps(record, indent=2, default=str))
    if tracer is not None:
        tracer.dump(RECORDS / f"{stem}-spans.jsonl")
    printed = dict(metrics) if tracer is not None else {**metrics, **record["wall"]}
    for name, value in printed.items():
        # read_* is the workload's one read class; print it under that name.
        alias = name.replace("read_", f"{workload.read_shape}_", 1)
        print(f"{alias:40s} {value:14.4f} {units.get(name) or WALL_UNITS[name]}")
    print("record " + json.dumps({k: record[k] for k in ("classes", "setup_cpu_s", "setup_wall_s", "timed_wall_s", "whole_run_ops_per_s", "check_s", "calibration_s", "cpu_per_wall")}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
