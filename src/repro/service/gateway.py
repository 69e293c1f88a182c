"""The partitioned serving gateway: scatter, gather, merge — exactly.

:class:`Gateway` is the front-end half of the multi-process serving
topology. It owns ``N`` executor worker processes
(:mod:`repro.service.executor`). Each distributed dataset's rows are cut
into ``N`` contiguous spans (:func:`~repro.service.partition.plan_row_partitions`)
and partition ``i`` lives on executor ``i``, with shard-local prepared
state; the executor set never changes after start-up, so neither does
the placement.

Every query takes one path. It scatters to the executors — one pipe
round trip each, issued concurrently — and gathers raw **similarity
blocks** over each partition's stacked candidates. Concatenation in
partition order restores the exact global similarity matrix (each
similarity depends only on its own candidate's features), and the
gateway hands that matrix to the in-process ``batch`` backend — the same
per-flavor evaluators, pruning and two-label MinMax check included, that
serve local queries.

Robustness is part of the contract, not an afterthought: every executor
request carries a timeout and a bounded retry budget; a dead or wedged
executor is SIGKILLed and respawned with its partitions re-prepared from
the gateway's authoritative copy, without touching in-flight requests on
surviving executors (per-executor locks, per-executor scatter threads). A
query that still cannot be served — or that races a redistribution
(stale fingerprint) — raises :class:`GatewayUnavailable`, which the
broker treats as "execute locally instead": partitioned serving degrades
to single-process serving, never to a wrong or dropped answer.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import replace
from typing import Any

import numpy as np

from repro.core.batch_engine import PreparedBatch
from repro.core.planner import (
    CPQuery,
    ExecutionOptions,
    QueryPlan,
    QueryResult,
    get_backend,
    scan_dataset,
)
from repro.obs import Observability
from repro.obs.tracing import trace_span
from repro.service.executor import executor_main
from repro.service.partition import (
    RowPartition,
    merge_sim_blocks,
    plan_row_partitions,
)
from repro.utils.validation import check_positive_int

__all__ = ["GatewayError", "GatewayUnavailable", "Gateway"]

#: Retry budget per executor request *after* the first attempt; each
#: retry respawns the executor first.
RETRIES = 1

#: The health monitor's poll period: dead executors are respawned
#: proactively, not just when a query trips over them.
MONITOR_INTERVAL_S = 0.5


class GatewayError(RuntimeError):
    """A partitioned execution failed in a way retries could not mask."""


class GatewayUnavailable(GatewayError):
    """The gateway cannot serve this query exactly right now.

    Raised on executor loss beyond the retry budget and on snapshot races
    (an executor's partitions are at a different dataset fingerprint than
    the query's). The broker's contract is to catch this and fall back to
    local single-process execution — same exact values, one process.
    """


class _ExecutorDown(RuntimeError):
    """Internal: one pipe round trip failed (dead/wedged executor)."""


class _ExecutorHandle:
    """The gateway-side state of one executor worker process."""

    __slots__ = (
        "executor_id",
        "process",
        "conn",
        "lock",
        "restarts",
        "requests",
        "errors",
        "latency_total_s",
        "last_latency_s",
        "last_seen",
    )

    def __init__(self, executor_id: int) -> None:
        self.executor_id = executor_id
        self.process = None
        self.conn = None
        self.lock = threading.RLock()
        self.restarts = -1  # first spawn brings it to 0
        self.requests = 0
        self.errors = 0
        self.latency_total_s = 0.0
        self.last_latency_s: float | None = None
        # Monotonic timestamp of the last proof of life (spawn, successful
        # round trip, or monitor observation); /healthz reports its age.
        self.last_seen: float | None = None


class _DistributedDataset:
    """The gateway's authoritative record of one distributed dataset.

    Keeps the candidate sets themselves (references, not copies) so a
    respawned executor's partition can be re-prepared without consulting
    the registry. Partition ``i`` belongs to executor ``i``; a dataset
    with fewer rows than executors leaves the last executors without one.
    """

    __slots__ = ("name", "fingerprint", "partitions", "candidate_sets")

    def __init__(
        self,
        name: str,
        fingerprint: str,
        partitions: tuple[RowPartition, ...],
        candidate_sets: list[np.ndarray],
    ) -> None:
        self.name = name
        self.fingerprint = fingerprint
        self.partitions = partitions
        self.candidate_sets = candidate_sets

    def register_message(self, executor_id: int) -> dict | None:
        """The ``register`` request for ``executor_id``'s partition, if any."""
        if executor_id >= len(self.partitions):
            return None
        partition = self.partitions[executor_id]
        return {
            "op": "register",
            "name": self.name,
            "fingerprint": self.fingerprint,
            "partition": {
                "partition_id": partition.index,
                "row_start": partition.start,
                "candidate_sets": self.candidate_sets[partition.start : partition.stop],
            },
        }


def _preferred_context():
    """Forkserver where available, spawn otherwise.

    Never plain ``fork``: respawns run at arbitrary times from
    request-handling threads (HTTP connection threads, the monitor), and
    forking a multithreaded parent can deadlock the child on locks held
    at fork time (malloc/BLAS/NumPy internals). ``forkserver`` forks from
    a dedicated single-threaded server process instead; preloading the
    executor module there pays the heavy imports once, not per respawn.
    """
    if "forkserver" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("forkserver")
        context.set_forkserver_preload(["repro.service.executor"])
        return context
    return multiprocessing.get_context("spawn")


class Gateway:
    """Partition-parallel query execution across executor worker processes.

    Parameters
    ----------
    n_executors:
        Worker processes to spawn (``>= 1``); each owns one row partition
        of every distributed dataset.
    timeout_s:
        Per-request pipe timeout. A request that exceeds it marks the
        executor dead (it is killed and respawned, up to :data:`RETRIES`
        times).
    obs:
        The :class:`~repro.obs.Observability` bundle the gateway reports
        into (shared with the broker/server by ``make_service``); a bare
        gateway creates its own.
    """

    def __init__(
        self,
        n_executors: int,
        timeout_s: float = 30.0,
        obs: Observability | None = None,
    ) -> None:
        self.n_executors = check_positive_int(n_executors, "n_executors")
        if not timeout_s > 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")
        self.timeout_s = float(timeout_s)
        self._ctx = _preferred_context()
        self._handles = [_ExecutorHandle(i) for i in range(self.n_executors)]
        self._datasets: dict[str, _DistributedDataset] = {}
        self._datasets_lock = threading.Lock()
        self._dist_lock = threading.Lock()
        # Typed instruments replace the old _metrics_lock-guarded ints; the
        # legacy metrics() key set reads them back.
        self.obs = obs if obs is not None else Observability()
        m = self.obs.metrics
        self._c_queries = m.counter(
            "gateway_queries_total", help="queries executed partition-parallel"
        )
        self._c_scatters = m.counter("gateway_scatters_total")
        self._c_respawns = m.counter(
            "gateway_respawns_total", help="executor processes respawned"
        )
        self._c_stale = m.counter("gateway_stale_snapshots_total")
        self._c_unavailable = m.counter(
            "gateway_unavailable_total",
            help="queries abandoned to the local-planner fallback",
        )
        self._h_roundtrip = m.histogram(
            "gateway_roundtrip_seconds", help="one executor pipe round trip"
        )
        m.add_collector(self._collect_gauges)
        self._closed = False
        self._monitor_stop = threading.Event()
        for handle in self._handles:
            with handle.lock:
                self._respawn_locked(handle)
        self._monitor: threading.Thread | None = threading.Thread(
            target=self._monitor_loop, name="gateway-monitor", daemon=True
        )
        self._monitor.start()

    # ------------------------------------------------------------------
    # Process lifecycle
    # ------------------------------------------------------------------
    def _respawn_locked(self, handle: _ExecutorHandle) -> None:
        """(Re)spawn one executor; caller holds ``handle.lock``.

        Kills any previous incarnation, opens a fresh pipe, and re-prepares
        this executor's partition of every distributed dataset from the
        gateway's authoritative candidate sets. Only this
        executor's lock is held — queries on surviving executors keep
        flowing while the respawn runs.
        """
        self._kill_locked(handle)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=executor_main,
            args=(child_conn, handle.executor_id),
            name=f"repro-executor-{handle.executor_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle.process = process
        handle.conn = parent_conn
        handle.restarts += 1
        handle.last_seen = time.monotonic()
        if handle.restarts > 0:
            self._c_respawns.inc()
        with self._datasets_lock:
            distributed = list(self._datasets.values())
        for dist in distributed:
            message = dist.register_message(handle.executor_id)
            if message is not None:
                self._roundtrip_locked(handle, message)

    def _kill_locked(self, handle: _ExecutorHandle) -> None:
        """Tear down one executor's process and pipe; caller holds its lock."""
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:
                pass
            handle.conn = None
        if handle.process is not None:
            if handle.process.is_alive():
                handle.process.kill()
            handle.process.join(timeout=5.0)
            handle.process = None

    def _monitor_loop(self) -> None:
        """Respawn dead executors proactively (detection without traffic)."""
        while not self._monitor_stop.wait(MONITOR_INTERVAL_S):
            for handle in self._handles:
                if self._closed:
                    return
                process = handle.process
                if process is not None and process.is_alive():
                    handle.last_seen = time.monotonic()
                if process is not None and not process.is_alive():
                    try:
                        with handle.lock:
                            if (
                                handle.process is not None
                                and not handle.process.is_alive()
                            ):
                                self._respawn_locked(handle)
                    except Exception:  # noqa: BLE001 — next query retries anyway
                        pass

    def close(self) -> None:
        """Shut every executor down. Idempotent; in-flight calls fail fast."""
        if self._closed:
            return
        self._closed = True
        self._monitor_stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        for handle in self._handles:
            with handle.lock:
                if handle.conn is not None:
                    try:
                        handle.conn.send({"op": "shutdown"})
                    except (OSError, BrokenPipeError, ValueError):
                        pass
                self._kill_locked(handle)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _roundtrip_locked(self, handle: _ExecutorHandle, message: dict) -> dict:
        """One send/recv on the executor's pipe; caller holds its lock."""
        handle.requests += 1
        started = time.perf_counter()
        try:
            handle.conn.send(message)
            if not handle.conn.poll(self.timeout_s):
                raise _ExecutorDown(
                    f"executor {handle.executor_id} timed out after {self.timeout_s}s"
                )
            reply = handle.conn.recv()
        except (EOFError, OSError, BrokenPipeError) as exc:
            handle.errors += 1
            raise _ExecutorDown(
                f"executor {handle.executor_id} pipe failed: {exc}"
            ) from exc
        except _ExecutorDown:
            handle.errors += 1
            raise
        elapsed = time.perf_counter() - started
        handle.last_latency_s = elapsed
        handle.latency_total_s += elapsed
        handle.last_seen = time.monotonic()
        self._h_roundtrip.observe(elapsed)
        return reply

    def _call(self, handle: _ExecutorHandle, message: dict) -> dict:
        """A request with bounded retry; failures respawn the executor."""
        if self._closed:
            raise GatewayUnavailable("gateway is closed")
        last_error: Exception | None = None
        for _ in range(RETRIES + 1):
            with handle.lock:
                try:
                    if handle.process is None or not handle.process.is_alive():
                        self._respawn_locked(handle)
                    reply = self._roundtrip_locked(handle, message)
                except _ExecutorDown as exc:
                    last_error = exc
                    # A wedged-but-alive executor still owes this request its
                    # reply; reusing the pipe would read that stale reply as
                    # the answer to a *later* request. Kill under the lock so
                    # every subsequent attempt respawns with a fresh pipe.
                    self._kill_locked(handle)
                    continue
            if reply.get("ok"):
                return reply
            if reply.get("stale"):
                self._c_stale.inc()
                raise GatewayUnavailable(
                    f"stale snapshot on executor {handle.executor_id}: "
                    f"{reply.get('error')}"
                )
            raise GatewayError(
                f"executor {handle.executor_id} failed: {reply.get('error')}"
            )
        self._c_unavailable.inc()
        raise GatewayUnavailable(
            f"executor {handle.executor_id} unavailable after "
            f"{RETRIES + 1} attempts: {last_error}"
        )

    # ------------------------------------------------------------------
    # Distribution
    # ------------------------------------------------------------------
    def ensure_distributed(
        self, name: str, dataset, fingerprint: str | None = None
    ) -> _DistributedDataset:
        """Distribute ``dataset`` under ``name`` if not already at this
        fingerprint; returns the (re)used distribution record."""
        if fingerprint is None:
            fingerprint = dataset.fingerprint()
        with self._datasets_lock:
            dist = self._datasets.get(name)
        if dist is not None and dist.fingerprint == fingerprint:
            return dist
        with self._dist_lock:
            with self._datasets_lock:
                dist = self._datasets.get(name)
            if dist is not None and dist.fingerprint == fingerprint:
                return dist
            return self._distribute(name, dataset, fingerprint)

    def _distribute(
        self, name: str, dataset, fingerprint: str
    ) -> _DistributedDataset:
        """Partition and push one dataset; holds ``_dist_lock``."""
        candidate_sets = [dataset.candidates(row) for row in range(dataset.n_rows)]
        partitions = plan_row_partitions(dataset.n_rows, self.n_executors)
        dist = _DistributedDataset(name, fingerprint, partitions, candidate_sets)
        for handle in self._handles:
            message = dist.register_message(handle.executor_id)
            if message is not None:
                self._call(handle, message)
        # Commit only after every executor accepted its partitions: a push
        # that dies mid-way must not leave a record claiming the dataset is
        # distributed (queries would scatter into "not prepared" replies).
        # Respawn re-registration reads from committed records only, so a
        # respawn during the push simply retries this register afterwards.
        with self._datasets_lock:
            self._datasets[name] = dist
        return dist

    def drop(self, name: str) -> None:
        """Forget ``name`` everywhere (registry removal hook)."""
        with self._datasets_lock:
            dist = self._datasets.pop(name, None)
        if dist is None:
            return
        for handle in self._handles:
            try:
                self._call(handle, {"op": "drop", "name": name})
            except GatewayError:
                pass  # a dead executor forgets by dying

    # ------------------------------------------------------------------
    # Scatter/gather
    # ------------------------------------------------------------------
    def _scatter(self, dist: _DistributedDataset, payload: dict) -> list[np.ndarray]:
        """Ask every executor owning a partition of ``dist`` for its
        similarity block, concurrently; blocks return in partition order."""
        self._c_scatters.inc()
        n_parts = len(dist.partitions)
        # Each gather thread writes only its own slot of ``blocks``, and
        # list.append is atomic, so neither list needs a lock.
        blocks: list[Any] = [None] * n_parts
        failures: list[Exception] = []
        # Gather threads attach their spans to the scatter span explicitly:
        # thread-local propagation does not cross threading.Thread.
        scatter_span = trace_span(
            "gateway.scatter", dataset=dist.name, partitions_scattered=n_parts
        )
        message = {
            "op": "sims",
            "name": dist.name,
            "fingerprint": dist.fingerprint,
            "trace": bool(scatter_span),
            **payload,
        }

        def gather(executor_id: int) -> None:
            with trace_span(
                "gateway.gather", parent=scatter_span, executor=executor_id
            ) as gspan:
                try:
                    reply = self._call(self._handles[executor_id], message)
                except Exception as exc:  # noqa: BLE001 — re-raised below
                    failures.append(exc)
                    return
                # Executor-side timings crossed the pipe as plain records;
                # grafting them here renders the distributed execution as
                # one tree.
                for record in reply.get("spans") or ():
                    gspan.adopt(record)
            blocks[executor_id] = reply["block"]

        with scatter_span:
            threads = [
                threading.Thread(target=gather, args=(i,), daemon=True)
                for i in range(1, n_parts)
            ]
            for thread in threads:
                thread.start()
            gather(0)  # run one executor's round trip on the calling thread
            for thread in threads:
                thread.join()
            scatter_span.set(failures=len(failures))
        if failures:
            for failure in failures:
                if isinstance(failure, GatewayUnavailable):
                    raise failure
            raise failures[0]
        return blocks

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def execute_query(
        self,
        name: str,
        query: CPQuery,
        fingerprint: str | None = None,
        options: ExecutionOptions | None = None,
    ) -> QueryResult:
        """Execute ``query`` partition-parallel; bit-identical to local.

        ``query.dataset`` is the authoritative content; it is distributed
        (or re-distributed, if its fingerprint moved) on first use.
        ``options`` are the request's execution knobs: ``n_jobs`` applies
        to the gathered scan, which runs on the ``batch`` backend; ``cache``
        and ``prepared`` are the gateway's own. Raises
        :class:`GatewayUnavailable` when partitioned execution cannot
        proceed — the caller's cue to execute locally instead.
        """
        if self._closed:
            raise GatewayUnavailable("gateway is closed")
        options = options or ExecutionOptions()
        dist = self.ensure_distributed(name, query.dataset, fingerprint)
        self._c_queries.inc()
        n_parts = len(dist.partitions)
        with trace_span(
            "gateway.execute",
            dataset=name,
            flavor=query.flavor,
            kind=query.kind,
            n_points=query.n_points,
            n_partitions=n_parts,
        ) as span:
            values, run_stats = self._execute_scan(dist, query, options)
            span.set(prune=run_stats["prune"])
        plan = QueryPlan(
            backend="gateway",
            reason=f"similarity blocks scatter-gathered from {n_parts} executors",
            cost=0.0,
        )
        stats = {
            **run_stats,
            "gateway": True,
            "n_partitions": n_parts,
            "n_executors": self.n_executors,
            "n_points": query.n_points,
        }
        return QueryResult(query=query, plan=plan, values=values, stats=stats)

    def _execute_scan(
        self, dist: _DistributedDataset, query: CPQuery, options: ExecutionOptions
    ) -> tuple[list, dict]:
        """Gather similarity blocks, merge them, and evaluate on ``batch``.

        The merged matrix becomes the :class:`PreparedBatch` of the
        ``batch`` backend, which then runs exactly as it does locally —
        same evaluators, same MinMax check for two-label decisions, same
        pruning, same kind conversions — only the similarities arrive
        partition by partition instead of being computed here. Returns the
        backend's ``(values, stats)``.
        """
        dataset = scan_dataset(query)
        # A flavor that scans a dataset other than the query's has its pins
        # applied by restriction; the executors restrict their rows alike.
        restrict = None if dataset is query.dataset else query.pins_dict() or None
        sims = merge_sim_blocks(
            self._scatter(
                dist,
                {"test_X": query.test_X, "kernel": query.kernel, "restrict": restrict},
            )
        )
        n_candidates = int(dataset.candidate_layout().rows.shape[0])
        if sims.shape[1] != n_candidates:
            raise GatewayError(
                f"merged similarity blocks cover {sims.shape[1]} candidates, "
                f"the scan layout expects {n_candidates}"
            )
        prepared = PreparedBatch(
            dataset, query.test_X, query.k, query.kernel, sims_matrix=sims
        )
        return get_backend("batch").execute(
            query, replace(options, prepared=prepared, cache=False)
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def ping(self) -> list[dict]:
        """One health round trip per executor (respawning dead ones)."""
        return [
            self._call(handle, {"op": "ping"}) for handle in self._handles
        ]

    def describe_dataset(self, name: str) -> dict | None:
        """The partition layout of ``name`` (for registry entries), if any."""
        with self._datasets_lock:
            dist = self._datasets.get(name)
        if dist is None:
            return None
        return {
            "fingerprint": dist.fingerprint,
            "n_partitions": len(dist.partitions),
            "partitions": [
                {
                    "partition": partition.index,
                    "rows": [partition.start, partition.stop],
                    "executor": partition.index,
                }
                for partition in dist.partitions
            ],
        }

    def metrics(self) -> dict:
        """Per-executor health/latency/partition counters for ``/metrics``."""
        with self._datasets_lock:
            distributed = list(self._datasets.values())
        owned: dict[int, int] = {
            handle.executor_id: 0 for handle in self._handles
        }
        for dist in distributed:
            for partition in dist.partitions:
                owned[partition.index] += 1
        executors = {}
        for handle in self._handles:
            process = handle.process
            requests = handle.requests
            executors[str(handle.executor_id)] = {
                "pid": process.pid if process is not None else None,
                "alive": bool(process is not None and process.is_alive()),
                "restarts": max(handle.restarts, 0),
                "requests": requests,
                "errors": handle.errors,
                "partitions": owned[handle.executor_id],
                "last_latency_s": handle.last_latency_s,
                "avg_latency_s": (
                    handle.latency_total_s / requests if requests else None
                ),
            }
        totals = {
            "queries": self._c_queries.value,
            "scatters": self._c_scatters.value,
            "respawns": self._c_respawns.value,
            "stale_snapshots": self._c_stale.value,
            "unavailable": self._c_unavailable.value,
        }
        return {
            "n_executors": self.n_executors,
            "timeout_s": self.timeout_s,
            "retries": RETRIES,
            **totals,
            "executors": executors,
            "datasets": {
                dist.name: {
                    "fingerprint": dist.fingerprint,
                    "n_partitions": len(dist.partitions),
                }
                for dist in distributed
            },
        }

    def health(self) -> dict:
        """Per-executor readiness for ``/healthz``.

        ``status`` is ``"ok"`` only while every executor process is
        alive; a dead executor awaiting respawn degrades the whole
        gateway (the broker still serves exactly via local fallback, but
        an operator or load balancer should know capacity is reduced).
        """
        now = time.monotonic()
        executors = []
        degraded = False
        for handle in self._handles:
            process = handle.process
            alive = bool(process is not None and process.is_alive())
            if not alive:
                degraded = True
            executors.append(
                {
                    "executor_id": handle.executor_id,
                    "pid": process.pid if process is not None else None,
                    "alive": alive,
                    "restarts": max(handle.restarts, 0),
                    "last_heartbeat_age_s": (
                        now - handle.last_seen
                        if handle.last_seen is not None
                        else None
                    ),
                }
            )
        return {
            "status": "degraded" if degraded else "ok",
            "n_executors": self.n_executors,
            "executors": executors,
        }

    def _collect_gauges(self, metrics) -> None:
        """Metrics collector: executor liveness levels at snapshot time."""
        alive = sum(
            1
            for handle in self._handles
            if handle.process is not None and handle.process.is_alive()
        )
        metrics.gauge(
            "gateway_executors_alive", help="live executor processes"
        ).set(alive)
        metrics.gauge("gateway_executors_total").set(self.n_executors)

    def __enter__(self) -> "Gateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
