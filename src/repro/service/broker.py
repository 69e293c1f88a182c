"""The query broker: admission control, micro-batching, TTL'd results.

The planner (:mod:`repro.core.planner`) is fastest when handed a whole
test matrix at once — one vectorised preparation amortised over many
points — but interactive callers ask one point at a time. The broker
closes that gap the way high-throughput serving systems do, with
**micro-batching** of single-point queries by *query family* (same
dataset, kind, flavor, ``k``, kernel, pins, label, weights, backend —
everything except the test point). A single point whose family is idle
(no batch pending, no flush running) has nobody to wait for: it runs at
once on the caller's thread, with no window. One that finds its family
busy joins the family's pending batch, or opens it, and the batch is
flushed as one planner call when it reaches ``max_batch`` points or when
its oldest request has waited ``window_s`` seconds. So ``window_s`` is
the longest a read waits for company while its family is busy: under
concurrent load the window fills and every flush serves many callers for
roughly the price of one, and an idle service pays no window at all.

That flush is the only way a CP read executes. A read that does not
coalesce — a matrix, an ``explain`` request, or any read while
coalescing is off (``window_s=0`` or ``max_batch=1``) — is a batch of
one, flushed at once on the caller's thread, as is an uncontended
single point. Either way the one flush makes the planner (or gateway)
call, counts it in ``/metrics``, fills the result cache and resolves the
waiting requests.

Correctness is free: every backend computes per-point values
independently, so a batched execution is bit-identical to the
per-request one (the differential harness replays random queries both
ways over the wire and asserts exactly that).

Two more serving-layer pieces live here:

* The result cache — a :class:`~repro.utils.lru.LRUCache` with a
  time-to-live and one entry per request: the request's query family
  plus a digest of its test points keys its value list. The family
  embeds the dataset's *content fingerprint*, so any dataset change
  invalidates by construction, and entries expire after ``ttl_s``
  seconds so the cache cannot pin unbounded state warm forever.
* **Admission control** — one gate admits ``query``, ``sql`` and
  ``patch`` alike. It tracks in-flight requests and rejects new ones
  with :class:`AdmissionError` once ``max_pending`` is reached, which the
  HTTP layer surfaces as ``429 Too Many Requests`` with a
  ``Retry-After`` hint. Shedding load early keeps the latency of
  admitted requests bounded instead of letting a queue grow without
  limit.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from typing import Any

import numpy as np

from repro.codd.codd_table import CoddTable
from repro.codd import joins
from repro.codd.engine import MODES, answer_query, get_codd_backend, optimize_for
from repro.codd.plan import plan_dict
from repro.codd.sql import parse_sql, referenced_tables
from repro.core.batch_engine import kernel_cache_key
from repro.core.planner import (
    RESULT_CACHE_SIZE,
    CPQuery,
    ExecutionOptions,
    _point_key,
    _weights_key,
    execute_query,
    get_backend,
    make_query,
)
from repro.core.deltas import Delta
from repro.obs import Observability
from repro.obs.tracing import current_span, trace_span
from repro.service.registry import (
    DatasetEntry,
    DatasetRegistry,
    DatasetSnapshot,
)
from repro.service.wire import WireError, encode_relation
from repro.utils.lru import LRUCache
from repro.utils.validation import check_positive_int

__all__ = [
    "AdmissionError",
    "QueryBroker",
]

_MISS = object()

#: Leads every ``/sql`` result-cache key; no dataset name (a str) equals it.
_SQL_TAG = object()

#: Pruning counters the broker aggregates from ``QueryResult.stats`` into
#: ``/metrics`` (the integer-valued subset of the backends' stat snapshots).
_PRUNE_METRIC_KEYS = (
    "n_rows",
    "n_rows_pruned",
    "n_candidates",
    "n_pruned",
    "n_scanned",
    "n_points",
    "n_early_terminated",
)


class AdmissionError(RuntimeError):
    """The broker is at capacity; retry after ``retry_after`` seconds."""

    def __init__(self, message: str, retry_after: float = 0.05) -> None:
        super().__init__(message)
        self.retry_after = retry_after


# ---------------------------------------------------------------------------
# Internal batching structures
# ---------------------------------------------------------------------------


class _PendingBatch:
    """The requests of one query family, executed as one planner call.

    A coalescing batch waits in ``QueryBroker._pending`` until
    ``max_batch`` requests or its window ``timer`` flush it; a direct
    read (including a single point whose family is idle) is a batch of
    one with no timer, flushed at once. The batch
    carries the :class:`~repro.service.registry.DatasetSnapshot` of the
    request that opened it; the family key embeds the snapshot's
    fingerprint, so every coalesced request sees the same dataset version
    and the flush executes against exactly that version. Each request is
    ``(query, cache key, future, span id)``; the span ids let the batch's
    (detached) trace name every request it served.
    """

    __slots__ = ("entry", "snap", "backend", "options", "requests", "timer")

    def __init__(
        self,
        entry: DatasetEntry,
        snap: DatasetSnapshot,
        backend: str,
        options: ExecutionOptions,
    ) -> None:
        self.entry = entry
        self.snap = snap
        self.backend = backend
        self.options = options
        self.requests: list[tuple[CPQuery, tuple, Future, str | None]] = []
        self.timer: threading.Timer | None = None


class QueryBroker:
    """Admission-controlled, micro-batching front door to the planner.

    Every request passes one admission gate (:meth:`_admission`). A CP
    read then builds its :class:`~repro.core.planner.CPQuery`, reads its
    one cache slot, and on a miss runs through :meth:`_flush`, coalesced
    with its family's other single points or alone as a batch of one.
    Each family counts its coalescing flushes in flight
    (``self._running``); a single point that finds none, and no pending
    batch, flushes inline instead of opening a window.

    Parameters
    ----------
    registry:
        The :class:`~repro.service.registry.DatasetRegistry` whose
        entries (and pinned prepared state) queries run against.
    window_s:
        Micro-batching window: the longest a single-point read waits for
        company while its family is busy (a flush running or a batch
        pending); a read of an idle family never waits. ``0`` disables
        coalescing (the per-request baseline ``bench_service.py``
        measures against).
    max_batch:
        Flush a pending batch as soon as it holds this many points.
        ``1`` also disables coalescing.
    max_pending:
        Admission-control bound on concurrently in-flight requests
        (``query``, ``sql`` and ``patch`` alike); beyond it
        :class:`AdmissionError` is raised.
    backend, n_jobs:
        Defaults handed to the planner (a request may override the
        backend per query).
    cache, ttl_s:
        ``True`` (default) caches results in a
        :class:`~repro.utils.lru.LRUCache` of
        :data:`~repro.core.planner.RESULT_CACHE_SIZE` entries, each
        expiring ``ttl_s`` seconds after it was stored; ``False``
        disables result caching.
    gateway:
        An optional :class:`~repro.service.gateway.Gateway`. When present,
        CP queries whose backend is ``"auto"`` or ``"gateway"`` execute
        partition-parallel across its executor processes; on
        :class:`~repro.service.gateway.GatewayUnavailable` (executors lost
        beyond the retry budget, or a snapshot racing a redistribute) the
        broker transparently falls back to local execution — the values
        are bit-identical either way, so the fallback is invisible except
        in ``/metrics``. The broker owns the gateway's lifecycle:
        :meth:`close` drains pending batches, then shuts the executors
        down.
    obs:
        The :class:`~repro.obs.Observability` bundle (metrics registry +
        tracer) this broker reports into. ``make_service`` shares one
        across every layer; a bare broker creates its own.
    """

    def __init__(
        self,
        registry: DatasetRegistry,
        window_s: float = 0.01,
        max_batch: int = 16,
        max_pending: int = 256,
        backend: str = "auto",
        n_jobs: int | None = 1,
        cache: bool = True,
        ttl_s: float = 30.0,
        gateway=None,
        obs: Observability | None = None,
    ) -> None:
        if window_s < 0:
            raise ValueError(f"window_s must be >= 0, got {window_s}")
        self.registry = registry
        self.window_s = float(window_s)
        self.max_batch = check_positive_int(max_batch, "max_batch")
        self.max_pending = check_positive_int(max_pending, "max_pending")
        self.backend = backend
        self.n_jobs = n_jobs
        self.gateway = gateway
        self.cache = LRUCache(RESULT_CACHE_SIZE, ttl_s=ttl_s) if cache else None
        self._lock = threading.Lock()
        self._pending: dict[tuple, _PendingBatch] = {}
        # family -> number of its coalescing flushes executing right now
        self._running: dict[tuple, int] = {}
        self._inflight = 0
        self._admissions = 0
        self._closed = False
        # Typed instruments on the shared MetricsRegistry replace the old
        # per-broker integer dict; the legacy ``metrics()`` key set is
        # preserved by reading the counters back (golden-keys contract).
        self.obs = obs if obs is not None else Observability()
        m = self.obs.metrics
        self._c_requests = m.counter(
            "broker_requests_total", help="CP query requests admitted or rejected"
        )
        self._c_single = m.counter("broker_single_point_requests_total")
        self._c_multi = m.counter("broker_multi_point_requests_total")
        self._c_batches = m.counter(
            "broker_batches_total", help="planner executions (flushes + direct)"
        )
        self._c_batched_points = m.counter("broker_points_executed_total")
        self._c_coalesced = m.counter(
            "broker_coalesced_batches_total", help="flushes serving >1 request"
        )
        self._g_max_batch = m.gauge(
            "broker_max_batch_size", help="largest batch executed so far"
        )
        self._c_rejected = m.counter(
            "broker_rejected_total", help="requests shed by admission control"
        )
        self._c_cache_served = m.counter("broker_cache_served_total")
        self._c_sql = m.counter("broker_sql_requests_total")
        self._c_sql_cache_served = m.counter("broker_sql_cache_served_total")
        self._c_patches = m.counter("broker_patch_requests_total")
        self._c_explain = m.counter("broker_explain_requests_total")
        self._c_gateway_served = m.counter("broker_gateway_served_total")
        self._c_gateway_fallbacks = m.counter("broker_gateway_fallbacks_total")
        self._prune_counters = {
            key: m.counter(f"broker_prune_{key}_total")
            for key in ("executions", "pruned_executions", *_PRUNE_METRIC_KEYS)
        }
        self._h_batch_size = m.histogram(
            "broker_batch_points",
            help="points per planner execution",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
        )
        self._h_op_seconds = {
            op: m.histogram(
                "broker_request_seconds",
                help="end-to-end broker handling time",
                op=op,
            )
            for op in ("query", "sql", "patch")
        }
        m.add_collector(self._collect_gauges)
        # Re-registration/removal under an existing name invalidates that
        # name's cached results (satellite of the delta-maintenance work:
        # fingerprint-keyed entries for the old content must not linger).
        registry.add_invalidation_hook(self._on_invalidated)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def query(
        self,
        dataset: str,
        points: Any,
        kind: str = "counts",
        flavor: str = "auto",
        k: int | None = None,
        pins: dict[int, int] | None = None,
        label: int | None = None,
        weights: list[list[Fraction]] | None = None,
        backend: str | None = None,
        with_cleaned: bool = False,
        explain: bool | str = False,
        timeout: float | None = 60.0,
    ) -> dict:
        """Answer a CP query against a registered dataset.

        ``points`` is one test point (1-D) or a matrix of them; a single
        point rides the micro-batching path, a matrix executes as a batch
        of its own. Returns a dict with the resolved
        ``flavor``, per-point ``values``, the executing ``backend``, the
        size of the batch each point was served in, and cache/coalescing
        telemetry. Raises :class:`AdmissionError` at capacity. The query
        is built on admission, so a construction error (bad pins, a bad
        label, ...) raises at once, exactly as :func:`make_query` raises
        it; a planning error (an incapable backend, ...) propagates from
        the flush as :func:`plan_query` raises it.

        Every read runs the exactness-preserving candidate pruning of
        :mod:`repro.core.pruning` wherever it applies. With
        ``explain=True`` the request bypasses micro-batching and the
        result cache read (the explain block needs this execution's
        telemetry, not a cached value's) and the response carries an
        ``explain`` dict: chosen backend, plan reason, and the backend's
        pruning / early-termination counters. ``explain="trace"``
        additionally embeds the request's span tree under ``"trace"``.
        """
        with self._h_op_seconds["query"].time(), trace_span(
            "broker.query", tracer=self.obs.tracer, dataset=dataset, kind=kind
        ) as span:
            response = self._query_traced(
                span, dataset, points, kind, flavor, k, pins, label, weights,
                backend, with_cleaned, explain, timeout,
            )
        if explain == "trace" and span:
            response["trace"] = span.root().record()
        return response

    def _query_traced(
        self, span, dataset, points, kind, flavor, k, pins, label, weights,
        backend, with_cleaned, explain, timeout,
    ) -> dict:
        entry = self.registry.get(dataset)
        # One atomic read of (dataset, fingerprint, version, prepared):
        # everything below — query, family key, execution, response — uses
        # the snapshot, so the answer is consistent with one serializable
        # version even while PATCH traffic rewrites the entry.
        snap = entry.snapshot()
        matrix = np.asarray(points, dtype=np.float64)
        single = matrix.ndim == 1
        self._c_requests.inc()
        (self._c_single if single else self._c_multi).inc()
        if with_cleaned:
            pins = {**entry.session_pins(), **(pins or {})}
        with self._admission():
            query = make_query(
                snap.dataset, matrix, kind=kind, flavor=flavor,
                k=entry.k if k is None else int(k), kernel=entry.kernel,
                pins=pins, label=label, weights=weights,
            )
            if explain:
                self._c_explain.inc()
            coalesce = (
                single and not explain and self.window_s > 0 and self.max_batch > 1
            )
            response = self._read(
                entry, snap, query, backend or self.backend, coalesce,
                explain, timeout,
            )
        entry.record_served(query.n_points)
        response.update(
            dataset=dataset,
            kind=kind,
            flavor=query.flavor,
            n_points=query.n_points,
            version=snap.version,
            fingerprint=snap.fingerprint,
        )
        span.set(
            flavor=query.flavor,
            n_points=query.n_points,
            backend=response.get("backend"),
            batch_size=response.get("batch_size"),
            cache_hit=bool(response.get("cached")),
        )
        return response

    def sql(
        self,
        query: str,
        mode: str = "certain",
        backend: str = "auto",
        codd_table: CoddTable | None = None,
        explain: bool | str = False,
    ) -> dict:
        """Answer a SQL query over registered Codd tables with certain-answer
        semantics (the ``/sql`` endpoint).

        ``query`` is the select-project SQL fragment of
        :func:`repro.codd.sql.parse_sql`; the ``FROM`` clause names a Codd
        table registered with
        :meth:`~repro.service.registry.DatasetRegistry.register_codd_table`
        — unless ``codd_table`` supplies one inline, in which case it is
        bound to whatever name the query scans. ``mode`` is ``"certain"``,
        ``"possible"`` or ``"both"``; ``backend`` forces a codd engine
        backend (``auto`` lets the cost model choose). Results are served
        from the broker's TTL cache when the same query hits the same
        table content within the TTL, and always ride the wire as exact
        :func:`~repro.service.wire.encode_relation` structures.
        ``explain="trace"`` embeds the request's span tree under
        ``"trace"``.
        """
        with self._h_op_seconds["sql"].time(), trace_span(
            "broker.sql", tracer=self.obs.tracer, mode=mode
        ) as span:
            response = self._sql_traced(span, query, mode, backend, codd_table)
        if explain == "trace" and span:
            response["trace"] = span.root().record()
        return response

    def _sql_traced(self, span, query, mode, backend, codd_table) -> dict:
        if mode not in (*MODES, "both"):
            raise WireError(
                f"mode must be one of {(*MODES, 'both')}, got {mode!r}"
            )
        if not isinstance(query, str) or not query.strip():
            raise WireError("'query' must be a non-empty SQL string")
        # Chicken-and-egg: a multi-table query parses against the scanned
        # tables' schemas, so a lexical pre-scan finds the names first.
        names = referenced_tables(query)
        if codd_table is not None:
            entries = {}
            snaps = {}
            database = {name: codd_table for name in names}
            fingerprints = {name: codd_table.fingerprint() for name in names}
            versions: dict[str, int] = {}
        else:
            entries = {name: self.registry.get_codd(name) for name in names}
            # One atomic snapshot per table: table, fingerprint, version and
            # pinned grid belong to the same serializable version even while
            # PATCH fixes rewrite the entry.
            snaps = {name: entry.snapshot() for name, entry in entries.items()}
            database = {name: snap.table for name, snap in snaps.items()}
            fingerprints = {name: snap.fingerprint for name, snap in snaps.items()}
            versions = {name: snap.version for name, snap in snaps.items()}
        parsed = parse_sql(
            query, schemas={name: t.schema for name, t in database.items()}
        )

        self._c_sql.inc()
        with self._admission():
            cache_key = (
                _SQL_TAG,
                tuple(sorted(fingerprints.items())),
                query,
                mode,
                backend,
            )
            if self.cache is not None:
                hit = self.cache.get(cache_key, _MISS)
                if hit is not _MISS:
                    self._c_sql_cache_served.inc()
                    span.set(cache_hit=True, n_tables=len(names))
                    for entry in entries.values():
                        entry.record_served()
                    return {**hit, "versions": versions, "cached": True}
            # Only a cache miss pays for the pinned completion grids —
            # admission rejections and cache hits must stay cheap. Grids
            # are resolved against the snapshots, never the live entries.
            prepared = {
                name: grid
                for name, entry in entries.items()
                if (grid := entry.grid_for(snaps[name])) is not None
            } or None
            modes = MODES if mode == "both" else (mode,)
            results: dict[str, dict] = {}
            backends: dict[str, str] = {}
            explain_info: dict | None = None
            # One optimization serves every mode answered.
            optimized = optimize_for(parsed, database)
            for one_mode in modes:
                answer = answer_query(
                    parsed, database, mode=one_mode, backend=backend,
                    prepared=prepared, optimize=optimized,
                )
                results[one_mode] = encode_relation(answer.relation)
                backends[one_mode] = answer.plan.backend
                if explain_info is None:
                    explain_info = {
                        "plan": (
                            answer.logical.render()
                            if answer.logical is not None
                            else None
                        ),
                        "tree": (
                            plan_dict(answer.logical.root)
                            if answer.logical is not None
                            else None
                        ),
                        "rewrites": list(answer.rewrites),
                    }
            n_worlds = 1
            for table in database.values():
                n_worlds *= table.n_worlds()
            response = {
                "query": query,
                "mode": mode,
                "tables": fingerprints,
                "results": results,
                "backends": backends,
                "n_worlds": str(n_worlds),
                "explain": explain_info,
            }
            if self.cache is not None:
                # Versions are not part of the cached payload: content can
                # recur at a later version and the echo must stay current.
                self.cache.put(cache_key, dict(response))
            for entry in entries.values():
                entry.record_served()
            span.set(
                cache_hit=False,
                n_tables=len(names),
                backends=",".join(sorted(set(backends.values()))),
            )
            return {**response, "versions": versions, "cached": False}

    def patch(
        self,
        name: str,
        deltas: list[Delta] | None = None,
        fixes: list[tuple[int, int, Any]] | None = None,
    ) -> dict:
        """Apply base-data writes to a registered dataset or Codd table
        (the ``PATCH /datasets/<name>`` endpoint).

        ``deltas`` (a list of :class:`~repro.core.deltas.CellRepair` /
        :class:`~repro.core.deltas.RowAppend` /
        :class:`~repro.core.deltas.RowDelete`) targets a CP dataset;
        ``fixes`` (``(row, column, value)`` triples) targets a Codd
        table. Exactly one of the two must be given. Each write bumps the
        entry's version; warm prepared state follows in O(Δ) through the
        delta-maintenance layer instead of being rebuilt, and the
        broker's cached results for the name are purged. Returns the
        entry's new ``version``/``fingerprint`` plus one report per
        applied write.
        """
        if (deltas is None) == (fixes is None):
            raise WireError(
                "send either 'deltas' (for a CP dataset) or 'fixes' "
                "(for a codd table), not both"
            )
        with self._admission():
            self._c_patches.inc()
            try:
                with self._h_op_seconds["patch"].time(), trace_span(
                    "broker.patch", tracer=self.obs.tracer, dataset=name
                ):
                    return self._patch_traced(name, deltas, fixes)
            finally:
                # Purge even on partial application: any applied prefix
                # already changed the content the cached results were
                # computed for.
                self._purge(name)

    def _patch_traced(self, name, deltas, fixes) -> dict:
        if deltas is not None:
            return self.registry.get(name).apply_deltas(deltas)
        if not fixes:
            raise WireError("'fixes' must contain at least one operation")
        entry = self.registry.get_codd(name)
        reports = [
            entry.apply_fix(row, column, value)
            for row, column, value in fixes
        ]
        return {
            "table": name,
            "version": reports[-1]["version"],
            "fingerprint": reports[-1]["fingerprint"],
            "n_worlds": reports[-1]["n_worlds"],
            "reports": reports,
        }

    def _collect_gauges(self, metrics) -> None:
        """Metrics collector: point-in-time levels read at snapshot time."""
        with self._lock:
            inflight = self._inflight
        metrics.gauge("broker_inflight").set(inflight)
        if self.cache is not None:
            stats = self.cache.stats()
            metrics.gauge("broker_cache_size").set(stats["size"])
            metrics.gauge("broker_cache_hit_rate").set(stats["hit_rate"])
        for name, cache in self._lru_caches().items():
            stats = cache.stats()
            for field in ("size", "hits", "misses", "evictions"):
                metrics.gauge(f"lru_{field}", cache=name).set(stats[field])

    def _lru_caches(self) -> dict[str, LRUCache]:
        """Every cache a served request reads through, by gauge label.

        The planner and Codd caches are process-wide, so every broker in
        the process reports the same counts for them. A backend replaced
        by one without the default caches just drops out.
        """
        caches = {
            "broker.results": self.cache,
            "batch.results": getattr(get_backend("batch"), "cache", None),
            "incremental.states": getattr(get_backend("incremental"), "_states", None),
            "codd.grids": getattr(get_codd_backend("vectorized"), "_prepared", None),
            "codd.joins": joins._ANALYSIS_CACHE,
        }
        return {n: c for n, c in caches.items() if isinstance(c, LRUCache)}

    def metrics(self) -> dict:
        """A snapshot of the broker's serving counters (for ``/metrics``).

        The key set is the documented legacy schema (guarded by the
        golden-keys test); values are read back from the typed
        instruments that now own the counts.
        """
        with self._lock:
            inflight = self._inflight
        out = {
            "requests": self._c_requests.value,
            "single_point_requests": self._c_single.value,
            "multi_point_requests": self._c_multi.value,
            "batches_executed": self._c_batches.value,
            "points_executed": self._c_batched_points.value,
            "coalesced_batches": self._c_coalesced.value,
            "max_batch_size": int(self._g_max_batch.value),
            "rejected": self._c_rejected.value,
            "served_from_cache": self._c_cache_served.value,
            "sql_requests": self._c_sql.value,
            "sql_served_from_cache": self._c_sql_cache_served.value,
            "patch_requests": self._c_patches.value,
            "explain_requests": self._c_explain.value,
            "prune": {
                key: counter.value
                for key, counter in self._prune_counters.items()
            },
            "inflight": inflight,
            "window_s": self.window_s,
            "max_batch": self.max_batch,
            "max_pending": self.max_pending,
            "gateway_served": self._c_gateway_served.value,
            "gateway_fallbacks": self._c_gateway_fallbacks.value,
        }
        out["cache"] = self.cache.stats() if self.cache is not None else None
        out["gateway"] = (
            self.gateway.metrics() if self.gateway is not None else None
        )
        return out

    def _on_invalidated(self, name: str) -> None:
        """Registry hook: drop cached results for a replaced/removed name."""
        self._purge(name)
        if self.gateway is not None:
            self.gateway.drop(name)

    def close(self) -> None:
        """Flush every pending micro-batch, stop accepting new work, and
        shut down the gateway's executors (if one is attached)."""
        with self._lock:
            self._closed = True
            pending = list(self._pending.values())
            self._pending.clear()
        for batch in pending:
            batch.timer.cancel()
            self._flush(batch)
        if self.gateway is not None:
            self.gateway.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @contextmanager
    def _admission(self):
        """Hold one in-flight slot for the block, or raise
        :class:`AdmissionError` — the gate ``query``, ``sql`` and ``patch``
        share.

        One admitted request is one in-flight slot until its response
        exists. Every 256th admission also sweeps the result cache:
        expired entries would otherwise stay resident until their exact
        key is looked up again or LRU pressure hits.
        """
        with self._lock:
            if self._closed:
                raise AdmissionError("broker is shut down", retry_after=1.0)
            if self._inflight >= self.max_pending:
                self._c_rejected.inc()
                raise AdmissionError(
                    f"{self._inflight} requests in flight (max_pending="
                    f"{self.max_pending}); shedding load",
                    retry_after=max(self.window_s * 2, 0.01),
                )
            self._inflight += 1
            self._admissions += 1
            sweep = self.cache is not None and self._admissions % 256 == 0
        try:
            if sweep:
                self.cache.purge()
            yield
        finally:
            with self._lock:
                self._inflight -= 1

    def _family_key(
        self,
        entry: DatasetEntry,
        snap: DatasetSnapshot,
        query: CPQuery,
        backend: str,
    ) -> tuple:
        return (
            entry.name,
            snap.fingerprint,
            query.kind,
            query.flavor,
            query.k,
            kernel_cache_key(query.kernel),
            query.pins,
            query.label,
            "" if query.weights is None else _weights_key(query.weights),
            backend,
        )

    def _purge(self, name: str) -> None:
        """Drop every cached result computed from dataset/table ``name``.

        Keys are content-addressed (they embed a fingerprint), so a stale
        entry can never be *served* for new content — but without this
        purge, re-registering or patching a name would leave the old
        content's results resident until TTL or LRU pressure claimed
        them. Query-family keys lead with the dataset name; ``/sql`` keys
        lead with :data:`_SQL_TAG` and carry ``(name, fingerprint)`` pairs
        for every scanned table.
        """
        if self.cache is not None:
            self.cache.discard_where(
                lambda key: any(n == name for n, _ in key[1])
                if key[0] is _SQL_TAG
                else key[0] == name
            )

    def _record_stats(self, stats: dict) -> None:
        """Fold one execution's backend stats into the /metrics counters."""
        if not stats:
            return
        self._prune_counters["executions"].inc()
        if stats.get("prune"):
            self._prune_counters["pruned_executions"].inc()
        for key in _PRUNE_METRIC_KEYS:
            value = stats.get(key)
            if isinstance(value, int):
                self._prune_counters[key].inc(value)

    def _read(
        self,
        entry: DatasetEntry,
        snap: DatasetSnapshot,
        query: CPQuery,
        backend: str,
        coalesce: bool,
        explain: bool | str,
        timeout: float | None,
    ) -> dict:
        """Serve one admitted CP read from its cache slot or a flush."""
        options = ExecutionOptions(
            n_jobs=self.n_jobs,
            # The broker's TTL cache is the service's caching layer; the
            # planner-level LRU is bypassed so expiry is in one place.
            cache=False,
            prepared=snap.prepared,
        )
        family = self._family_key(entry, snap, query, backend)
        key = (*family, _point_key(query.test_X))
        # Explain requests skip the cache *read*: the explain block reports
        # this execution's pruning telemetry, which a cached value lacks.
        # The flush still fills the slot.
        if self.cache is not None and not explain:
            hit = self.cache.get(key, _MISS)
            if hit is not _MISS:
                self._c_cache_served.inc()
                values, backend_name = hit
                return {
                    "values": list(values),
                    "backend": backend_name,
                    "batch_size": query.n_points,
                    "cached": True,
                }
        future: Future = Future()
        request = (query, key, future, current_span().span_id)
        if not coalesce:
            batch = _PendingBatch(entry, snap, backend, options)
            batch.requests.append(request)
            self._flush(batch)
        else:
            with self._lock:
                # Re-check under the lock: a request that passed admission
                # can reach this insertion after close() drained
                # self._pending — inserting here would leave a fresh batch
                # (and its daemon timer) firing into a closed broker, and
                # the request's future would never resolve. Fail it instead.
                if self._closed:
                    raise AdmissionError(
                        "broker closed while the request was being enqueued",
                        retry_after=1.0,
                    )
                batch = self._pending.get(family)
                if batch is None:
                    batch = _PendingBatch(entry, snap, backend, options)
                    if self._running.get(family):
                        # The family is busy: wait up to a window for company.
                        self._pending[family] = batch
                        batch.timer = threading.Timer(
                            self.window_s, self._flush_family, (family, batch)
                        )
                        batch.timer.daemon = True
                        batch.timer.start()
                batch.requests.append(request)
                # An uncontended read has no timer: it flushes at once.
                full = batch.timer is None or len(batch.requests) >= self.max_batch
                if full:
                    self._pending.pop(family, None)
                    self._running[family] = self._running.get(family, 0) + 1
            if full:
                if batch.timer is not None:
                    batch.timer.cancel()
                self._flush_running(family, batch)
        values, result, batch_record = future.result(timeout=timeout)
        # A coalescing flush ran detached (it served many requests,
        # possibly on a timer thread); grafting its span record here
        # renders this request's share of the batch inside its trace.
        current_span().adopt(batch_record)
        response = {
            "values": values,
            "backend": result.plan.backend,
            "batch_size": result.query.n_points,
            "cached": False,
        }
        if explain:
            response["explain"] = {
                "backend": result.plan.backend,
                "reason": result.plan.reason,
                "stats": dict(result.stats),
            }
        return response

    def _flush_family(self, family: tuple, batch: _PendingBatch) -> None:
        """Timer callback: flush ``batch`` unless someone else already did."""
        with self._lock:
            if self._pending.get(family) is not batch:
                return  # flushed by max_batch (or close) already
            del self._pending[family]
            self._running[family] = self._running.get(family, 0) + 1
        self._flush_running(family, batch)

    def _flush_running(self, family: tuple, batch: _PendingBatch) -> None:
        """Flush a coalescing family's ``batch``, counted in
        ``self._running`` (the caller took the count under the lock) so
        the family's next reads know to wait for company."""
        try:
            self._flush(batch)
        finally:
            with self._lock:
                if self._running[family] == 1:
                    del self._running[family]
                else:
                    self._running[family] -= 1

    def _flush(self, batch: _PendingBatch) -> None:
        """Execute ``batch`` as one planner call and resolve its requests.

        Every CP read executes here: a batch of one runs its request's
        query as built, a coalesced batch the same query over every
        request's points stacked in arrival order. Each request's slice of
        the values fills its cache slot and resolves its future.
        """
        requests = batch.requests
        # A batch without a window timer is one direct read (a matrix, an
        # explain request, or a single point of an idle family): it runs
        # on the caller's thread and nests under that request's span. A
        # coalescing flush is detached — it may run on a timer thread, and
        # even on a caller's thread it serves every coalesced request, so
        # nesting it under one request's span would mis-attribute it.
        # Waiters adopt its record from their future results instead.
        direct = batch.timer is None
        try:
            queries = [query for query, _, _, _ in requests]
            query = queries[0]
            if len(queries) > 1:
                query = replace(query, test_X=np.vstack([q.test_X for q in queries]))
            with trace_span(
                "broker.batch", tracer=self.obs.tracer, detached=not direct
            ) as bspan:
                bspan.set(
                    dataset=batch.entry.name,
                    n_points=query.n_points,
                    coalesced=len(requests) > 1,
                    request_span_ids=[sid for *_, sid in requests if sid],
                )
                result = self._execute(batch, query)
                bspan.set(backend=result.plan.backend)
            batch_record = None if direct else bspan.record()
            self._record_stats(result.stats)
            self._c_batches.inc()
            self._c_batched_points.inc(query.n_points)
            self._g_max_batch.set_max(query.n_points)
            self._h_batch_size.observe(query.n_points)
            if len(requests) > 1:
                self._c_coalesced.inc()
            start = 0
            for request_query, key, future, _ in requests:
                stop = start + request_query.n_points
                values = list(result.values[start:stop])
                start = stop
                if self.cache is not None:
                    self.cache.put(key, (tuple(values), result.plan.backend))
                future.set_result((values, result, batch_record))
        except BaseException as exc:  # noqa: BLE001 — futures carry it to callers
            for _, _, future, _ in requests:
                if not future.done():
                    future.set_exception(exc)

    def _execute(self, batch: _PendingBatch, query: CPQuery):
        """Run ``query`` on the gateway when one serves it, else locally.

        The gateway raises
        :class:`~repro.service.gateway.GatewayUnavailable` when it cannot
        serve exactly right now (executor loss beyond the retry budget, a
        snapshot racing a redistribute); the broker answers from the local
        planner instead — same bit-identical values, one process — and
        counts the fallback. Any other error propagates: it is a bug, not
        a degradation.
        """
        from repro.service.gateway import GatewayUnavailable

        backend = batch.backend
        with trace_span(
            "planner.route", requested_backend=backend, dataset=batch.entry.name
        ) as span:
            if self.gateway is not None and backend in ("auto", "gateway"):
                try:
                    result = self.gateway.execute_query(
                        batch.entry.name,
                        query,
                        fingerprint=batch.snap.fingerprint,
                        options=batch.options,
                    )
                except GatewayUnavailable as exc:
                    self._c_gateway_fallbacks.inc()
                    span.set(fallback_reason=str(exc) or "gateway unavailable")
                else:
                    self._c_gateway_served.inc()
                    batch.entry.set_partitioning(
                        self.gateway.describe_dataset(batch.entry.name)
                    )
                    span.set(served_by="gateway")
                    return result
            if backend == "gateway":
                # No gateway attached (single-process mode) or it declined:
                # the local planner serves the same bit-identical answer.
                backend = "auto"
            span.set(served_by="local")
            return execute_query(query, backend=backend, options=batch.options)
