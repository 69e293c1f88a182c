"""Per-layer timing for the traced run.

The service's own ``explain="trace"`` path is not used: the broker answers
explained requests outside micro-batching and without reading its cache,
so it would time a different path. Instead :class:`LayerTracer` wraps the
layers' public functions in every ``repro`` module that holds a reference
to them (``from x import f`` copies the binding, so a function is patched
where it is called, not only where it is defined) and records spans
``(id, parent, layer, start, end, op id, extra)`` in memory.

Parents come from a per-thread stack. A span that opens on a thread with
an empty stack (an HTTP handler thread, the broker's micro-batch timer
thread) adopts the most recently opened span that is still open: with one
closed-loop client that is exactly the span waiting for it.

Every ``*_ms`` layer metric is that layer's *self* time (its spans'
durations minus their wrapped children's) summed over the timed sequence
and divided by the number of timed operations, so the layer metrics plus
``trace.unattributed_ms`` add up to the mean operation latency.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

from repro.cleaning.sequential import CleaningSession
from repro.codd import aggregate, engine, joins, optimizer, sql
from repro.core import deltas, planner, pruning, scan_kernels
from repro.service import broker, gateway, registry, wire

#: (owner, attribute, layer). Owners that are classes get the method
#: patched on the class; module-level functions get patched in every
#: loaded ``repro`` module bound to the same function object.
WRAPPED = (
    (wire, "decode_values", "wire.client_decode"),
    (wire, "decode_relation", "wire.client_decode"),
    (wire, "encode_values", "wire.server_encode"),
    (wire, "encode_relation", "wire.server_encode"),
    (broker.QueryBroker, "query", "broker"),
    (broker.QueryBroker, "sql", "broker"),
    (broker.QueryBroker, "patch", "broker"),
    (registry.DatasetEntry, "clean_step", "registry.clean_step"),
    (CleaningSession, "checkpoint", "registry.checkpoint"),
    (registry.CoddTableEntry, "apply_fix", "registry.codd_fix"),
    (planner, "execute_query", "planner.execute"),
    (planner, "plan_query", "planner.plan"),
    (gateway.Gateway, "execute_query", "gateway.execute"),
    (pruning, "certificate_from_intervals", "pruning.certificate"),
    (pruning, "prune_mask", "pruning.certificate"),
    (scan_kernels, "decision_winners", "scan_kernels.decision"),
    (scan_kernels, "build_scan_arrays", "scan_kernels.decision"),
    (deltas.DeltaMaintainedState, "apply", "deltas.apply"),
    (sql, "parse_sql", "codd.parse"),
    (optimizer, "optimize_query", "codd.optimize"),
    (joins, "composite_analysis", "codd.join"),
    (joins, "composite_answer", "codd.join"),
    (aggregate, "prepare_aggregation", "codd.aggregate"),
    (aggregate, "aggregate_answers", "codd.aggregate"),
    (engine, "answer_query", "codd.answer"),
)

#: Layer → reported metric. Layers not listed (the broker's own
#: bookkeeping, the checkpoint's, the Codd planner) count as unattributed.
LAYER_METRICS = {
    "op": "http.self_ms",
    "wire.client_decode": "wire.client_decode_ms",
    "wire.server_encode": "wire.server_encode_ms",
    "planner.plan": "planner.plan_ms",
    "planner.execute": "planner.execute_ms",
    "gateway.execute": "gateway.execute_ms",
    "pruning.certificate": "pruning.certificate_ms",
    "scan_kernels.decision": "scan_kernels.decision_ms",
    "deltas.apply": "deltas.apply_ms",
    "registry.clean_step": "registry.clean_step_self_ms",
    "registry.codd_fix": "registry.codd_fix_ms",
    "codd.parse": "codd.parse_ms",
    "codd.optimize": "codd.optimize_ms",
    "codd.join": "codd.join_ms",
    "codd.aggregate": "codd.aggregate_ms",
}

BACKENDS = ("sequential", "batch", "incremental", "sharded", "gateway")

#: Every per-layer metric the traced run reports, with its unit.
LAYER_UNITS = {
    "broker.window_wait_ms": "ms",
    "broker.cache_hit_ratio": "ratio",
    "broker.batch_points": "count",
    "planner.plan_ms": "ms",
    "planner.execute_ms": "ms",
    **{f"planner.backend_share.{name}": "ratio" for name in BACKENDS},
    "planner.regret": "ratio",
    "pruning.certificate_ms": "ms",
    "pruning.rows_pruned_ratio": "ratio",
    "scan_kernels.decision_ms": "ms",
    "scan_kernels.early_terminated_ratio": "ratio",
    "registry.clean_step_self_ms": "ms",
    "deltas.apply_ms": "ms",
    "deltas.recomputed_per_write": "count",
    "gateway.execute_ms": "ms",
    "gateway.fallbacks": "count",
    "codd.parse_ms": "ms",
    "codd.optimize_ms": "ms",
    "codd.join_ms": "ms",
    "codd.aggregate_ms": "ms",
    "codd.naive_declines": "count",
    "registry.codd_fix_ms": "ms",
    "http.self_ms": "ms",
    "wire.client_decode_ms": "ms",
    "wire.server_encode_ms": "ms",
    "trace.unattributed_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "diag.calibration_s": "s",
    "diag.cpu_per_wall": "ratio",
}


def _result_backend(result):
    plan = getattr(result, "plan", None)
    return getattr(plan, "backend", None)


#: The fields of one span record, in order.
SPAN_FIELDS = ("id", "parent", "layer", "start", "end", "op", "backend")


class LayerTracer:
    """Wraps the layer functions and records one span per call."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # one list per span, see SPAN_FIELDS
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._open: list[int] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def _begin(self, layer: str) -> list:
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            parent = stack[-1] if stack else (self._open[-1] if self._open else None)
            record = [next(self._ids), parent, layer, time.perf_counter(), None, self.op, None]
            self._open.append(record[0])
            self.spans.append(record)
        stack.append(record[0])
        return record

    def _end(self, record: list) -> None:
        record[4] = time.perf_counter()
        self._local.stack.pop()
        with self._lock:
            self._open.remove(record[0])

    def begin_op(self, op_id: int) -> list:
        self.op = op_id
        return self._begin("op")

    def end_op(self, record: list) -> None:
        self._end(record)
        self.op = None

    # -- patching ------------------------------------------------------
    def _wrapper(self, original, layer: str):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            record = tracer._begin(layer)
            try:
                result = original(*args, **kwargs)
                record[6] = _result_backend(result)
                return result
            finally:
                tracer._end(record)

        return traced

    def install(self) -> None:
        for owner, attr, layer in WRAPPED:
            original = getattr(owner, attr)
            if isinstance(owner, type):
                targets = [owner]
            else:
                targets = [
                    module
                    for name, module in list(sys.modules.items())
                    if name.startswith("repro") and getattr(module, attr, None) is original
                ]
            wrapped = self._wrapper(original, layer)
            for target in targets:
                self._patches.append((target, attr, original))
                setattr(target, attr, wrapped)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- reduction -----------------------------------------------------
    def layer_metrics(
        self, op_classes: dict[int, str], single_point_reads: bool
    ) -> dict[str, float]:
        """Per-op self time per layer, window wait, backend shares.

        ``op_classes`` maps each timed op id to its class (``read`` /
        ``write``); the window wait is measured on reads when they are
        single points (the only requests the broker micro-batches).
        """
        spans = [s for s in self.spans if s[5] in op_classes and s[4] is not None]
        n_ops = len(op_classes)
        child_time: dict[int, float] = defaultdict(float)
        for span in spans:
            if span[1] is not None:
                child_time[span[1]] += span[4] - span[3]
        self_ms: dict[str, float] = defaultdict(float)
        wall_ms = 0.0
        for span in spans:
            duration = span[4] - span[3]
            self_ms[span[2]] += 1000.0 * (duration - child_time[span[0]])
            if span[2] == "op":
                wall_ms += 1000.0 * duration
        # Window wait: broker entry -> first planner/gateway call of each
        # executed single-point query.
        broker_start: dict[int, float] = {}
        first_call: dict[int, float] = {}
        backends: list[str] = []
        for span in spans:
            op = span[5]
            if span[2] == "broker" and op not in broker_start:
                broker_start[op] = span[3]
            elif span[2] in ("planner.execute", "gateway.execute"):
                first_call.setdefault(op, span[3])
                if span[6] is not None:
                    backends.append(span[6])
        wait_ms = sum(
            1000.0 * (first_call[op] - broker_start[op])
            for op, cls in op_classes.items()
            if single_point_reads and cls == "read"
            and op in first_call and op in broker_start
        )
        out = {
            metric: self_ms.get(layer, 0.0) / n_ops
            for layer, metric in LAYER_METRICS.items()
        }
        out["broker.window_wait_ms"] = wait_ms / n_ops
        # The wait is carved out of the broker's (unreported) self time.
        out["trace.unattributed_ms"] = wall_ms / n_ops - sum(out.values())
        for name in BACKENDS:
            out[f"planner.backend_share.{name}"] = (
                backends.count(name) / len(backends) if backends else 0.0
            )
        out["codd.naive_declines"] = float(
            sum(1 for s in spans if s[2] == "codd.answer" and s[6] == "naive")
        )
        return out

    def dump(self, path) -> None:
        """Write the spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")


def planner_regret(samples: list) -> float:
    """Median over ``samples`` of chosen backend time ÷ fastest capable.

    ``samples`` are ``(query, options)`` pairs replayed in-process, each a
    query the service has not answered in this process. Every capable
    backend runs every query once: a repeat would be served from that
    backend's warm per-query state, which a new request never finds. The
    first sample only warms one-time costs (imports, pools) and is not
    scored.
    """
    if len(samples) < 2:
        return 0.0
    for query, options in samples[:1]:
        for backend in planner.capable_backends(query):
            planner.execute_query(query, backend=backend.name, options=options)
    ratios = []
    for query, options in samples[1:]:
        chosen = planner.plan_query(query, "auto", options).backend
        times = {}
        for backend in planner.capable_backends(query):
            start = time.perf_counter()
            planner.execute_query(query, backend=backend.name, options=options)
            times[backend.name] = time.perf_counter() - start
        ratios.append(times[chosen] / min(times.values()))
    return float(np.median(ratios))
