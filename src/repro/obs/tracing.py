"""Request tracing: span trees across threads, processes, and the pipe.

A *span* is one timed unit of work with structured attributes; spans
nest into a tree that reconstructs where a request actually went —
``http.request`` → ``broker.query`` → ``planner.execute_query`` →
``gateway.execute`` → per-executor ``executor.partition`` leaves. The
design constraints, in order:

1. **Zero-cost when off.** ``trace_span()`` returns the shared
   :data:`NULL_SPAN` singleton when no tracer is active, so
   instrumented code paths pay one attribute lookup and a falsy check —
   nothing else. The ≤5 % overhead budget in ``benchmarks/bench_obs.py``
   leans on this.
2. **Thread-hopping requests.** The broker coalesces many requests into
   one batch executed on a timer thread, and the gateway gathers from
   executor processes on worker threads. Propagation is therefore
   explicit where it must be (``parent=``, ``detached=True``) and
   thread-local (:func:`current_span`) only within one thread.
3. **Process boundaries.** Executors cannot share Span objects; they
   ship plain-dict span *records* back in pipe replies, and the gateway
   re-parents them with :meth:`Span.adopt`, restamping trace ids so the
   distributed query renders as one coherent tree.

Finished root spans are published to the :class:`Tracer`'s bounded ring
buffer (served at ``/debug/traces``) and, when they exceed the
``--slow-ms`` threshold, to the slow-query log as one JSON line.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from collections import deque
from contextlib import contextmanager

__all__ = [
    "NULL_SPAN",
    "Span",
    "TraceBuffer",
    "Tracer",
    "current_span",
    "new_span_id",
    "trace_span",
]

_local = threading.local()


def _reseed_span_ids() -> None:
    """Start this process's ids at a fresh random 64-bit offset."""
    global _span_ids
    _span_ids = itertools.count(int.from_bytes(os.urandom(8), "big"))


_reseed_span_ids()
# A forked child (an executor) would otherwise repeat its parent's ids.
os.register_at_fork(after_in_child=_reseed_span_ids)


def new_span_id() -> str:
    """A 16-hex-digit id: a random per-process offset plus a counter, so
    ids never repeat within a process and two processes' runs of ids
    overlap only with odds of about (ids issued) / 2**63. No syscall."""
    return f"{next(_span_ids) & 0xFFFFFFFFFFFFFFFF:016x}"


def current_span():
    """The innermost live span on *this* thread, or :data:`NULL_SPAN`.

    Always safe to call from instrumented code: when tracing is off (or
    the caller is on a thread with no active span) the null span absorbs
    ``set()`` / ``adopt()`` calls without allocating.
    """
    return getattr(_local, "span", None) or NULL_SPAN


class Span:
    """One timed node in a trace tree.

    Wall-clock start comes from ``time.time()`` (humans correlate traces
    with logs); durations come from ``time.perf_counter()`` (monotonic,
    immune to clock steps). Child lists are lock-guarded because gather
    threads attach children to a parent span concurrently.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent",
        "attributes",
        "children",
        "start_time",
        "duration_s",
        "status",
        "_tracer",
        "_started",
        "_lock",
        "_previous",
    )

    def __init__(self, name, tracer=None, parent=None, **attributes):
        self.name = name
        self.parent = parent
        self.trace_id = parent.trace_id if parent is not None else new_span_id()
        self.span_id = new_span_id()
        self.attributes = dict(attributes)
        self.children: list[Span] = []
        self.start_time = time.time()
        self._started = time.perf_counter()
        self.duration_s: float | None = None
        self.status = "ok"
        self._tracer = tracer if tracer is not None else (
            parent._tracer if parent is not None else None
        )
        self._lock = threading.Lock()
        self._previous = None
        if parent is not None:
            with parent._lock:
                parent.children.append(self)

    # -- context manager ------------------------------------------------
    def __enter__(self):
        self._previous = getattr(_local, "span", None)
        _local.span = self
        return self

    def __exit__(self, exc_type, exc, tb):
        self.duration_s = max(time.perf_counter() - self._started, 0.0)
        if exc_type is not None:
            self.status = "error"
            self.attributes.setdefault("error", exc_type.__name__)
        _local.span = self._previous
        self._previous = None
        if self.parent is None and self._tracer is not None:
            self._tracer.publish(self)
        return False

    def __bool__(self) -> bool:
        return True

    # -- mutation -------------------------------------------------------
    def set(self, **attributes) -> "Span":
        """Attach structured attributes (cache_hit, n_pruned, ...)."""
        self.attributes.update(attributes)
        return self

    def adopt(self, record) -> None:
        """Graft a serialized span record (from another process) under
        this span, restamping trace ids so the tree stays consistent."""
        if not record:
            return
        with self._lock:
            self.children.append(
                _AdoptedRecord(self.trace_id, self.span_id, record)
            )

    def root(self) -> "Span":
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    # -- serialization --------------------------------------------------
    def record(self) -> dict:
        """A JSON-safe dict for the ring buffer / explain=trace payloads.

        Live (unfinished) spans serialize with their running duration and
        ``in_flight: true`` — ``explain=trace`` renders the tree while the
        HTTP root span is still open.
        """
        duration = self.duration_s
        in_flight = duration is None
        if in_flight:
            duration = max(time.perf_counter() - self._started, 0.0)
        with self._lock:
            children = list(self.children)
        out = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent.span_id if self.parent is not None else None,
            "name": self.name,
            "start_time": self.start_time,
            "duration_ms": duration * 1000.0,
            "status": self.status,
            "attributes": dict(self.attributes),
            "children": [child.record() for child in children],
        }
        if in_flight:
            out["in_flight"] = True
        return out


class _AdoptedRecord:
    """A foreign span record re-parented into a live tree.

    Holds the original dict and restamps ids lazily at serialization, so
    adoption itself is O(1) under the parent's child lock.
    """

    __slots__ = ("trace_id", "parent_id", "_record")

    def __init__(self, trace_id, parent_id, record):
        self.trace_id = trace_id
        self.parent_id = parent_id
        self._record = record

    def record(self) -> dict:
        return self._restamp(self._record, self.parent_id)

    def _restamp(self, record, parent_id) -> dict:
        out = dict(record)
        out["trace_id"] = self.trace_id
        out["parent_id"] = parent_id
        span_id = out.get("span_id") or new_span_id()
        out["span_id"] = span_id
        out["children"] = [
            self._restamp(child, span_id) for child in record.get("children", ())
        ]
        return out


class _NullSpan:
    """The do-nothing span returned when tracing is disabled."""

    __slots__ = ()

    trace_id = None
    span_id = None
    parent = None
    duration_s = None
    status = "ok"

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def __bool__(self) -> bool:
        return False

    def set(self, **attributes) -> "_NullSpan":
        return self

    def adopt(self, record) -> None:
        return None

    def root(self) -> "_NullSpan":
        return self

    def record(self) -> None:
        return None


NULL_SPAN = _NullSpan()


def trace_span(name, tracer=None, parent=None, detached=False, **attributes):
    """Open a span, or :data:`NULL_SPAN` if nothing is listening.

    Parent resolution: an explicit ``parent=`` wins (cross-thread
    attachment, e.g. gateway gather threads); otherwise the calling
    thread's current span, unless ``detached=True`` starts a fresh root
    (broker batch flushes, which serve many unrelated requests). A span
    is only created when there is a parent to attach to or an enabled
    tracer to publish to — otherwise instrumentation is free.
    """
    if parent is None and not detached:
        parent = getattr(_local, "span", None)
        if parent is NULL_SPAN:
            parent = None
    if parent is None or isinstance(parent, _NullSpan):
        if tracer is None or not tracer.enabled:
            return NULL_SPAN
        return Span(name, tracer=tracer, **attributes)
    return Span(name, tracer=tracer, parent=parent, **attributes)


class TraceBuffer:
    """Bounded ring of finished root-span records, newest last."""

    def __init__(self, maxlen: int = 256) -> None:
        self._lock = threading.Lock()
        self._records: deque = deque(maxlen=maxlen)

    def add(self, record: dict) -> None:
        with self._lock:
            self._records.append(record)

    def list(self, limit: int | None = None) -> list[dict]:
        with self._lock:
            records = list(self._records)
        if limit is not None and limit >= 0:
            records = records[-limit:]
        return records

    def get(self, trace_id: str) -> dict | None:
        with self._lock:
            for record in reversed(self._records):
                if record.get("trace_id") == trace_id:
                    return record
        return None

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


class Tracer:
    """Publication endpoint for finished traces.

    Owns the ring buffer behind ``/debug/traces`` and the slow-query
    log: any published root span whose duration crosses ``slow_s``
    emits exactly one structured JSON line to ``slow_sink``.
    """

    def __init__(
        self,
        enabled: bool = True,
        buffer_size: int = 256,
        slow_s: float | None = None,
        slow_sink=None,
    ) -> None:
        self.enabled = bool(enabled)
        self.buffer = TraceBuffer(maxlen=buffer_size)
        self.slow_s = slow_s
        self.slow_sink = slow_sink
        self._lock = threading.Lock()
        self._n_published = 0
        self._n_slow = 0

    def span(self, name, **attributes):
        """A root span bound to this tracer (ignores thread-local state)."""
        return trace_span(name, tracer=self, detached=True, **attributes)

    def publish(self, span: Span) -> None:
        if not self.enabled:
            return
        record = span.record()
        self.buffer.add(record)
        duration_s = (span.duration_s or 0.0)
        slow = self.slow_s is not None and duration_s >= self.slow_s
        with self._lock:
            self._n_published += 1
            if slow:
                self._n_slow += 1
        if slow:
            self._emit_slow(record)

    def _emit_slow(self, record: dict) -> None:
        sink = self.slow_sink if self.slow_sink is not None else sys.stderr
        scalars = {
            key: value
            for key, value in record["attributes"].items()
            if isinstance(value, (str, int, float, bool)) or value is None
        }
        line = json.dumps(
            {
                "slow_query": True,
                "trace_id": record["trace_id"],
                "name": record["name"],
                "duration_ms": round(record["duration_ms"], 3),
                "threshold_ms": self.slow_s * 1000.0,
                "status": record["status"],
                "attributes": scalars,
            },
            sort_keys=True,
        )
        try:
            print(line, file=sink, flush=True)
        except (OSError, ValueError):
            pass  # a closed sink must never take down request handling

    def stats(self) -> dict:
        with self._lock:
            published, slow = self._n_published, self._n_slow
        return {
            "enabled": self.enabled,
            "buffered": len(self.buffer),
            "published": published,
            "slow_queries": slow,
            "slow_threshold_ms": (
                self.slow_s * 1000.0 if self.slow_s is not None else None
            ),
        }
