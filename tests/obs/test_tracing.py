"""repro.obs.tracing: span trees, propagation, adoption, the ring buffer."""

from __future__ import annotations

import io
import json
import os
import threading

from repro.obs import (
    NULL_SPAN,
    Observability,
    TraceBuffer,
    Tracer,
    current_span,
    new_span_id,
    trace_span,
)


# ---------------------------------------------------------------------------
# Span basics
# ---------------------------------------------------------------------------


def test_disabled_tracer_yields_null_span_for_free():
    tracer = Tracer(enabled=False)
    with trace_span("op", tracer=tracer) as span:
        assert span is NULL_SPAN
        assert not span
        span.set(anything="goes")
        span.adopt({"name": "ignored"})
    assert span.record() is None
    assert len(tracer.buffer) == 0


def test_no_tracer_no_parent_is_null():
    assert trace_span("orphan") is NULL_SPAN
    assert current_span() is NULL_SPAN


def test_root_span_publishes_to_buffer():
    tracer = Tracer()
    with trace_span("root", tracer=tracer, flavor="q2") as span:
        span.set(n_points=4)
    assert tracer.stats()["published"] == 1
    (record,) = tracer.buffer.list()
    assert record["name"] == "root"
    assert record["trace_id"] == span.trace_id
    assert record["attributes"] == {"flavor": "q2", "n_points": 4}
    assert record["duration_ms"] >= 0.0
    assert record["status"] == "ok"
    assert record["parent_id"] is None


def test_nesting_builds_a_tree_with_one_trace_id():
    tracer = Tracer()
    with trace_span("a", tracer=tracer) as a:
        assert current_span() is a
        with trace_span("b") as b:
            with trace_span("c") as c:
                assert c.trace_id == b.trace_id == a.trace_id
        assert current_span() is a
    record = tracer.buffer.get(a.trace_id)
    assert [child["name"] for child in record["children"]] == ["b"]
    assert [g["name"] for g in record["children"][0]["children"]] == ["c"]
    assert record["children"][0]["parent_id"] == record["span_id"]


def test_exception_marks_error_status():
    tracer = Tracer()
    try:
        with trace_span("boom", tracer=tracer):
            raise RuntimeError("kaput")
    except RuntimeError:
        pass
    (record,) = tracer.buffer.list()
    assert record["status"] == "error"
    assert record["attributes"]["error"] == "RuntimeError"


def test_detached_span_starts_a_fresh_root():
    tracer = Tracer()
    with trace_span("outer", tracer=tracer) as outer:
        with trace_span("batch", tracer=tracer, detached=True) as batch:
            assert batch.trace_id != outer.trace_id
            assert batch.parent is None
    assert {r["name"] for r in tracer.buffer.list()} == {"outer", "batch"}


def test_explicit_parent_wins_across_threads():
    tracer = Tracer()
    with trace_span("scatter", tracer=tracer) as scatter:
        seen = {}

        def gather():
            with trace_span("gather", parent=scatter) as g:
                seen["trace_id"] = g.trace_id

        t = threading.Thread(target=gather)
        t.start()
        t.join()
    assert seen["trace_id"] == scatter.trace_id
    record = tracer.buffer.get(scatter.trace_id)
    assert [c["name"] for c in record["children"]] == ["gather"]


def test_adopt_restamps_foreign_records():
    tracer = Tracer()
    foreign = {
        "name": "executor.partition",
        "start_time": 1.0,
        "duration_ms": 2.5,
        "status": "ok",
        "attributes": {"partition": 3},
        "children": [
            {"name": "leaf", "duration_ms": 0.5, "children": []},
        ],
    }
    with trace_span("gather", tracer=tracer) as span:
        span.adopt(foreign)
        span.adopt(None)  # a no-op, never raises
    record = tracer.buffer.get(span.trace_id)
    (child,) = record["children"]
    assert child["name"] == "executor.partition"
    assert child["trace_id"] == span.trace_id
    assert child["parent_id"] == record["span_id"]
    assert child["span_id"]
    (leaf,) = child["children"]
    assert leaf["trace_id"] == span.trace_id
    assert leaf["parent_id"] == child["span_id"]


def test_live_record_marks_in_flight():
    tracer = Tracer()
    with trace_span("open", tracer=tracer) as span:
        live = span.record()
        assert live["in_flight"] is True
        assert live["duration_ms"] >= 0.0
    done = tracer.buffer.get(span.trace_id)
    assert "in_flight" not in done


# ---------------------------------------------------------------------------
# Tracer: slow log + stats
# ---------------------------------------------------------------------------


def test_slow_query_log_emits_one_json_line():
    sink = io.StringIO()
    tracer = Tracer(slow_s=0.0, slow_sink=sink)
    with trace_span("slowpoke", tracer=tracer, dataset="d") as span:
        span.set(unserializable=object())  # dropped from the log line
    line = sink.getvalue().strip()
    payload = json.loads(line)
    assert payload["slow_query"] is True
    assert payload["name"] == "slowpoke"
    assert payload["trace_id"] == span.trace_id
    assert payload["attributes"] == {"dataset": "d"}
    assert tracer.stats()["slow_queries"] == 1


def test_fast_queries_skip_the_slow_log():
    sink = io.StringIO()
    tracer = Tracer(slow_s=3600.0, slow_sink=sink)
    with trace_span("quick", tracer=tracer):
        pass
    assert sink.getvalue() == ""
    assert tracer.stats()["slow_queries"] == 0


def test_closed_sink_never_raises():
    sink = io.StringIO()
    sink.close()
    tracer = Tracer(slow_s=0.0, slow_sink=sink)
    with trace_span("doomed", tracer=tracer):
        pass
    assert tracer.stats()["published"] == 1


# ---------------------------------------------------------------------------
# TraceBuffer
# ---------------------------------------------------------------------------


def test_buffer_is_a_bounded_ring():
    buffer = TraceBuffer(maxlen=3)
    for i in range(5):
        buffer.add({"trace_id": f"t{i}"})
    assert len(buffer) == 3
    assert [r["trace_id"] for r in buffer.list()] == ["t2", "t3", "t4"]
    assert [r["trace_id"] for r in buffer.list(limit=2)] == ["t3", "t4"]
    assert buffer.get("t4") == {"trace_id": "t4"}
    assert buffer.get("t0") is None


def test_buffer_concurrent_hammer():
    buffer = TraceBuffer(maxlen=64)
    n_threads, n_iter = 8, 500
    barrier = threading.Barrier(n_threads)

    def work(tid):
        barrier.wait()
        for i in range(n_iter):
            buffer.add({"trace_id": f"{tid}-{i}"})
            buffer.list(limit=5)
            buffer.get(f"{tid}-{i}")

    threads = [threading.Thread(target=work, args=(t,)) for t in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(buffer) == 64


def test_concurrent_spans_on_one_parent():
    tracer = Tracer()
    with trace_span("parent", tracer=tracer) as parent:
        barrier = threading.Barrier(8)

        def child(i):
            barrier.wait()
            with trace_span(f"child-{i}", parent=parent):
                pass

        threads = [threading.Thread(target=child, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    record = tracer.buffer.get(parent.trace_id)
    assert len(record["children"]) == 8
    assert {c["trace_id"] for c in record["children"]} == {parent.trace_id}


# ---------------------------------------------------------------------------
# Observability bundle
# ---------------------------------------------------------------------------


def test_observability_snapshot_combines_metrics_and_tracing():
    obs = Observability(trace_buffer_size=4)
    obs.metrics.counter("x_total").inc()
    with obs.tracer.span("op"):
        pass
    snap = obs.snapshot()
    assert snap["counters"] == {"x_total": 1}
    assert snap["tracing"]["published"] == 1
    assert snap["tracing"]["enabled"] is True


def test_observability_disabled_keeps_metrics_on():
    obs = Observability(enabled=False)
    assert not obs.enabled
    obs.metrics.counter("still_counts_total").inc()
    with obs.tracer.span("op") as span:
        assert span is NULL_SPAN
    snap = obs.snapshot()
    assert snap["counters"]["still_counts_total"] == 1
    assert snap["tracing"]["published"] == 0


# ---------------------------------------------------------------------------
# Span ids
# ---------------------------------------------------------------------------


def test_span_ids_are_16_hex_digits_and_never_repeat():
    ids = [new_span_id() for _ in range(10_000)]
    assert all(len(span_id) == 16 and int(span_id, 16) >= 0 for span_id in ids)
    assert len(set(ids)) == len(ids)


def test_span_ids_stay_unique_across_a_fork():
    """A forked child (an executor process) draws from a fresh offset, not
    from the continuation of its parent's counter."""
    before = [new_span_id() for _ in range(1000)]
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: report its ids, then leave without cleanup
        try:
            with os.fdopen(write, "w") as pipe:
                pipe.write(" ".join(new_span_id() for _ in range(1000)))
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read) as pipe:
        child = pipe.read().split()
    os.waitpid(pid, 0)
    after = [new_span_id() for _ in range(1000)]
    ids = before + child + after
    assert len(child) == 1000
    assert len(set(ids)) == len(ids)
