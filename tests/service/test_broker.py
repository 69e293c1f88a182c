"""QueryBroker: micro-batching, admission control, the TTL result cache.

The cache class itself is tested in ``tests/utils/test_lru.py``.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.dataset import IncompleteDataset
from repro.core.deltas import CellRepair
from repro.core.planner import ExecutionOptions, PlanError, execute_query, make_query
from repro.service.broker import AdmissionError, QueryBroker
from repro.service.registry import DatasetRegistry


def small_dataset() -> IncompleteDataset:
    rng = np.random.default_rng(3)
    sets = [rng.normal(size=(m, 2)) for m in (1, 3, 2, 2, 1, 3)]
    return IncompleteDataset(sets, [0, 1, 0, 1, 1, 0])


@pytest.fixture
def registry() -> DatasetRegistry:
    registry = DatasetRegistry()
    registry.register("d", small_dataset(), k=2)
    return registry


# ---------------------------------------------------------------------------
# Micro-batching
# ---------------------------------------------------------------------------


class TestMicroBatching:
    def test_concurrent_singles_coalesce(self, registry, hold_first_flush):
        broker = QueryBroker(registry, window_s=0.05, max_batch=64, cache=False)
        gate = hold_first_flush(broker)
        rng = np.random.default_rng(0)
        points = rng.normal(size=(12, 2))
        results: dict[int, dict] = {}

        def ask(index: int) -> None:
            results[index] = broker.query("d", points[index], kind="counts")

        threads = [threading.Thread(target=ask, args=(i,)) for i in range(12)]
        # The first read's flush is held, so the other eleven find the
        # family busy and queue up behind it.
        threads[0].start()
        assert gate.entered.wait(timeout=5.0)
        for thread in threads[1:]:
            thread.start()
        for thread in threads[1:]:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        gate.release()
        threads[0].join(timeout=10.0)
        assert not threads[0].is_alive()
        metrics = broker.metrics()
        assert metrics["requests"] == 12
        assert metrics["batches_executed"] < 12  # some coalescing happened
        assert metrics["coalesced_batches"] >= 1
        assert any(results[i]["batch_size"] > 1 for i in results)
        broker.close()

    def test_max_batch_flushes_without_waiting_for_window(
        self, registry, hold_first_flush
    ):
        broker = QueryBroker(registry, window_s=30.0, max_batch=2, cache=False)
        gate = hold_first_flush(broker)
        points = np.random.default_rng(1).normal(size=(3, 2))
        results: dict[int, dict] = {}

        def ask(index: int) -> None:
            results[index] = broker.query("d", points[index], kind="counts")

        # A flush in flight makes the family busy, so the next two reads
        # open a batch with a window instead of running inline.
        holder = threading.Thread(target=ask, args=(2,))
        holder.start()
        assert gate.entered.wait(timeout=5.0)
        threads = [threading.Thread(target=ask, args=(i,)) for i in range(2)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        # A 30s window would have blocked; the max_batch flush must not.
        assert time.perf_counter() - start < 5.0
        assert {results[i]["batch_size"] for i in (0, 1)} == {2}
        gate.release()
        holder.join(timeout=10.0)
        assert not holder.is_alive()
        assert results[2]["batch_size"] == 1
        broker.close()

    def test_a_lone_read_starts_no_timer(self, registry, monkeypatch):
        import repro.service.broker as broker_module

        def no_timer(*args, **kwargs):
            raise AssertionError("a lone read started a window timer")

        monkeypatch.setattr(broker_module.threading, "Timer", no_timer)
        broker = QueryBroker(registry, window_s=30.0, max_batch=16, cache=False)
        start = time.perf_counter()
        for point in np.random.default_rng(7).normal(size=(3, 2)):
            response = broker.query("d", point, kind="counts")
            assert response["batch_size"] == 1 and not response["cached"]
        assert time.perf_counter() - start < 5.0
        assert not broker._pending and not broker._running
        metrics = broker.metrics()
        assert metrics["batches_executed"] == 3
        assert metrics["coalesced_batches"] == 0
        broker.close()

    def test_reads_during_a_running_flush_coalesce(self, registry, hold_first_flush):
        entry = registry.get("d")
        broker = QueryBroker(registry, window_s=30.0, max_batch=4, cache=False)
        gate = hold_first_flush(broker)
        points = np.random.default_rng(8).normal(size=(5, 2))
        results: dict[int, dict] = {}

        def ask(index: int) -> None:
            results[index] = broker.query("d", points[index], kind="counts")

        holder = threading.Thread(target=ask, args=(4,))
        holder.start()
        assert gate.entered.wait(timeout=5.0)
        threads = [threading.Thread(target=ask, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        gate.release()
        holder.join(timeout=10.0)
        assert not holder.is_alive()
        # The four reads queued behind the held flush ran as one batch.
        assert [results[i]["batch_size"] for i in range(4)] == [4] * 4
        assert results[4]["batch_size"] == 1
        metrics = broker.metrics()
        assert metrics["batches_executed"] == 2
        assert metrics["coalesced_batches"] == 1
        assert not broker._pending and not broker._running
        direct = execute_query(
            make_query(entry.dataset, points, kind="counts", k=entry.k),
            options=ExecutionOptions(cache=False),
        ).values
        assert [results[i]["values"][0] for i in range(5)] == direct
        broker.close()

    def test_batched_values_match_direct_execution(self, registry):
        entry = registry.get("d")
        broker = QueryBroker(registry, window_s=0.02, max_batch=16, cache=False)
        rng = np.random.default_rng(2)
        points = rng.normal(size=(8, 2))
        results: dict[int, object] = {}

        def ask(index: int) -> None:
            results[index] = broker.query("d", points[index], kind="counts")["values"][0]

        threads = [threading.Thread(target=ask, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        broker.close()
        direct = execute_query(
            make_query(entry.dataset, points, kind="counts", k=entry.k),
            options=ExecutionOptions(cache=False),
        ).values
        assert [results[i] for i in range(8)] == direct

    def test_different_families_do_not_coalesce(self, registry):
        """Same point, different pins → different query families."""
        broker = QueryBroker(registry, window_s=0.05, max_batch=16, cache=False)
        point = np.zeros(2)
        results: dict[str, dict] = {}

        def ask(tag: str, pins) -> None:
            results[tag] = broker.query("d", point, kind="counts", pins=pins)

        dirty = registry.get("d").dataset.uncertain_rows()[0]
        threads = [
            threading.Thread(target=ask, args=("plain", None)),
            threading.Thread(target=ask, args=("pinned", {dirty: 0})),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results["plain"]["batch_size"] == 1
        assert results["pinned"]["batch_size"] == 1
        assert broker.metrics()["batches_executed"] == 2
        broker.close()

    def test_per_request_mode_skips_batching(self, registry):
        broker = QueryBroker(registry, window_s=0.0, max_batch=16, cache=False)
        response = broker.query("d", np.zeros(2), kind="counts")
        assert response["batch_size"] == 1 and not response["cached"]
        assert broker.metrics()["coalesced_batches"] == 0
        broker.close()

    def test_matrix_request_executes_as_one_batch(self, registry):
        broker = QueryBroker(registry, window_s=0.05, max_batch=16, cache=False)
        points = np.random.default_rng(4).normal(size=(5, 2))
        response = broker.query("d", points, kind="counts")
        assert len(response["values"]) == 5
        assert response["batch_size"] == 5
        assert broker.metrics()["multi_point_requests"] == 1
        broker.close()

    def test_an_invalid_single_point_fails_without_waiting_out_the_window(
        self, registry
    ):
        broker = QueryBroker(registry, window_s=5.0, max_batch=8, cache=False)
        start = time.perf_counter()
        with pytest.raises(IndexError, match="out of range"):
            broker.query("d", np.zeros(2), pins={99: 0})
        assert time.perf_counter() - start < 1.0
        assert not broker._pending
        assert broker.metrics()["inflight"] == 0
        broker.close()

    def test_query_errors_propagate_to_the_caller(self, registry):
        broker = QueryBroker(registry, window_s=0.005, max_batch=8, cache=False)
        with pytest.raises(ValueError, match="topk"):
            broker.query("d", np.zeros(2), kind="check", flavor="topk", label=0)
        with pytest.raises(PlanError):
            broker.query("d", np.zeros(2), kind="counts", backend="nope")
        # The broker must remain serviceable after request errors.
        assert broker.query("d", np.zeros(2), kind="counts")["values"]
        assert broker.metrics()["inflight"] == 0
        broker.close()


# ---------------------------------------------------------------------------
# Caching and admission control
# ---------------------------------------------------------------------------


class TestCachingAndAdmission:
    def test_single_point_results_are_ttl_cached(self, registry):
        broker = QueryBroker(registry, window_s=0.0, max_batch=1, cache=True, ttl_s=60.0)
        point = np.zeros(2)
        first = broker.query("d", point, kind="counts")
        second = broker.query("d", point, kind="counts")
        assert not first["cached"] and second["cached"]
        assert second["values"] == first["values"]
        assert broker.metrics()["served_from_cache"] == 1
        broker.close()

    def test_a_direct_single_point_read_fills_one_cache_slot(self, registry):
        broker = QueryBroker(registry, window_s=0.0, max_batch=1)
        first = broker.query("d", np.zeros(2))
        assert len(broker.cache) == 1
        second = broker.query("d", np.zeros(2))
        assert not first["cached"] and second["cached"]
        assert second["values"] == first["values"]
        assert len(broker.cache) == 1
        broker.close()

    def test_a_direct_matrix_read_fills_one_cache_slot(self, registry):
        broker = QueryBroker(registry, window_s=0.0, max_batch=1)
        points = np.random.default_rng(6).normal(size=(3, 2))
        first = broker.query("d", points)
        assert len(broker.cache) == 1
        second = broker.query("d", points)
        assert not first["cached"] and second["cached"]
        assert second["values"] == first["values"]
        assert len(broker.cache) == 1
        assert broker.metrics()["served_from_cache"] == 1
        broker.close()

    def test_matrix_results_are_ttl_cached(self, registry):
        broker = QueryBroker(registry, window_s=0.0, max_batch=1, cache=True)
        points = np.random.default_rng(5).normal(size=(3, 2))
        first = broker.query("d", points, kind="counts")
        second = broker.query("d", points, kind="counts")
        assert not first["cached"] and second["cached"]
        assert second["values"] == first["values"]
        broker.close()

    def test_a_dataset_named_sql_leaves_purges_working(self, registry):
        # A CP query on a dataset named "sql" stores a key that leads with
        # "sql"; purging another name must not read it as a /sql key.
        registry.register("sql", small_dataset(), k=2)
        broker = QueryBroker(registry, window_s=0.0, max_batch=1)
        broker.query("sql", np.zeros(2))
        broker.query("d", np.zeros(2))
        assert broker.patch("d", deltas=[CellRepair(1, 0)])["version"] == 2
        # "d"'s entries went, "sql"'s stayed
        assert {key[0] for key in broker.cache} == {"sql"}
        assert broker.query("sql", np.zeros(2))["cached"]
        registry.remove("sql")
        assert len(broker.cache) == 0
        broker.close()

    def test_admission_rejects_beyond_max_pending(self, registry, hold_first_flush):
        broker = QueryBroker(
            registry, window_s=0.4, max_batch=64, max_pending=1, cache=False
        )
        gate = hold_first_flush(broker)
        release: dict[str, object] = {}

        def slow_request() -> None:
            release["response"] = broker.query("d", np.zeros(2), kind="counts")

        thread = threading.Thread(target=slow_request)
        thread.start()
        assert gate.entered.wait(timeout=5.0)  # the first request is in flight
        with pytest.raises(AdmissionError) as excinfo:
            broker.query("d", np.ones(2), kind="counts")
        assert excinfo.value.retry_after > 0
        assert broker.metrics()["rejected"] == 1
        gate.release()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert release["response"]["values"]  # the admitted request completed
        broker.close()

    def test_admission_also_covers_direct_dispatch(self, registry, hold_first_flush):
        """Matrix queries and window_s=0 brokers must shed load too, not
        just the micro-batched single-point path."""
        broker = QueryBroker(
            registry, window_s=0.4, max_batch=64, max_pending=1, cache=False
        )
        gate = hold_first_flush(broker)
        release: dict[str, object] = {}

        def slow_request() -> None:
            release["response"] = broker.query("d", np.zeros(2), kind="counts")

        thread = threading.Thread(target=slow_request)
        thread.start()
        # the single-point request occupies the one slot
        assert gate.entered.wait(timeout=5.0)
        with pytest.raises(AdmissionError):
            broker.query("d", np.zeros((3, 2)), kind="counts")  # matrix path
        gate.release()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        broker.close()

    def test_close_flushes_pending_batches(self, registry):
        broker = QueryBroker(registry, window_s=30.0, max_batch=64, cache=False)
        result: dict[str, object] = {}

        def ask() -> None:
            result["response"] = broker.query("d", np.zeros(2), kind="counts")

        thread = threading.Thread(target=ask)
        thread.start()
        time.sleep(0.1)
        broker.close()  # must flush, not strand, the pending request
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert result["response"]["values"]

    def test_closed_broker_rejects_new_requests(self, registry):
        broker = QueryBroker(registry, window_s=0.01, max_batch=8, cache=False)
        broker.close()
        with pytest.raises(AdmissionError, match="shut down"):
            broker.query("d", np.zeros(2), kind="counts")
        with pytest.raises(AdmissionError, match="shut down"):
            broker.query("d", np.zeros((2, 2)), kind="counts")

    def test_invalid_window_rejected(self, registry):
        with pytest.raises(ValueError):
            QueryBroker(registry, window_s=-1.0)


class TestCloseRace:
    """close() vs an in-flight read: nobody hangs, nothing leaks.

    A request that passes admission can reach the enqueue block of
    ``QueryBroker._read`` (the critical section where a single point
    either flushes inline or joins its family's pending batch) after
    close() drained the pending map; without the re-check it could
    create a fresh batch whose future nothing ever resolves. The
    hammer drives that window hard: every submitter must terminate with
    either a real answer or a clear AdmissionError — never a stuck future.
    """

    @pytest.mark.parametrize("round_", range(4))
    def test_concurrent_close_never_strands_a_request(self, registry, round_):
        broker = QueryBroker(registry, window_s=30.0, max_batch=1024, cache=False)
        n_threads = 12
        start = threading.Barrier(n_threads + 1)
        outcomes: list[str] = []
        lock = threading.Lock()

        def submit(index: int) -> None:
            start.wait()
            try:
                response = broker.query(
                    "d", np.zeros(2), kind="counts", timeout=10.0
                )
                outcome = "answered" if response["values"] else "empty"
            except AdmissionError:
                outcome = "rejected"
            with lock:
                outcomes.append(outcome)

        threads = [
            threading.Thread(target=submit, args=(index,))
            for index in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        start.wait()
        time.sleep(0.001 * round_)  # vary where close() lands in the window
        broker.close()
        for thread in threads:
            thread.join(timeout=15.0)
            assert not thread.is_alive(), "a submitter hung against close()"
        assert len(outcomes) == n_threads
        assert set(outcomes) <= {"answered", "rejected"}
        # The closed broker must hold no pending batch (no orphan timers).
        assert not broker._pending

    def test_post_close_insertion_window_fails_cleanly(self, registry, monkeypatch):
        """Deterministic replay of the race: admission passes, then close()
        lands before the insertion critical section runs."""
        broker = QueryBroker(registry, window_s=30.0, max_batch=64, cache=False)
        original = broker._family_key
        entered = threading.Event()
        proceed = threading.Event()

        def stalled_family_key(*args, **kwargs):
            entered.set()
            proceed.wait(timeout=10.0)
            return original(*args, **kwargs)

        monkeypatch.setattr(broker, "_family_key", stalled_family_key)
        failure: dict[str, object] = {}

        def submit() -> None:
            try:
                broker.query("d", np.zeros(2), kind="counts", timeout=10.0)
            except AdmissionError as exc:
                failure["error"] = exc

        thread = threading.Thread(target=submit)
        thread.start()
        assert entered.wait(timeout=5.0)
        monkeypatch.setattr(broker, "_family_key", original)
        broker.close()  # drains _pending while the submitter is stalled
        proceed.set()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert isinstance(failure.get("error"), AdmissionError)
        assert "enqueued" in str(failure["error"])
        assert not broker._pending


# ---------------------------------------------------------------------------
# Cache metering
# ---------------------------------------------------------------------------

LRU_CACHES = (
    "broker.results",
    "batch.results",
    "incremental.states",
    "codd.grids",
    "codd.joins",
)


class TestCacheMetering:
    @staticmethod
    def _lookups(broker) -> dict[str, float]:
        gauges = broker.obs.metrics.snapshot()["gauges"]
        return {
            name: value
            for name, value in gauges.items()
            if name.startswith(("lru_hits{", "lru_misses{"))
        }

    def test_every_cache_is_published(self, registry):
        from repro.obs import validate_prometheus

        broker = QueryBroker(registry, window_s=0.0, max_batch=1)
        gauges = broker.obs.metrics.snapshot()["gauges"]
        for cache in LRU_CACHES:
            for field in ("size", "hits", "misses", "evictions"):
                assert f'lru_{field}{{cache="{cache}"}}' in gauges
        published = {
            name.split('"')[1] for name in gauges if name.startswith("lru_size{")
        }
        assert published == set(LRU_CACHES)  # exactly these five
        exposition = broker.obs.metrics.render_prometheus()
        assert validate_prometheus(exposition) > 0
        assert 'lru_evictions{cache="codd.joins"}' in exposition
        broker.close()

    def test_a_cold_then_a_warm_read_move_exactly_their_counters(self, registry):
        broker = QueryBroker(registry, window_s=0.0, max_batch=1)
        point = np.random.default_rng(91).normal(size=2)  # never read before
        before = self._lookups(broker)
        broker.query("d", point)
        cold = self._lookups(broker)
        broker.query("d", point)
        warm = self._lookups(broker)

        def moved(old, new):
            return {name: new[name] - old[name] for name in new if new[name] != old[name]}

        # Planning probes the maintained states by peeking: no hit, no miss;
        # the planner's result cache is bypassed under the broker's.
        assert moved(before, cold) == {'lru_misses{cache="broker.results"}': 1}
        assert moved(cold, warm) == {'lru_hits{cache="broker.results"}': 1}
        broker.close()
