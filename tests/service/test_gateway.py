"""The partitioned gateway: placement, scatter/gather, failure handling.

The differential harness (``tests/fuzz/test_gateway_differential.py``)
certifies exactness; this file covers the machinery around it — one
partition per executor, what the observability surface reports,
and above all the failure model: a SIGKILLed executor must be respawned,
its partitions re-prepared, and the next answer must still be exact.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.core.dataset import IncompleteDataset
from repro.core.planner import ExecutionOptions, execute_query, make_query
from repro.service.broker import QueryBroker
from repro.service.gateway import Gateway, GatewayUnavailable
from repro.service.registry import DatasetRegistry


def small_dataset(seed: int = 5, n_rows: int = 8) -> IncompleteDataset:
    rng = np.random.default_rng(seed)
    sets = [rng.normal(size=(int(rng.integers(1, 4)), 2)) for _ in range(n_rows)]
    labels = [int(label) for label in rng.integers(0, 2, size=n_rows)]
    labels[0], labels[1] = 0, 1
    return IncompleteDataset(sets, labels)


def counts_query(dataset, seed: int = 0, kind: str = "counts"):
    rng = np.random.default_rng(100 + seed)
    return make_query(dataset, rng.normal(size=(2, 2)), kind=kind, k=2)


@pytest.fixture
def gateway():
    with Gateway(2, timeout_s=20.0) as gw:
        yield gw


class TestDistribution:
    def test_describe_dataset_reports_the_placement(self, gateway):
        dataset = small_dataset()
        gateway.ensure_distributed("d", dataset)
        described = gateway.describe_dataset("d")
        assert described["fingerprint"] == dataset.fingerprint()
        assert described["n_partitions"] == 2
        spans = [tuple(p["rows"]) for p in described["partitions"]]
        assert spans[0][0] == 0 and spans[-1][1] == dataset.n_rows
        for (_, stop), (start, _) in zip(spans, spans[1:]):
            assert stop == start  # contiguous candidate-row spans
        # Partition i lives on executor i.
        assert [p["executor"] for p in described["partitions"]] == [0, 1]
        owned = gateway.metrics()["executors"]
        assert [owned[str(i)]["partitions"] for i in range(2)] == [1, 1]

    def test_fewer_rows_than_executors_leaves_an_executor_idle(self):
        dataset = IncompleteDataset([np.array([[0.0, 1.0], [1.0, 0.0]])], [1])
        query = make_query(
            dataset, np.ones((2, 2)), kind="certain_label", k=1, pins={0: 1}
        )
        local = execute_query(query, backend="batch", options=ExecutionOptions(cache=False))
        with Gateway(2, timeout_s=20.0) as gw:
            assert gw.execute_query("tiny", query).values == local.values
            assert gw.describe_dataset("tiny")["n_partitions"] == 1
            assert gw.metrics()["executors"]["1"]["partitions"] == 0

    def test_redistribution_replaces_a_moved_fingerprint(self, gateway):
        gateway.ensure_distributed("moving", small_dataset(seed=1))
        first = gateway.describe_dataset("moving")["fingerprint"]
        replacement = small_dataset(seed=2)
        gateway.ensure_distributed("moving", replacement)
        described = gateway.describe_dataset("moving")
        assert described["fingerprint"] == replacement.fingerprint() != first

    def test_drop_forgets_the_dataset(self, gateway):
        gateway.ensure_distributed("gone", small_dataset())
        gateway.drop("gone")
        assert gateway.describe_dataset("gone") is None
        gateway.drop("gone")  # idempotent

    def test_stale_executor_state_raises_unavailable(self, gateway):
        dataset = small_dataset()
        query = counts_query(dataset)
        gateway.ensure_distributed("stale", dataset)
        # Model the redistribute-races-a-query window: the scatter carries
        # a fingerprint the executors were never registered with. They
        # must answer "stale", and the gateway must surface that as
        # unavailable (caller falls back locally) — never mixed state.
        gateway._datasets["stale"].fingerprint = "mid-redistribute-fingerprint"
        with pytest.raises(GatewayUnavailable):
            gateway.execute_query(
                "stale", query, fingerprint="mid-redistribute-fingerprint"
            )
        assert gateway.metrics()["stale_snapshots"] >= 1


class TestDecisions:
    @pytest.mark.parametrize("flavor", ["binary", "multiclass"])
    def test_two_label_decisions_match_local_batch(self, gateway, flavor):
        """A two-label decision, pinned or not, takes the one gather path
        and ``batch``'s MinMax check on the merged matrix."""
        dataset = small_dataset()
        test_X = np.random.default_rng(7).normal(size=(4, 2))
        for pins in ({}, {row: 0 for row in dataset.uncertain_rows()[:2]}):
            query = make_query(
                dataset, test_X, kind="certain_label", flavor=flavor, k=2, pins=pins
            )
            result = gateway.execute_query("mm", query)
            local = execute_query(
                query, backend="batch", options=ExecutionOptions(cache=False)
            )
            assert result.plan.backend == "gateway"
            assert result.values == local.values


class TestFailureModel:
    def test_sigkilled_executor_is_respawned_and_answers_stay_exact(self, gateway):
        dataset = small_dataset(n_rows=10)
        query = counts_query(dataset)
        local = execute_query(query, options=ExecutionOptions(cache=False))
        assert gateway.execute_query("kill", query).values == local.values

        victim_pid = gateway.metrics()["executors"]["0"]["pid"]
        os.kill(victim_pid, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            executor = gateway.metrics()["executors"]["0"]
            if executor["alive"] and executor["pid"] != victim_pid:
                break
            time.sleep(0.05)

        gathered = gateway.execute_query("kill", query)
        assert gathered.values == local.values
        metrics = gateway.metrics()
        assert metrics["respawns"] >= 1
        assert metrics["executors"]["0"]["restarts"] >= 1
        assert metrics["executors"]["0"]["pid"] != victim_pid

    def test_kill_between_distribute_and_query_still_exact(self, gateway):
        # The respawn path must re-register partitions from the gateway's
        # authoritative candidate sets, not wait for the next distribute.
        dataset = small_dataset(seed=9, n_rows=12)
        gateway.ensure_distributed("cold-kill", dataset)
        os.kill(gateway.metrics()["executors"]["1"]["pid"], signal.SIGKILL)
        query = counts_query(dataset, seed=3, kind="certain_label")
        local = execute_query(query, options=ExecutionOptions(cache=False))
        gathered = gateway.execute_query("cold-kill", query)
        assert gathered.values == local.values

    def test_wedged_executor_is_killed_and_its_pipe_never_reused(self):
        # SIGSTOP leaves the executor alive but unresponsive: the request
        # times out while its reply is still owed on the pipe. The gateway
        # must kill + respawn (fresh pipe) rather than retry on the same
        # pipe, where the stale reply would answer a *later* request.
        with Gateway(2, timeout_s=1.0) as gw:
            dataset = small_dataset(n_rows=10)
            query = counts_query(dataset)
            local = execute_query(query, options=ExecutionOptions(cache=False))
            assert gw.execute_query("wedge", query).values == local.values

            victim_pid = gw.metrics()["executors"]["0"]["pid"]
            os.kill(victim_pid, signal.SIGSTOP)
            try:
                gathered = gw.execute_query("wedge", query)
            finally:
                try:
                    os.kill(victim_pid, signal.SIGCONT)  # if it survived
                except ProcessLookupError:
                    pass
            assert gathered.values == local.values
            metrics = gw.metrics()
            assert metrics["executors"]["0"]["pid"] != victim_pid
            assert metrics["executors"]["0"]["restarts"] >= 1
            # The follow-up query must not see any stale reply either.
            again = counts_query(dataset, seed=7, kind="certain_label")
            local_again = execute_query(again, options=ExecutionOptions(cache=False))
            assert gw.execute_query("wedge", again).values == local_again.values

    def test_closed_gateway_is_unavailable_not_wrong(self, gateway):
        dataset = small_dataset()
        query = counts_query(dataset)
        gateway.close()
        gateway.close()  # idempotent
        with pytest.raises(GatewayUnavailable):
            gateway.execute_query("after-close", query)


class TestObservability:
    def test_metrics_shape(self, gateway):
        gateway.execute_query("obs", counts_query(small_dataset()))
        metrics = gateway.metrics()
        assert metrics["n_executors"] == 2
        assert metrics["queries"] >= 1 and metrics["scatters"] >= 1
        for executor in metrics["executors"].values():
            assert executor["alive"]
            assert executor["requests"] >= 1
            assert executor["avg_latency_s"] >= 0.0
        assert metrics["datasets"]["obs"]["n_partitions"] == 2

    def test_ping_round_trips_every_executor(self, gateway):
        health = gateway.ping()
        assert len(health) == 2
        assert all(entry["ok"] for entry in health)


class TestBrokerIntegration:
    def test_broker_serves_through_the_gateway_and_reports_it(self):
        registry = DatasetRegistry()
        registry.register("d", small_dataset(), k=2)
        broker = QueryBroker(
            registry, window_s=0.005, cache=False, gateway=Gateway(2)
        )
        try:
            response = broker.query("d", np.zeros((2, 2)), kind="counts")
            assert response["backend"] == "gateway"
            metrics = broker.metrics()
            assert metrics["gateway_served"] >= 1
            assert metrics["gateway"]["n_executors"] == 2
            assert registry.get("d").describe()["partitioning"]["n_partitions"] == 2
        finally:
            broker.close()
        assert not broker.gateway.metrics()["executors"]["0"]["alive"]

    def test_gateway_served_counts_query_is_pruned(self):
        """The gateway counts through the pruned ``batch`` path, and the
        broker's counters say so."""
        registry = DatasetRegistry()
        registry.register("d", small_dataset(), k=2)
        broker = QueryBroker(
            registry, window_s=0.005, cache=False, gateway=Gateway(2)
        )
        try:
            before = broker.metrics()["prune"]
            response = broker.query("d", np.zeros((2, 2)), kind="counts")
            assert response["backend"] == "gateway"
            after = broker.metrics()["prune"]
            assert after["pruned_executions"] == before["pruned_executions"] + 1
            assert after["n_points"] == before["n_points"] + 2
            again = broker.query("d", np.ones((2, 2)), kind="counts")
            assert again["backend"] == "gateway"
            final = broker.metrics()["prune"]
            assert final["pruned_executions"] == after["pruned_executions"] + 1
            assert final["executions"] == after["executions"] + 1
        finally:
            broker.close()

    def test_broker_falls_back_locally_when_the_gateway_is_gone(self):
        registry = DatasetRegistry()
        registry.register("d", small_dataset(), k=2)
        gateway = Gateway(2)
        broker = QueryBroker(registry, window_s=0.005, cache=False, gateway=gateway)
        try:
            gateway.close()  # every scatter now raises GatewayUnavailable
            response = broker.query("d", np.zeros((2, 2)), kind="counts")
            assert response["backend"] != "gateway"  # exact, just local
            direct = broker.query("d", np.zeros((2, 2)), kind="counts", backend="gateway")
            assert direct["values"] == response["values"]
            assert broker.metrics()["gateway_fallbacks"] >= 2
        finally:
            broker.close()

    def test_gateway_backend_without_gateway_degrades_to_auto(self):
        registry = DatasetRegistry()
        registry.register("d", small_dataset(), k=2)
        broker = QueryBroker(registry, window_s=0.005, cache=False)
        try:
            response = broker.query("d", np.zeros((2, 2)), kind="counts", backend="gateway")
            assert response["values"]
        finally:
            broker.close()
