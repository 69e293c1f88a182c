"""The HTTP JSON API: round trips, observability, and structured errors."""

from __future__ import annotations

import http.client
import json
import time
from urllib import error, request

import numpy as np
import pytest

from repro.core.dataset import IncompleteDataset
from repro.service import DatasetRegistry, ServiceClient, ServiceError, make_service


def small_dataset() -> IncompleteDataset:
    rng = np.random.default_rng(11)
    sets = [rng.normal(size=(m, 2)) for m in (1, 3, 2, 2, 1, 3)]
    return IncompleteDataset(sets, [0, 1, 0, 1, 1, 0])


@pytest.fixture(scope="module")
def service():
    registry = DatasetRegistry()
    registry.register("d", small_dataset(), k=2)
    registry.register_recipe("recipe", n_train=40, n_val=4, seed=0)
    server = make_service(registry, window_s=0.005, max_batch=8)
    client = ServiceClient(server.url)
    client.wait_until_ready()
    yield server, client
    server.close()


def test_make_service_failure_does_not_leak_executor_processes():
    """A broker-constructor failure after the gateway spawned must shut the
    executor processes down, not orphan them (window_s=-1 is rejected by
    QueryBroker *after* make_service built the Gateway)."""
    import multiprocessing
    import time

    before = {p.pid for p in multiprocessing.active_children()}
    with pytest.raises(ValueError):
        make_service(executors=2, window_s=-1.0, start=False)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        leaked = [
            p for p in multiprocessing.active_children()
            if p.pid not in before and p.name.startswith("repro-executor")
        ]
        if not leaked:
            break
        time.sleep(0.05)
    assert not leaked


def test_close_without_started_loop_does_not_deadlock():
    """make_service(start=False) followed by close() must return (the
    shutdown() handshake only applies to a running accept loop)."""
    from repro.service import DatasetRegistry as Registry, make_service as make

    server = make(Registry(), start=False)
    server.close()  # would previously block forever in BaseServer.shutdown()


def post_raw(server, path: str, body: bytes, content_type: str = "application/json"):
    """POST raw bytes, returning (status, parsed JSON body)."""
    req = request.Request(
        server.url + path,
        data=body,
        method="POST",
        headers={"Content-Type": content_type},
    )
    try:
        with request.urlopen(req, timeout=10) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


class TestHappyPaths:
    def test_healthz(self, service):
        server, client = service
        health = client.healthz()
        assert health["status"] == "ok"
        assert set(health["datasets"]) >= {"d", "recipe"}
        assert health["uptime_s"] >= 0

    def test_datasets_listing_and_detail(self, service):
        server, client = service
        names = {row["name"] for row in client.datasets()}
        assert {"d", "recipe"} <= names
        detail = client.dataset("d")
        assert detail["n_rows"] == 6
        assert detail["fingerprint"] == small_dataset().fingerprint()

    def test_register_dataset_round_trip(self, service):
        server, client = service
        local = small_dataset()
        created = client.register_dataset("shipped", local, k=2)
        assert created["fingerprint"] == local.fingerprint()
        counts = client.query("shipped", point=[0.0, 0.0], kind="counts")["values"][0]
        assert isinstance(counts, list) and sum(counts) == local.n_worlds()

    def test_register_recipe_round_trip(self, service):
        server, client = service
        created = client.register_recipe("recipe2", n_train=40, n_val=4, seed=1)
        assert created["supports_cleaning"]
        response = client.query("recipe2", points="validation", kind="certain_label")
        assert len(response["values"]) == 4

    def test_query_validation_set_uses_warm_prepared_state(self, service):
        server, client = service
        entry = server.registry.get("recipe")
        client.query("recipe", points="validation", kind="certain_label")
        assert entry.prepared is not None  # pinned by the query

    def test_clean_step_and_with_cleaned_query(self, service):
        server, client = service
        entry = server.registry.get("recipe")
        row = entry.dataset.uncertain_rows()[0]
        checkpoint = client.clean_step("recipe", row=row)  # oracle answers
        assert checkpoint["n_cleaned"] == 1
        assert checkpoint["fixed"] == {row: int(entry.gt_choice[row])}
        assert isinstance(checkpoint["cp_fraction"], float)
        served = client.query(
            "recipe", points="validation", kind="certain_label", with_cleaned=True
        )["values"]
        assert len(served) == 4

    def test_http_registration_inherits_server_execution_defaults(self, service):
        """Datasets registered over HTTP run with the operator's --backend
        and --n-jobs, same as the CLI-preloaded one."""
        server, client = service
        client.register_dataset("defaults-check", small_dataset(), k=2)
        entry = server.registry.get("defaults-check")
        assert entry.backend == server.broker.backend
        assert entry.n_jobs == server.broker.n_jobs

    def test_metrics_expose_broker_and_registry(self, service):
        server, client = service
        metrics = client.metrics()
        assert metrics["registry"]["n_datasets"] >= 2
        broker = metrics["broker"]
        assert broker["requests"] >= 1
        assert broker["cache"] is not None and "hit_rate" in broker["cache"]

    def test_big_integer_counts_survive_the_wire(self, service):
        server, client = service
        # 6 rows of up to 3 candidates → counts can exceed 2^53 with larger
        # datasets; json round-trips Python ints exactly either way. Register
        # a wider dataset to force genuinely big world counts.
        rng = np.random.default_rng(5)
        sets = [rng.normal(size=(9, 2)) for _ in range(20)]
        big = IncompleteDataset(sets, [i % 2 for i in range(20)])
        client.register_dataset("big", big, k=1)
        counts = client.query("big", point=[0.0, 0.0], kind="counts", k=1)["values"][0]
        assert sum(counts) == big.n_worlds()
        assert big.n_worlds() > 2**63  # definitely not a float round trip


    def test_keep_alive_requests_do_not_wait_on_delayed_ack(self, service):
        """Requests over one persistent connection take well under the
        ~40 ms a delayed ACK costs when the server leaves Nagle on."""
        server, client = service
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            n_requests = 50
            started = time.perf_counter()
            for _ in range(n_requests):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
                assert response.status == 200
            per_request = (time.perf_counter() - started) / n_requests
        finally:
            connection.close()
        assert per_request < 0.010, f"{per_request * 1000:.1f} ms per request"


class TestErrorPaths:
    def test_unknown_dataset_is_404(self, service):
        server, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.query("missing", point=[0.0, 0.0])
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown_dataset"
        assert "missing" in excinfo.value.message

    def test_unknown_dataset_detail_is_404(self, service):
        server, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.dataset("missing")
        assert excinfo.value.status == 404

    def test_malformed_json_body_is_400(self, service):
        server, client = service
        status, payload = post_raw(server, "/query", b"{not json!")
        assert status == 400
        assert payload["error"]["code"] == "malformed_payload"
        assert "JSON" in payload["error"]["message"]

    def test_non_object_body_is_400(self, service):
        server, client = service
        status, payload = post_raw(server, "/query", b'"just a string"')
        assert status == 400
        assert payload["error"]["code"] == "malformed_payload"

    def test_missing_fields_are_400(self, service):
        server, client = service
        status, payload = post_raw(server, "/query", json.dumps({}).encode())
        assert status == 400
        assert "dataset" in payload["error"]["message"]
        status, payload = post_raw(
            server, "/query", json.dumps({"dataset": "d"}).encode()
        )
        assert status == 400
        assert "point" in payload["error"]["message"]

    @pytest.mark.parametrize(
        "field, value",
        [("algorithm", "tree"), ("kinds", "certain_label"), ("prune", "off")],
    )
    def test_unknown_query_field_is_400(self, service, field, value):
        # A field /query does not read is refused, not silently ignored.
        server, client = service
        body = {"dataset": "d", "point": [0.0, 0.0], field: value}
        status, payload = post_raw(server, "/query", json.dumps(body).encode())
        assert status == 400
        assert payload["error"]["code"] == "malformed_payload"
        assert repr(field) in payload["error"]["message"]

    def test_flavor_mismatch_is_structured_400(self, service):
        server, client = service
        # topk only supports kind='counts'; make_query's error must surface.
        with pytest.raises(ServiceError) as excinfo:
            client.query("d", point=[0.0, 0.0], flavor="topk", kind="check", label=0)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid_query"
        assert "topk" in excinfo.value.message

    def test_backend_mismatch_is_plan_error_400(self, service):
        server, client = service
        # The incremental backend cannot serve the topk flavor.
        with pytest.raises(ServiceError) as excinfo:
            client.query(
                "d", point=[0.0, 0.0], flavor="topk", kind="counts",
                backend="incremental",
            )
        assert excinfo.value.status == 400
        assert excinfo.value.code == "plan_error"

    def test_unknown_backend_is_plan_error_400(self, service):
        server, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.query("d", point=[0.0, 0.0], backend="bogus")
        assert excinfo.value.status == 400
        assert excinfo.value.code == "plan_error"
        assert "bogus" in excinfo.value.message

    def test_multi_row_point_field_is_400_not_truncated(self, service):
        server, client = service
        status, payload = post_raw(
            server,
            "/query",
            json.dumps(
                {"dataset": "d", "point": [[0.0, 0.0], [1.0, 1.0]]}
            ).encode(),
        )
        assert status == 400
        assert payload["error"]["code"] == "malformed_payload"
        assert "single test point" in payload["error"]["message"]

    def test_bad_point_shape_is_400(self, service):
        server, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.query("d", point=[0.0, 0.0, 0.0])  # dataset has 2 features
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid_query"

    def test_duplicate_registration_is_409(self, service):
        server, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.register_dataset("d", small_dataset())
        assert excinfo.value.status == 409
        assert excinfo.value.code == "registry_conflict"

    def test_malformed_dataset_payload_is_400(self, service):
        server, client = service
        status, payload = post_raw(
            server,
            "/datasets",
            json.dumps({"name": "bad", "dataset": {"candidate_sets": []}}).encode(),
        )
        assert status == 400
        assert payload["error"]["code"] == "malformed_payload"

    def test_clean_step_without_val_set_is_400(self, service):
        # Not a conflict — just an invalid request against this dataset.
        server, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.clean_step("d", row=1, candidate=0)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid_request"
        assert "validation set" in excinfo.value.message

    def test_clean_step_bad_candidate_is_400(self, service):
        server, client = service
        entry = server.registry.get("recipe")
        row = entry.dataset.uncertain_rows()[-1]
        with pytest.raises(ServiceError) as excinfo:
            client.clean_step("recipe", row=row, candidate=999)
        assert excinfo.value.status == 400

    def test_unknown_routes_are_404(self, service):
        server, client = service
        status, payload = post_raw(server, "/nope", b"{}")
        assert status == 404 and payload["error"]["code"] == "not_found"
        with pytest.raises(error.HTTPError) as excinfo:
            request.urlopen(server.url + "/nope", timeout=10)
        assert excinfo.value.code == 404

    def test_overload_is_429_with_retry_after(self, service):
        """Admission rejection must surface as 429 + Retry-After over HTTP."""
        import threading

        server, client = service
        broker = server.broker
        # Temporarily throttle the running broker: one in-flight request
        # inside a long window, then the next one must be shed.
        old = broker.max_pending, broker.window_s
        broker.max_pending, broker.window_s = 1, 0.5
        try:
            background: dict[str, object] = {}

            def slow() -> None:
                background["response"] = client.query(
                    "d", point=[9.0, 9.0], kind="counts"
                )

            thread = threading.Thread(target=slow)
            thread.start()
            import time as _time

            _time.sleep(0.1)
            with pytest.raises(ServiceError) as excinfo:
                client.query("d", point=[8.0, 8.0], kind="counts")
            assert excinfo.value.status == 429
            assert excinfo.value.code == "overloaded"
            thread.join()
            assert background["response"]["values"]
        finally:
            broker.max_pending, broker.window_s = old
