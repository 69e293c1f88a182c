"""The HTTP JSON API: round trips, observability, and structured errors."""

from __future__ import annotations

import http.client
import json
import socket
import time
from urllib import error, request

import numpy as np
import pytest

from repro.core.dataset import IncompleteDataset
from repro.service import DatasetRegistry, ServiceClient, ServiceError, make_service
from repro.service.broker import AdmissionError


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

    def test_overload_is_429_with_retry_after(self, service, hold_first_flush):
        """Admission rejection must surface as 429 + Retry-After over HTTP."""
        import threading

        server, client = service
        broker = server.broker
        # Temporarily throttle the running broker: one request held in
        # flight, then the next one must be shed.
        old = broker.max_pending, broker.window_s
        broker.max_pending, broker.window_s = 1, 0.5
        gate = hold_first_flush(broker)
        try:
            background: dict[str, object] = {}

            def slow() -> None:
                background["response"] = client.query(
                    "d", point=[9.0, 9.0], kind="counts"
                )

            thread = threading.Thread(target=slow)
            thread.start()
            assert gate.entered.wait(timeout=5.0)
            with pytest.raises(ServiceError) as excinfo:
                client.query("d", point=[8.0, 8.0], kind="counts")
            assert excinfo.value.status == 429
            assert excinfo.value.code == "overloaded"
            gate.release()
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            assert background["response"]["values"]
        finally:
            gate.release()
            broker.max_pending, broker.window_s = old


# ---------------------------------------------------------------------------
# Request framing and HTTP/1.1 conformance, over raw sockets
# ---------------------------------------------------------------------------


def raw_connection(server) -> socket.socket:
    return socket.create_connection(server.server_address[:2], timeout=5.0)


def read_response(reader) -> tuple[int, dict, bytes]:
    """One response off a socket's reader: ``(status, headers, body)``,
    headers keyed by lower-cased name."""
    status_line = reader.readline()
    assert status_line.startswith(b"HTTP/1."), status_line
    headers = {}
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = reader.read(int(headers.get("content-length", 0)))
    return int(status_line.split()[1]), headers, body


def exchange_until_closed(server, data: bytes) -> list[tuple[int, dict, bytes]]:
    """Send raw bytes on a fresh connection and read every response until
    the server closes it (a server that keeps it open times the read out)."""
    with raw_connection(server) as sock, sock.makefile("rb") as reader:
        sock.sendall(data)
        responses = []
        while reader.peek(1):
            responses.append(read_response(reader))
    return responses


class TestRequestFraming:
    """A body the server cannot delimit is refused and the connection
    closed, so none of its bytes is ever read as the next request."""

    @pytest.mark.parametrize(
        "length_headers, body",
        [
            ([], b'{"dataset": "d", "point": [0, 0]}'),  # missing on a POST
            (["Content-Length: abc"], b"{}"),  # not a number
            (["Content-Length: -1"], b"{}"),  # negative
            (["Content-Length: 2", "Content-Length: 31"], b"{}"),  # conflicting
        ],
        ids=["missing", "non-numeric", "negative", "conflicting"],
    )
    def test_an_unusable_content_length_is_400_and_closes(
        self, service, length_headers, body
    ):
        server, _ = service
        head = "\r\n".join(["POST /query HTTP/1.1", "Host: x", *length_headers])
        responses = exchange_until_closed(
            server, head.encode() + b"\r\n\r\n" + body
        )
        assert len(responses) == 1
        status, headers, _ = responses[0]
        assert status == 400
        assert headers["connection"] == "close"

    def test_transfer_encoding_is_501_and_closes(self, service):
        server, _ = service
        request = (
            b"POST /query HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"2\r\n{}\r\n0\r\n\r\n"
        )
        responses = exchange_until_closed(server, request)
        assert len(responses) == 1
        status, headers, _ = responses[0]
        assert status == 501
        assert headers["connection"] == "close"

    def test_repeats_of_one_content_length_are_one_length(self, service):
        server, _ = service
        body = json.dumps({"dataset": "d", "point": [0.0, 0.0]}).encode()
        request = (
            b"POST /query HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
            + f"Content-Length: {len(body)}, {len(body)}\r\n\r\n".encode()
            + body
        )
        (response,) = exchange_until_closed(server, request)
        assert response[0] == 200

    def test_an_unread_body_does_not_become_the_next_request(self, service):
        # /nope never reads its body; the next request on the connection
        # must still be parsed from its own request line.
        server, _ = service
        with raw_connection(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(
                b"POST /nope HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}"
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            assert read_response(reader)[0] == 404
            status, _, body = read_response(reader)
            assert status == 200 and json.loads(body)["status"] == "ok"


class TestConformance:
    @pytest.mark.parametrize(
        "request_line",
        [b"GET", b"GET /healthz HTTP/1.1 extra", b"GET /healthz HTTP/1.x",
         b"GET /healthz FTP/1.1", b"POST /query"],
    )
    def test_a_malformed_request_line_is_400(self, service, request_line):
        server, _ = service
        (response,) = exchange_until_closed(server, request_line + b"\r\n\r\n")
        assert response[0] == 400
        assert response[1]["connection"] == "close"

    def test_http_2_is_505(self, service):
        server, _ = service
        (response,) = exchange_until_closed(server, b"GET /healthz HTTP/2.0\r\n\r\n")
        assert response[0] == 505

    def test_a_header_line_over_64_kib_is_431(self, service):
        server, _ = service
        line = b"X-Big: " + b"a" * (65537 - len(b"X-Big: \r\n")) + b"\r\n"
        assert len(line) == 65537
        (response,) = exchange_until_closed(
            server, b"GET /healthz HTTP/1.1\r\n" + line + b"\r\n"
        )
        assert response[0] == 431

    def test_more_than_100_headers_is_431(self, service):
        server, _ = service

        def request(n_headers: int) -> bytes:
            headers = b"".join(b"X-H%d: v\r\n" % i for i in range(n_headers))
            return b"GET /healthz HTTP/1.1\r\nConnection: close\r\n" + headers + b"\r\n"

        (response,) = exchange_until_closed(server, request(99))
        assert response[0] == 200  # 100 header lines in all
        (response,) = exchange_until_closed(server, request(100))
        assert response[0] == 431

    def test_header_names_are_case_insensitive(self, service):
        server, _ = service
        body = json.dumps({"dataset": "d", "point": [0.0, 0.0]}).encode()
        request = (
            b"POST /query HTTP/1.1\r\nhOsT: x\r\nCONNECTION: Close\r\n"
            + f"cOnTeNt-LeNgTh: {len(body)}\r\n\r\n".encode()
            + body
        )
        (response,) = exchange_until_closed(server, request)
        assert response[0] == 200
        assert json.loads(response[2])["values"]

    def test_expect_100_continue_gets_an_interim_100_then_the_answer(self, service):
        server, _ = service
        body = json.dumps({"dataset": "d", "point": [0.0, 0.0]}).encode()
        with raw_connection(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(
                b"POST /query HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
            )
            assert reader.readline().split()[1] == b"100"
            assert reader.readline() == b"\r\n"
            sock.sendall(body)
            status, _, answer = read_response(reader)
        assert status == 200 and json.loads(answer)["values"]

    @pytest.mark.parametrize(
        "request_head",
        [b"GET /healthz HTTP/1.0\r\n", b"GET /healthz HTTP/1.1\r\nConnection: close\r\n"],
        ids=["http-1.0", "connection-close"],
    )
    def test_the_connection_closes_after_the_response(self, service, request_head):
        server, _ = service
        # Two requests are sent; only the first is answered.
        request = request_head + b"\r\n"
        responses = exchange_until_closed(server, request + request)
        assert len(responses) == 1
        status, headers, body = responses[0]
        assert status == 200 and json.loads(body)["status"] == "ok"
        assert headers["connection"] == "close"

    def test_keep_alive_answers_each_request_in_turn(self, service):
        server, _ = service
        with raw_connection(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n" * 3)
            for _ in range(3):
                status, headers, _ = read_response(reader)
                assert status == 200 and "connection" not in headers

    def test_urllib_round_trips(self, service):
        server, _ = service
        with request.urlopen(server.url + "/healthz", timeout=10) as response:
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        status, payload = post_raw(
            server, "/query", json.dumps({"dataset": "d", "point": [0, 0]}).encode()
        )
        assert status == 200 and payload["values"]

    def test_responses_carry_their_standard_headers(self, service):
        server, _ = service
        with request.urlopen(server.url + "/healthz", timeout=10) as response:
            headers = response.headers
            assert headers["Content-Type"] == "application/json"
            assert len(headers["X-Trace-Id"]) == 16
            assert headers["Server"].startswith("BaseHTTP/")
            assert headers["Date"].endswith(" GMT")
            assert int(headers["Content-Length"]) == len(response.read())

    def test_admission_rejection_sends_retry_after(self, service, monkeypatch):
        server, _ = service

        def overloaded(*args, **kwargs):
            raise AdmissionError("at capacity", retry_after=0.25)

        monkeypatch.setattr(server.broker, "query", overloaded)
        body = json.dumps({"dataset": "d", "point": [0.0, 0.0]}).encode()
        with raw_connection(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(
                b"POST /query HTTP/1.1\r\nHost: x\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            status, headers, payload = read_response(reader)
        assert status == 429
        assert headers["retry-after"] == "0.250"
        assert json.loads(payload)["error"]["code"] == "overloaded"

    def test_neither_end_parses_headers_with_the_stdlib(self, service, monkeypatch):
        server, client = service

        def refuse(*args, **kwargs):
            raise AssertionError("http.client.parse_headers was called")

        monkeypatch.setattr(http.client, "parse_headers", refuse)
        assert client.healthz()["status"] == "ok"
        assert client.query("d", point=[0.0, 0.0])["values"]
