"""End-to-end smoke of a real ``repro serve`` process.

One server (the ``supreme`` recipe, 60 training rows, 8 validation
points) is started for the module; the tests drive it over HTTP with
:class:`~repro.service.ServiceClient`, a raw keep-alive connection and
the ``repro`` CLI, and compare what it serves against the same answers
computed in process. The write round trip (cleaning steps, then PATCH
deltas) lives in one test, so no other test depends on its order.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from urllib.parse import urlparse

import numpy as np
import pytest

from repro.codd import CoddTable, Null, certain_answers, parse_sql
from repro.core.deltas import RowAppend
from repro.core.planner import ExecutionOptions, execute_query, make_query
from repro.data.task import build_cleaning_task
from repro.obs import validate_prometheus
from repro.service import ServiceClient

_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))
_ENV = {**os.environ, "PYTHONPATH": _SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}


def _repro(*args: str) -> str:
    """Run one ``repro`` CLI command to completion; its stdout."""
    done = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, check=True, env=_ENV,
    )
    return done.stdout


@pytest.fixture(scope="module")
def served():
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--recipe", "supreme", "--n-train", "60", "--n-val", "8"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=_ENV,
    )
    try:
        url = None
        for _ in range(2):
            match = re.search(r"listening on (http://\S+)", process.stdout.readline())
            if match:
                url = match.group(1)
        assert url, "server never printed its listen address"
        client = ServiceClient(url)
        health = client.wait_until_ready(timeout=30)
        yield url, client, health
    finally:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            raise


def _post(url: str, body: dict) -> tuple[int, dict]:
    address = urlparse(url)
    conn = http.client.HTTPConnection(address.hostname, address.port, timeout=10)
    try:
        conn.request("POST", "/query", json.dumps(body), {"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def test_health_and_validation_read(served):
    _, client, health = served
    assert health["status"] == "ok" and health["datasets"] == ["supreme"]
    values = client.query("supreme", points="validation", kind="certain_label")["values"]
    assert len(values) == 8
    assert client.metrics()["broker"]["requests"] >= 1


def test_keep_alive_requests_do_not_wait_on_delayed_ack(served):
    # Requests over one persistent connection must not wait on delayed ACK
    # (the server sets TCP_NODELAY).
    url, _, _ = served
    address = urlparse(url)
    conn = http.client.HTTPConnection(address.hostname, address.port, timeout=10)
    try:
        started = time.perf_counter()
        for _ in range(20):
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            assert response.status == 200
        per_request = (time.perf_counter() - started) / 20
    finally:
        conn.close()
    assert per_request < 0.010, f"{per_request * 1000:.1f} ms per keep-alive request"


@pytest.mark.parametrize("field, value", [("algorithm", "tree"), ("prune", "off")])
def test_query_refuses_fields_it_does_not_read(served, field, value):
    # An engine override or a pruning mode is refused, not silently ignored.
    url, _, _ = served
    status, refused = _post(
        url, {"dataset": "supreme", "points": "validation", field: value}
    )
    assert status == 400, refused
    assert refused["error"]["code"] == "malformed_payload", refused


def test_sql_round_trips(served):
    _, client, _ = served
    # /sql: the served Relation must equal the in-process one.
    person = CoddTable(
        ("name", "age"), [("John", 32), ("Anna", 29), ("Kevin", Null([1, 2, 30]))]
    )
    client.register_codd_table("person", person)
    sql = "SELECT name FROM person WHERE age < 30"
    served_rows = client.sql(sql)["results"]["certain"]
    assert served_rows == certain_answers(parse_sql(sql), person, name="person")
    assert served_rows.rows == {("Anna",)}
    # A JOIN across two registered tables, planned server-side, explained
    # in the response.
    orders = CoddTable(("cid", "amount"), [(1, 10), (2, Null([5, 50])), (1, 30)])
    client.register_codd_table("orders", orders)
    join_sql = (
        "SELECT p.name, o.amount FROM person p "
        "JOIN orders o ON p.age = o.cid WHERE o.amount > 8"
    )
    joined = client.sql(join_sql, mode="both")
    assert joined["results"]["certain"].rows == set()
    assert set(joined["tables"]) == {"person", "orders"}
    assert "Join" in joined["explain"]["plan"]


def test_cleaning_steps_then_patches(served):
    url, client, _ = served
    # /clean/step: two oracle-answered steps, then a with_cleaned
    # validation read served from the warm maintained state must equal the
    # in-process batch recount.
    task = build_cleaning_task("supreme", n_train=60, n_val=8, n_test=2, k=3, seed=0)
    assert client.dataset("supreme")["fingerprint"] == task.incomplete.fingerprint()
    fixed = {}
    for row in task.incomplete.uncertain_rows()[:2]:
        checkpoint = client.clean_step("supreme", row)
        fixed[row] = int(task.gt_choice[row])
        assert checkpoint["n_cleaned"] == len(fixed)
    cleaned = client.query(
        "supreme", points="validation", with_cleaned=True, explain=True
    )
    expected = execute_query(
        make_query(task.incomplete, task.val_X, kind="counts", k=3, pins=fixed),
        backend="batch",
        options=ExecutionOptions(cache=False),
    ).values
    assert cleaned["values"] == expected
    assert cleaned["explain"]["backend"] == "incremental", cleaned["explain"]

    # PATCH: live writes bump the version every read echoes.
    info = client.dataset("supreme")
    patched = client.patch(
        "supreme", deltas=[RowAppend(np.zeros((2, info["n_features"])), 0)]
    )
    assert patched["version"] == info["version"] + 1
    assert patched["n_rows"] == info["n_rows"] + 1
    echoed = client.query("supreme", points="validation", kind="certain_label")
    assert echoed["version"] == patched["version"]
    assert echoed["fingerprint"] == patched["fingerprint"]
    # ...and the same over the `repro patch` CLI.
    out = _repro("patch", "--url", url, "--name", "supreme", "--delete-row", "0")
    assert f"version {patched['version'] + 1}" in out


def test_query_cli_explains_the_plan(served):
    # The plan and the prune telemetry must surface through the CLI.
    url, client, _ = served
    out = _repro(
        "query", "--url", url, "--dataset", "supreme", "--kind", "counts", "--explain"
    )
    assert "plan: backend=" in out
    assert "prune:" in out
    assert client.metrics()["broker"]["explain_requests"] >= 1


def test_metrics_exposition_parses(served):
    # /metrics?format=prometheus must stay machine-parseable: the strict
    # parser and histogram-invariant validator is the gate.
    url, client, _ = served
    client.query("supreme", points="validation", kind="certain_label")
    exposition = client.metrics(format="prometheus")
    assert validate_prometheus(exposition) > 0
    for series in (
        "repro_broker_requests_total",
        "repro_http_request_seconds_bucket",
        "repro_registry_datasets",
    ):
        assert series in exposition, f"exposition lost {series}"
    # The pretty-printer reads the same endpoints.
    out = _repro("metrics", "--url", url)
    assert "cache hit rate" in out
    assert "p95" in out
