"""A small stdlib client for the CP query service.

:class:`ServiceClient` wraps the JSON API of :mod:`repro.service.http`
behind the same vocabulary as the in-process planner: register a
dataset, ask for ``counts`` / ``certain_label`` / ``check`` values,
drive a cleaning session step by step. Exact types survive the wire —
counts come back as Python big ints and weighted probabilities as
:class:`~fractions.Fraction` (see :mod:`repro.service.wire`), so a
client-side consumer can compare served values to local
:func:`~repro.core.planner.execute_query` results with ``==`` and
expect bit-identical agreement (the differential harness does exactly
that).

Each calling thread keeps one persistent HTTP/1.1 connection, opened on
its first request, so a request costs the server no new connection and
no new handler thread. The connection is a plain socket with
``TCP_NODELAY`` that frames HTTP/1.1 itself: the request's head and
body go out in one ``sendall``, the status line and headers are read
line by line, and the body by ``Content-Length`` (or to end-of-file
when the response gives none). It closes after a ``Connection: close``
or HTTP/1.0 response, and raises the :mod:`http.client` and
:class:`OSError` exceptions the stdlib client would.

A request that fails on a reused connection before the status line
arrives (the server dropped the idle connection) is sent once more on
a fresh one — but only a read (``GET``, ``POST /query``, ``POST
/sql``): a write is never sent twice, so ``PATCH``, ``POST
/clean/step`` and ``POST /datasets`` raise instead. :meth:`close` (or
leaving a ``with`` block) closes every thread's connection.

Server-side failures raise :class:`ServiceError` carrying the HTTP
status and the structured ``code``/``message`` payload the server sent.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import weakref
from typing import Any
from urllib.parse import urlsplit

import numpy as np

from repro.service.wire import (
    decode_relation,
    decode_values,
    encode_codd_table,
    encode_dataset,
    encode_delta,
    encode_fraction,
)

__all__ = ["ServiceError", "ServiceClient"]

#: Request paths a ``POST`` may re-send: reads that change no state.
_READ_POSTS = frozenset({"/query", "/sql"})

#: How a request fails when the server closed its connection before
#: answering (``RemoteDisconnected`` is both).
_DROPPED = (ConnectionError, http.client.BadStatusLine)

#: The longest status or header line, and the most header lines, a
#: response may carry (``http.client``'s limits).
_MAX_LINE = 65536
_MAX_HEADERS = 100


class _Connection:
    """A client thread's HTTP/1.1 connection: one socket with
    ``TCP_NODELAY``, opened on first use and again after a close.

    It sends a request's head and body in one ``sendall`` and reads the
    status line and headers line by line, raising what
    :mod:`http.client` raises for the same faults. It closes its socket
    when the response says so, and when collected, as when its thread
    ends, instead of leaving that to the socket.
    """

    def __init__(self, host: str, port: int, host_header: str, timeout: float) -> None:
        self._address = (host, port)
        self._host_header = host_header
        self._timeout = timeout
        self.sock: socket.socket | None = None
        self._reader = None

    def close(self) -> None:
        sock, reader = self.sock, self._reader
        self.sock = self._reader = None
        if reader is not None:
            reader.close()
        if sock is not None:
            sock.close()

    def __del__(self) -> None:
        self.close()

    def request(self, method: str, target: str, body: bytes | None) -> None:
        """Send one request, connecting first if no socket is open."""
        if self.sock is None:
            sock = socket.create_connection(self._address, self._timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.sock, self._reader = sock, sock.makefile("rb")
        head = f"{method} {target} HTTP/1.1\r\nHost: {self._host_header}\r\n"
        if body is not None:
            head += (
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
        self.sock.sendall(head.encode("latin-1") + b"\r\n" + (body or b""))

    def read_head(self) -> tuple[int, str, int | None, bool]:
        """The response's ``(status, reason, length, closes)``: ``length``
        is the body's, None when the body runs to end-of-file, and
        ``closes`` is true when the server ends the connection after it."""
        line = self._readline("status line")
        if not line:
            raise http.client.RemoteDisconnected(
                "Remote end closed connection without response"
            )
        version, _, rest = line.decode("iso-8859-1").rstrip("\r\n").partition(" ")
        status, _, reason = rest.partition(" ")
        if not version.startswith("HTTP/1.") or not (
            len(status) == 3 and status.isascii() and status.isdigit()
        ):
            raise http.client.BadStatusLine(line)
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADERS + 1):
            line = self._readline("header line")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("iso-8859-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise http.client.HTTPException(f"got more than {_MAX_HEADERS} headers")
        if "transfer-encoding" in headers:
            raise http.client.HTTPException("a chunked response is not supported")
        declared = headers.get("content-length")
        if declared is not None and not (declared.isascii() and declared.isdigit()):
            raise http.client.HTTPException(f"bad Content-Length {declared!r}")
        length = None if declared is None else int(declared)
        closes = (
            length is None
            or version == "HTTP/1.0"
            or headers.get("connection", "").lower() == "close"
        )
        return int(status), reason.strip(), length, closes

    def read_body(self, length: int | None, closes: bool) -> bytes:
        """The body: ``length`` bytes, or every byte to end-of-file."""
        data = self._reader.read(length)
        if length is not None and len(data) < length:
            raise http.client.IncompleteRead(data, length - len(data))
        if closes:
            self.close()
        return data

    def _readline(self, what: str) -> bytes:
        line = self._reader.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise http.client.LineTooLong(what)
        return line


class ServiceError(RuntimeError):
    """A structured error response from the service."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(f"[{status} {code}] {message}")
        self.status = status
        self.code = code
        self.message = message


class ServiceClient:
    """Talk to a running ``repro serve`` instance.

    Safe to share across threads: each thread talks over its own
    keep-alive connection. Use it as a context manager, or call
    :meth:`close`, to release the connections.

    Parameters
    ----------
    base_url:
        E.g. ``"http://127.0.0.1:8970"`` (no trailing slash needed).
    timeout:
        Per-request socket timeout in seconds.
    """

    def __init__(self, base_url: str, timeout: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        parts = urlsplit(self.base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"base_url must be an http:// URL, got {base_url!r}")
        self._host = parts.hostname
        self._port = parts.port or 80
        self._host_header = parts.netloc.rpartition("@")[2]
        self._prefix = parts.path
        self._local = threading.local()
        # Every live connection, so close() reaches other threads' ones; a
        # thread's connection is collected (and closed) with the thread.
        self._connections: weakref.WeakSet = weakref.WeakSet()
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close every thread's connection; a later request opens a new one."""
        with self._lock:
            connections = list(self._connections)
            self._connections.clear()
        for connection in connections:
            connection.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connection(self) -> _Connection:
        """This thread's connection, opened lazily (and again after close)."""
        connection = getattr(self._local, "connection", None)
        with self._lock:
            if connection is None or connection not in self._connections:
                connection = _Connection(
                    self._host, self._port, self._host_header, self.timeout
                )
                self._connections.add(connection)
                self._local.connection = connection
        return connection

    def _discard(self, connection: _Connection) -> None:
        connection.close()
        with self._lock:
            self._connections.discard(connection)

    def _send(self, method: str, path: str, body: bytes | None) -> tuple[int, str, bytes]:
        """One request/response exchange: ``(status, reason, body bytes)``."""
        resend = method == "GET" or (method == "POST" and path in _READ_POSTS)
        while True:
            connection = self._connection()
            reused = connection.sock is not None
            head = None
            try:
                connection.request(method, self._prefix + path, body)
                head = connection.read_head()
                status, reason, length, closes = head
                return status, reason, connection.read_body(length, closes)
            except BaseException as exc:
                # After any failure the connection's state is unknown.
                self._discard(connection)
                # No status line over a reused connection: the server closed
                # it while idle. A read goes out once more, on a fresh one.
                dropped = head is None and isinstance(exc, _DROPPED)
                if not (dropped and reused and resend):
                    raise
                resend = False

    def _raw(self, method: str, path: str, payload: dict | None = None) -> bytes:
        """The response body of a successful request; :class:`ServiceError`
        for an error status."""
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        status, reason, data = self._send(method, path, body)
        if status < 400:
            return data
        try:
            detail = json.loads(data)["error"]
            code, message = detail.get("code", "error"), detail.get("message", "")
        except (ValueError, LookupError, TypeError, AttributeError):
            code, message = "error", reason  # not the service's error payload
        raise ServiceError(status, code, message)

    def _request(self, method: str, path: str, payload: dict | None = None) -> dict:
        return json.loads(self._raw(method, path, payload))

    def _request_text(self, method: str, path: str) -> str:
        """Like :meth:`_request` but for non-JSON (text) responses."""
        return self._raw(method, path).decode("utf-8")

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def wait_until_ready(self, timeout: float = 10.0, interval: float = 0.05) -> dict:
        """Poll ``/healthz`` until the service answers (or raise TimeoutError)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.healthz()
            except (ServiceError, OSError, http.client.HTTPException):
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"service at {self.base_url} not ready after {timeout}s"
                    ) from None
                time.sleep(interval)

    def metrics(self, format: str | None = None) -> dict | str:
        """Fetch ``/metrics``. ``format="prometheus"`` returns the text
        exposition as a string; the default returns the JSON dict."""
        if format == "prometheus":
            return self._request_text("GET", "/metrics?format=prometheus")
        return self._request("GET", "/metrics")

    def traces(self, trace_id: str | None = None, limit: int | None = None):
        """Fetch buffered traces (``/debug/traces``) or one by id."""
        if trace_id is not None:
            return self._request("GET", f"/debug/traces/{trace_id}")
        path = "/debug/traces" if limit is None else f"/debug/traces?limit={int(limit)}"
        return self._request("GET", path)["traces"]

    def datasets(self) -> list[dict]:
        return self._request("GET", "/datasets")["datasets"]

    def dataset(self, name: str) -> dict:
        return self._request("GET", f"/datasets/{name}")

    def register_dataset(
        self,
        name: str,
        dataset,
        k: int = 3,
        kernel: str | None = None,
        val_X: np.ndarray | None = None,
        replace: bool = False,
    ) -> dict:
        """Ship a local dataset to the service under ``name``."""
        payload: dict[str, Any] = {
            "name": name,
            "dataset": encode_dataset(dataset),
            "k": k,
            "replace": replace,
        }
        if kernel is not None:
            payload["kernel"] = kernel
        if val_X is not None:
            payload["val_X"] = np.asarray(val_X, dtype=np.float64).tolist()
        return self._request("POST", "/datasets", payload)

    def register_codd_table(self, name: str, table, replace: bool = False) -> dict:
        """Ship a local :class:`~repro.codd.codd_table.CoddTable` to the
        service under ``name`` (so ``/sql`` queries can ``FROM name``)."""
        return self._request(
            "POST",
            "/datasets",
            {
                "name": name,
                "codd_table": encode_codd_table(table),
                "replace": replace,
            },
        )

    def sql(
        self,
        query: str,
        mode: str = "certain",
        backend: str = "auto",
        codd_table=None,
        explain: bool | str = False,
    ) -> dict:
        """Run a SQL query with certain-answer semantics over a registered
        Codd table (or an inline one) and decode the results.

        The response's ``results`` maps each served mode (``certain`` /
        ``possible``) to a :class:`~repro.codd.relation.Relation` that
        compares ``==`` to the in-process
        :func:`~repro.codd.certain.certain_answers` answer — the wire
        format is exact.
        """
        payload: dict[str, Any] = {"query": query, "mode": mode, "backend": backend}
        if explain:
            payload["explain"] = explain if explain == "trace" else True
        if codd_table is not None:
            payload["codd_table"] = encode_codd_table(codd_table)
        response = self._request("POST", "/sql", payload)
        response["results"] = {
            served_mode: decode_relation(encoded)
            for served_mode, encoded in response["results"].items()
        }
        return response

    def register_recipe(self, name: str, recipe: str = "supreme", **spec) -> dict:
        """Have the server build one of the paper's recipes (with oracle)."""
        return self._request(
            "POST", "/datasets", {"name": name, "recipe": {"recipe": recipe, **spec}}
        )

    def query(
        self,
        dataset: str,
        point=None,
        points=None,
        kind: str = "counts",
        flavor: str = "auto",
        k: int | None = None,
        pins=None,
        label: int | None = None,
        weights=None,
        backend: str | None = None,
        with_cleaned: bool = False,
        explain: bool | str = False,
    ) -> dict:
        """Run a CP query; the response's ``values`` are exact local types.

        Give ``point`` (one test point — rides the server's micro-batch)
        or ``points`` (a matrix, or the string ``"validation"`` for the
        dataset's registered validation set). ``weights`` may hold
        Fractions; they are shipped exactly. ``explain=True`` asks for the
        response's ``explain`` block — chosen backend, plan reason, and
        pruning / early-termination counters for this execution.
        ``explain="trace"`` additionally embeds the request's span tree
        under ``"trace"``.
        """
        if (point is None) == (points is None):
            raise ValueError("provide exactly one of point= or points=")
        payload: dict[str, Any] = {
            "dataset": dataset,
            "kind": kind,
            "flavor": flavor,
            "with_cleaned": with_cleaned,
        }
        if explain:
            payload["explain"] = explain if explain == "trace" else True
        if point is not None:
            payload["point"] = np.asarray(point, dtype=np.float64).tolist()
        elif isinstance(points, str):
            payload["points"] = points
        else:
            payload["points"] = np.asarray(points, dtype=np.float64).tolist()
        if k is not None:
            payload["k"] = int(k)
        if pins:
            payload["pins"] = [[int(r), int(c)] for r, c in dict(pins).items()]
        if label is not None:
            payload["label"] = int(label)
        if weights is not None:
            payload["weights"] = [
                [encode_fraction(w) for w in row] for row in weights
            ]
        if backend is not None:
            payload["backend"] = backend
        response = self._request("POST", "/query", payload)
        response["values"] = decode_values(
            response["values"], response["kind"], response["flavor"]
        )
        return response

    def patch(self, name: str, deltas=None, fixes=None) -> dict:
        """Apply base-data writes to a registered dataset or Codd table.

        ``deltas`` is a list of :class:`~repro.core.deltas.CellRepair` /
        :class:`~repro.core.deltas.RowAppend` /
        :class:`~repro.core.deltas.RowDelete` objects (or already-encoded
        wire dicts) for a CP dataset; ``fixes`` is a list of ``(row,
        column, value)`` triples (or wire dicts) for a Codd table. The
        response carries the entry's new ``version`` and ``fingerprint``
        plus one report per applied write — and every subsequent query
        response echoes the version it was served at.
        """
        if (deltas is None) == (fixes is None):
            raise ValueError("provide exactly one of deltas= or fixes=")
        payload: dict[str, Any]
        if deltas is not None:
            payload = {
                "deltas": [
                    delta if isinstance(delta, dict) else encode_delta(delta)
                    for delta in deltas
                ]
            }
        else:
            payload = {
                "fixes": [
                    fix
                    if isinstance(fix, dict)
                    else {
                        "op": "fix_cell",
                        "row": int(fix[0]),
                        "column": int(fix[1]),
                        "value": fix[2],
                    }
                    for fix in fixes
                ]
            }
        return self._request("PATCH", f"/datasets/{name}", payload)

    def repair_cell(self, name: str, row: int, candidate: int) -> dict:
        """PATCH one :class:`~repro.core.deltas.CellRepair` onto a dataset."""
        return self.patch(
            name,
            deltas=[{"op": "cell_repair", "row": int(row), "candidate": int(candidate)}],
        )

    def append_row(self, name: str, candidates, label: int) -> dict:
        """PATCH one :class:`~repro.core.deltas.RowAppend` onto a dataset."""
        return self.patch(
            name,
            deltas=[
                {
                    "op": "row_append",
                    "candidates": np.asarray(candidates, dtype=np.float64).tolist(),
                    "label": int(label),
                }
            ],
        )

    def delete_row(self, name: str, row: int) -> dict:
        """PATCH one :class:`~repro.core.deltas.RowDelete` onto a dataset."""
        return self.patch(name, deltas=[{"op": "row_delete", "row": int(row)}])

    def fix_cell(self, name: str, row: int, column: int, value) -> dict:
        """PATCH one NULL-cell fix onto a registered Codd table."""
        return self.patch(name, fixes=[(row, column, value)])

    def clean_step(self, dataset: str, row: int, candidate: int | None = None) -> dict:
        """Apply one cleaning answer (``candidate=None`` asks the server's
        ground-truth oracle) and return the session checkpoint."""
        payload: dict[str, Any] = {"dataset": dataset, "row": int(row)}
        if candidate is not None:
            payload["candidate"] = int(candidate)
        checkpoint = self._request("POST", "/clean/step", payload)
        # JSON object keys are strings; restore the row -> candidate ints.
        checkpoint["fixed"] = {
            int(row): int(cand) for row, cand in checkpoint["fixed"].items()
        }
        return checkpoint
