"""The stdlib HTTP front end: a threaded JSON API over the broker.

``ThreadingHTTPServer`` (one thread per connection, stdlib-only — the
container bakes in no web framework and the service does not need one)
exposes the registry + broker behind these JSON endpoints:

==========================  ======  ==============================================
path                        method  what it does
==========================  ======  ==============================================
``/healthz``                GET     readiness: status + uptime + datasets, plus
                                    per-executor liveness in gateway mode — 503
                                    with ``status: "degraded"`` while any
                                    executor is down awaiting respawn
``/metrics``                GET     registry counters + broker/micro-batching/
                                    cache stats + the typed ``obs`` snapshot;
                                    ``?format=prometheus`` renders the text
                                    exposition instead
``/debug/traces``           GET     the tracer's ring buffer of recent span
                                    trees (``?limit=N``)
``/debug/traces/<id>``      GET     one span tree by trace id
``/datasets``               GET     list registered datasets and Codd tables
                                    (``POST`` registers one: a recipe build, a
                                    wire-encoded dataset or ``codd_table``)
``/datasets/<name>``        GET     one dataset's (or Codd table's) description
``/datasets/<name>``        PATCH   base-data deltas: cell repairs / row appends
                                    / row deletes on a CP dataset (``deltas``)
                                    or single-cell fixes on a Codd table
                                    (``fixes``); bumps the entry version,
                                    maintained in O(Δ)
``/query``                  POST    a CP query — single point (micro-batched) or
                                    matrix; ``explain`` adds plan + pruning
                                    telemetry, ``explain="trace"`` embeds the
                                    request's span tree
``/sql``                    POST    a SQL query over a registered (or inline)
                                    Codd table with certain/possible-answer
                                    semantics (``explain="trace"`` as above)
``/clean/step``             POST    one cleaning answer; returns the checkpoint
==========================  ======  ==============================================

Every error a route raises is a structured JSON payload ``{"error":
{"code", "message"}}`` with the right status class: malformed JSON, a
``/query`` field the handler does not read and invalid queries are 400,
an unknown dataset is 404, a duplicate registration is 409, admission
rejection is 429 with a ``Retry-After`` header, and anything unexpected
is a 500 that never leaks a traceback to the client.

Every request runs inside an ``http.request`` root span (the head of the
trace tree the lower layers grow), is timed into per-route latency
histograms, echoes its ``X-Trace-Id`` header, and — with
``access_log=True`` (``repro serve --access-log``) — emits one JSON
access-log line to stderr. Root spans slower than ``slow_ms`` land in
the slow-query log (see :class:`repro.obs.Tracer`).

Connections are HTTP/1.1 keep-alive with ``TCP_NODELAY``: a client
that keeps its connection (as :class:`~repro.service.client.ServiceClient`
does, one per thread) pays for neither a TCP handshake nor a new handler
thread per request. :meth:`ServiceServer.close` ends every open
connection once the broker has drained, so no handler thread stays
parked on an idle connection after the server is closed.

The framing is the handler's own, not the stdlib's ``email``-based
header parser. The request line gets the stdlib's checks. Headers are
read line by line into a dict keyed by lower-cased name: a line over
65,536 bytes, or more than 100 of them, is a 431. The body is read by
``Content-Length`` before any route runs. A body the server cannot
delimit is refused and the connection closed: any ``Transfer-Encoding``
is a 501; a ``Content-Length`` that is not one non-negative decimal, or
is missing on a ``POST`` or ``PATCH``, is a 400. These refusals, like the
request-line and header errors, are the stdlib's HTML ``send_error``
pages, sent before routing. A response leaves in one write (status line,
headers and body in one buffer), and says ``Connection: close`` when the
server will close the connection after it.

Start a server with :func:`make_service` (ephemeral port, background
thread — what the tests and the CI smoke job use) or :func:`serve`
(blocking — what ``repro serve`` calls).
"""

from __future__ import annotations

import json
import signal
import socket
import sys
import threading
import time
from email.utils import formatdate
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.codd.engine import CoddPlanError
from repro.codd.sql import SqlError
from repro.core.planner import PlanError
from repro.obs import Observability
from repro.obs.tracing import trace_span
from repro.service.broker import AdmissionError, QueryBroker
from repro.service.registry import (
    DatasetRegistry,
    DuplicateDatasetError,
    RegistryError,
    UnknownDatasetError,
)
from repro.service.wire import (
    WireError,
    decode_codd_fixes,
    decode_codd_table,
    decode_dataset,
    decode_deltas,
    decode_matrix,
    decode_pins,
    decode_weights,
    encode_values,
)

__all__ = ["ServiceServer", "make_service", "serve"]

#: How long :meth:`ServiceServer.close` waits for connection handlers to exit.
_HANDLER_JOIN_S = 10.0


class ServiceServer(ThreadingHTTPServer):
    """The HTTP server plus the service state its handlers operate on."""

    daemon_threads = True  # connection threads must not block shutdown
    # socketserver's default listen backlog is 5; a burst of concurrent
    # clients (the whole point of micro-batching) would see kernel-level
    # connection resets before admission control ever got a say. Admission
    # decisions belong to the broker (429 + Retry-After), not the backlog.
    request_queue_size = 128

    def __init__(
        self,
        address,
        registry: DatasetRegistry,
        broker: QueryBroker,
        obs: Observability | None = None,
        access_log: bool = False,
        access_sink=None,
    ):
        super().__init__(address, _Handler)
        self.registry = registry
        self.broker = broker
        self.obs = obs if obs is not None else broker.obs
        self.access_log = bool(access_log)
        self.access_sink = access_sink  # None → sys.stderr at emit time
        self.started = time.monotonic()
        self._accepting = False  # True once serve_forever is (about to be) live
        # Open connection socket -> its handler thread, so close() can end
        # keep-alive handlers parked on their next request line.
        self._handlers: dict[socket.socket, threading.Thread] = {}
        self._handlers_lock = threading.Lock()
        self._closing = False  # set by close(): new connections are refused

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def process_request(self, request, client_address) -> None:
        """Serve one connection on its own daemon thread (as
        ``ThreadingMixIn`` does), remembering both until it closes. Once
        :meth:`close` has begun, a new connection is closed unserved."""
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            daemon=True,
        )
        with self._handlers_lock:
            refused = self._closing
            if not refused:
                self._handlers[request] = thread
        if refused:
            self.shutdown_request(request)
        else:
            thread.start()

    def handle_error(self, request, client_address) -> None:
        if isinstance(sys.exc_info()[1], ConnectionError):
            return  # the client hung up mid-response: not a server fault
        super().handle_error(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._handlers_lock:
            self._handlers.pop(request, None)
        super().shutdown_request(request)

    def close(self) -> None:
        """Flush pending micro-batches, end every connection, stop serving,
        release the socket.

        From the first step on, a new connection is closed unserved. Once
        the broker has answered what it held, each open connection's read
        side is shut down: a handler parked on a keep-alive connection's
        next request line reads end-of-file and exits, while one still
        writing a response finishes it first. The handlers are joined (for
        at most :data:`_HANDLER_JOIN_S`) before the accept loop stops, so
        the accept thread, started first, exits last. glibc gives a new
        thread the malloc arena an exited thread released last, so in a
        process that builds one server after another (a test suite, a
        benchmark) the next accept thread takes this accept thread's small
        arena and the next handler this handler's grown one. In the other
        order the two swap and the next handler grows a second arena:
        about 10 MB more peak RSS over a 1000-row cleaning session.

        Safe whether or not the accept loop ever ran: ``shutdown()`` waits
        on an event only ``serve_forever()`` sets, so it is skipped when
        the loop was never started (``make_service(..., start=False)``).
        """
        with self._handlers_lock:
            self._closing = True
        self.broker.close()
        with self._handlers_lock:
            handlers = list(self._handlers.items())
        for sock, _ in handlers:
            try:
                sock.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # the peer already closed it
        deadline = time.monotonic() + _HANDLER_JOIN_S
        for _, thread in handlers:
            thread.join(max(deadline - time.monotonic(), 0.0))
        if self._accepting:
            self._accepting = False
            self.shutdown()
        self.server_close()


def make_service(
    registry: DatasetRegistry | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    start: bool = True,
    executors: int = 0,
    executor_timeout_s: float = 30.0,
    trace: bool = True,
    trace_buffer: int = 256,
    slow_ms: float | None = None,
    access_log: bool = False,
    obs: Observability | None = None,
    **broker_kwargs,
) -> ServiceServer:
    """Build a :class:`ServiceServer` (port ``0`` = ephemeral).

    With ``start=True`` (default) the accept loop runs in a daemon
    thread and the call returns immediately — the pattern the tests, the
    examples and the CI smoke job share. ``broker_kwargs`` go to
    :class:`~repro.service.broker.QueryBroker` (``window_s``,
    ``max_batch``, ``max_pending``, ``backend``, ``n_jobs``, ``ttl_s``...).

    ``executors > 0`` selects the partitioned multi-process topology: a
    :class:`~repro.service.gateway.Gateway` with that many executor worker
    processes is spawned and handed to the broker, which scatter-gathers
    CP queries across them (bit-identical answers, automatic respawn of
    dead executors, transparent local fallback). ``0`` (default) is the
    classic single-process service.

    One :class:`~repro.obs.Observability` bundle is created here (unless
    ``obs`` hands one in) and shared by every layer — registry, broker,
    gateway, and HTTP server all report into the same metrics registry
    and tracer. ``trace=False`` disables span collection (metrics stay
    on), ``slow_ms`` arms the slow-query log, ``access_log`` emits one
    JSON line per request to stderr.
    """
    registry = registry if registry is not None else DatasetRegistry()
    if obs is None:
        obs = Observability(
            enabled=trace,
            trace_buffer_size=trace_buffer,
            slow_s=None if slow_ms is None else slow_ms / 1000.0,
        )
    registry.attach_observability(obs)
    gateway = None
    if executors > 0:
        from repro.service.gateway import Gateway

        gateway = Gateway(executors, timeout_s=executor_timeout_s, obs=obs)
        broker_kwargs["gateway"] = gateway
    # Until the broker owns the gateway (and the server owns the broker),
    # a constructor failure must not leak executor processes or the broker's
    # timers — close whatever was already built before re-raising.
    try:
        broker = QueryBroker(registry, obs=obs, **broker_kwargs)
    except BaseException:
        if gateway is not None:
            gateway.close()
        raise
    try:
        server = ServiceServer(
            (host, port), registry, broker, obs=obs, access_log=access_log
        )
    except BaseException:
        broker.close()  # also shuts down the gateway it owns
        raise
    if start:
        server._accepting = True
        thread = threading.Thread(
            target=server.serve_forever, name="repro-service", daemon=True
        )
        thread.start()
    return server


def serve(
    registry: DatasetRegistry | None = None,
    host: str = "127.0.0.1",
    port: int = 8970,
    **kwargs,
) -> None:
    """Run the service in the foreground until interrupted (``repro serve``).

    SIGINT *and* SIGTERM drain before exiting: both are routed into the
    ``KeyboardInterrupt`` path, whose ``finally`` runs
    :meth:`ServiceServer.close` — flushing every pending micro-batch (each
    in-flight future resolves or fails cleanly, no connection resets) and
    shutting down gateway executors, in single- and multi-process modes
    alike. The handlers raise instead of calling ``shutdown()`` directly
    because ``shutdown()`` deadlocks when invoked from the thread running
    ``serve_forever()`` — which is exactly where a signal handler runs.
    """
    server = make_service(registry, host=host, port=port, start=False, **kwargs)
    # flush=True: with stdout piped (CI smoke, subprocess tests) the listen
    # line must escape the block buffer before serve_forever() parks.
    print(f"repro service listening on {server.url}", flush=True)
    print(f"datasets registered: {server.registry.names() or '(none)'}", flush=True)

    def _graceful(signum, frame):
        raise KeyboardInterrupt

    installed: list[tuple[int, object]] = []
    try:
        # Only the main thread may install handlers; embedded callers
        # (tests driving serve() from a worker thread) simply keep the
        # KeyboardInterrupt-only path.
        for signum in (signal.SIGINT, signal.SIGTERM):
            installed.append((signum, signal.signal(signum, _graceful)))
    except ValueError:
        pass
    server._accepting = True
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        for signum, previous in installed:
            try:
                signal.signal(signum, previous)
            except (ValueError, TypeError):
                pass
        server._accepting = False  # the loop already exited; skip shutdown()
        server.close()
        print("repro service drained and stopped", flush=True)


# ---------------------------------------------------------------------------
# Request handling
# ---------------------------------------------------------------------------

class _NotFound(Exception):
    """Internal: an unrouted path (mapped to a structured 404)."""


#: Exception → (HTTP status, error code). Order matters: subclasses first.
_ERROR_MAP: tuple[tuple[type[BaseException], int, str], ...] = (
    (AdmissionError, 429, "overloaded"),
    (_NotFound, 404, "not_found"),
    (UnknownDatasetError, 404, "unknown_dataset"),
    (DuplicateDatasetError, 409, "registry_conflict"),
    (RegistryError, 400, "invalid_request"),
    (WireError, 400, "malformed_payload"),
    (SqlError, 400, "sql_error"),
    ((PlanError, CoddPlanError), 400, "plan_error"),
    (TimeoutError, 504, "timeout"),
    ((ValueError, TypeError, IndexError, KeyError), 400, "invalid_query"),
)


#: Content type of the Prometheus text exposition format we emit.
_PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _RawResponse:
    """A handler result that bypasses JSON encoding (Prometheus text)."""

    __slots__ = ("status", "body", "content_type")

    def __init__(self, status: int, body: str, content_type: str) -> None:
        self.status = status
        self.body = body
        self.content_type = content_type


#: The longest request or header line, and the most header lines, a
#: request may carry (the stdlib's limits); past either it is a 431.
_MAX_LINE = 65536
_MAX_HEADERS = 100

#: Methods whose every route reads a body, so a missing length is a 400.
_BODY_METHODS = frozenset({"POST", "PATCH"})


def _version_number(version: str) -> tuple[int, int] | None:
    """``(major, minor)`` of an ``HTTP/x.y`` token, or None if it is
    malformed (the stdlib's rules: one dot, at most ten digits a side)."""
    if not version.startswith("HTTP/"):
        return None
    parts = version[5:].split(".")
    if len(parts) != 2 or not all(
        part.isascii() and part.isdigit() and len(part) <= 10 for part in parts
    ):
        return None
    return int(parts[0]), int(parts[1])


def _content_length(declared: str) -> int | None:
    """The body length a ``Content-Length`` value declares, or None unless
    it is one non-negative decimal (repeats of one value count as one)."""
    values = {value.strip() for value in declared.split(",")}
    if len(values) != 1:
        return None
    (value,) = values
    return int(value) if value.isascii() and value.isdigit() else None


#: ``(second, its IMF-fixdate)``: a response's ``Date`` is formatted at
#: most once a second.
_date_cache: tuple[int, str] = (0, "")


def _http_date() -> str:
    global _date_cache
    now = int(time.time())
    second, text = _date_cache
    if second != now:
        text = formatdate(now, usegmt=True)
        _date_cache = (now, text)
    return text


#: Known route templates, for bounded-cardinality metric labels.
_ROUTE_TEMPLATES = (
    "/healthz",
    "/metrics",
    "/debug/traces",
    "/datasets",
    "/query",
    "/sql",
    "/clean/step",
)


def _route_label(path: str) -> str:
    """Collapse a concrete path to its route template.

    Metric labels must stay bounded; raw paths embed dataset names and
    trace ids, which would mint one histogram per name.
    """
    if path in _ROUTE_TEMPLATES:
        return path
    if path.startswith("/debug/traces/"):
        return "/debug/traces/:id"
    if path.startswith("/datasets/"):
        return "/datasets/:name"
    return ":unrouted"


#: The optional ``/query`` body fields, with their defaults: each is
#: passed to :meth:`QueryBroker.query` under the same name.
_QUERY_OPTIONS = {
    "kind": "counts",
    "flavor": "auto",
    "k": None,
    "pins": None,
    "label": None,
    "weights": None,
    "backend": None,
    "with_cleaned": False,
    "explain": False,
}

#: Every field a ``/query`` body may carry; any other is a 400.
_QUERY_FIELDS = frozenset({"dataset", "point", "points", *_QUERY_OPTIONS})


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Sets TCP_NODELAY: without it a keep-alive client waits on delayed
    # ACK for each response's body segment, ~40 ms per request.
    disable_nagle_algorithm = True
    server: ServiceServer  # narrowed for type checkers

    # -- plumbing ------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # default http.server chatter stays off; --access-log is structured

    def parse_request(self) -> bool:
        """Parse the request line, the headers and the body.

        The request line gets the stdlib's checks (400 for bad syntax or
        version, 505 from HTTP/2 on, HTTP/1.0 closes, ``//`` collapses),
        and an HTTP/0.9 line, which has no version, is a 400 too.
        Headers land in ``self.headers``, a dict keyed by lower-cased
        name whose repeated fields are joined with ``", "``; a line over
        :data:`_MAX_LINE` bytes or more than :data:`_MAX_HEADERS` lines
        is a 431. The body is read here, by ``Content-Length``, so no
        handler leaves bytes behind for the next request line. A framing
        this server cannot delimit (any ``Transfer-Encoding``: 501; a
        bad, negative or conflicting ``Content-Length``, or none on a
        ``POST`` or ``PATCH``: 400) is refused and the connection closed.
        Returns False once an error has been sent (or for a blank line).
        """
        self.command = None  # set in case of error on the first line
        self.request_version = ""  # not HTTP/0.9: an error gets a status line
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) != 3:
            self.send_error(
                HTTPStatus.BAD_REQUEST, f"Bad request syntax ({requestline!r})"
            )
            return False
        command, path, version = words
        number = _version_number(version)
        if number is None:
            self.send_error(HTTPStatus.BAD_REQUEST, f"Bad request version ({version!r})")
            return False
        if number >= (2, 0):
            self.send_error(
                HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                f"Invalid HTTP version ({version[5:]})",
            )
            return False
        self.close_connection = number < (1, 1)
        self.request_version = version
        if path.startswith("//"):
            path = "/" + path.lstrip("/")  # gh-87389: no scheme-relative paths
        self.command, self.path = command, path

        headers: dict[str, str] = {}
        readline = self.rfile.readline
        for _ in range(_MAX_HEADERS + 1):
            line = readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, "Line too long"
                )
                return False
            if line in (b"\r\n", b"\n", b""):
                break
            name, colon, value = line.decode("iso-8859-1").partition(":")
            if not colon or not name or name != name.strip():
                self.send_error(HTTPStatus.BAD_REQUEST, "Bad header line")
                return False
            name, value = name.lower(), value.strip()
            headers[name] = f"{headers[name]}, {value}" if name in headers else value
        else:
            self.send_error(
                HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, "Too many headers"
            )
            return False
        self.headers = headers

        conntype = headers.get("connection", "").lower()
        if conntype == "close":
            self.close_connection = True
        elif conntype == "keep-alive":
            self.close_connection = False
        if "transfer-encoding" in headers:
            self.send_error(
                HTTPStatus.NOT_IMPLEMENTED, "Transfer-Encoding is not supported"
            )
            return False
        declared = headers.get("content-length")
        if declared is None and command in _BODY_METHODS:
            self.send_error(HTTPStatus.BAD_REQUEST, "Content-Length required")
            return False
        length = 0 if declared is None else _content_length(declared)
        if length is None:
            self.send_error(
                HTTPStatus.BAD_REQUEST, f"Bad Content-Length ({declared!r})"
            )
            return False
        if (
            headers.get("expect", "").lower() == "100-continue"
            and self.request_version >= "HTTP/1.1"
            and not self.handle_expect_100()
        ):
            return False
        self._body = self.rfile.read(length) if length else b""
        if len(self._body) < length:
            self.send_error(HTTPStatus.BAD_REQUEST, "Incomplete body")
            return False
        return True

    def _send_bytes(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: dict | None = None,
    ) -> None:
        """Write the whole response (status line, headers, body) at once."""
        self._last_status = status
        phrase = self.responses[status][0] if status in self.responses else ""
        head = (
            f"{self.protocol_version} {status} {phrase}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {_http_date()}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if self._trace_id:
            head += f"X-Trace-Id: {self._trace_id}\r\n"
        for name, value in (headers or {}).items():
            head += f"{name}: {value}\r\n"
        if self.close_connection:
            head += "Connection: close\r\n"
        self.wfile.write(head.encode("latin-1") + b"\r\n" + body)

    def _read_json(self) -> dict:
        try:
            payload = json.loads(self._body.decode("utf-8")) if self._body else None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise WireError(f"request body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise WireError("request body must be a JSON object")
        return payload

    def _target(self) -> str:
        """The request path without a trailing ``/``. Parses the target
        once, keeping its query string for the GET routes that read it."""
        target = urlparse(self.path)
        self._query = target.query
        return target.path.rstrip("/") or "/"

    def _dispatch(self, handler, path: str) -> None:
        server = self.server
        route = _route_label(path)
        self._last_status = 0
        self._trace_id = None
        started = time.perf_counter()
        # The root span of the request's trace tree: broker, planner,
        # gateway and executor spans all hang off it via thread-local
        # propagation (+ record adoption across threads and processes).
        with trace_span(
            "http.request",
            tracer=server.obs.tracer,
            method=self.command,
            path=path,
        ) as span:
            self._trace_id = span.trace_id
            status, body, content_type, headers = self._evaluate(handler)
            span.set(status=status)
        # The span closes (publishing the finished trace to the ring
        # buffer) before the response bytes leave: a client that reads
        # its answer and immediately asks /debug/traces finds its trace.
        self._send_bytes(status, body, content_type, headers)
        duration_s = time.perf_counter() - started
        metrics = server.obs.metrics
        metrics.counter(
            "http_requests_total", route=route, status=str(status)
        ).inc()
        metrics.histogram(
            "http_request_seconds",
            help="request handling latency by route",
            route=route,
        ).observe(duration_s)
        if server.access_log:
            self._emit_access_line(path, duration_s)

    def _emit_access_line(self, path: str, duration_s: float) -> None:
        sink = self.server.access_sink
        line = json.dumps(
            {
                "method": self.command,
                "path": path,
                "status": self._last_status,
                "duration_ms": round(duration_s * 1000.0, 3),
                "trace_id": self._trace_id,
            },
            sort_keys=True,
        )
        try:
            print(line, file=sink if sink is not None else sys.stderr, flush=True)
        except (OSError, ValueError):
            pass  # a closed sink must never take down request handling

    def _evaluate(self, handler) -> tuple[int, bytes, str, dict | None]:
        """Run one route handler to a fully rendered response.

        Returns ``(status, body bytes, content type, extra headers)``
        without touching the socket — ``_dispatch`` sends after the
        request's root span has closed.
        """
        try:
            result = handler()
            if isinstance(result, _RawResponse):
                return (
                    result.status,
                    result.body.encode("utf-8"),
                    result.content_type,
                    None,
                )
            status, payload = result
            return status, json.dumps(payload).encode("utf-8"), "application/json", None
        except BaseException as exc:  # noqa: BLE001 — mapped to structured errors
            for exc_types, status, code in _ERROR_MAP:
                if isinstance(exc, exc_types):
                    headers = (
                        {"Retry-After": f"{exc.retry_after:.3f}"}
                        if isinstance(exc, AdmissionError)
                        else None
                    )
                    message = str(exc) if not isinstance(exc, KeyError) else (
                        str(exc) if isinstance(exc, UnknownDatasetError)
                        else f"missing field {exc.args[0]!r}"
                    )
                    return self._error_response(status, code, message, headers)
            return self._error_response(
                500, "internal_error", f"{type(exc).__name__} (see server logs)"
            )

    @staticmethod
    def _error_response(
        status: int, code: str, message: str, headers: dict | None = None
    ) -> tuple[int, bytes, str, dict | None]:
        body = json.dumps({"error": {"code": code, "message": message}})
        return status, body.encode("utf-8"), "application/json", headers

    # -- routes --------------------------------------------------------
    def _not_found(self, path: str):
        raise _NotFound(f"no route for {self.command} {path}")

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        path = self._target()
        if path == "/healthz":
            self._dispatch(self._get_healthz, path)
        elif path == "/metrics":
            self._dispatch(self._get_metrics, path)
        elif path == "/debug/traces":
            self._dispatch(self._get_traces, path)
        elif path.startswith("/debug/traces/"):
            trace_id = path[len("/debug/traces/") :]
            self._dispatch(lambda: self._get_trace(trace_id), path)
        elif path == "/datasets":
            self._dispatch(self._get_datasets, path)
        elif path.startswith("/datasets/"):
            name = path[len("/datasets/") :]
            self._dispatch(lambda: self._get_dataset(name), path)
        else:
            self._dispatch(lambda: self._not_found(path), path)

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        path = self._target()
        if path == "/datasets":
            self._dispatch(self._post_datasets, path)
        elif path == "/query":
            self._dispatch(self._post_query, path)
        elif path == "/sql":
            self._dispatch(self._post_sql, path)
        elif path == "/clean/step":
            self._dispatch(self._post_clean_step, path)
        else:
            self._dispatch(lambda: self._not_found(path), path)

    def do_PATCH(self) -> None:  # noqa: N802 — http.server API
        path = self._target()
        if path.startswith("/datasets/"):
            name = path[len("/datasets/") :]
            self._dispatch(lambda: self._patch_dataset(name), path)
        else:
            self._dispatch(lambda: self._not_found(path), path)

    # -- GET bodies ----------------------------------------------------
    def _get_healthz(self):
        body = {
            "status": "ok",
            "uptime_s": time.monotonic() - self.server.started,
            "datasets": self.server.registry.names(),
        }
        gateway = getattr(self.server.broker, "gateway", None)
        if gateway is not None:
            health = gateway.health()
            body["status"] = health["status"]
            body["executors"] = health["executors"]
            if health["status"] != "ok":
                return 503, body
        return 200, body

    def _get_metrics(self):
        query = parse_qs(self._query)
        if query.get("format", [""])[-1] == "prometheus":
            text = self.server.obs.metrics.render_prometheus()
            return _RawResponse(200, text, _PROMETHEUS_CONTENT_TYPE)
        return 200, {
            "uptime_s": time.monotonic() - self.server.started,
            "registry": dict(self.server.registry.stats()),
            "broker": self.server.broker.metrics(),
            "obs": self.server.obs.snapshot(),
        }

    def _get_traces(self):
        query = parse_qs(self._query)
        limit = None
        if "limit" in query:
            try:
                limit = int(query["limit"][-1])
            except ValueError:
                raise WireError("'limit' must be an integer") from None
        return 200, {"traces": self.server.obs.tracer.buffer.list(limit=limit)}

    def _get_trace(self, trace_id: str):
        record = self.server.obs.tracer.buffer.get(trace_id)
        if record is None:
            raise _NotFound(f"no buffered trace {trace_id!r}")
        return 200, record

    def _get_datasets(self):
        return 200, {"datasets": self.server.registry.describe_all()}

    def _get_dataset(self, name: str):
        registry = self.server.registry
        try:
            return 200, registry.get(name).describe()
        except UnknownDatasetError:
            return 200, registry.get_codd(name).describe()

    # -- POST bodies ---------------------------------------------------
    def _post_datasets(self):
        payload = self._read_json()
        name = payload["name"]
        replace = bool(payload.get("replace", False))
        if "codd_table" in payload:
            entry = self.server.registry.register_codd_table(
                name,
                decode_codd_table(payload["codd_table"]),
                replace=replace,
            )
            return 201, entry.describe()
        if "recipe" in payload:
            spec = payload["recipe"]
            if isinstance(spec, str):
                spec = {"recipe": spec}
            if not isinstance(spec, dict):
                raise WireError("'recipe' must be a recipe name or an object")
            entry = self.server.registry.register_recipe(
                name,
                recipe=spec.get("recipe", "supreme"),
                n_train=int(spec.get("n_train", 100)),
                n_val=int(spec.get("n_val", 24)),
                missing_rate=spec.get("missing_rate"),
                k=int(spec.get("k", 3)),
                seed=int(spec.get("seed", 0)),
                # HTTP-registered entries run with the same execution
                # defaults the operator configured for the server.
                backend=self.server.broker.backend,
                n_jobs=self.server.broker.n_jobs,
                replace=replace,
            )
        else:
            dataset = decode_dataset(payload["dataset"])
            val_X = payload.get("val_X")
            entry = self.server.registry.register(
                name,
                dataset,
                k=int(payload.get("k", 3)),
                kernel=payload.get("kernel"),
                val_X=None if val_X is None else decode_matrix(val_X, "val_X"),
                backend=self.server.broker.backend,
                n_jobs=self.server.broker.n_jobs,
                replace=replace,
            )
        return 201, entry.describe()

    def _post_query(self):
        payload = self._read_json()
        unknown = sorted(set(payload) - _QUERY_FIELDS)
        if unknown:
            raise WireError(
                f"unknown /query field(s) {unknown}; accepted: {sorted(_QUERY_FIELDS)}"
            )
        name = payload["dataset"]
        if "point" in payload and "points" in payload:
            raise WireError("send either 'point' or 'points', not both")
        if "point" in payload:
            matrix = decode_matrix(payload["point"], "point")
            if matrix.shape[0] != 1:
                raise WireError(
                    f"'point' must be a single test point, got {matrix.shape[0]} "
                    "rows; send a matrix via 'points' instead"
                )
            points = matrix[0]
        elif "points" in payload:
            spec = payload["points"]
            if spec == "validation":
                entry = self.server.registry.get(name)
                if entry.val_X is None:
                    raise WireError(
                        f"dataset {name!r} has no registered validation set"
                    )
                entry.ensure_warm()  # pin the prepared state this query will reuse
                points = entry.val_X
            else:
                points = decode_matrix(spec, "points")
        else:
            raise WireError("query needs a 'point' or 'points' field")
        args = {key: payload.get(key, default) for key, default in _QUERY_OPTIONS.items()}
        if args["explain"] != "trace":
            args["explain"] = bool(args["explain"])
        args["pins"] = decode_pins(args["pins"])
        args["weights"] = decode_weights(args["weights"])
        args["with_cleaned"] = bool(args["with_cleaned"])
        response = self.server.broker.query(name, points, **args)
        response["values"] = encode_values(response["values"])
        return 200, response

    def _post_sql(self):
        payload = self._read_json()
        inline = payload.get("codd_table")
        explain = payload.get("explain", False)
        if explain != "trace":
            explain = bool(explain)
        response = self.server.broker.sql(
            payload["query"],
            mode=payload.get("mode", "certain"),
            backend=payload.get("backend", "auto"),
            codd_table=None if inline is None else decode_codd_table(inline),
            explain=explain,
        )
        return 200, response

    def _patch_dataset(self, name: str):
        payload = self._read_json()
        if "deltas" in payload and "fixes" in payload:
            raise WireError("send either 'deltas' or 'fixes', not both")
        if "deltas" in payload:
            result = self.server.broker.patch(
                name, deltas=decode_deltas(payload["deltas"])
            )
        elif "fixes" in payload:
            result = self.server.broker.patch(
                name, fixes=decode_codd_fixes(payload["fixes"])
            )
        else:
            raise WireError(
                "PATCH body needs 'deltas' (CP dataset) or 'fixes' (codd table)"
            )
        return 200, result

    def _post_clean_step(self):
        payload = self._read_json()
        entry = self.server.registry.get(payload["dataset"])
        candidate = payload.get("candidate")
        checkpoint = entry.clean_step(
            int(payload["row"]),
            None if candidate is None else int(candidate),
        )
        return 200, checkpoint
