"""ServiceClient transport: one keep-alive connection per thread, a read
re-sent once over a dropped idle connection, a write never re-sent, a
server close that leaves no handler thread parked on a connection, and
the client's own HTTP/1.1 framing against a scripted peer."""

from __future__ import annotations

import http.client
import socket
import threading
import time

import numpy as np
import pytest

from repro.core.dataset import IncompleteDataset
from repro.core.planner import ExecutionOptions, execute_query, make_query
from repro.service import DatasetRegistry, ServiceClient, ServiceError, make_service


def small_dataset() -> IncompleteDataset:
    rng = np.random.default_rng(31)
    sets = [rng.normal(size=(m, 2)) for m in (1, 3, 2, 2, 1, 3, 2)]
    return IncompleteDataset(sets, [0, 1, 0, 1, 1, 0, 1])


@pytest.fixture
def service():
    registry = DatasetRegistry()
    registry.register("d", small_dataset(), k=2)
    server = make_service(registry, window_s=0.005, max_batch=8)
    client = ServiceClient(server.url)
    yield server, client
    client.close()
    server.close()


def open_handlers(server) -> dict:
    with server._handlers_lock:
        return dict(server._handlers)


def drop_connections(server) -> None:
    """Close every open connection from the server side, as an idle
    timeout or a restarted proxy would, and wait for the handlers."""
    handlers = open_handlers(server)
    for sock in handlers:
        sock.shutdown(socket.SHUT_RDWR)
    for thread in handlers.values():
        thread.join(timeout=10.0)
        assert not thread.is_alive()


def wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.01)


class TestKeepAlive:
    def test_a_thread_reuses_one_connection(self, service):
        server, client = service
        client.healthz()
        connection = client._connection()
        for _ in range(5):
            client.healthz()
            client.query("d", point=[0.0, 0.0])
        assert client._connection() is connection
        assert len(open_handlers(server)) == 1

    def test_threads_sharing_a_client_get_their_own_connections(self, service):
        server, client = service
        entry = server.registry.get("d")
        n_threads, per_thread = 16, 3
        points = np.random.default_rng(5).normal(size=(n_threads * per_thread, 2))
        answers: dict[int, list] = {}
        connections: dict[int, set[int]] = {}
        start = threading.Barrier(n_threads)
        # Threads stay alive until checked: a finished thread's connection
        # is collected with it.
        done = threading.Barrier(n_threads + 1)
        checked = threading.Event()

        def work(index: int) -> None:
            start.wait(timeout=10.0)
            seen = set()
            for j in range(per_thread):
                row = index * per_thread + j
                answers[row] = client.query("d", point=points[row])["values"][0]
                seen.add(id(client._connection()))
            connections[index] = seen
            done.wait(timeout=60.0)
            checked.wait(timeout=60.0)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
        for thread in threads:
            thread.start()
        done.wait(timeout=60.0)
        # one connection per thread, kept for all of its requests
        assert all(len(seen) == 1 for seen in connections.values())
        assert len(set().union(*connections.values())) == n_threads
        assert len(open_handlers(server)) == n_threads
        checked.set()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        expected = execute_query(
            make_query(entry.dataset, points, k=entry.k),
            options=ExecutionOptions(cache=False),
        ).values
        assert [answers[row] for row in range(len(points))] == expected

    def test_close_and_context_manager_release_connections(self, service):
        server, _ = service
        with ServiceClient(server.url) as client:
            client.healthz()
            assert len(open_handlers(server)) == 1
        # the server sees the client hang up and its handler exits
        wait_until(lambda: not open_handlers(server))
        # a closed client opens a fresh connection on its next request
        assert client.healthz()["status"] == "ok"
        client.close()

    def test_error_responses_keep_status_code_and_message(self, service):
        _, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.dataset("nope")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown_dataset"
        assert "nope" in excinfo.value.message
        # the connection stays usable after an error response
        assert client.healthz()["status"] == "ok"


class TestDroppedConnections:
    def test_a_read_is_resent_once_on_a_fresh_connection(self, service):
        server, client = service
        first = client.query("d", point=[0.5, 0.5])
        stale = client._connection()
        drop_connections(server)
        assert client.healthz()["status"] == "ok"
        assert client._connection() is not stale
        drop_connections(server)
        again = client.query("d", point=[0.5, 0.5])
        assert again["values"] == first["values"]

    def test_a_write_is_never_resent(self, service, monkeypatch):
        """The server applies the PATCH, then the connection drops before
        the status line: the client must raise, not apply it twice."""
        server, client = service
        client.healthz()  # the PATCH below goes out on a reused connection
        applied = server.broker.patch

        def apply_then_drop(*args, **kwargs):
            result = applied(*args, **kwargs)
            me = threading.current_thread()
            for sock, thread in open_handlers(server).items():
                if thread is me:
                    sock.shutdown(socket.SHUT_RDWR)
            return result

        monkeypatch.setattr(server.broker, "patch", apply_then_drop)
        before = client.dataset("d")["version"]
        with pytest.raises(ConnectionError):
            client.repair_cell("d", row=1, candidate=0)
        monkeypatch.setattr(server.broker, "patch", applied)
        assert client.dataset("d")["version"] == before + 1

    def test_a_refused_connection_is_not_retried(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=5.0)
        with pytest.raises(ConnectionRefusedError):
            client.healthz()


class TestServerClose:
    def test_close_leaves_no_handler_parked_on_a_keep_alive_connection(self):
        registry = DatasetRegistry()
        registry.register("d", small_dataset(), k=2)
        server = make_service(registry, window_s=0.005)
        client = ServiceClient(server.url)
        ready = threading.Barrier(4)
        closed = threading.Event()

        def work() -> None:
            client.query("d", point=[0.0, 0.0])
            ready.wait(timeout=10.0)
            closed.wait(timeout=60.0)  # keep this thread's connection open

        threads = [threading.Thread(target=work) for _ in range(3)]
        for thread in threads:
            thread.start()
        ready.wait(timeout=10.0)
        handlers = list(open_handlers(server).values())
        assert len(handlers) == 3  # three idle keep-alive connections
        start = time.monotonic()
        server.close()  # the client threads (and their sockets) stay alive
        # close() ends the idle handlers; it does not wait out its join bound
        assert time.monotonic() - start < 5.0
        assert not any(thread.is_alive() for thread in handlers)
        assert not open_handlers(server)
        closed.set()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        client.close()

    def test_a_connection_opened_while_close_drains_is_refused(self):
        registry = DatasetRegistry()
        registry.register("d", small_dataset(), k=2)
        server = make_service(registry)
        drain_broker = server.broker.close
        late: list[bytes] = []

        def drain_with_a_late_connection() -> None:
            # close() drains the broker while the accept loop still runs
            with socket.create_connection(server.server_address[:2]) as sock:
                sock.settimeout(5.0)
                late.append(sock.recv(1024))
            drain_broker()

        server.broker.close = drain_with_a_late_connection
        server.close()
        assert late == [b""]  # accepted and closed at once, never served
        assert not open_handlers(server)


class ScriptedPeer:
    """A one-thread HTTP peer that answers each request it reads with the
    next scripted reply: ``(bytes, close_after)``, or ``None`` to close
    the connection unanswered. It records ``(connection number, method)``
    per request."""

    def __init__(self, replies) -> None:
        self.replies = list(replies)
        self.requests: list[tuple[int, str]] = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.url = "http://127.0.0.1:%d" % self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        n_connections = 0
        while self.replies:
            conn, _ = self._listener.accept()
            n_connections += 1
            with conn, conn.makefile("rb") as reader:
                while self.replies and (line := reader.readline()):
                    length = 0
                    while (header := reader.readline()) not in (b"\r\n", b""):
                        name, _, value = header.partition(b":")
                        if name.strip().lower() == b"content-length":
                            length = int(value)
                    reader.read(length)
                    self.requests.append((n_connections, line.split()[0].decode()))
                    reply = self.replies.pop(0)
                    if reply is None:
                        break
                    conn.sendall(reply[0])
                    if reply[1]:
                        break

    def close(self) -> None:
        self.replies.clear()
        # Wake an accept() still waiting for a connection the test never made.
        with socket.create_connection(self._listener.getsockname()):
            pass
        self._thread.join(timeout=10.0)
        self._listener.close()


OK_BODY = b'{"status": "ok"}'
OK = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(OK_BODY), OK_BODY)


class TestFraming:
    """The client's own HTTP/1.1 framing, against a scripted peer."""

    @pytest.mark.parametrize(
        "reply",
        [
            b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: %d\r\n\r\n%s"
            % (len(OK_BODY), OK_BODY),
            b"HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(OK_BODY), OK_BODY),
            b"HTTP/1.1 200 OK\r\n\r\n" + OK_BODY,  # no length: the body ends at EOF
        ],
        ids=["connection-close", "http-1.0", "no-length"],
    )
    def test_a_closing_response_makes_the_next_request_connect_afresh(self, reply):
        peer = ScriptedPeer([(reply, True), (OK, False)])
        client = ServiceClient(peer.url, timeout=5.0)
        try:
            assert client.healthz() == {"status": "ok"}
            assert client.healthz() == {"status": "ok"}
        finally:
            client.close()
            peer.close()
        assert peer.requests == [(1, "GET"), (2, "GET")]

    def test_a_body_shorter_than_its_length_raises(self):
        short = b"HTTP/1.1 200 OK\r\nContent-Length: 50\r\n\r\n" + OK_BODY
        peer = ScriptedPeer([(short, True)])
        client = ServiceClient(peer.url, timeout=5.0)
        try:
            with pytest.raises(http.client.IncompleteRead):
                client.healthz()
        finally:
            client.close()
            peer.close()
        assert peer.requests == [(1, "GET")]  # a partial answer is not re-sent

    @pytest.mark.parametrize("method", ["GET", "PATCH"])
    def test_only_a_read_is_resent_after_a_drop(self, method):
        """The peer closes a reused connection without answering: a read
        goes out once more on a fresh one, a PATCH raises."""
        peer = ScriptedPeer([(OK, False), None, (OK, False)])
        client = ServiceClient(peer.url, timeout=5.0)
        try:
            client.healthz()
            if method == "GET":
                assert client.healthz() == {"status": "ok"}
            else:
                with pytest.raises(ConnectionError):
                    client.repair_cell("d", row=1, candidate=0)
        finally:
            client.close()
            peer.close()
        resent = [(2, "GET")] if method == "GET" else []
        assert peer.requests == [(1, "GET"), (1, method), *resent]
