"""Fixtures shared by the service tests."""

from __future__ import annotations

import threading

import pytest


class FlushGate:
    """Stands in for a broker's ``_execute``: the first call waits until
    :meth:`release`, every later call runs at once.

    A read that finds its query family idle is flushed inline, without a
    window; holding the first flush in flight is how a test makes the
    family busy, so later reads queue up, coalesce or meet admission
    control.
    """

    def __init__(self, execute) -> None:
        self._execute = execute
        self._lock = threading.Lock()
        self._first = True
        self.entered = threading.Event()
        self._released = threading.Event()

    def __call__(self, batch, query):
        with self._lock:
            first, self._first = self._first, False
        if first:
            self.entered.set()
            if not self._released.wait(timeout=10.0):
                raise TimeoutError("the held flush was never released")
        return self._execute(batch, query)

    def release(self) -> None:
        self._released.set()


@pytest.fixture
def hold_first_flush(monkeypatch):
    """``hold_first_flush(broker)`` gates that broker's flushes with a
    :class:`FlushGate` and returns it; the gate opens at teardown."""
    gates: list[FlushGate] = []

    def hold(broker) -> FlushGate:
        gate = FlushGate(broker._execute)
        monkeypatch.setattr(broker, "_execute", gate)
        gates.append(gate)
        return gate

    yield hold
    for gate in gates:
        gate.release()
