"""The executor worker process of the partitioned serving topology.

One executor owns one candidate-row partition
(:class:`~repro.service.partition.RowPartition` span) per dataset, with
**shard-local prepared state**: the partition's candidate sets are
stacked into one matrix at registration time, so a query pays only the
kernel call — never the per-request stacking. The gateway
(:mod:`repro.service.gateway`) talks to the executor over a duplex
:func:`multiprocessing.Pipe` with a strict request/response discipline;
:func:`executor_main` is the child-process entry point.

The executor answers ``ping``, ``shutdown``, ``register``, ``drop`` and
one query operation, ``sims``: the raw kernel similarity block over the
partition's stacked candidates (optionally with pinned rows restricted
to their single pinned candidate, mirroring ``restrict_row``). The
gateway concatenates the blocks into the exact full similarity matrix
and hands it to the ``batch`` backend, which decides every flavor and
kind on it — the MinMax check included — exactly as it does locally.

Every reply echoes ``ok``; failures inside an operation are caught and
returned as ``{"ok": False, "error": ...}`` so one bad request cannot
kill the worker. A fingerprint mismatch returns ``{"ok": False,
"stale": True}`` — the gateway treats that as "my snapshot raced a
redistribute" and falls back to local execution for that query.
"""

from __future__ import annotations

import os
import time
import traceback
from typing import Any

import numpy as np

from repro.core.kernels import Kernel, resolve_kernel

__all__ = ["ExecutorPartition", "serve_executor", "executor_main"]


class ExecutorPartition:
    """One partition's shard-local prepared state inside an executor.

    Holds the partition's candidate sets (rows ``[row_start, row_start +
    n_rows)`` of the dataset) plus their stacked matrix, built once at
    registration — the prepared state every query against this partition
    reuses.
    """

    __slots__ = ("partition_id", "row_start", "candidate_sets", "stacked")

    def __init__(
        self, partition_id: int, row_start: int, candidate_sets: list[np.ndarray]
    ) -> None:
        if not candidate_sets:
            raise ValueError("a partition needs at least one row")
        self.partition_id = int(partition_id)
        self.row_start = int(row_start)
        self.candidate_sets = [
            np.ascontiguousarray(cands, dtype=np.float64) for cands in candidate_sets
        ]
        self.stacked = np.concatenate(self.candidate_sets, axis=0)

    @property
    def n_rows(self) -> int:
        return len(self.candidate_sets)

    def _local_pins(self, pins: dict[int, int]) -> dict[int, int]:
        """The pins that land in this partition, as local row → candidate."""
        local = {}
        for row, cand in pins.items():
            offset = int(row) - self.row_start
            if 0 <= offset < self.n_rows:
                n_cands = self.candidate_sets[offset].shape[0]
                if not 0 <= int(cand) < n_cands:
                    raise IndexError(
                        f"pinned candidate {cand} out of range for row {row} "
                        f"with {n_cands} candidates"
                    )
                local[offset] = int(cand)
        return local

    def sim_block(
        self,
        test_X: np.ndarray,
        kernel: Kernel,
        restrict: dict[int, int] | None = None,
    ) -> np.ndarray:
        """The raw similarity block over this partition's stacked candidates.

        With ``restrict``, rows pinned there contribute only their pinned
        candidate (the partition-local image of ``dataset.restrict_row``);
        the block's columns then follow the restricted dataset's stacked
        order. Slicing candidate rows never changes a similarity — each
        one is computed from that candidate's features alone — so the
        gateway's concatenation reproduces the single-process matrix
        bit for bit.
        """
        local = self._local_pins(restrict) if restrict else None
        if local:
            parts = [
                cands[local[offset] : local[offset] + 1] if offset in local else cands
                for offset, cands in enumerate(self.candidate_sets)
            ]
            return kernel.pairwise(np.concatenate(parts, axis=0), test_X)
        return kernel.pairwise(self.stacked, test_X)


def serve_executor(conn, executor_id: int) -> None:
    """The executor request loop: recv one message, send one reply, repeat.

    Messages are dicts with an ``"op"`` key. Unknown ops and in-operation
    failures answer ``{"ok": False, "error": ...}``; a broken pipe (the
    gateway died) or a ``shutdown`` op ends the loop.
    """
    datasets: dict[str, dict[str, Any]] = {}
    n_requests = 0
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        n_requests += 1
        try:
            reply = _handle(datasets, executor_id, n_requests, message)
        except Exception as exc:  # noqa: BLE001 — must answer, never die
            reply = {
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
            }
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
        if message.get("op") == "shutdown":
            break


def _handle(
    datasets: dict[str, dict[str, Any]],
    executor_id: int,
    n_requests: int,
    message: dict,
) -> dict:
    op = message.get("op")
    if op == "ping" or op == "shutdown":
        return {
            "ok": True,
            "executor": executor_id,
            "pid": os.getpid(),
            "n_requests": n_requests,
            "datasets": {
                name: state["partition"].partition_id
                for name, state in datasets.items()
            },
        }
    if op == "register":
        spec = message["partition"]
        datasets[message["name"]] = {
            "fingerprint": message["fingerprint"],
            "partition": ExecutorPartition(
                spec["partition_id"], spec["row_start"], spec["candidate_sets"]
            ),
        }
        return {"ok": True}
    if op == "drop":
        datasets.pop(message["name"], None)
        return {"ok": True}
    if op == "sims":
        name = message["name"]
        state = datasets.get(name)
        if state is None:
            return {"ok": False, "stale": True, "error": f"dataset {name!r} not prepared"}
        if state["fingerprint"] != message["fingerprint"]:
            return {
                "ok": False,
                "stale": True,
                "error": f"dataset {name!r} is at a different fingerprint",
            }
        partition = state["partition"]
        test_X = np.asarray(message["test_X"], dtype=np.float64)
        started = time.perf_counter()
        wall = time.time()
        block = partition.sim_block(
            test_X, resolve_kernel(message.get("kernel")), message.get("restrict")
        )
        reply = {"ok": True, "block": block}
        # When the gateway is tracing ("trace": True in the request), the
        # partition's work is timed and shipped back as a plain-dict span
        # record; the gateway grafts it under its gather span so the
        # distributed query renders as one tree. Records are self-contained
        # (no Span objects cross the pipe) and ids are restamped on
        # adoption, so nothing about the parent trace needs to ride along.
        if message.get("trace"):
            reply["spans"] = [
                {
                    "name": "executor.partition",
                    "start_time": wall,
                    "duration_ms": max(time.perf_counter() - started, 0.0) * 1000.0,
                    "status": "ok",
                    "attributes": {
                        "executor": executor_id,
                        "pid": os.getpid(),
                        "partition": partition.partition_id,
                        "n_rows": partition.n_rows,
                        "n_candidates": int(partition.stacked.shape[0]),
                        "n_points": int(test_X.shape[0]),
                    },
                    "children": [],
                }
            ]
        return reply
    return {"ok": False, "error": f"unknown op {op!r}"}


def executor_main(conn, executor_id: int) -> None:
    """Child-process entry point (the ``Process`` target)."""
    try:
        serve_executor(conn, executor_id)
    finally:
        try:
            conn.close()
        except OSError:
            pass
