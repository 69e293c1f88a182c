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

Server-side failures raise :class:`ServiceError` carrying the HTTP
status and the structured ``code``/``message`` payload the server sent.
"""

from __future__ import annotations

import json
import time
from typing import Any
from urllib import error, request

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


class ServiceError(RuntimeError):
    """A structured error response from the service."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(f"[{status} {code}] {message}")
        self.status = status
        self.code = code
        self.message = message


class ServiceClient:
    """Talk to a running ``repro serve`` instance.

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

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _request(self, method: str, path: str, payload: dict | None = None) -> dict:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        req = request.Request(
            self.base_url + path,
            data=body,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with request.urlopen(req, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except error.HTTPError as exc:
            try:
                detail = json.loads(exc.read().decode("utf-8"))["error"]
                raise ServiceError(
                    exc.code, detail.get("code", "error"), detail.get("message", "")
                ) from None
            except (json.JSONDecodeError, KeyError, UnicodeDecodeError):
                raise ServiceError(exc.code, "error", exc.reason) from None

    def _request_text(self, method: str, path: str) -> str:
        """Like :meth:`_request` but for non-JSON (text) responses."""
        req = request.Request(self.base_url + path, method=method)
        try:
            with request.urlopen(req, timeout=self.timeout) as response:
                return response.read().decode("utf-8")
        except error.HTTPError as exc:
            raise ServiceError(exc.code, "error", exc.reason) from None

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
            except (ServiceError, error.URLError, ConnectionError, OSError):
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
