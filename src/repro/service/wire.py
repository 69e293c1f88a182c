"""The JSON wire format shared by the HTTP server and the Python client.

A certification system cannot tolerate lossy transport: Q2 counts are
arbitrary-precision integers (``M^N`` worlds) and the weighted flavor's
probabilities are exact :class:`~fractions.Fraction` values, neither of
which survives a trip through JSON numbers (doubles). This module defines
the one encoding both ends agree on:

* **Integers** ride as JSON integers — Python's ``json`` round-trips
  big ints exactly, so world counts keep every digit.
* **Fractions** ride as ``"p/q"`` strings (``Fraction`` reprs are
  canonical, so equality is preserved bit for bit); the client restores
  them with :func:`decode_fraction`.
* **Datasets** ride as their full candidate structure
  (:func:`encode_dataset` / :func:`decode_dataset`), covering both
  :class:`~repro.core.dataset.IncompleteDataset` and
  :class:`~repro.core.label_uncertainty.LabelUncertainDataset` — this is
  what lets the differential harness replay its random queries over the
  wire and demand bit-identical answers.
* **Codd tables** ride with NULL variables as ``{"null": [domain...]}``
  markers (:func:`encode_codd_table` / :func:`decode_codd_table`) and
  certain/possible **relations** as schema + repr-sorted rows
  (:func:`encode_relation` / :func:`decode_relation`) — ints, strings and
  booleans verbatim, floats exactly via Python's shortest-``repr`` JSON
  round trip, so a ``/sql`` response compares ``==`` to the in-process
  :func:`~repro.codd.certain.certain_answers` relation.

``tests/service/test_service_differential.py`` holds the round-trip to
exactly that standard.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any

import numpy as np

from repro.codd.codd_table import CoddTable, Null
from repro.codd.relation import Relation
from repro.core.dataset import IncompleteDataset
from repro.core.deltas import CellRepair, Delta, RowAppend, RowDelete
from repro.core.label_uncertainty import LabelUncertainDataset

__all__ = [
    "WireError",
    "encode_fraction",
    "decode_fraction",
    "encode_values",
    "decode_values",
    "encode_dataset",
    "decode_dataset",
    "encode_codd_table",
    "decode_codd_table",
    "encode_relation",
    "decode_relation",
    "decode_pins",
    "decode_weights",
    "decode_matrix",
    "encode_delta",
    "decode_delta",
    "decode_deltas",
    "decode_codd_fixes",
]


class WireError(ValueError):
    """A payload does not follow the wire format (surfaced as HTTP 400)."""


# ---------------------------------------------------------------------------
# Exact scalars
# ---------------------------------------------------------------------------


def encode_fraction(value: Fraction) -> str:
    """``Fraction(3, 7)`` → ``"3/7"`` (canonical, lowest terms)."""
    return f"{value.numerator}/{value.denominator}"


def decode_fraction(text: Any) -> Fraction:
    """Parse a ``"p/q"`` (or plain integer) string back into a Fraction."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise WireError(f"expected a 'p/q' fraction string, got {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise WireError(f"malformed fraction {text!r}: {exc}") from None


def _encode_value(value: Any) -> Any:
    if isinstance(value, Fraction):
        return encode_fraction(value)
    if isinstance(value, (list, tuple)):
        return [_encode_value(item) for item in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (bool, int)) or value is None:
        return value
    raise WireError(f"cannot encode value of type {type(value).__name__}")


def encode_values(values: list) -> list:
    """Per-point query values → JSON-safe structures (exactly, see module doc)."""
    return [_encode_value(value) for value in values]


def decode_values(values: Any, kind: str, flavor: str) -> list:
    """Undo :func:`encode_values` for a known query ``kind`` × ``flavor``.

    Only the weighted flavor's ``counts`` carry Fractions; every other
    combination is integers, booleans or ``None`` and decodes as-is.
    """
    if not isinstance(values, list):
        raise WireError(f"values must be a list, got {type(values).__name__}")
    if kind == "counts" and flavor == "weighted":
        return [[decode_fraction(p) for p in probs] for probs in values]
    return values


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


def encode_dataset(dataset: IncompleteDataset | LabelUncertainDataset) -> dict:
    """A dataset as pure JSON structure (floats stay IEEE-exact via repr)."""
    if isinstance(dataset, LabelUncertainDataset):
        return {
            "type": "label_uncertain",
            "candidate_sets": [
                dataset.candidates(row).tolist() for row in range(dataset.n_rows)
            ],
            "label_sets": [list(ls) for ls in dataset.label_sets],
        }
    if isinstance(dataset, IncompleteDataset):
        return {
            "type": "incomplete",
            "candidate_sets": [
                dataset.candidates(row).tolist() for row in range(dataset.n_rows)
            ],
            "labels": dataset.labels.tolist(),
        }
    raise WireError(f"cannot encode dataset of type {type(dataset).__name__}")


def decode_dataset(payload: Any) -> IncompleteDataset | LabelUncertainDataset:
    """Rebuild a dataset from :func:`encode_dataset` output.

    Also the validation gate for client-supplied datasets: every
    structural error comes back as :class:`WireError` (→ HTTP 400) with
    the constructor's message attached.
    """
    if not isinstance(payload, dict):
        raise WireError(f"dataset must be an object, got {type(payload).__name__}")
    dataset_type = payload.get("type", "incomplete")
    candidate_sets = payload.get("candidate_sets")
    if not isinstance(candidate_sets, list) or not candidate_sets:
        raise WireError("dataset needs a non-empty 'candidate_sets' list")
    try:
        sets = [np.asarray(cands, dtype=np.float64) for cands in candidate_sets]
        if dataset_type == "incomplete":
            labels = payload.get("labels")
            if labels is None:
                raise WireError("incomplete dataset needs 'labels'")
            return IncompleteDataset(sets, labels)
        if dataset_type == "label_uncertain":
            label_sets = payload.get("label_sets")
            if label_sets is None:
                raise WireError("label_uncertain dataset needs 'label_sets'")
            return LabelUncertainDataset(sets, label_sets)
    except WireError:
        raise
    except (ValueError, TypeError) as exc:
        raise WireError(f"malformed dataset: {exc}") from None
    raise WireError(
        f"unknown dataset type {dataset_type!r}; expected 'incomplete' or 'label_uncertain'"
    )


# ---------------------------------------------------------------------------
# Codd tables and relations (the /sql endpoint)
# ---------------------------------------------------------------------------

#: Cell types that ride JSON exactly: ints and strings verbatim, floats via
#: ``repr`` round-tripping (Python's shortest-repr guarantee), bools as-is.
_SCALAR_TYPES = (bool, int, float, str)


def _encode_cell_scalar(value: Any, where: str) -> Any:
    if value is None or isinstance(value, _SCALAR_TYPES):
        return value
    raise WireError(
        f"{where}: cannot encode cell of type {type(value).__name__}; "
        "Codd cells on the wire must be numbers, strings, booleans or null"
    )


def _decode_cell_scalar(value: Any, where: str) -> Any:
    """An inbound cell scalar, with non-finite floats rejected.

    ``json.loads`` parses ``NaN`` / ``Infinity`` tokens by default, but a
    non-finite constant breaks the exact equality/comparison semantics
    every Codd evaluation relies on (``NaN != NaN``), so it must bounce at
    the wire, not corrupt a served answer.
    """
    value = _encode_cell_scalar(value, where)
    if isinstance(value, float) and not math.isfinite(value):
        raise WireError(
            f"{where}: non-finite float cells cannot be served under the "
            "exactness guarantee"
        )
    return value


def encode_codd_table(table: CoddTable) -> dict:
    """A Codd table as pure JSON structure.

    Constants ride as JSON scalars; a NULL variable rides as
    ``{"null": [domain...]}`` (cells are never objects otherwise, so the
    marker is unambiguous).
    """
    rows = []
    for r, row in enumerate(table.rows):
        cells = []
        for cell in row:
            if isinstance(cell, Null):
                cells.append(
                    {"null": [_encode_cell_scalar(v, f"row {r}") for v in cell.domain]}
                )
            else:
                cells.append(_encode_cell_scalar(cell, f"row {r}"))
        rows.append(cells)
    return {"schema": list(table.schema), "rows": rows}


def decode_codd_table(payload: Any) -> CoddTable:
    """Rebuild a Codd table from :func:`encode_codd_table` output."""
    if not isinstance(payload, dict):
        raise WireError(
            f"codd_table must be an object, got {type(payload).__name__}"
        )
    schema = payload.get("schema")
    rows = payload.get("rows")
    if not isinstance(schema, list) or not isinstance(rows, list):
        raise WireError("codd_table needs 'schema' and 'rows' lists")
    decoded_rows = []
    for r, row in enumerate(rows):
        if not isinstance(row, list):
            raise WireError(f"codd_table row {r} must be a list of cells")
        cells = []
        for cell in row:
            if isinstance(cell, dict):
                domain = cell.get("null")
                if set(cell) != {"null"} or not isinstance(domain, list):
                    raise WireError(
                        f"codd_table row {r}: object cells must be "
                        '{"null": [domain...]} NULL markers'
                    )
                try:
                    cells.append(
                        Null(
                            [
                                _decode_cell_scalar(v, f"codd_table row {r}")
                                for v in domain
                            ]
                        )
                    )
                except ValueError as exc:
                    raise WireError(f"codd_table row {r}: {exc}") from None
            else:
                cells.append(_decode_cell_scalar(cell, f"codd_table row {r}"))
        decoded_rows.append(cells)
    try:
        return CoddTable(schema, decoded_rows)
    except ValueError as exc:
        raise WireError(f"malformed codd_table: {exc}") from None


def encode_relation(relation: Relation) -> dict:
    """A relation as JSON: schema plus rows sorted by ``repr`` (the row set
    is unordered; sorting makes the wire form deterministic)."""
    rows = [
        [_encode_cell_scalar(value, "relation row") for value in row]
        for row in sorted(relation.rows, key=repr)
    ]
    return {"schema": list(relation.schema), "n_rows": len(relation), "rows": rows}


def decode_relation(payload: Any) -> Relation:
    """Rebuild a relation from :func:`encode_relation` output, exactly."""
    if not isinstance(payload, dict):
        raise WireError(f"relation must be an object, got {type(payload).__name__}")
    schema = payload.get("schema")
    rows = payload.get("rows")
    if not isinstance(schema, list) or not isinstance(rows, list):
        raise WireError("relation needs 'schema' and 'rows' lists")
    try:
        return Relation(schema, [tuple(row) for row in rows])
    except (ValueError, TypeError) as exc:
        raise WireError(f"malformed relation: {exc}") from None


# ---------------------------------------------------------------------------
# Query parameters
# ---------------------------------------------------------------------------


def decode_pins(payload: Any) -> dict[int, int]:
    """``[[row, candidate], ...]`` (or a mapping) → pins dict."""
    if payload is None:
        return {}
    try:
        if isinstance(payload, dict):
            return {int(row): int(cand) for row, cand in payload.items()}
        return {int(row): int(cand) for row, cand in payload}
    except (TypeError, ValueError) as exc:
        raise WireError(
            f"pins must be [[row, candidate], ...] pairs: {exc}"
        ) from None


def decode_weights(payload: Any) -> list[list[Fraction]] | None:
    """Per-row candidate priors as nested ``"p/q"`` strings, or ``None``."""
    if payload is None:
        return None
    if not isinstance(payload, list):
        raise WireError("weights must be a list of per-row fraction lists")
    return [[decode_fraction(w) for w in row] for row in payload]


def encode_delta(delta: Delta) -> dict:
    """A base-data delta as pure JSON (the ``PATCH /datasets/<name>`` body).

    * ``CellRepair`` → ``{"op": "cell_repair", "row", "candidate"}``
    * ``RowAppend`` → ``{"op": "row_append", "candidates": [[...]], "label"}``
      (floats IEEE-exact via repr, like datasets)
    * ``RowDelete`` → ``{"op": "row_delete", "row"}``
    """
    if isinstance(delta, CellRepair):
        return {"op": "cell_repair", "row": int(delta.row), "candidate": int(delta.candidate)}
    if isinstance(delta, RowAppend):
        return {
            "op": "row_append",
            "candidates": np.asarray(delta.candidates, dtype=np.float64).tolist(),
            "label": int(delta.label),
        }
    if isinstance(delta, RowDelete):
        return {"op": "row_delete", "row": int(delta.row)}
    raise WireError(f"cannot encode delta of type {type(delta).__name__}")


def decode_delta(payload: Any) -> Delta:
    """Rebuild one delta from :func:`encode_delta` output."""
    if not isinstance(payload, dict):
        raise WireError(f"a delta must be an object, got {type(payload).__name__}")
    op = payload.get("op")
    try:
        if op == "cell_repair":
            return CellRepair(int(payload["row"]), int(payload["candidate"]))
        if op == "row_append":
            return RowAppend(
                decode_matrix(payload["candidates"], "candidates"),
                int(payload["label"]),
            )
        if op == "row_delete":
            return RowDelete(int(payload["row"]))
    except KeyError as exc:
        raise WireError(f"delta {op!r} is missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise WireError(f"malformed {op!r} delta: {exc}") from None
    raise WireError(
        f"unknown delta op {op!r}; expected 'cell_repair', 'row_append' or 'row_delete'"
    )


def decode_deltas(payload: Any) -> list[Delta]:
    """A non-empty JSON list of deltas → :class:`Delta` objects, in order."""
    if not isinstance(payload, list) or not payload:
        raise WireError("'deltas' must be a non-empty list of delta objects")
    return [decode_delta(item) for item in payload]


def decode_codd_fixes(payload: Any) -> list[tuple[int, int, Any]]:
    """A non-empty list of ``{"op": "fix_cell", "row", "column", "value"}``
    objects → ``(row, column, value)`` triples (the Codd-table PATCH form)."""
    if not isinstance(payload, list) or not payload:
        raise WireError("'fixes' must be a non-empty list of fix_cell objects")
    fixes = []
    for i, item in enumerate(payload):
        if not isinstance(item, dict):
            raise WireError(f"fixes[{i}] must be an object")
        op = item.get("op", "fix_cell")
        if op != "fix_cell":
            raise WireError(f"fixes[{i}]: unknown op {op!r}; expected 'fix_cell'")
        if "value" not in item:
            raise WireError(f"fixes[{i}] is missing field 'value'")
        try:
            fixes.append(
                (
                    int(item["row"]),
                    int(item["column"]),
                    _decode_cell_scalar(item["value"], f"fixes[{i}]"),
                )
            )
        except KeyError as exc:
            raise WireError(f"fixes[{i}] is missing field {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise WireError(f"malformed fixes[{i}]: {exc}") from None
    return fixes


def decode_matrix(payload: Any, name: str) -> np.ndarray:
    """A JSON nested list → float matrix (one row per point).

    Non-finite values are rejected: ``json.loads`` happily parses
    ``NaN`` / ``Infinity`` (and ``float64`` parses ``"1e999"`` to
    ``inf``), but a NaN similarity poisons every comparison downstream —
    the scan order and the MinMax extremes would be garbage served under
    an exactness guarantee.
    """
    try:
        matrix = np.asarray(payload, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise WireError(f"{name} must be numeric: {exc}") from None
    if matrix.ndim == 1:
        matrix = matrix.reshape(1, -1)
    if matrix.ndim != 2 or matrix.size == 0:
        raise WireError(f"{name} must be a non-empty point or list of points")
    if not np.isfinite(matrix).all():
        raise WireError(
            f"{name} must contain only finite values; NaN/Inf cannot be "
            "served under the exactness guarantee"
        )
    return matrix
