"""NumPy-vectorised certain/possible answers for select-project queries.

The tractable select-project(-rename) evaluation over a single Codd table
(see :mod:`repro.codd.certain`) is row-local: a constant tuple is certain
iff some row yields it under **every** valuation of that row's own NULL
variables, and possible iff some row yields it under **some** valuation.
The original implementation walked each row's ``itertools.product`` of
domains in pure Python; this module replaces that with a columnar engine:

* :class:`StackedTable` materialises, once per table, the *stacked
  completion grid*: for every row, every row-local completion, laid out
  as one NumPy column array per attribute plus ``offsets``/``counts``
  arrays marking each row's contiguous segment. The grid is the Codd
  layer's analogue of :class:`~repro.core.batch_engine.PreparedBatch` —
  the expensive, perfectly reusable part of evaluation — and the service
  registry pins one per registered table.
* :func:`certain_answers_vectorized` / :func:`possible_answers_vectorized`
  evaluate the query's predicate **once** over the whole stacked grid
  (columns that are numeric throughout get a cached ``float64`` view, so
  comparisons run as real vector ops; mixed-type columns fall back to
  elementwise object semantics identical to Python's), then reduce per
  row with ``np.logical_and.reduceat`` (certain: the predicate holds for
  *all* of a row's completions and the projected tuple is constant) or a
  boolean mask (possible: *some* completion satisfies).

Because answers are row-local, a table whose grid would exceed
:data:`MAX_STACKED_CELLS` is evaluated in runs of whole rows
(:func:`row_blocks`), each run's grid within the cap, and the per-run
answers are unioned — a memory-bounded variant of the same evaluation,
not a second algorithm (:func:`repro.codd.certain.select_project_answers`
drives it).

Emitted cell values are always the original Python objects (the grid's
object columns), so results are bit-identical to the naive world-
enumeration oracle — ``tests/codd/test_codd_differential.py`` holds the
engine to exactly that standard, and ``benchmarks/bench_codd.py``
measures the speedup.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.codd.algebra import (
    Attribute,
    Comparison,
    Conjunction,
    Disjunction,
    Literal,
    Negation,
    Predicate,
    Project,
    Query,
    Rename,
    Scan,
    Select,
)
from repro.codd.codd_table import CoddTable, Null
from repro.codd.relation import Relation

__all__ = [
    "MAX_QUERY_CELLS",
    "MAX_STACKED_CELLS",
    "StackedTable",
    "estimate_stacked_cells",
    "row_blocks",
    "stackable",
    "unwrap_select_project",
    "resolve_select_project_shape",
    "certain_answers_vectorized",
    "possible_answers_vectorized",
]

#: Refuse to materialise a completion grid with more cells than this —
#: larger tables are evaluated in row blocks whose grids each fit it.
MAX_STACKED_CELLS = 20_000_000

#: The engine refuses queries whose completion scan would exceed this many
#: cells in total — the point past which even block-wise evaluation stops
#: being "slow" and becomes a wedged server thread. Queries above it fail
#: fast at the naive world cap instead of hanging.
MAX_QUERY_CELLS = 10 * MAX_STACKED_CELLS

#: Integers beyond this magnitude are not exactly representable as
#: float64, so columns containing them stay on the exact object path.
_FLOAT_EXACT_INT = 2**53


def _is_float_exact(value: Any) -> bool:
    """True iff ``value`` compares identically as a ``float64``."""
    if isinstance(value, bool):
        return True
    if isinstance(value, float):
        return not math.isnan(value)  # NaN breaks ``==`` reflexivity
    if isinstance(value, int):
        return -_FLOAT_EXACT_INT <= value <= _FLOAT_EXACT_INT
    return False


def estimate_stacked_cells(table: CoddTable) -> int:
    """Cells the stacked completion grid of ``table`` would hold (exact)."""
    return len(table.schema) * sum(table.row_completions())


def stackable(table: CoddTable) -> bool:
    """True iff the whole grid of ``table`` fits :data:`MAX_STACKED_CELLS`."""
    return estimate_stacked_cells(table) <= MAX_STACKED_CELLS


def row_blocks(table: CoddTable) -> list[tuple[int, int, bool]]:
    """Split ``table`` into runs ``(start, stop, stackable)`` of whole rows.

    Runs are greedy and in row order; each stackable run's grid fits
    :data:`MAX_STACKED_CELLS`, so a table whose grid fits is one run. A
    row whose grid alone is above the cap forms a run of its own, flagged
    not stackable. An empty table is one empty run.
    """
    arity = len(table.schema)
    blocks: list[tuple[int, int, bool]] = []
    start = cells = 0
    for r, completions in enumerate(table.row_completions()):
        n = completions * arity
        if r > start and cells + n > MAX_STACKED_CELLS:
            blocks.append((start, r, cells <= MAX_STACKED_CELLS))
            start, cells = r, 0
        cells += n
    blocks.append((start, len(table), cells <= MAX_STACKED_CELLS))
    return blocks


class StackedTable:
    """The pinned columnar completion grid of one Codd table.

    Column ``c`` holds, row segment by row segment, the value attribute
    ``c`` takes in every row-local completion; ``offsets[r]`` /
    ``counts[r]`` delimit row ``r``'s contiguous segment. Completion
    order within a segment matches
    :func:`repro.codd.certain._row_local_valuations` (the first NULL
    column varies slowest), so "the segment's first completion" is the
    same reference completion the streaming reference path uses.
    """

    def __init__(self, table: CoddTable) -> None:
        self.table = table
        arity = len(table.schema)
        counts_list = table.row_completions()
        total = sum(counts_list)  # plain ints: a single row can overflow int64
        if total * arity > MAX_STACKED_CELLS:
            raise ValueError(
                f"completion grid of {total * arity} cells is above the "
                f"stacking cap {MAX_STACKED_CELLS}; evaluate this table in "
                "row blocks (repro.codd.vectorized.row_blocks)"
            )
        counts = np.array(counts_list, dtype=np.int64)
        offsets = np.zeros(len(counts), dtype=np.int64)
        if len(counts) > 1:
            np.cumsum(counts[:-1], out=offsets[1:])
        # Build each column as one Python list, then fill a single object
        # array: list.extend + list-multiplication beat per-row numpy
        # allocations by an order of magnitude on wide tables, and the
        # common complete row costs one append per column.
        values: list[list[Any]] = [[] for _ in range(arity)]
        for row, n in zip(table.rows, counts_list):
            if n == 1:
                # Complete row, or NULLs with singleton domains only.
                for c, cell in enumerate(row):
                    values[c].append(
                        cell.domain[0] if isinstance(cell, Null) else cell
                    )
                continue
            inner = n  # completions spanned by one value of the next NULL
            for c, cell in enumerate(row):
                if isinstance(cell, Null):
                    # The j-th NULL varies with period prod(sizes after j),
                    # matching itertools.product order in the reference path.
                    inner //= len(cell.domain)
                    block: list[Any] = []
                    for value in cell.domain:
                        block.extend([value] * inner)
                    values[c].extend(block * (n // (inner * len(cell.domain))))
                else:
                    values[c].extend([cell] * n)
        self.columns: list[np.ndarray] = []
        for column_values in values:
            column = np.empty(total, dtype=object)
            column[:] = column_values
            self.columns.append(column)
        self.counts = counts
        self.offsets = offsets
        self.total = total
        #: Columns touched by a NULL anywhere (only these can vary within
        #: a row's segment, so only these need the constancy reduction).
        self.varying = tuple(
            any(isinstance(row[c], Null) for row in table.rows)
            for c in range(arity)
        )
        self._numeric: list[np.ndarray | None | bool] = [False] * arity

    @classmethod
    def paired(
        cls,
        table: CoddTable,
        left: "StackedTable",
        right: "StackedTable",
        left_rows: np.ndarray,
        right_rows: np.ndarray,
    ) -> "StackedTable":
        """The grid of a join's pair table, gathered from its sides' grids.

        Row ``p`` of ``table`` must be ``left`` row ``left_rows[p]``
        followed by ``right`` row ``right_rows[p]``. Its ``cl * cr``
        completions take the left completion ``k // cr`` and the right
        one ``k % cr``, so the left NULLs vary slowest, as the
        constructor lays them out, and the result equals
        ``StackedTable(table)`` with no row walk. Each side's float views
        are resolved on the side (and kept there) and gathered too; a
        view the side lacks resolves lazily from the gathered column.
        """
        left_counts = left.counts[left_rows]
        right_counts = right.counts[right_rows]
        counts = left_counts * right_counts
        offsets = np.zeros(len(counts), dtype=np.int64)
        if len(counts) > 1:
            np.cumsum(counts[:-1], out=offsets[1:])
        total = int(counts.sum())
        pair = np.repeat(np.arange(len(counts)), counts)
        k = np.arange(total, dtype=np.int64) - offsets[pair]
        width = right_counts[pair]
        gathers = (
            (left, left.offsets[left_rows][pair] + k // width),
            (right, right.offsets[right_rows][pair] + k % width),
        )
        grid = cls.__new__(cls)
        grid.table = table
        grid.columns = []
        grid._numeric = []
        for side, at in gathers:
            for c, column in enumerate(side.columns):
                grid.columns.append(column[at])
                view = side.numeric_column(c)
                # A view the whole side lacks may still exist for the
                # paired rows: leave it to resolve from their values.
                grid._numeric.append(False if view is None else view[at])
        grid.counts = counts
        grid.offsets = offsets
        grid.total = total
        present = set(map(operator.itemgetter(1), table.variables))
        grid.varying = tuple(c in present for c in range(len(grid.columns)))
        return grid

    @property
    def n_rows(self) -> int:
        return len(self.counts)

    def fingerprint(self) -> str:
        """The source table's content fingerprint (cache key)."""
        return self.table.fingerprint()

    def numeric_column(self, index: int) -> np.ndarray | None:
        """A cached ``float64`` view of a column, or ``None`` if the column
        holds a value that would not compare exactly as a float."""
        cached = self._numeric[index]
        if cached is False:  # not resolved yet (None is a valid answer)
            # Check each distinct value once. Every domain value appears
            # in some completion, so the column holds exactly the table's
            # values. Values equal under ``==`` collapse, which is sound:
            # an int equal to a non-NaN float is exactly that float.
            column = self.columns[index]
            safe = all(map(_is_float_exact, set(column.tolist())))
            cached = column.astype(np.float64) if safe else None
            self._numeric[index] = cached
        return cached

    def with_cell_fixed(self, row: int, column: int, value: Any) -> "StackedTable":
        """The grid for ``table.with_cell_fixed(row, column, value)`` by
        segment surgery instead of a full rebuild.

        Fixing one NULL keeps exactly the completions of row ``row`` where
        that NULL takes ``value`` — a strided sub-block of the row's
        segment (the j-th NULL varies with period ``prod(sizes after j)``,
        so the kept positions are computed structurally, never by value
        comparison). Every other segment is untouched, so the update is
        one slice-and-concatenate per column rather than re-walking every
        row's ``itertools.product`` — this is how
        :class:`repro.service.registry.CoddTableEntry` absorbs
        single-cell ``PATCH`` deltas while keeping its pinned grid warm.
        The result is bit-identical to ``StackedTable(new_table)``
        (``tests/fuzz/test_update_sequences.py`` holds it to that).
        """
        new_table = self.table.with_cell_fixed(row, column, value)
        cell = self.table.rows[row][column]
        domain = list(cell.domain)
        chosen = domain.index(value)
        n = int(self.counts[row])
        start = int(self.offsets[row])
        # Recover this NULL's variation period inside the segment (matches
        # the constructor's layout: the first NULL varies slowest).
        inner = n
        for c, other in enumerate(self.table.rows[row]):
            if isinstance(other, Null):
                inner //= len(other.domain)
                if c == column:
                    break
        keep_local = (np.arange(n, dtype=np.int64) // inner) % len(domain) == chosen
        n_keep = n // len(domain)

        derived = StackedTable.__new__(StackedTable)
        derived.table = new_table
        derived.columns = []
        for c, col in enumerate(self.columns):
            if c == column:
                segment = np.empty(n_keep, dtype=object)
                segment[:] = [value] * n_keep
            else:
                segment = col[start : start + n][keep_local]
            derived.columns.append(
                np.concatenate([col[:start], segment, col[start + n :]])
            )
        counts = self.counts.copy()
        counts[row] = n_keep
        offsets = np.zeros(len(counts), dtype=np.int64)
        if len(counts) > 1:
            np.cumsum(counts[:-1], out=offsets[1:])
        derived.counts = counts
        derived.offsets = offsets
        derived.total = self.total - (n - n_keep)
        # Only the fixed column can stop varying: it does when its last
        # NULL is gone.
        varying = list(self.varying)
        varying[column] = any(c == column for _, c, _ in new_table.variables)
        derived.varying = tuple(varying)
        derived._numeric = []
        for c, cached in enumerate(self._numeric):
            if isinstance(cached, np.ndarray):
                # The same surgery on the float view: ``value`` was one of
                # the column's float-exact values.
                segment = (
                    np.full(n_keep, float(value))
                    if c == column
                    else cached[start : start + n][keep_local]
                )
                derived._numeric.append(
                    np.concatenate([cached[:start], segment, cached[start + n :]])
                )
            else:
                # Unresolved, or previously inexact (fixing a cell can only
                # remove values, so exactness may improve — re-resolve lazily).
                derived._numeric.append(False)
        return derived

    def __repr__(self) -> str:
        return (
            f"StackedTable(n_rows={self.n_rows}, arity={len(self.columns)}, "
            f"total_completions={self.total})"
        )


# ---------------------------------------------------------------------------
# Query-shape analysis
# ---------------------------------------------------------------------------


def unwrap_select_project(
    query: Query,
) -> tuple[Select | None, tuple[str, ...] | None, dict[str, str], Scan] | None:
    """Decompose ``π?(σ?(ρ?(Scan)))`` or return ``None`` if the shape differs.

    Returns ``(select_node, projected_attributes, rename_mapping, scan)``;
    either of the first two may be absent. The scan is returned so callers
    can validate the relation name it references (the dispatch bug where a
    query over ``person`` silently ran against a table bound as ``T`` came
    from dropping it).
    """
    project: tuple[str, ...] | None = None
    if isinstance(query, Project):
        project = query.attributes
        query = query.child
    select: Select | None = None
    if isinstance(query, Select):
        select = query
        query = query.child
    rename: dict[str, str] = {}
    if isinstance(query, Rename):
        rename = dict(query.mapping)
        query = query.child
    if isinstance(query, Scan):
        return select, project, rename, query
    return None


def check_scan_name(scan: Scan, names: Sequence[str]) -> None:
    """Raise the same ``KeyError`` the naive evaluator would if the query's
    scan references a relation outside the bound database."""
    if scan.relation not in names:
        raise KeyError(
            f"relation {scan.relation!r} not in database {sorted(names)}"
        )


# ---------------------------------------------------------------------------
# Vectorised predicate evaluation
# ---------------------------------------------------------------------------

_VECTOR_OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _term_operand(
    term: Attribute | Literal, schema: tuple[str, ...], stacked: StackedTable
) -> tuple[Any, Any]:
    """``(object_operand, float_operand_or_None)`` for one comparison side."""
    if isinstance(term, Attribute):
        try:
            index = schema.index(term.name)
        except ValueError:
            raise KeyError(
                f"attribute {term.name!r} not in schema {tuple(schema)}"
            ) from None
        return stacked.columns[index], stacked.numeric_column(index)
    value = term.value
    if _is_float_exact(value):
        return value, float(value)
    # Boxed as one object, so numpy compares each cell with the value
    # itself instead of broadcasting a list or tuple literal elementwise.
    boxed = np.empty((), dtype=object)
    boxed[()] = value
    return boxed, None


def _comparison_mask(
    node: Comparison, schema: tuple[str, ...], stacked: StackedTable
) -> np.ndarray:
    left, left_f = _term_operand(node.left, schema, stacked)
    right, right_f = _term_operand(node.right, schema, stacked)
    op = _VECTOR_OPS[node.op]
    if left_f is not None and right_f is not None:
        result = op(left_f, right_f)
    else:
        result = op(left, right)
    if np.ndim(result) == 0:  # literal-vs-literal comparison
        return np.full(stacked.total, bool(result))
    return np.asarray(result, dtype=bool)


def predicate_mask(
    pred: Predicate, schema: tuple[str, ...], stacked: StackedTable
) -> np.ndarray:
    """One boolean per stacked completion: does the predicate hold there?"""
    if isinstance(pred, Comparison):
        return _comparison_mask(pred, schema, stacked)
    if isinstance(pred, Conjunction):
        mask = np.ones(stacked.total, dtype=bool)
        for part in pred.parts:
            mask &= predicate_mask(part, schema, stacked)
        return mask
    if isinstance(pred, Disjunction):
        mask = np.zeros(stacked.total, dtype=bool)
        for part in pred.parts:
            mask |= predicate_mask(part, schema, stacked)
        return mask
    if isinstance(pred, Negation):
        return ~predicate_mask(pred.part, schema, stacked)
    raise TypeError(f"not a predicate: {pred!r}")


# ---------------------------------------------------------------------------
# The two evaluators
# ---------------------------------------------------------------------------


def resolve_select_project_shape(
    query: Query, table: CoddTable, name: str, kind: str
) -> tuple[Select | None, tuple[str, ...], tuple[str, ...], list[int]]:
    """``(select, schema, out_schema, out_indices)`` for a tractable query
    over ``table`` bound as ``name`` — the one shape-resolution (and
    name-validation) step the vectorized and streaming paths share."""
    shape = unwrap_select_project(query)
    if shape is None:
        raise ValueError(
            "query is not of select-project(-rename) shape over a single Scan; "
            f"use {kind}_answers() for the general (naive) path"
        )
    select, project, rename, scan = shape
    check_scan_name(scan, (name,))
    schema = tuple(rename.get(a, a) for a in table.schema)
    out_schema = project if project is not None else schema
    out_indices = [schema.index(a) for a in out_schema]
    return select, schema, out_schema, out_indices


def _segment_all(mask: np.ndarray, stacked: StackedTable) -> np.ndarray:
    """Per-row AND over each row's contiguous completion segment."""
    return np.logical_and.reduceat(mask, stacked.offsets)


def _grid_for(stacked: StackedTable | None, table: CoddTable) -> StackedTable:
    """A grid usable for ``table``: the handed one when it matches by
    identity or content fingerprint (inline service tables are decoded
    fresh per request, so content equality is the match that matters),
    else a fresh build."""
    if stacked is not None and (
        stacked.table is table or stacked.fingerprint() == table.fingerprint()
    ):
        return stacked
    return StackedTable(table)


def certain_answers_vectorized(
    query: Query,
    table: CoddTable,
    name: str = "T",
    stacked: StackedTable | None = None,
) -> Relation:
    """Certain answers of a select-project(-rename) query, vectorised.

    A row contributes its (projected) first completion iff the predicate
    holds over the row's **whole** segment and every projected column is
    constant across the segment — the same row-local rule as the
    streaming reference, as one stacked pass plus ``reduceat`` reductions.
    ``stacked`` reuses a prepared grid (it must come from ``table``).
    """
    select, schema, out_schema, out_indices = resolve_select_project_shape(
        query, table, name, "certain"
    )
    if len(table) == 0:
        return Relation(out_schema, ())
    stacked = _grid_for(stacked, table)

    if select is not None:
        keep = _segment_all(predicate_mask(select.predicate, schema, stacked), stacked)
    else:
        keep = np.ones(stacked.n_rows, dtype=bool)

    first_index: np.ndarray | None = None
    for i in out_indices:
        if not stacked.varying[i]:
            continue  # no NULL ever touches this column: constant per row
        if first_index is None:
            first_index = np.repeat(stacked.offsets, stacked.counts)
        numeric = stacked.numeric_column(i)
        column = numeric if numeric is not None else stacked.columns[i]
        equal_first = np.asarray(column == column[first_index], dtype=bool)
        keep &= _segment_all(equal_first, stacked)

    rows = [
        tuple(stacked.columns[i][stacked.offsets[r]] for i in out_indices)
        for r in np.nonzero(keep)[0]
    ]
    return Relation(out_schema, rows)


def possible_answers_vectorized(
    query: Query,
    table: CoddTable,
    name: str = "T",
    stacked: StackedTable | None = None,
) -> Relation:
    """Possible answers, vectorised: some row, some completion satisfies."""
    select, schema, out_schema, out_indices = resolve_select_project_shape(
        query, table, name, "possible"
    )
    if len(table) == 0:
        return Relation(out_schema, ())
    stacked = _grid_for(stacked, table)

    if select is not None:
        satisfied = np.nonzero(predicate_mask(select.predicate, schema, stacked))[0]
    else:
        satisfied = slice(None)
    projected = [stacked.columns[i][satisfied] for i in out_indices]
    return Relation(out_schema, set(zip(*projected)))
