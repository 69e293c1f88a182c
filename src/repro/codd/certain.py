"""Certain and possible answers over Codd tables.

Implements the paper's §1 definition

    ``sure(Q, T) = ∩ { Q(I) | I ∈ rep(T) }``

three ways:

* :func:`certain_answers_naive` / :func:`possible_answers_naive` — literal
  world enumeration, usable as a test oracle on small tables (this is the
  same role :mod:`repro.core.bruteforce` plays for the CP queries);
* :func:`certain_answers_select_project` — the classic tractable evaluation
  for select-project queries over a single Codd table: because every NULL
  variable appears in exactly one cell, rows are independent, and a constant
  tuple is certain iff **some row yields it under every valuation of that
  row's own variables**. :func:`select_project_answers` runs the per-row
  check on the columnar engine of :mod:`repro.codd.vectorized` (stacked
  completion arrays, one vectorised predicate pass, per-row ``reduceat``
  reductions) — in row blocks when the grid would exceed
  :data:`repro.codd.vectorized.MAX_STACKED_CELLS`. The original streaming
  per-row generators survive as :func:`certain_select_project_rowwise` /
  :func:`possible_select_project_rowwise`: the reference the engine
  replays mixed-type comparisons on, and the evaluator of a lone row whose
  grid is above the block cap.
* :func:`certain_answers_database` / :func:`possible_answers_database` —
  multi-table databases (worlds are products of per-table worlds). Before
  enumerating, :func:`prune_database` shrinks the product: tables the query
  never scans collapse to a single world, and rows that cannot pass the
  filter chain above *any* of their table's scans are dropped — both sound
  for arbitrary queries, and together often the difference between an
  enumerable product and a blown cap.

:func:`certain_answers` / :func:`possible_answers` dispatch through the
backend registry of :mod:`repro.codd.engine` (vectorized → naive by
cost). Both validate the ``name=`` binding against the query's
:class:`~repro.codd.algebra.Scan` — a query over ``person`` no longer
silently evaluates against a table bound as ``T``.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from typing import Any

from repro.codd.algebra import (
    Aggregate,
    Difference,
    Join,
    Project,
    Query,
    Rename,
    Scan,
    Select,
    Union,
    evaluate,
)
from repro.codd.codd_table import CoddTable, Null
from repro.codd.relation import Relation
from repro.codd.vectorized import (
    StackedTable,
    certain_answers_vectorized,
    possible_answers_vectorized,
    resolve_select_project_shape,
    row_blocks,
)

__all__ = [
    "certain_answers",
    "certain_answers_database",
    "certain_answers_naive",
    "certain_answers_select_project",
    "certain_select_project_rowwise",
    "possible_answers",
    "possible_answers_database",
    "possible_answers_naive",
    "possible_answers_select_project",
    "possible_select_project_rowwise",
    "prune_database",
    "select_project_answers",
]

#: Refuse naive enumeration beyond this many worlds.
MAX_NAIVE_WORLDS = 1_000_000

#: Rows whose local completion count exceeds this are conservatively kept
#: by :func:`prune_database` (checking them would cost more than they save).
MAX_PRUNE_COMPLETIONS = 4_096


# ----------------------------------------------------------------------
# Naive oracle: enumerate every world
# ----------------------------------------------------------------------
def _check_enumerable(table: CoddTable) -> None:
    n = table.n_worlds()
    if n > MAX_NAIVE_WORLDS:
        raise ValueError(
            f"table has {n} possible worlds, above the naive-enumeration cap "
            f"{MAX_NAIVE_WORLDS}; use the tractable select-project evaluation"
        )


def certain_answers_naive(query: Query, table: CoddTable, name: str = "T") -> Relation:
    """``sure(Q, T)`` by intersecting ``Q`` over every possible world.

    ``name`` is the relation name the query's :class:`Scan` nodes refer to.
    """
    _check_enumerable(table)
    result: Relation | None = None
    for world in table.possible_worlds():
        answer = evaluate(query, {name: world})
        if result is None:
            result = answer
        else:
            result = result.with_rows(result.rows & answer.rows)
        if not result.rows:
            break  # the intersection can only shrink
    assert result is not None  # at least one world always exists
    return result


def possible_answers_naive(query: Query, table: CoddTable, name: str = "T") -> Relation:
    """The union counterpart: tuples appearing in *some* world's answer."""
    _check_enumerable(table)
    result: Relation | None = None
    for world in table.possible_worlds():
        answer = evaluate(query, {name: world})
        result = answer if result is None else result.with_rows(result.rows | answer.rows)
    assert result is not None
    return result


# ----------------------------------------------------------------------
# Multi-table databases (worlds are products of per-table worlds)
# ----------------------------------------------------------------------
def _iter_database_worlds(database: Mapping[str, CoddTable]):
    # The first table's worlds stream lazily (itertools.product would
    # materialise them all up front — for the common single-table case
    # that is the whole world set, and certain-answer enumeration breaks
    # early once the intersection empties); the remaining tables' worlds
    # are re-iterated and so are materialised once each.
    names = sorted(database)
    rest_worlds = [list(database[name].possible_worlds()) for name in names[1:]]
    for first in database[names[0]].possible_worlds():
        for combo in itertools.product(*rest_worlds):
            yield dict(zip(names, (first, *combo)))


def _check_database_enumerable(database: Mapping[str, CoddTable]) -> None:
    total = 1
    for table in database.values():
        total *= table.n_worlds()
    if total > MAX_NAIVE_WORLDS:
        raise ValueError(
            f"database has {total} possible worlds, above the naive-enumeration "
            f"cap {MAX_NAIVE_WORLDS}"
        )


def _first_world_table(table: CoddTable) -> CoddTable:
    """The table with every NULL fixed to its first domain value (1 world)."""
    if table.is_complete():
        return table
    rows = [
        tuple(
            cell.domain[0] if isinstance(cell, Null) else cell for cell in row
        )
        for row in table.rows
    ]
    return CoddTable(table.schema, rows)


def _scan_chains(query: Query) -> dict[str, list[Query]]:
    """Map each scanned relation name to the maximal unary (σ/π/ρ) chain
    rooted above each of its :class:`Scan` occurrences.

    A chain equal to the bare ``Scan`` (or containing no ``Select``)
    filters nothing; :func:`prune_database` treats such occurrences as
    keeping every row.
    """
    chains: dict[str, list[Query]] = {}

    def chain_scan(node: Query) -> Scan | None:
        while isinstance(node, (Select, Project, Rename)):
            node = node.child
        return node if isinstance(node, Scan) else None

    def walk(node: Query) -> None:
        scan = chain_scan(node)
        if scan is not None:
            chains.setdefault(scan.relation, []).append(node)
            return
        if isinstance(node, (Select, Project, Rename)):
            walk(node.child)
        elif isinstance(node, Aggregate):
            walk(node.child)
        elif isinstance(node, (Join, Union, Difference)):
            walk(node.left)
            walk(node.right)
        else:  # pragma: no cover - exhaustive over Query
            raise TypeError(f"not a query: {node!r}")

    walk(query)
    return chains


def _chain_filters(chain: Query) -> bool:
    node = chain
    while isinstance(node, (Select, Project, Rename)):
        if isinstance(node, Select):
            return True
        node = node.child
    return False


def _row_local_valuations(row: tuple[Any, ...]):
    """All completions of one row, enumerating only its own NULL domains."""
    null_cols = [c for c, cell in enumerate(row) if isinstance(cell, Null)]
    domains = [row[c].domain for c in null_cols]
    for combo in itertools.product(*domains):
        cells = list(row)
        for c, value in zip(null_cols, combo):
            cells[c] = value
        yield tuple(cells)


def _row_can_contribute(
    row: tuple[Any, ...], schema: tuple[str, ...], name: str, chains: list[Query]
) -> bool:
    """Can some completion of ``row`` survive some scan occurrence's filters?"""
    n_completions = 1
    for cell in row:
        if isinstance(cell, Null):
            n_completions *= len(cell.domain)
            if n_completions > MAX_PRUNE_COMPLETIONS:
                return True  # conservatively keep expensive rows
    for chain in chains:
        for completion in _row_local_valuations(row):
            if evaluate(chain, {name: Relation(schema, [completion])}).rows:
                return True
    return False


def prune_database(
    query: Query, database: Mapping[str, CoddTable]
) -> dict[str, CoddTable]:
    """Shrink a database's world product without changing any query answer.

    Two sound reductions, applied before naive multi-table enumeration:

    * a table the query never scans is collapsed to one arbitrary world
      (its variables cannot influence the answer);
    * a row is dropped when, at **every** scan occurrence of its table,
      the unary select chain directly above that scan rejects **all** of
      the row's local completions — such a row contributes nothing to the
      relation value flowing upward in any world, so removing it (and its
      variables, multiplicatively shrinking the world product) is sound
      even under ``Difference`` / ``Negation`` higher up.

    Rows under a bare (unfiltered) scan occurrence are always kept, as are
    rows whose local completion count exceeds ``MAX_PRUNE_COMPLETIONS``.
    """
    chains = _scan_chains(query)
    pruned: dict[str, CoddTable] = {}
    for name, table in database.items():
        occurrences = chains.get(name)
        if occurrences is None:
            pruned[name] = _first_world_table(table)
            continue
        if any(not _chain_filters(chain) for chain in occurrences):
            pruned[name] = table
            continue
        kept = [
            row
            for row in table.rows
            if _row_can_contribute(row, table.schema, name, occurrences)
        ]
        pruned[name] = (
            table if len(kept) == len(table.rows) else CoddTable(table.schema, kept)
        )
    return pruned


def certain_answers_database(
    query: Query, database: Mapping[str, CoddTable], prune: bool = True
) -> Relation:
    """``sure(Q, DB)`` over several Codd tables (e.g. a join across two).

    Worlds of the database are the products of each table's worlds (tables
    are independent); answers certain in every combination are returned.
    ``prune=True`` (default) first applies :func:`prune_database`, so the
    world-count guard is checked against the pruned product — often the
    difference between an answer and a blown enumeration cap.
    """
    pruned = dict(prune_database(query, database) if prune else database)
    _check_database_enumerable(pruned)
    result: Relation | None = None
    for world in _iter_database_worlds(pruned):
        answer = evaluate(query, world)
        result = answer if result is None else result.with_rows(result.rows & answer.rows)
        if not result.rows:
            break
    assert result is not None
    return result


def possible_answers_database(
    query: Query, database: Mapping[str, CoddTable], prune: bool = True
) -> Relation:
    """Union counterpart of :func:`certain_answers_database`."""
    pruned = dict(prune_database(query, database) if prune else database)
    _check_database_enumerable(pruned)
    result: Relation | None = None
    for world in _iter_database_worlds(pruned):
        answer = evaluate(query, world)
        result = answer if result is None else result.with_rows(result.rows | answer.rows)
    assert result is not None
    return result


# ----------------------------------------------------------------------
# Tractable select-project evaluation
# ----------------------------------------------------------------------
def certain_select_project_rowwise(
    query: Query, table: CoddTable, name: str = "T"
) -> Relation:
    """The streaming per-row reference path (one completion in memory at a
    time); semantics identical to :func:`certain_answers_select_project`.

    Correctness argument (rows independent because every variable appears in
    one cell): a constant tuple ``u`` is in ``Q(I)`` for every world ``I``
    iff some row produces ``u`` under **all** of its own completions — if
    every row had a failing completion, combining those completions would
    build a world whose answer misses ``u``.
    """
    select, schema, out_schema, out_indices = resolve_select_project_shape(
        query, table, name, "certain"
    )
    certain_rows: set[tuple[Any, ...]] = set()
    for row in table.rows:
        completions = iter(_row_local_valuations(row))
        first = next(completions)
        if select is not None and not select.predicate.holds(schema, first):
            continue
        candidate = tuple(first[i] for i in out_indices)
        ok = True
        for completion in completions:
            if select is not None and not select.predicate.holds(schema, completion):
                ok = False
                break
            if tuple(completion[i] for i in out_indices) != candidate:
                ok = False
                break
        if ok:
            certain_rows.add(candidate)
    return Relation(out_schema, certain_rows)


def possible_select_project_rowwise(
    query: Query, table: CoddTable, name: str = "T"
) -> Relation:
    """Streaming possible answers: some row, some completion."""
    select, schema, out_schema, out_indices = resolve_select_project_shape(
        query, table, name, "possible"
    )
    possible_rows: set[tuple[Any, ...]] = set()
    for row in table.rows:
        for completion in _row_local_valuations(row):
            if select is None or select.predicate.holds(schema, completion):
                possible_rows.add(tuple(completion[i] for i in out_indices))
    return Relation(out_schema, possible_rows)


def select_project_answers(
    query: Query,
    table: CoddTable,
    name: str = "T",
    mode: str = "certain",
    stacked: StackedTable | None = None,
) -> Relation:
    """Certain or possible answers of a select-project(-rename) query over
    one Codd table — the one evaluator every engine path goes through.

    ``stacked`` is the table's prepared grid, evaluated in one vectorised
    pass. Without one, the table runs in :func:`~repro.codd.vectorized.row_blocks`:
    one fresh grid when it fits the stacking cap, else transient per-block
    grids whose answers are unioned (sound because answers are row-local),
    with a lone row above the cap streamed through the reference.

    The grid evaluates every completion at once, so a mixed-type ordering
    comparison can raise a ``TypeError`` the streaming reference never
    reaches (it short-circuits per row, like the naive oracle's per-world
    evaluation). A ``TypeError`` anywhere replays the whole query on the
    reference, whose answer-or-error is the semantics of record.
    """
    evaluate, reference = (
        (certain_answers_vectorized, certain_select_project_rowwise)
        if mode == "certain"
        else (possible_answers_vectorized, possible_select_project_rowwise)
    )
    try:
        if stacked is not None:
            return evaluate(query, table, name=name, stacked=stacked)
        blocks = row_blocks(table)
        if len(blocks) == 1 and blocks[0][2]:
            return evaluate(query, table, name=name)
        rows: set[tuple[Any, ...]] = set()
        for start, stop, fits in blocks:
            block = CoddTable(table.schema, table.rows[start:stop])
            part = (evaluate if fits else reference)(query, block, name=name)
            rows |= part.rows
        return Relation(part.schema, rows)
    except TypeError:
        return reference(query, table, name=name)


def certain_answers_select_project(
    query: Query, table: CoddTable, name: str = "T"
) -> Relation:
    """Certain answers for a select-project(-rename) query over one Codd
    table, served by the vectorised columnar engine
    (:func:`select_project_answers`), answering or erroring exactly like
    the streaming reference."""
    return select_project_answers(query, table, name=name, mode="certain")


def possible_answers_select_project(
    query: Query, table: CoddTable, name: str = "T"
) -> Relation:
    """Possible answers for the same query fragment, the same way."""
    return select_project_answers(query, table, name=name, mode="possible")


# ----------------------------------------------------------------------
# Dispatcher
# ----------------------------------------------------------------------
def certain_answers(
    query: Query, table: CoddTable, name: str = "T", backend: str = "auto"
) -> Relation:
    """``sure(Q, T)``: the cheapest capable engine backend (the vectorised
    grid when the shape and size allow, else naive enumeration with the
    world-count guard). ``backend`` forces one."""
    from repro.codd.engine import answer_query

    return answer_query(query, {name: table}, mode="certain", backend=backend).relation


def possible_answers(
    query: Query, table: CoddTable, name: str = "T", backend: str = "auto"
) -> Relation:
    """Possible answers through the same engine dispatch."""
    from repro.codd.engine import answer_query

    return answer_query(query, {name: table}, mode="possible", backend=backend).relation
