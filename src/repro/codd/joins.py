"""Set-semantic joins and set operators over Codd tables, without worlds.

The tractable single-table machinery (:mod:`repro.codd.vectorized`,
:mod:`repro.codd.certain`) answers ``π(σ(ρ(Scan)))`` column-at-a-time via
the row-local rule.  This module extends that reach to ``Join`` / ``Union``
/ ``Difference`` / ``Aggregate`` trees by *reduction*, never enumeration:

**Flattening.**  Any ``Scan``/``Select``/``Project``/``Rename``/``Join``
subtree is compiled to a :class:`FlatQuery`: one Codd table, one working
schema, one conjunctive-ish predicate, one output projection.  For a join,
the table is a synthesized *pair table*: a hash probe over each row's
possible join-key values finds the candidate pairs — constant-equal keys
are certain matches, overlapping NULL domains only possible ones — and
each candidate pair's cells (NULL objects included) are concatenated into
one row.  The join condition and both side filters become a single ``σ``
over the pair table, so the whole join runs through the unchanged
single-table engine.

The pair table is index-built: the prune yields kept row indices, the
probe ``(left, right)`` row-index arrays, and the table takes its rows and
NULL cells from the sides' without re-validation.  Its stacked grid is
gathered from the sides' grids by index arithmetic
(:meth:`FlatQuery.grid`, :meth:`~repro.codd.vectorized.StackedTable.paired`),
never built by walking rows, and never kept past the call that needs it.

**Exactness.**  Worlds of the pair table correspond exactly to worlds of
the database *provided no NULL variable occurs in two pair rows* — a
NULL-bearing base row matched by two partners would otherwise have its
variable decoupled, which is unsound for certain answers (a tuple can be
certain via different rows in different worlds) and for aggregate
multiplicities.  Whenever that happens — or an incomplete table is scanned
on both sides of a join/union/difference — flattening *declines* and the
planner falls back to naive world enumeration.  Rows whose side filter
rejects every local completion are dropped before pairing (the
``prune_database`` idea applied inside the join), which is what makes the
hash join beat enumeration by orders of magnitude.

**Set operators.**  With the two sides touching disjoint sets of
incomplete tables, worlds factor independently, giving the classic exact
combinators::

    certain(A ∪ B) = certain(A) ∪ certain(B)    possible(A ∪ B) = possible(A) ∪ possible(B)
    certain(A − B) = certain(A) − possible(B)   possible(A − B) = possible(A) − certain(B)

:func:`composite_analysis` performs the whole analysis (cached — planning
calls ``supports``/``estimate_cost``/``answer`` back to back), including
the aggregation DP, whose answers it keeps on the :class:`Composite`;
:func:`composite_answer` evaluates it.  Both are parameterised by the
engine's grid access — the analysis by a :data:`GridResolver` that finds
a scanned table's stacked completion grid (so the pre-pairing prune and
the DP's row options are one vectorised pass each), the answer by the
leaf evaluator — which keeps the grid LRU and the service's pinned grids
out of this module.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Callable, Mapping
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.codd.algebra import (
    Attribute,
    Comparison,
    Predicate,
    Project,
    Query,
    Rename,
    Scan,
    Select,
    predicate_attributes,
)
from repro.codd.certain import _row_local_valuations
from repro.codd.codd_table import CoddTable
from repro.codd.optimizer import _conjoin, _conjuncts, _rename_predicate
from repro.codd.plan import (
    AggregateNode,
    DifferenceNode,
    JoinNode,
    LogicalPlan,
    PlanNode,
    ProjectNode,
    RenameNode,
    ScanNode,
    SelectNode,
    UnionNode,
)
from repro.codd.relation import Relation
from repro.codd.vectorized import (
    MAX_QUERY_CELLS,
    StackedTable,
    estimate_stacked_cells,
    predicate_mask,
    stackable,
)
from repro.utils.lru import LRUCache

if TYPE_CHECKING:
    from repro.codd.aggregate import _PreparedAggregation

__all__ = [
    "MAX_JOIN_PRUNE_COMPLETIONS",
    "FlatQuery",
    "Composite",
    "GridResolver",
    "composite_analysis",
    "composite_answer",
]

#: Per-row completion cap for the pre-pairing filter prune (same idea as
#: :data:`repro.codd.certain.MAX_PRUNE_COMPLETIONS`): rows more ambiguous
#: than this are conservatively kept.
MAX_JOIN_PRUNE_COMPLETIONS = 4096

#: ``(name, table) -> grid`` — the stacked completion grid of the table
#: bound as ``name``, or ``None`` when it has none (above the stacking cap).
GridResolver = Callable[[str, CoddTable], StackedTable | None]


# ----------------------------------------------------------------------
# FlatQuery: one table, one rename, one filter, one projection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FlatQuery:
    """A normalized single-table query: ``π_output(σ_pred(ρ(Scan)))``.

    ``working`` names the table's columns after the renaming (same arity
    and order as ``table.schema``); ``output`` is a subset of ``working``
    in output order; ``predicate`` reads working names.  ``sources`` lists
    the *incomplete* base tables this flat query draws rows from (the
    disjointness currency of the set-operator combinators); ``name`` binds
    the scan.
    """

    table: CoddTable
    name: str
    working: tuple[str, ...]
    output: tuple[str, ...]
    predicate: Predicate | None
    sources: frozenset[str]
    #: For a join's pair table, where its rows come from; ``None`` for a
    #: scanned table.
    pairing: _Pairing | None = None

    def completion_cells(self) -> int:
        """Cells a stacked completion grid of ``table`` would hold."""
        return estimate_stacked_cells(self.table)

    def grid(self, grids: GridResolver | None) -> StackedTable | None:
        """The stacked completion grid of ``table``: the resolver's for a
        scanned table, gathered from the sides' grids for a pair table
        (built per call, never kept). ``None`` without a resolver, or when
        a grid involved is above the stacking cap."""
        if grids is None:
            return None
        pairing = self.pairing
        if pairing is None:
            return grids(self.name, self.table)
        if not stackable(self.table):
            return None
        left = pairing.left.grid(grids)
        right = pairing.right.grid(grids)
        if left is None or right is None:
            return None
        return StackedTable.paired(
            self.table, left, right, pairing.left_rows, pairing.right_rows
        )

    def to_query(self) -> Query:
        """The canonical ``π(σ(ρ(Scan)))`` the single-table engines accept."""
        query: Query = Scan(self.name)
        mapping = {
            old: new
            for old, new in zip(self.table.schema, self.working)
            if old != new
        }
        if mapping:
            query = Rename(query, mapping)
        if self.predicate is not None:
            query = Select(query, self.predicate)
        if self.output != self.working:
            query = Project(query, self.output)
        return query


@dataclass(frozen=True, eq=False)
class _Pairing:
    """Row ``p`` of a pair table is ``left.table`` row ``left_rows[p]``
    followed by ``right.table`` row ``right_rows[p]``."""

    left: FlatQuery
    right: FlatQuery
    left_rows: np.ndarray
    right_rows: np.ndarray


class _Decline(Exception):
    """Internal: this subtree cannot be flattened exactly — fall back."""


def _equi_pairs(
    pred: Predicate | None,
    left: FlatQuery,
    right: FlatQuery,
) -> list[tuple[str, str]]:
    """``(left_attr, right_attr)`` pairs from ``attr == attr`` conjuncts
    spanning the two sides — the hash-probe keys of a qualified
    ``JOIN ... ON`` whose sources have disjoint schemas."""
    pairs: list[tuple[str, str]] = []
    if pred is None:
        return pairs
    left_attrs, right_attrs = set(left.output), set(right.output)
    for part in _conjuncts(pred):
        if not (
            isinstance(part, Comparison)
            and part.op == "=="
            and isinstance(part.left, Attribute)
            and isinstance(part.right, Attribute)
        ):
            continue
        a, b = part.left.name, part.right.name
        if a in left_attrs and b in right_attrs:
            pairs.append((a, b))
        elif b in left_attrs and a in right_attrs:
            pairs.append((b, a))
    return pairs


def _fresh_names(taken: set[str], n: int, prefix: str) -> list[str]:
    out = []
    counter = 0
    while len(out) < n:
        candidate = f"{prefix}{counter}"
        counter += 1
        if candidate not in taken:
            taken.add(candidate)
            out.append(candidate)
    return out


# ----------------------------------------------------------------------
# Flattening
# ----------------------------------------------------------------------
def _flatten(
    node: PlanNode,
    database: Mapping[str, CoddTable],
    grids: GridResolver | None,
) -> FlatQuery:
    if isinstance(node, ScanNode):
        table = database.get(node.relation)
        if table is None:
            raise _Decline(f"relation {node.relation!r} not bound")
        sources = frozenset() if table.is_complete() else frozenset((node.relation,))
        return FlatQuery(
            table=table,
            name=node.relation,
            working=table.schema,
            output=table.schema,
            predicate=None,
            sources=sources,
        )
    if isinstance(node, SelectNode):
        if isinstance(node.child, JoinNode):
            # σ directly over a join carries the ON condition of a
            # qualified (disjoint-schema) SQL join; hand it to the pair
            # synthesis so its equality conjuncts drive the hash probe.
            flat = _flatten_join(node.child, node.predicate, database, grids)
        else:
            flat = _flatten(node.child, database, grids)
        if not predicate_attributes(node.predicate) <= set(flat.output):
            # Referencing a projected-away attribute must raise the naive
            # path's KeyError, not silently read a hidden working column.
            raise _Decline("select predicate references a hidden attribute")
        parts = [flat.predicate] if flat.predicate is not None else []
        # The plan predicate reads visible (output) names, all of which are
        # working names too, so it composes without rewriting.
        return replace(flat, predicate=_conjoin(parts + [node.predicate]))
    if isinstance(node, ProjectNode):
        flat = _flatten(node.child, database, grids)
        return replace(flat, output=node.attributes)
    if isinstance(node, RenameNode):
        flat = _flatten(node.child, database, grids)
        mapping = dict(node.mapping)
        visible = set(flat.output)
        rename: dict[str, str] = {
            old: new for old, new in mapping.items() if old in visible and old != new
        }
        new_visible = {rename.get(a, a) for a in flat.output}
        # Hidden (projected-away) working columns whose names now collide
        # with a visible name move to fresh private names; they are only
        # ever referenced by the stored predicate, which is rewritten too.
        taken = set(flat.working) | new_visible
        hidden_clashes = [
            a for a in flat.working if a not in visible and a in new_visible
        ]
        for a, fresh in zip(
            hidden_clashes, _fresh_names(taken, len(hidden_clashes), "#h")
        ):
            rename[a] = fresh
        working = tuple(rename.get(a, a) for a in flat.working)
        if len(set(working)) != len(working):
            raise _Decline("rename produced colliding working names")
        predicate = (
            _rename_predicate(flat.predicate, rename)
            if flat.predicate is not None
            else None
        )
        return replace(
            flat,
            working=working,
            output=tuple(rename.get(a, a) for a in flat.output),
            predicate=predicate,
        )
    if isinstance(node, JoinNode):
        return _flatten_join(node, None, database, grids)
    raise _Decline(f"cannot flatten a {type(node).__name__}")


def _flatten_join(
    node: JoinNode,
    on_predicate: Predicate | None,
    database: Mapping[str, CoddTable],
    grids: GridResolver | None,
) -> FlatQuery:
    """Flatten a join; ``on_predicate`` (the σ directly above, if any) is
    mined for equality conjuncts to use as hash-probe keys but NOT applied
    here — the caller conjoins it onto the result."""
    left = _flatten(node.left, database, grids)
    right = _flatten(node.right, database, grids)
    if left.sources & right.sources:
        raise _Decline(
            "an incomplete table is scanned on both sides of the join; "
            "its variables would be coupled across pair rows"
        )
    key_pairs = [(a, a) for a in left.output if a in right.output]
    key_pairs.extend(_equi_pairs(on_predicate, left, right))
    return _synthesize_pair(left, right, key_pairs, grids)


def _prune_rows(flat: FlatQuery, grids: GridResolver | None) -> np.ndarray:
    """Indices of the rows of ``flat.table`` that could pass
    ``flat.predicate`` in some world, in row order — the pre-pairing prune
    that makes the hash join fast.  Rows too ambiguous to check cheaply
    (or whose check raises, e.g. a mixed-type ordering the oracle would
    also choke on) are conservatively kept.

    With a grid the predicate runs once over every completion and is
    OR-reduced per row.  A vectorised pass evaluates branches a row's own
    short-circuit never reaches, so when it raises a ``TypeError`` the
    row loop decides instead, keeping exactly the rows it always kept."""
    table = flat.table
    if flat.predicate is None:
        return np.arange(len(table), dtype=np.int64)
    stacked = flat.grid(grids) if len(table) else None
    if stacked is not None:
        try:
            mask = predicate_mask(flat.predicate, flat.working, stacked)
        except TypeError:
            pass
        else:
            keep = np.logical_or.reduceat(mask, stacked.offsets)
            keep |= stacked.counts > MAX_JOIN_PRUNE_COMPLETIONS
            return np.flatnonzero(keep)
    kept = []
    for r, (row, completions) in enumerate(zip(table.rows, table.row_completions())):
        if completions > MAX_JOIN_PRUNE_COMPLETIONS:
            kept.append(r)
            continue
        try:
            if any(
                flat.predicate.holds(flat.working, completion)
                for completion in _row_local_valuations(row)
            ):
                kept.append(r)
        except (TypeError, KeyError):
            kept.append(r)
    return np.array(kept, dtype=np.int64)


def _null_cells(table: CoddTable) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, columns)`` of the NULL cells of ``table``, in its
    ``(row, column)`` order."""
    variables = table.variables
    return (
        np.fromiter(map(itemgetter(0), variables), np.int64, len(variables)),
        np.fromiter(map(itemgetter(1), variables), np.int64, len(variables)),
    )


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``arange(start, start + length)`` for each pair, concatenated."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    shifts = np.repeat(starts - ends + lengths, lengths)
    return shifts + np.arange(total, dtype=np.int64)


def _value_coder() -> Callable[[list[Any]], np.ndarray]:
    """A numbering of values, shared across calls: values equal as dict
    keys (the probe's notion of a match) get equal numbers."""
    codes: dict[Any, int] = {}
    fresh = itertools.count()

    def code(values: list[Any]) -> np.ndarray:
        try:
            return np.fromiter(
                map(codes.setdefault, values, fresh), np.int64, len(values)
            )
        except TypeError:
            raise _Decline("unhashable join-key value") from None

    return code


def _key_entries(
    table: CoddTable,
    kept: np.ndarray,
    column: int,
    null_rows: np.ndarray,
    code: Callable[[list[Any]], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """``(row, value code)`` for every possible value of ``column`` in the
    ``kept`` rows, grouped by row in row order; ``null_rows`` are the rows
    holding a NULL in ``column``."""
    rows = table.rows
    null_at = np.zeros(len(rows), dtype=bool)
    null_at[null_rows] = True
    is_null = null_at[kept]
    owners = [kept[~is_null]]
    values = [rows[r][column] for r in owners[0].tolist()]
    for r in kept[is_null].tolist():
        domain = rows[r][column].domain
        owners.append(np.full(len(domain), r, dtype=np.int64))
        values.extend(domain)
    owner = np.concatenate(owners)
    order = np.argsort(owner, kind="stable")
    return owner[order], code(values)[order]


def _probe(
    left: FlatQuery,
    right: FlatQuery,
    kept: tuple[np.ndarray, np.ndarray],
    nulls: tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    key_pairs: list[tuple[str, str]],
) -> tuple[np.ndarray, np.ndarray]:
    """``(left rows, right rows)`` of the candidate pairs among the
    ``kept`` rows, ordered by left row, then right row.

    A pair is a candidate when, on every key pair, some possible value of
    its left cell equals some possible value of its right cell.  The first
    key is a hash join on value codes; each further key filters the pairs.
    Probing is only candidate pruning — the σ equalities over the pair
    table are what make matches exact."""
    left_kept, right_kept = kept
    if not key_pairs:  # cross product
        return (
            np.repeat(left_kept, len(right_kept)),
            np.tile(right_kept, len(left_kept)),
        )
    pairs: tuple[np.ndarray, np.ndarray] | None = None
    for a, b in key_pairs:
        code = _value_coder()
        entries = []
        for side, side_kept, (null_rows, null_cols), attr in (
            (left, left_kept, nulls[0], a),
            (right, right_kept, nulls[1], b),
        ):
            column = side.working.index(attr)
            entries.append(
                _key_entries(
                    side.table, side_kept, column, null_rows[null_cols == column], code
                )
            )
        (left_owner, left_codes), (right_owner, right_codes) = entries
        if pairs is None:
            order = np.argsort(right_codes, kind="stable")
            right_owner, right_codes = right_owner[order], right_codes[order]
            start = np.searchsorted(right_codes, left_codes, "left")
            n = np.searchsorted(right_codes, left_codes, "right") - start
            width = max(len(right.table), 1)
            keys = np.sort(
                np.repeat(left_owner, n) * width + right_owner[_ranges(start, n)]
            )
            # Distinct keys (np.unique would import numpy.ma, about 1 MB).
            first = np.ones(len(keys), dtype=bool)
            first[1:] = keys[1:] != keys[:-1]
            keys = keys[first]
            pairs = (keys // width, keys % width)
            continue
        # Tag each pair's possible values with the pair: the pairs whose
        # two cells share a value have a tag on both sides.
        span = int(max(left_codes.max(initial=0), right_codes.max(initial=0))) + 1
        tags = []
        for side_rows, owner, codes in zip(
            pairs, (left_owner, right_owner), (left_codes, right_codes)
        ):
            start = np.searchsorted(owner, side_rows, "left")
            n = np.searchsorted(owner, side_rows, "right") - start
            pair = np.repeat(np.arange(len(side_rows)), n)
            tags.append((pair, pair * span + codes[_ranges(start, n)]))
        (pair, left_tags), (_, right_tags) = tags
        right_tags = np.sort(right_tags)
        at = np.searchsorted(right_tags, left_tags).clip(max=len(right_tags) - 1)
        keep = np.zeros(len(pairs[0]), dtype=bool)
        keep[pair[right_tags[at] == left_tags]] = True
        pairs = (pairs[0][keep], pairs[1][keep])
    return pairs


def _pair_table(
    working: tuple[str, ...],
    left: CoddTable,
    right: CoddTable,
    pairs: tuple[np.ndarray, np.ndarray],
    nulls: tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
) -> CoddTable:
    """The pair table: row ``p`` is ``left`` row ``pairs[0][p]`` followed by
    ``right`` row ``pairs[1][p]``, its NULL cells taken from the sides'
    (with no re-validation)."""
    left_rows, right_rows = (side_rows.tolist() for side_rows in pairs)
    rows = tuple(
        map(
            operator.add,
            map(left.rows.__getitem__, left_rows),
            map(right.rows.__getitem__, right_rows),
        )
    )
    owners, columns, variables = [], [], []
    for side, side_rows, (null_rows, null_cols), shift in (
        (left, pairs[0], nulls[0], 0),
        (right, pairs[1], nulls[1], len(left.schema)),
    ):
        start = np.searchsorted(null_rows, side_rows, "left")
        n = np.searchsorted(null_rows, side_rows, "right") - start
        at = _ranges(start, n)
        owners.append(np.repeat(np.arange(len(side_rows)), n))
        columns.append(null_cols[at] + shift)
        variables.extend(map(side.variables.__getitem__, at.tolist()))
    # Each side's cells are in (pair, column) order already; a stable sort
    # on the pair interleaves them, left columns first.
    owner = np.concatenate(owners)
    order = np.argsort(owner, kind="stable")
    nulls_in_order = map(itemgetter(2), map(variables.__getitem__, order.tolist()))
    return CoddTable._from_validated(
        working,
        rows,
        tuple(
            zip(
                owner[order].tolist(),
                np.concatenate(columns)[order].tolist(),
                nulls_in_order,
            )
        ),
    )


def _synthesize_pair(
    left: FlatQuery,
    right: FlatQuery,
    key_pairs: list[tuple[str, str]],
    grids: GridResolver | None,
) -> FlatQuery:
    """Build the candidate-pair table for ``left ⋈ right``.

    ``key_pairs`` are ``(left_attr, right_attr)`` equalities known to hold
    in the final query — the shared attributes of a natural join plus any
    ``ON`` equalities mined by the caller.  They drive the hash probe that
    keeps the candidate set near the true match set; the actual equality
    predicates (σ over the pair table) are what make the answer exact.
    """
    shared = tuple(a for a in left.output if a in right.output)

    # Disambiguate: right working names colliding with left working names
    # move to fresh private names; for shared join attributes we keep the
    # right copy under a private name and add the equality below.
    taken = set(left.working) | set(right.working)
    clashes = [a for a in right.working if a in left.working]
    fresh = dict(zip(clashes, _fresh_names(taken, len(clashes), "#r")))
    right_working = tuple(fresh.get(a, a) for a in right.working)
    right_pred = (
        _rename_predicate(right.predicate, fresh)
        if right.predicate is not None
        else None
    )

    kept = (_prune_rows(left, grids), _prune_rows(right, grids))
    nulls = (_null_cells(left.table), _null_cells(right.table))
    pairs = _probe(left, right, kept, nulls, key_pairs)

    # Exactness guard: a NULL-bearing row in two pairs would decouple its
    # variable.  Complete rows carry no variables and may repeat freely.
    for side, other, side_table, side_rows, (null_rows, _) in zip(
        ("left", "right"), ("right", "left"), (left.table, right.table), pairs, nulls
    ):
        has_null = np.zeros(len(side_table), dtype=bool)
        has_null[null_rows] = True
        if np.bincount(side_rows[has_null[side_rows]]).max(initial=0) > 1:
            raise _Decline(f"a NULL-bearing {side} row matches several {other} rows")

    working = left.working + right_working
    table = _pair_table(working, left.table, right.table, pairs, nulls)
    cells = estimate_stacked_cells(table)
    if cells > MAX_QUERY_CELLS:
        raise _Decline(
            f"pair table needs {cells} completion cells, "
            f"above the cap {MAX_QUERY_CELLS}"
        )
    parts: list[Predicate] = []
    if left.predicate is not None:
        parts.append(left.predicate)
    if right_pred is not None:
        parts.append(right_pred)
    for a in shared:
        right_copy = right_working[right.working.index(a)]
        parts.append(Comparison(Attribute(a), "==", Attribute(right_copy)))
    output = left.output + tuple(a for a in right.output if a not in shared)
    return FlatQuery(
        table=table,
        name=f"{left.name}*{right.name}",
        working=working,
        output=output,
        predicate=_conjoin(parts),
        sources=left.sources | right.sources,
        pairing=_Pairing(left, right, *pairs),
    )


# ----------------------------------------------------------------------
# Composite trees: set operators and aggregation over flat leaves
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Composite:
    """The analyzed form of a fast-evaluable query tree.

    ``sources`` are the incomplete tables it reads and ``cells`` its
    estimated cost in completion cells. An ``aggregate`` composite keeps
    only its prepared aggregation (the answers of the DP run once during
    the analysis), not the flattened child the DP ran on, so a cached
    analysis pins no pair table.
    """

    kind: str  # "flat" | "union" | "difference" | "aggregate"
    sources: frozenset[str]
    cells: float
    flat: FlatQuery | None = None
    left: "Composite | None" = None
    right: "Composite | None" = None
    aggregation: _PreparedAggregation | None = None


def _analyze(
    node: PlanNode,
    database: Mapping[str, CoddTable],
    grids: GridResolver | None,
) -> Composite:
    if isinstance(node, UnionNode) or isinstance(node, DifferenceNode):
        left = _analyze(node.left, database, grids)
        right = _analyze(node.right, database, grids)
        if left.sources & right.sources:
            raise _Decline(
                "an incomplete table is scanned on both sides of the set "
                "operator; its worlds would be coupled across the sides"
            )
        kind = "union" if isinstance(node, UnionNode) else "difference"
        return Composite(
            kind=kind,
            sources=left.sources | right.sources,
            cells=left.cells + right.cells,
            left=left,
            right=right,
        )
    if isinstance(node, AggregateNode):
        flat = _flatten(node.child, database, grids)
        cells = flat.completion_cells()
        if cells > MAX_QUERY_CELLS:
            raise _Decline("aggregate child above the completion-cell cap")
        from repro.codd.aggregate import prepare_aggregation

        # Raises _Decline when cross-row tuple collisions or the DP state
        # cap make the fast path inexact/unaffordable for this input.
        aggregation = prepare_aggregation(
            flat, node.group_by, node.aggregates, flat.grid(grids)
        )
        # The aggregation DP walks every completion of the flat child.
        return Composite(
            kind="aggregate",
            sources=flat.sources,
            cells=2.0 * cells,
            aggregation=aggregation,
        )
    flat = _flatten(node, database, grids)
    cells = flat.completion_cells()
    if cells > MAX_QUERY_CELLS:
        raise _Decline("flattened table above the completion-cell cap")
    return Composite(kind="flat", sources=flat.sources, cells=float(cells), flat=flat)


# Planning calls supports/estimate_cost/answer back to back on the same
# query; cache the (potentially expensive) analysis keyed by query + table
# fingerprints. A declined analysis is cached too, as ``None``. Grids only
# speed the analysis up, never change it, so they are not part of the key.
_ANALYSIS_CACHE = LRUCache(32)
_MISS = object()


class _ByIdentity:
    """Keys a query that cannot be hashed (it holds an unhashable literal)
    by identity, so the calls of one planning round still share one
    analysis. The cache entry holds the query, so its id stays unique for
    as long as the entry lives."""

    __slots__ = ("query",)

    def __init__(self, query: Query) -> None:
        self.query = query

    def __hash__(self) -> int:
        return id(self.query)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _ByIdentity) and other.query is self.query


def composite_analysis(
    query: Query,
    database: Mapping[str, CoddTable],
    grids: GridResolver | None = None,
) -> Composite | None:
    """Analyze ``query`` for fast evaluation; ``None`` when it must fall
    back to naive enumeration (shape, exactness, or a flattened table
    above :data:`~repro.codd.vectorized.MAX_QUERY_CELLS`).

    ``grids`` finds a table's stacked completion grid for the join
    prune; without one every side is pruned row by row."""
    fingerprints = tuple(sorted((n, t.fingerprint()) for n, t in database.items()))
    key = (query, fingerprints)
    try:
        hash(key)
    except TypeError:  # unhashable literal somewhere in the query
        key = (_ByIdentity(query), fingerprints)
    cached = _ANALYSIS_CACHE.get(key, _MISS)
    if cached is not _MISS:
        return cached
    try:
        plan = LogicalPlan.from_query(query, LogicalPlan.catalog_of(database))
        result: Composite | None = _analyze(plan.root, database, grids)
    except _Decline:
        result = None
    except (KeyError, ValueError):
        # Unknown relations/attributes or incompatible schemas: let the
        # naive path raise the canonical error.
        result = None
    _ANALYSIS_CACHE.put(key, result)
    return result


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------
#: ``(flat, mode) -> Relation`` — how the engine answers one leaf.
LeafEvaluator = Callable[[FlatQuery, str], Relation]


def composite_answer(
    composite: Composite,
    mode: str,
    leaf: LeafEvaluator,
) -> Relation:
    """Evaluate an analyzed composite in ``mode`` (``certain``/``possible``).

    ``leaf`` evaluates one :class:`FlatQuery` in a given mode — the
    vectorized backend's grid-backed evaluator, which runs a leaf above
    the stacking cap in row blocks.  Set operators use the exact
    mode-flipping combinators; aggregation reads the answers the analysis
    prepared.
    """
    if composite.kind == "flat":
        return leaf(composite.flat, mode)
    if composite.kind == "aggregate":
        from repro.codd.aggregate import aggregate_answers

        return aggregate_answers(composite.aggregation, mode)
    other = "possible" if mode == "certain" else "certain"
    if composite.kind == "union":
        return composite_answer(composite.left, mode, leaf).union(
            composite_answer(composite.right, mode, leaf)
        )
    if composite.kind == "difference":
        return composite_answer(composite.left, mode, leaf).difference(
            composite_answer(composite.right, other, leaf)
        )
    raise ValueError(f"unknown composite kind {composite.kind!r}")
