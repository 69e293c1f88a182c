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
a join side's stacked completion grid (so the pre-pairing prune is one
vectorised pass), the answer by the leaf evaluator — which keeps the
grid LRU and the service's pinned grids out of this module.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, replace
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
from repro.codd.codd_table import CoddTable, Null
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

    def completion_cells(self) -> int:
        """Cells a stacked completion grid of ``table`` would hold."""
        return estimate_stacked_cells(self.table)

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


def _prune_rows(
    flat: FlatQuery, grids: GridResolver | None
) -> list[tuple[Any, ...]]:
    """Rows of ``flat.table`` that could pass ``flat.predicate`` in some
    world — the pre-pairing prune that makes the hash join fast.  Rows too
    ambiguous to check cheaply (or whose check raises, e.g. a mixed-type
    ordering the oracle would also choke on) are conservatively kept.

    With a grid the predicate runs once over every completion and is
    OR-reduced per row.  A vectorised pass evaluates branches a row's own
    short-circuit never reaches, so when it raises a ``TypeError`` the
    row loop decides instead, keeping exactly the rows it always kept."""
    if flat.predicate is None:
        return list(flat.table.rows)
    stacked = (
        grids(flat.name, flat.table)
        if grids is not None and flat.table.rows
        else None
    )
    if stacked is not None:
        try:
            mask = predicate_mask(flat.predicate, flat.working, stacked)
        except TypeError:
            pass
        else:
            keep = np.logical_or.reduceat(mask, stacked.offsets)
            keep |= stacked.counts > MAX_JOIN_PRUNE_COMPLETIONS
            rows = flat.table.rows
            return [rows[r] for r in np.flatnonzero(keep)]
    kept = []
    for row, completions in zip(flat.table.rows, flat.table.row_completions()):
        if completions > MAX_JOIN_PRUNE_COMPLETIONS:
            kept.append(row)
            continue
        try:
            if any(
                flat.predicate.holds(flat.working, completion)
                for completion in _row_local_valuations(row)
            ):
                kept.append(row)
        except (TypeError, KeyError):
            kept.append(row)
    return kept


def _possible_values(cell: Any) -> tuple[Any, ...]:
    return cell.domain if isinstance(cell, Null) else (cell,)


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

    left_rows = _prune_rows(left, grids)
    right_rows = _prune_rows(right, grids)

    left_key_idx = [left.working.index(a) for a, _ in key_pairs]
    right_key_idx = [right.working.index(b) for _, b in key_pairs]

    # Hash probe on the first key pair's possible values; remaining key
    # pairs are verified by possible-overlap.  Probing is only candidate
    # pruning — the σ equalities below are what make matches exact.
    if key_pairs:
        probe: dict[Any, list[int]] = {}
        for j, row in enumerate(right_rows):
            for value in _possible_values(row[right_key_idx[0]]):
                try:
                    bucket = probe.setdefault(value, [])
                except TypeError:
                    raise _Decline("unhashable join-key value")
                if not bucket or bucket[-1] != j:
                    bucket.append(j)

    pairs: list[tuple[int, int]] = []
    for i, lrow in enumerate(left_rows):
        if key_pairs:
            candidates: list[int] = []
            seen: set[int] = set()
            for value in _possible_values(lrow[left_key_idx[0]]):
                for j in probe.get(value, ()):
                    if j not in seen:
                        seen.add(j)
                        candidates.append(j)
            candidates.sort()
        else:
            candidates = range(len(right_rows))  # cross product
        for j in candidates:
            rrow = right_rows[j]
            ok = True
            for li, ri in zip(left_key_idx[1:], right_key_idx[1:]):
                lvals = _possible_values(lrow[li])
                rvals = set(_possible_values(rrow[ri]))
                if not any(v in rvals for v in lvals):
                    ok = False
                    break
            if ok:
                pairs.append((i, j))

    # Exactness guard: a NULL-bearing row in two pairs would decouple its
    # variable.  Complete rows carry no variables and may repeat freely.
    used_left: set[int] = set()
    used_right: set[int] = set()
    for i, j in pairs:
        if not all(not isinstance(c, Null) for c in left_rows[i]):
            if i in used_left:
                raise _Decline("a NULL-bearing left row matches several right rows")
            used_left.add(i)
        if not all(not isinstance(c, Null) for c in right_rows[j]):
            if j in used_right:
                raise _Decline("a NULL-bearing right row matches several left rows")
            used_right.add(j)

    working = left.working + right_working
    table = CoddTable(
        working, [left_rows[i] + right_rows[j] for i, j in pairs]
    )
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
    )


# ----------------------------------------------------------------------
# Composite trees: set operators and aggregation over flat leaves
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Composite:
    """The analyzed form of a fast-evaluable query tree.

    An ``aggregate`` composite carries its prepared aggregation: both
    answer relations, computed once by the DP during the analysis.
    """

    kind: str  # "flat" | "union" | "difference" | "aggregate"
    flat: FlatQuery | None = None
    left: "Composite | None" = None
    right: "Composite | None" = None
    aggregation: _PreparedAggregation | None = None

    @property
    def sources(self) -> frozenset[str]:
        if self.flat is not None:
            return self.flat.sources
        return self.left.sources | self.right.sources

    def estimated_cells(self) -> float:
        if self.kind == "flat":
            return float(self.flat.completion_cells())
        if self.kind == "aggregate":
            # The aggregation DP walks every completion of the flat child.
            return 2.0 * self.flat.completion_cells()
        return self.left.estimated_cells() + self.right.estimated_cells()


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
        return Composite(kind=kind, left=left, right=right)
    if isinstance(node, AggregateNode):
        flat = _flatten(node.child, database, grids)
        if flat.completion_cells() > MAX_QUERY_CELLS:
            raise _Decline("aggregate child above the completion-cell cap")
        from repro.codd.aggregate import prepare_aggregation

        # Raises _Decline when cross-row tuple collisions or the DP state
        # cap make the fast path inexact/unaffordable for this input.
        return Composite(
            kind="aggregate",
            flat=flat,
            aggregation=prepare_aggregation(flat, node.group_by, node.aggregates),
        )
    flat = _flatten(node, database, grids)
    if flat.completion_cells() > MAX_QUERY_CELLS:
        raise _Decline("flattened table above the completion-cell cap")
    return Composite(kind="flat", flat=flat)


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
