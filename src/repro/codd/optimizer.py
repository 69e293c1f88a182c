"""A rule-based rewriter over :mod:`repro.codd.plan` trees.

Every rule is a *classical* set-semantics equivalence — it preserves the
query's value in each individual possible world — so by the definition of
certain/possible answers (intersection/union over worlds) every rewrite
preserves both.  The fuzz harness certifies this: optimized and
unoptimized plans are required to produce bit-identical answers across
all backends on 30 seeded schemas.

Logical rules (applied bottom-up, to a fixpoint):

``merge-selects``
    collapse stacked selections into one conjunction.
``push-select-below-project`` / ``...-rename``
    move filters through projections and renamings (predicates rewritten
    through the inverse renaming).
``push-select-below-join``
    split a conjunction and send each conjunct to the join side(s) whose
    schema covers it; conjuncts over shared attributes go to *both* sides.
``push-select-below-union`` / ``...-difference``
    distribute the filter over both branches (valid for difference too:
    ``σ(L−R) = σ(L)−σ(R)`` in every world).
``push-select-below-aggregate``
    conjuncts over group-by keys select whole groups, so they commute
    below the aggregation.
``merge-projects`` / ``drop-identity-project`` / ``push-project-below-join``
  / ``push-project-below-union``
    projection closure: compose, drop no-ops, and narrow join/union inputs
    to the attributes actually needed (join keys included).
``compose-renames`` / ``drop-identity-rename`` / ``push-rename-below-union``
  / ``push-rename-below-difference``
    rename closure and distribution.

The physical stage, :func:`prune_rewrite`, is the PR-5 ``prune_database``
pass recast as an optimizer rewrite: it shrinks the world product (rows
whose local completions all fail their scan chains, tables the query never
scans) and reports what it did alongside the logical rewrites, so
``explain`` shows the whole pipeline.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Callable

from repro.codd.algebra import (
    Attribute,
    Comparison,
    Conjunction,
    Disjunction,
    Literal,
    Negation,
    Predicate,
    Query,
    predicate_attributes,
)
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
    aggregate_node,
    difference_node,
    join_node,
    project_node,
    rename_node,
    select_node,
    to_query,
    union_node,
)

__all__ = [
    "OptimizedPlan",
    "optimize",
    "optimize_query",
    "prune_rewrite",
    "MAX_OPTIMIZER_PASSES",
]

#: Safety valve: the rule set is confluent and terminating in practice, but
#: the driver still refuses to loop forever on a pathological plan.
MAX_OPTIMIZER_PASSES = 32


@dataclass(frozen=True)
class OptimizedPlan:
    """The result of :func:`optimize`: the rewritten plan plus a trace."""

    plan: LogicalPlan
    rewrites: tuple[str, ...]

    @property
    def root(self) -> PlanNode:
        return self.plan.root

    def query(self) -> Query:
        return to_query(self.plan.root)


# ----------------------------------------------------------------------
# Predicate helpers
# ----------------------------------------------------------------------
def _conjuncts(pred: Predicate) -> list[Predicate]:
    if isinstance(pred, Conjunction):
        out: list[Predicate] = []
        for part in pred.parts:
            out.extend(_conjuncts(part))
        return out
    return [pred]


def _conjoin(parts: list[Predicate]) -> Predicate | None:
    """The conjunction of ``parts``: ``None`` for none, a lone part as is."""
    if not parts:
        return None
    return parts[0] if len(parts) == 1 else Conjunction(*parts)


def _rename_predicate(pred: Predicate, mapping: Mapping[str, str]) -> Predicate:
    """Rewrite every attribute reference through ``mapping`` (missing kept)."""
    if isinstance(pred, Comparison):
        def term(t: Attribute | Literal) -> Attribute | Literal:
            if isinstance(t, Attribute):
                return Attribute(mapping.get(t.name, t.name))
            return t
        return Comparison(term(pred.left), pred.op, term(pred.right))
    if isinstance(pred, Conjunction):
        return Conjunction(*(_rename_predicate(p, mapping) for p in pred.parts))
    if isinstance(pred, Disjunction):
        return Disjunction(*(_rename_predicate(p, mapping) for p in pred.parts))
    if isinstance(pred, Negation):
        return Negation(_rename_predicate(pred.part, mapping))
    raise TypeError(f"not a predicate: {pred!r}")


# ----------------------------------------------------------------------
# Rules.  Each takes a node and returns a replacement or None.
# ----------------------------------------------------------------------
def _merge_selects(node: PlanNode) -> PlanNode | None:
    if isinstance(node, SelectNode) and isinstance(node.child, SelectNode):
        merged = _conjoin(_conjuncts(node.predicate) + _conjuncts(node.child.predicate))
        return select_node(node.child.child, merged)
    return None


def _push_select_below_project(node: PlanNode) -> PlanNode | None:
    if isinstance(node, SelectNode) and isinstance(node.child, ProjectNode):
        inner = node.child
        if predicate_attributes(node.predicate) <= set(inner.attributes):
            return project_node(select_node(inner.child, node.predicate), inner.attributes)
    return None


def _push_select_below_rename(node: PlanNode) -> PlanNode | None:
    if isinstance(node, SelectNode) and isinstance(node.child, RenameNode):
        inner = node.child
        if isinstance(inner.child, ScanNode):
            # σ(ρ(Scan)) is already the canonical tractable shape the
            # vectorized single-scan path recognises; flipping it
            # to ρ(σ(Scan)) would push those queries off the fast path.
            return None
        inverse = {new: old for old, new in inner.mapping}
        rewritten = _rename_predicate(node.predicate, inverse)
        return rename_node(select_node(inner.child, rewritten), dict(inner.mapping))
    return None


def _push_select_below_join(node: PlanNode) -> PlanNode | None:
    if not (isinstance(node, SelectNode) and isinstance(node.child, JoinNode)):
        return None
    join = node.child
    left_schema, right_schema = set(join.left.schema), set(join.right.schema)
    left_parts: list[Predicate] = []
    right_parts: list[Predicate] = []
    keep: list[Predicate] = []
    for part in _conjuncts(node.predicate):
        attrs = predicate_attributes(part)
        pushed = False
        if attrs <= left_schema:
            left_parts.append(part)
            pushed = True
        if attrs <= right_schema:
            right_parts.append(part)
            pushed = True
        if not pushed:
            keep.append(part)
    if not left_parts and not right_parts:
        return None
    left = select_node(join.left, _conjoin(left_parts)) if left_parts else join.left
    right = select_node(join.right, _conjoin(right_parts)) if right_parts else join.right
    out: PlanNode = join_node(left, right)
    if keep:
        out = select_node(out, _conjoin(keep))
    return out


def _push_select_below_union(node: PlanNode) -> PlanNode | None:
    if isinstance(node, SelectNode) and isinstance(node.child, UnionNode):
        inner = node.child
        return union_node(
            select_node(inner.left, node.predicate),
            select_node(inner.right, node.predicate),
        )
    return None


def _push_select_below_difference(node: PlanNode) -> PlanNode | None:
    if isinstance(node, SelectNode) and isinstance(node.child, DifferenceNode):
        inner = node.child
        return difference_node(
            select_node(inner.left, node.predicate),
            select_node(inner.right, node.predicate),
        )
    return None


def _push_select_below_aggregate(node: PlanNode) -> PlanNode | None:
    if not (isinstance(node, SelectNode) and isinstance(node.child, AggregateNode)):
        return None
    agg = node.child
    keys = set(agg.group_by)
    pushable = [p for p in _conjuncts(node.predicate) if predicate_attributes(p) <= keys]
    if not pushable:
        return None
    keep = [p for p in _conjuncts(node.predicate) if not predicate_attributes(p) <= keys]
    out: PlanNode = aggregate_node(
        select_node(agg.child, _conjoin(pushable)), agg.group_by, agg.aggregates
    )
    if keep:
        out = select_node(out, _conjoin(keep))
    return out


def _merge_projects(node: PlanNode) -> PlanNode | None:
    if isinstance(node, ProjectNode) and isinstance(node.child, ProjectNode):
        return project_node(node.child.child, node.attributes)
    return None


def _drop_identity_project(node: PlanNode) -> PlanNode | None:
    if isinstance(node, ProjectNode) and node.attributes == node.child.schema:
        return node.child
    return None


def _push_project_below_join(node: PlanNode) -> PlanNode | None:
    if not (isinstance(node, ProjectNode) and isinstance(node.child, JoinNode)):
        return None
    join = node.child
    shared = {a for a in join.left.schema if a in join.right.schema}
    needed = set(node.attributes) | shared
    left_keep = tuple(a for a in join.left.schema if a in needed)
    right_keep = tuple(a for a in join.right.schema if a in needed)
    if left_keep == join.left.schema and right_keep == join.right.schema:
        return None
    left = join.left if left_keep == join.left.schema else project_node(join.left, left_keep)
    right = (
        join.right if right_keep == join.right.schema else project_node(join.right, right_keep)
    )
    return project_node(join_node(left, right), node.attributes)


def _push_project_below_union(node: PlanNode) -> PlanNode | None:
    if isinstance(node, ProjectNode) and isinstance(node.child, UnionNode):
        inner = node.child
        return union_node(
            project_node(inner.left, node.attributes),
            project_node(inner.right, node.attributes),
        )
    return None


def _compose_renames(node: PlanNode) -> PlanNode | None:
    if isinstance(node, RenameNode) and isinstance(node.child, RenameNode):
        inner = node.child
        outer = dict(node.mapping)
        composed: dict[str, str] = {}
        for name in inner.child.schema:
            mid = dict(inner.mapping).get(name, name)
            final = outer.get(mid, mid)
            if final != name:
                composed[name] = final
        return rename_node(inner.child, composed)
    return None


def _drop_identity_rename(node: PlanNode) -> PlanNode | None:
    if isinstance(node, RenameNode) and node.schema == node.child.schema:
        return node.child
    return None


def _push_rename_below_union(node: PlanNode) -> PlanNode | None:
    if isinstance(node, RenameNode) and isinstance(node.child, UnionNode):
        inner = node.child
        mapping = dict(node.mapping)
        return union_node(
            rename_node(inner.left, mapping), rename_node(inner.right, mapping)
        )
    return None


def _push_rename_below_difference(node: PlanNode) -> PlanNode | None:
    if isinstance(node, RenameNode) and isinstance(node.child, DifferenceNode):
        inner = node.child
        mapping = dict(node.mapping)
        return difference_node(
            rename_node(inner.left, mapping), rename_node(inner.right, mapping)
        )
    return None


_RULES: tuple[tuple[str, Callable[[PlanNode], PlanNode | None]], ...] = (
    ("merge-selects", _merge_selects),
    ("push-select-below-project", _push_select_below_project),
    ("push-select-below-rename", _push_select_below_rename),
    ("push-select-below-join", _push_select_below_join),
    ("push-select-below-union", _push_select_below_union),
    ("push-select-below-difference", _push_select_below_difference),
    ("push-select-below-aggregate", _push_select_below_aggregate),
    ("merge-projects", _merge_projects),
    ("drop-identity-project", _drop_identity_project),
    ("push-project-below-join", _push_project_below_join),
    ("push-project-below-union", _push_project_below_union),
    ("compose-renames", _compose_renames),
    ("drop-identity-rename", _drop_identity_rename),
    ("push-rename-below-union", _push_rename_below_union),
    ("push-rename-below-difference", _push_rename_below_difference),
)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _rebuild(node: PlanNode, applied: list[str]) -> PlanNode:
    """One bottom-up pass: rewrite children, then try rules at this node."""
    if isinstance(node, SelectNode):
        node = select_node(_rebuild(node.child, applied), node.predicate)
    elif isinstance(node, ProjectNode):
        node = project_node(_rebuild(node.child, applied), node.attributes)
    elif isinstance(node, RenameNode):
        node = rename_node(_rebuild(node.child, applied), dict(node.mapping))
    elif isinstance(node, AggregateNode):
        node = aggregate_node(_rebuild(node.child, applied), node.group_by, node.aggregates)
    elif isinstance(node, JoinNode):
        node = join_node(_rebuild(node.left, applied), _rebuild(node.right, applied))
    elif isinstance(node, UnionNode):
        node = union_node(_rebuild(node.left, applied), _rebuild(node.right, applied))
    elif isinstance(node, DifferenceNode):
        node = difference_node(_rebuild(node.left, applied), _rebuild(node.right, applied))
    for name, rule in _RULES:
        replacement = rule(node)
        if replacement is not None and replacement != node:
            applied.append(name)
            return replacement
    return node


def optimize(plan: LogicalPlan) -> OptimizedPlan:
    """Run the logical rule set to a fixpoint and record every application."""
    root = plan.root
    rewrites: list[str] = []
    for _ in range(MAX_OPTIMIZER_PASSES):
        applied: list[str] = []
        root = _rebuild(root, applied)
        if not applied:
            break
        rewrites.extend(applied)
    return OptimizedPlan(plan.with_root(root), tuple(rewrites))


def optimize_query(
    query: Query, database: Mapping[str, Any]
) -> OptimizedPlan:
    """Lower ``query`` against ``database``'s schemas and optimize it."""
    plan = LogicalPlan.from_query(query, LogicalPlan.catalog_of(database))
    return optimize(plan)


# ----------------------------------------------------------------------
# Physical stage: world-product pruning as a rewrite
# ----------------------------------------------------------------------
def prune_rewrite(
    query: Query, database: Mapping[str, Any]
) -> tuple[dict[str, Any], tuple[str, ...]]:
    """Apply the ``prune_database`` pass and describe it like a rule firing.

    Returns the (possibly) shrunk database plus one trace record per table
    whose world product actually changed, e.g.
    ``prune-database[orders: 12/40 rows, 3 -> 1 nulls]``.
    """
    from repro.codd.certain import prune_database

    pruned = prune_database(query, database)
    records = []
    for name in sorted(database):
        before, after = database[name], pruned[name]
        n_before = len(before.variables)
        n_after = len(after.variables)
        if len(after.rows) != len(before.rows) or n_after != n_before:
            records.append(
                f"prune-database[{name}: {len(after.rows)}/{len(before.rows)} rows, "
                f"{n_before} -> {n_after} nulls]"
            )
    return pruned, tuple(records)
