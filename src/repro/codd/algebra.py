"""A small relational-algebra AST and evaluator over complete relations.

The AST is deliberately analysable rather than opaque: predicates are built
from :class:`Attribute`, :class:`Literal` and :class:`Comparison` nodes
combined with :class:`Conjunction` / :class:`Disjunction` / :class:`Negation`.
This lets :mod:`repro.codd.certain` evaluate the same predicate under
three-valued logic over incomplete cells.

Queries are trees of :class:`Scan`, :class:`Select`, :class:`Project`,
:class:`Join`, :class:`Union`, :class:`Difference`, :class:`Rename` and
:class:`Aggregate` nodes; :func:`evaluate` runs a query against a database,
a mapping from relation name to :class:`~repro.codd.relation.Relation`.

:class:`Aggregate` gives the algebra SUMMARIZE-style grouping: ``GROUP BY``
attributes plus ``COUNT``/``SUM``/``MAX``/``MIN`` over the *set* of child
tuples (set semantics: duplicate child tuples collapse before aggregation,
so the classical evaluator stays the single source of truth for what every
possible world computes).
"""

from __future__ import annotations

import math

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from repro.codd.relation import Relation

__all__ = [
    "Attribute",
    "Literal",
    "Comparison",
    "Conjunction",
    "Disjunction",
    "Negation",
    "Predicate",
    "Term",
    "Scan",
    "Select",
    "Project",
    "Join",
    "Union",
    "Difference",
    "Rename",
    "Aggregate",
    "AggregateSpec",
    "AGGREGATE_FUNCS",
    "aggregate_column",
    "Query",
    "evaluate",
]


# ----------------------------------------------------------------------
# Terms: the leaves of a predicate
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Attribute:
    """A reference to an attribute of the input schema."""

    name: str

    def resolve(self, schema: Sequence[str], row: Sequence[Any]) -> Any:
        try:
            return row[list(schema).index(self.name)]
        except ValueError:
            raise KeyError(f"attribute {self.name!r} not in schema {tuple(schema)}") from None


@dataclass(frozen=True)
class Literal:
    """A constant value."""

    value: Any

    def resolve(self, schema: Sequence[str], row: Sequence[Any]) -> Any:
        return self.value


Term = Attribute | Literal

_COMPARATORS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


# ----------------------------------------------------------------------
# Predicates
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Comparison:
    """``left op right`` where ``op`` is one of ``== != < <= > >=``."""

    left: Term
    op: str
    right: Term

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def holds(self, schema: Sequence[str], row: Sequence[Any]) -> bool:
        return bool(
            _COMPARATORS[self.op](
                self.left.resolve(schema, row), self.right.resolve(schema, row)
            )
        )


@dataclass(frozen=True)
class Conjunction:
    """Logical AND of sub-predicates."""

    parts: tuple["Predicate", ...]

    def __init__(self, *parts: "Predicate") -> None:
        object.__setattr__(self, "parts", tuple(parts))

    def holds(self, schema: Sequence[str], row: Sequence[Any]) -> bool:
        return all(p.holds(schema, row) for p in self.parts)


@dataclass(frozen=True)
class Disjunction:
    """Logical OR of sub-predicates."""

    parts: tuple["Predicate", ...]

    def __init__(self, *parts: "Predicate") -> None:
        object.__setattr__(self, "parts", tuple(parts))

    def holds(self, schema: Sequence[str], row: Sequence[Any]) -> bool:
        return any(p.holds(schema, row) for p in self.parts)


@dataclass(frozen=True)
class Negation:
    """Logical NOT of a sub-predicate."""

    part: "Predicate"

    def holds(self, schema: Sequence[str], row: Sequence[Any]) -> bool:
        return not self.part.holds(schema, row)


Predicate = Comparison | Conjunction | Disjunction | Negation


def predicate_attributes(pred: Predicate) -> set[str]:
    """All attribute names a predicate reads (used by the certain-answer rules)."""
    if isinstance(pred, Comparison):
        names = set()
        for term in (pred.left, pred.right):
            if isinstance(term, Attribute):
                names.add(term.name)
        return names
    if isinstance(pred, (Conjunction, Disjunction)):
        out: set[str] = set()
        for part in pred.parts:
            out |= predicate_attributes(part)
        return out
    if isinstance(pred, Negation):
        return predicate_attributes(pred.part)
    raise TypeError(f"not a predicate: {pred!r}")


# ----------------------------------------------------------------------
# Query nodes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scan:
    """A base-relation reference by name."""

    relation: str


@dataclass(frozen=True)
class Select:
    """``σ_pred(child)``."""

    child: "Query"
    predicate: Predicate


@dataclass(frozen=True)
class Project:
    """``π_attributes(child)``."""

    child: "Query"
    attributes: tuple[str, ...]

    def __init__(self, child: "Query", attributes: Sequence[str]) -> None:
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "attributes", tuple(attributes))


@dataclass(frozen=True)
class Join:
    """Natural join of two sub-queries."""

    left: "Query"
    right: "Query"


@dataclass(frozen=True)
class Union:
    """Set union of two union-compatible sub-queries."""

    left: "Query"
    right: "Query"


@dataclass(frozen=True)
class Difference:
    """Set difference ``left - right``."""

    left: "Query"
    right: "Query"


@dataclass(frozen=True)
class Rename:
    """Attribute renaming via a mapping (missing attributes kept)."""

    child: "Query"
    mapping: tuple[tuple[str, str], ...]

    def __init__(self, child: "Query", mapping: Mapping[str, str]) -> None:
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "mapping", tuple(sorted(mapping.items())))


#: Aggregate functions understood by :class:`AggregateSpec`.
AGGREGATE_FUNCS = ("count", "sum", "min", "max")


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate in a SUMMARIZE: ``func(attribute) AS alias``.

    ``attribute`` is ``None`` only for ``COUNT(*)``.  ``COUNT(attribute)``
    counts non-``None`` values, matching the SQL convention (``None`` cells
    only ever arise from aggregates over empty value sets, never from base
    tables — the wire layer rejects them there).
    """

    func: str
    attribute: str | None
    alias: str

    def __post_init__(self) -> None:
        if self.func not in AGGREGATE_FUNCS:
            raise ValueError(f"unknown aggregate function {self.func!r}")
        if self.func != "count" and self.attribute is None:
            raise ValueError(f"{self.func}(*) is not defined; name an attribute")
        if not self.alias:
            raise ValueError("an aggregate needs a non-empty output alias")


@dataclass(frozen=True)
class Aggregate:
    """``GROUP BY group_by`` + aggregate list over the child's tuple set.

    Output schema is ``group_by + (spec.alias, ...)``.  With an empty
    ``group_by`` this is a global aggregate and always yields exactly one
    row (``COUNT`` 0 and ``None`` for the value aggregates on empty input),
    matching SQL.
    """

    child: "Query"
    group_by: tuple[str, ...]
    aggregates: tuple[AggregateSpec, ...]

    def __init__(
        self,
        child: "Query",
        group_by: Sequence[str],
        aggregates: Sequence[AggregateSpec],
    ) -> None:
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "group_by", tuple(group_by))
        object.__setattr__(self, "aggregates", tuple(aggregates))
        if not self.aggregates:
            raise ValueError("Aggregate needs at least one aggregate (use Project to group-only)")
        out = self.group_by + tuple(spec.alias for spec in self.aggregates)
        if len(set(out)) != len(out):
            raise ValueError(f"duplicate output names in aggregate schema {out}")


Query = Scan | Select | Project | Join | Union | Difference | Rename | Aggregate


def is_positive(query: Query) -> bool:
    """True iff the query uses no ``Difference`` and no ``Negation``.

    Positive (monotone) queries are the fragment for which possible-world
    reasoning behaves monotonically; the tractable certain-answer rules in
    :mod:`repro.codd.certain` require this.
    """
    if isinstance(query, Scan):
        return True
    if isinstance(query, Select):
        return _predicate_positive(query.predicate) and is_positive(query.child)
    if isinstance(query, (Project, Rename)):
        return is_positive(query.child)
    if isinstance(query, (Join, Union)):
        return is_positive(query.left) and is_positive(query.right)
    if isinstance(query, Difference):
        return False
    if isinstance(query, Aggregate):
        # COUNT/SUM shrink when rows are added to a group, so aggregates
        # are not monotone even over positive children.
        return False
    raise TypeError(f"not a query: {query!r}")


def _predicate_positive(pred: Predicate) -> bool:
    if isinstance(pred, Comparison):
        return True
    if isinstance(pred, (Conjunction, Disjunction)):
        return all(_predicate_positive(p) for p in pred.parts)
    if isinstance(pred, Negation):
        return False
    raise TypeError(f"not a predicate: {pred!r}")


# ----------------------------------------------------------------------
# Evaluation over complete relations
# ----------------------------------------------------------------------
def evaluate(query: Query, database: Mapping[str, Relation]) -> Relation:
    """Evaluate ``query`` against a database of complete relations."""
    if isinstance(query, Scan):
        try:
            return database[query.relation]
        except KeyError:
            raise KeyError(
                f"relation {query.relation!r} not in database {sorted(database)}"
            ) from None
    if isinstance(query, Select):
        child = evaluate(query.child, database)
        return child.with_rows(
            row for row in child if query.predicate.holds(child.schema, row)
        )
    if isinstance(query, Project):
        return evaluate(query.child, database).project(query.attributes)
    if isinstance(query, Join):
        return evaluate(query.left, database).natural_join(evaluate(query.right, database))
    if isinstance(query, Union):
        return evaluate(query.left, database).union(evaluate(query.right, database))
    if isinstance(query, Difference):
        return evaluate(query.left, database).difference(evaluate(query.right, database))
    if isinstance(query, Rename):
        return evaluate(query.child, database).renamed(dict(query.mapping))
    if isinstance(query, Aggregate):
        return _evaluate_aggregate(query, evaluate(query.child, database))
    raise TypeError(f"not a query: {query!r}")


# ----------------------------------------------------------------------
# Aggregation over a complete relation
# ----------------------------------------------------------------------
def aggregate_column(func: str, values: Sequence[Any]) -> Any:
    """Apply one aggregate function to the non-``None`` values of a group.

    Deterministic regardless of input order: integer sums use exact integer
    arithmetic, and any float in the group routes the whole sum through
    ``math.fsum`` over ``float()``-converted values (correctly rounded, so
    order-insensitive).  This pins down the exact bits every evaluation
    path — naive world enumeration, the aggregation DP — must reproduce.
    """
    present = [v for v in values if v is not None]
    if func == "count":
        return len(present)
    if not present:
        return None
    if func == "min":
        return min(present)
    if func == "max":
        return max(present)
    if func == "sum":
        if all(isinstance(v, int) for v in present):  # bool is an int subclass
            return sum(int(v) for v in present)
        return math.fsum(float(v) for v in present)
    raise ValueError(f"unknown aggregate function {func!r}")


def _evaluate_aggregate(query: Aggregate, child: Relation) -> Relation:
    schema = child.schema
    key_idx = [child.attribute_index(a) for a in query.group_by]
    spec_idx = [
        None if spec.attribute is None else child.attribute_index(spec.attribute)
        for spec in query.aggregates
    ]
    groups: dict[tuple[Any, ...], list[tuple[Any, ...]]] = {}
    if not query.group_by:
        groups[()] = []  # a global aggregate has one group even on empty input
    for row in child:
        groups.setdefault(tuple(row[i] for i in key_idx), []).append(row)
    out_schema = query.group_by + tuple(spec.alias for spec in query.aggregates)
    out_rows = []
    for key, rows in groups.items():
        aggs = tuple(
            aggregate_column(
                spec.func,
                [True for _ in rows] if idx is None else [row[idx] for row in rows],
            )
            for spec, idx in zip(query.aggregates, spec_idx)
        )
        out_rows.append(key + aggs)
    return Relation(out_schema, out_rows)
