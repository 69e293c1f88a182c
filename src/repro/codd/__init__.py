"""Codd tables and certain answers (the database side of Figure 1).

The paper motivates *certain predictions* as the machine-learning analogue of
*certain answers* over incomplete databases: a Codd table with ``n`` NULL
variables over finite domains represents exponentially many possible worlds,
and a query answer is *certain* when it appears in the answer over every
world.  This subpackage implements that database side of the bridge:

* :mod:`repro.codd.relation` — complete relations with named attributes and
  set semantics;
* :mod:`repro.codd.algebra` — a small relational-algebra AST (select,
  project, join, union, difference, rename) with an analysable predicate
  language;
* :mod:`repro.codd.codd_table` — Codd tables: relations whose cells may hold
  NULL variables with finite domains, inducing a set of possible worlds;
* :mod:`repro.codd.certain` — certain and possible answers, both by naive
  world enumeration and by the tractable three-valued evaluation for
  select-project queries;
* :mod:`repro.codd.bridge` — the Figure-1 bridge: turning a Codd table with
  a label column into an :class:`~repro.core.dataset.IncompleteDataset` so
  the CP queries can run where the SQL queries stop.
"""

from repro.codd.aggregate import summarize
from repro.codd.algebra import (
    Aggregate,
    AggregateSpec,
    Attribute,
    Comparison,
    Conjunction,
    Difference,
    Disjunction,
    Join,
    Literal,
    Negation,
    Project,
    Query,
    Rename,
    Scan,
    Select,
    Union,
    evaluate,
)
from repro.codd.bridge import codd_table_to_incomplete_dataset
from repro.codd.certain import (
    certain_answers,
    certain_answers_database,
    certain_answers_naive,
    certain_answers_select_project,
    possible_answers,
    possible_answers_database,
    possible_answers_naive,
    possible_answers_select_project,
    prune_database,
)
from repro.codd.codd_table import CoddTable, Null
from repro.codd.engine import (
    CoddAnswerBackend,
    CoddAnswerPlan,
    CoddAnswerResult,
    CoddPlanError,
    answer_query,
    capable_codd_backends,
    codd_backend_names,
    get_codd_backend,
    plan_codd_query,
    register_codd_backend,
    scan_relations,
)
from repro.codd.vectorized import (
    StackedTable,
    certain_answers_vectorized,
    possible_answers_vectorized,
)
from repro.codd.from_table import codd_table_from_dirty_table
from repro.codd.optimizer import optimize, optimize_query, prune_rewrite
from repro.codd.plan import LogicalPlan, plan_dict
from repro.codd.relation import Relation
from repro.codd.sql import SqlError, parse_sql, referenced_tables

__all__ = [
    "Aggregate",
    "AggregateSpec",
    "Attribute",
    "CoddAnswerBackend",
    "CoddAnswerPlan",
    "CoddAnswerResult",
    "CoddPlanError",
    "CoddTable",
    "Comparison",
    "Conjunction",
    "Difference",
    "Disjunction",
    "Join",
    "Literal",
    "LogicalPlan",
    "Negation",
    "Null",
    "Project",
    "Query",
    "Relation",
    "Rename",
    "Scan",
    "Select",
    "StackedTable",
    "Union",
    "answer_query",
    "capable_codd_backends",
    "certain_answers",
    "certain_answers_database",
    "certain_answers_naive",
    "certain_answers_select_project",
    "certain_answers_vectorized",
    "codd_backend_names",
    "codd_table_from_dirty_table",
    "codd_table_to_incomplete_dataset",
    "evaluate",
    "get_codd_backend",
    "optimize",
    "optimize_query",
    "parse_sql",
    "plan_codd_query",
    "plan_dict",
    "possible_answers",
    "possible_answers_database",
    "possible_answers_naive",
    "possible_answers_select_project",
    "possible_answers_vectorized",
    "prune_database",
    "prune_rewrite",
    "referenced_tables",
    "register_codd_backend",
    "scan_relations",
    "summarize",
    "SqlError",
]
