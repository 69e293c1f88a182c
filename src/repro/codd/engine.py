"""The certain-answer engine: one front door, pluggable Codd backends.

The CP side of the repo routes every query through
:mod:`repro.core.planner` — a descriptor, a backend protocol with declared
capabilities, a process-wide registry, and a cost-model-lite planner. This
module is the same architecture for the *database* side of Figure 1, so
the serving stack (``/sql``, ``repro sql``) and the library front doors
(:func:`repro.codd.certain.certain_answers`) share one dispatch path:

* :class:`CoddAnswerBackend` is the executor protocol: ``supports`` /
  ``estimate_cost`` / ``certain`` / ``possible`` over a *database* (a
  name → :class:`~repro.codd.codd_table.CoddTable` mapping — one entry
  for the classic single-table case, several for joins).
* :func:`register_codd_backend` / :func:`get_codd_backend` /
  :func:`codd_backend_names` manage the registry;
  :func:`plan_codd_query` picks the cheapest capable backend and
  :func:`answer_query` executes the plan, returning a
  :class:`CoddAnswerResult` (the relation plus the plan that produced it).

Two backends ship by default:

``vectorized``
    :mod:`repro.codd.vectorized`: the stacked-completion-grid engine for
    select-project(-rename) queries up to
    :data:`~repro.codd.vectorized.MAX_QUERY_CELLS` completion cells. A
    grid that fits :data:`~repro.codd.vectorized.MAX_STACKED_CELLS` is
    kept in a small fingerprint-keyed LRU (and the service registry can
    hand its pinned grid in directly); a larger table runs in transient
    row blocks that never enter the LRU. Joins, unions, differences and
    GROUP BY aggregation route through the composite analysis in
    :mod:`repro.codd.joins` / :mod:`repro.codd.aggregate` — pair-table
    hash joins, set-operator combinators and the exact per-group state
    DP — with grid-backed leaf evaluation, whenever the exactness
    conditions hold.
``naive``
    World enumeration with the enumeration cap, for every query shape,
    multi-table databases included (after
    :func:`repro.codd.certain.prune_database` shrinks the product). Every
    composite decline — a NULL row pairing twice, an incomplete source on
    both sides of a set operator, an aggregation tuple collision — lands
    here, so the fast paths are performance decisions, never semantic ones.

:func:`answer_query` first lowers the query through the logical optimizer
(:mod:`repro.codd.optimizer`, ``optimize=False`` opts out) and records the
rewrites on the result; any optimizer failure falls back to running the
query exactly as written, preserving error behaviour.

All backends return bit-identical :class:`~repro.codd.relation.Relation`
values for any query they all support
(``tests/codd/test_codd_differential.py``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping
from dataclasses import dataclass

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
)
from repro.codd.certain import (
    MAX_NAIVE_WORLDS,
    certain_answers_database,
    possible_answers_database,
    select_project_answers,
)
from repro.codd.codd_table import CoddTable
from repro.codd.joins import GridResolver, composite_analysis, composite_answer
from repro.codd.plan import LogicalPlan
from repro.codd.relation import Relation
from repro.codd.vectorized import (
    MAX_QUERY_CELLS,
    StackedTable,
    estimate_stacked_cells,
    stackable,
    unwrap_select_project,
)
from repro.utils.lru import LRUCache

__all__ = [
    "MODES",
    "MAX_PREPARED_GRIDS",
    "CoddPlanError",
    "CoddAnswerPlan",
    "CoddAnswerResult",
    "CoddAnswerBackend",
    "register_codd_backend",
    "get_codd_backend",
    "codd_backend_names",
    "capable_codd_backends",
    "plan_codd_query",
    "answer_query",
    "scan_relations",
    "VectorizedCoddBackend",
    "NaiveCoddBackend",
]

#: The two answer modes every backend serves.
MODES = ("certain", "possible")

#: Whole-table grids the vectorized backend keeps in its fingerprint LRU.
MAX_PREPARED_GRIDS = 8


class CoddPlanError(ValueError):
    """No backend can serve the query (or an explicit request is incapable)."""


@dataclass(frozen=True)
class CoddAnswerPlan:
    """The engine's decision: which backend answers, and why."""

    backend: str
    reason: str
    cost: float
    considered: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True, eq=False)
class CoddAnswerResult:
    """A certain/possible answer relation plus the plan that produced it.

    ``logical`` is the optimized :class:`~repro.codd.plan.LogicalPlan` the
    engine executed (``None`` when optimization was skipped or declined)
    and ``rewrites`` the rule applications that shaped it — what
    ``/sql?explain=1`` and ``repro sql --explain`` surface.
    """

    relation: Relation
    plan: CoddAnswerPlan
    mode: str
    logical: LogicalPlan | None = None
    rewrites: tuple[str, ...] = ()


def scan_relations(query: Query) -> list[str]:
    """The relation names a query scans, sorted and deduplicated."""
    names: set[str] = set()

    def walk(node: Query) -> None:
        if isinstance(node, Scan):
            names.add(node.relation)
        elif isinstance(node, (Select, Project, Rename, Aggregate)):
            walk(node.child)
        elif isinstance(node, (Join, Union, Difference)):
            walk(node.left)
            walk(node.right)
        else:  # pragma: no cover - exhaustive over Query
            raise TypeError(f"not a query: {node!r}")

    walk(query)
    return sorted(names)


def _database_worlds(database: Mapping[str, CoddTable], cap: int) -> int:
    """``min(world count, cap)``, without building the exact product (a
    huge integer on a large table) once it passes ``cap``."""
    total = 1
    for table in database.values():
        for _, _, null in table.variables:
            total *= len(null.domain)
            if total >= cap:
                return cap
    return total


# ---------------------------------------------------------------------------
# The backend protocol and registry
# ---------------------------------------------------------------------------


class CoddAnswerBackend(ABC):
    """An executor for certain/possible-answer queries over Codd databases."""

    name: str = "abstract"

    @abstractmethod
    def supports(
        self,
        query: Query,
        database: Mapping[str, CoddTable],
        prepared: Mapping[str, StackedTable] | None = None,
    ) -> bool:
        """True iff this backend can serve the query over this database.

        ``prepared`` is the same pinned-grid mapping :meth:`answer` takes;
        it may speed the check up, never change it."""

    @abstractmethod
    def estimate_cost(
        self,
        query: Query,
        database: Mapping[str, CoddTable],
        prepared: Mapping[str, StackedTable] | None = None,
    ) -> tuple[float, str]:
        """``(cost, reason)`` in the engine's abstract cost unit (one unit
        ≈ one evaluated row completion)."""

    @abstractmethod
    def certain(
        self,
        query: Query,
        database: Mapping[str, CoddTable],
        prepared: Mapping[str, StackedTable] | None = None,
    ) -> Relation:
        """``sure(Q, DB)``."""

    @abstractmethod
    def possible(
        self,
        query: Query,
        database: Mapping[str, CoddTable],
        prepared: Mapping[str, StackedTable] | None = None,
    ) -> Relation:
        """The union counterpart."""

    def answer(
        self,
        query: Query,
        database: Mapping[str, CoddTable],
        mode: str,
        prepared: Mapping[str, StackedTable] | None = None,
    ) -> Relation:
        if mode == "certain":
            return self.certain(query, database, prepared=prepared)
        if mode == "possible":
            return self.possible(query, database, prepared=prepared)
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


_REGISTRY: dict[str, CoddAnswerBackend] = {}


def register_codd_backend(
    backend: CoddAnswerBackend, replace: bool = False
) -> CoddAnswerBackend:
    """Add a backend to the process-wide registry (``replace`` to override)."""
    if not replace and backend.name in _REGISTRY:
        raise ValueError(f"codd backend {backend.name!r} is already registered")
    _REGISTRY[backend.name] = backend
    return backend


def get_codd_backend(name: str) -> CoddAnswerBackend:
    """The registered backend of that name (:class:`CoddPlanError` if unknown)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise CoddPlanError(
            f"unknown codd backend {name!r}; registered: {codd_backend_names()}"
        ) from None


def codd_backend_names() -> list[str]:
    """Registered backend names, in registration order."""
    return list(_REGISTRY)


def capable_codd_backends(
    query: Query,
    database: Mapping[str, CoddTable],
    prepared: Mapping[str, StackedTable] | None = None,
) -> list[CoddAnswerBackend]:
    """Every registered backend that can serve ``query`` over ``database``."""
    return [
        b for b in _REGISTRY.values() if b.supports(query, database, prepared)
    ]


# ---------------------------------------------------------------------------
# Planning and execution
# ---------------------------------------------------------------------------


def plan_codd_query(
    query: Query,
    database: Mapping[str, CoddTable],
    backend: str = "auto",
    prepared: Mapping[str, StackedTable] | None = None,
) -> CoddAnswerPlan:
    """Choose the backend: explicit names are capability-checked, ``auto``
    takes the cheapest capable backend (registration order breaks ties).

    ``prepared`` hands the pinned grids :func:`answer_query` will run on,
    so the planning analysis can use them too."""
    if backend != "auto":
        chosen = get_codd_backend(backend)
        if not chosen.supports(query, database, prepared):
            raise CoddPlanError(
                f"codd backend {backend!r} cannot serve this query "
                "(shape outside its class, or the table is too large for it)"
            )
        cost, _ = chosen.estimate_cost(query, database, prepared)
        return CoddAnswerPlan(
            backend=chosen.name,
            reason="requested explicitly",
            cost=cost,
            considered=((chosen.name, cost),),
        )
    candidates = capable_codd_backends(query, database, prepared)
    if not candidates:
        raise CoddPlanError("no registered codd backend can serve this query")
    scored = [
        (*b.estimate_cost(query, database, prepared), b) for b in candidates
    ]
    best_cost, best_reason, best = min(scored, key=lambda item: item[0])
    return CoddAnswerPlan(
        backend=best.name,
        reason=best_reason,
        cost=best_cost,
        considered=tuple((b.name, cost) for cost, _, b in scored),
    )


def answer_query(
    query: Query,
    database: Mapping[str, CoddTable],
    mode: str = "certain",
    backend: str = "auto",
    prepared: Mapping[str, StackedTable] | None = None,
    optimize: bool = True,
) -> CoddAnswerResult:
    """Plan and run one certain/possible-answer query; the one call the
    dispatchers, the SQL service and the CLI all go through.

    ``prepared`` optionally hands pinned
    :class:`~repro.codd.vectorized.StackedTable` grids (keyed by relation
    name) to the vectorized backend — the service registry's warm state —
    for planning and execution alike.

    With ``optimize`` on (the default) the query is first lowered to a
    :class:`~repro.codd.plan.LogicalPlan` and rewritten by
    :func:`repro.codd.optimizer.optimize`; planning and execution then run
    on the rewritten query, and when the naive backend is chosen the
    :func:`~repro.codd.optimizer.prune_rewrite` records join the rewrite
    trail.  Every rewrite is a per-world equivalence, so answers are
    unchanged; if lowering or rewriting fails for any reason the original
    query runs untouched, preserving the unoptimized error behaviour.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    logical: LogicalPlan | None = None
    rewrites: tuple[str, ...] = ()
    run_query = query
    if optimize:
        from repro.codd.optimizer import optimize_query

        try:
            optimized = optimize_query(query, database)
        except Exception:
            # Malformed queries must fail exactly where (and as) they did
            # before the optimizer existed — during evaluation, below.
            optimized = None
        if optimized is not None:
            logical = optimized.plan
            rewrites = optimized.rewrites
            run_query = optimized.query()
    plan = plan_codd_query(
        run_query, database, backend=backend, prepared=prepared
    )
    if plan.backend == "naive" and optimize and logical is not None:
        from repro.codd.optimizer import prune_rewrite

        try:
            _, prune_records = prune_rewrite(run_query, database)
        except Exception:
            prune_records = ()
        rewrites = rewrites + tuple(prune_records)
    relation = get_codd_backend(plan.backend).answer(
        run_query, database, mode, prepared=prepared
    )
    return CoddAnswerResult(
        relation=relation,
        plan=plan,
        mode=mode,
        logical=logical,
        rewrites=rewrites,
    )


# ---------------------------------------------------------------------------
# The default backends
# ---------------------------------------------------------------------------


def _single_scan_table(
    query: Query, database: Mapping[str, CoddTable]
) -> tuple[str, CoddTable] | None:
    """The (name, table) a select-project query scans, if shape and binding
    line up; ``None`` otherwise."""
    shape = unwrap_select_project(query)
    if shape is None:
        return None
    scan = shape[3]
    table = database.get(scan.relation)
    if table is None:
        return None
    return scan.relation, table


class VectorizedCoddBackend(CoddAnswerBackend):
    """The stacked-completion-grid engine (:mod:`repro.codd.vectorized`).

    Serves select-project(-rename) queries, and the composite trees
    :func:`~repro.codd.joins.composite_analysis` flattens, up to
    :data:`~repro.codd.vectorized.MAX_QUERY_CELLS` completion cells.
    Whole-table grids are reused: a handed ``prepared`` mapping wins (the
    service registry pins one per Codd table), then a fingerprint-keyed
    LRU of :data:`MAX_PREPARED_GRIDS` grids. A table above the stacking
    cap has no whole grid; it runs in transient row blocks instead.
    """

    name = "vectorized"

    def __init__(self) -> None:
        self._prepared = LRUCache(MAX_PREPARED_GRIDS)

    def supports(self, query, database, prepared=None):
        bound = _single_scan_table(query, database)
        if bound is not None:
            return estimate_stacked_cells(bound[1]) <= MAX_QUERY_CELLS
        return self._analysis(query, database, prepared) is not None

    def estimate_cost(self, query, database, prepared=None):
        bound = _single_scan_table(query, database)
        if bound is not None:
            return (
                float(estimate_stacked_cells(bound[1])),
                "one vectorised pass over the stacked completion grid",
            )
        composite = self._analysis(query, database, prepared)
        assert composite is not None
        return (
            composite.cells,
            "hash-joined pair tables / set combinators over stacked grids",
        )

    def _stacked_for(
        self,
        name: str,
        table: CoddTable,
        prepared: Mapping[str, StackedTable] | None,
    ) -> StackedTable | None:
        """The whole grid of the table bound as ``name`` — handed, cached
        or freshly cached — or ``None`` when it is above the stacking cap.

        Only bound tables come here: a join's pair table gathers its grid
        from its sides' (:meth:`repro.codd.joins.FlatQuery.grid`), so no
        per-query grid evicts the base-table grids the LRU keeps."""
        if prepared is not None:
            handed = prepared.get(name)
            if handed is not None and (
                handed.table is table
                or handed.fingerprint() == table.fingerprint()
            ):
                return handed
        if not stackable(table):
            return None
        key = table.fingerprint()
        stacked = self._prepared.get(key)
        if stacked is None:
            stacked = StackedTable(table)
            self._prepared.put(key, stacked)
        return stacked

    def _grids(self, prepared) -> GridResolver:
        return lambda name, table: self._stacked_for(name, table, prepared)

    def _analysis(self, query, database, prepared):
        """The composite analysis, reading the same grids the leaves run on."""
        return composite_analysis(query, database, self._grids(prepared))

    def _run(self, query, database, prepared, mode) -> Relation:
        grids = self._grids(prepared)
        bound = _single_scan_table(query, database)
        if bound is not None:
            # Run the original query directly so the pinned single-table
            # fast path stays byte-for-byte what it was.
            name, table = bound
            return select_project_answers(
                query, table, name=name, mode=mode, stacked=grids(name, table)
            )
        composite = composite_analysis(query, database, grids)
        if composite is None:
            raise CoddPlanError(
                "vectorized backend needs a select-project(-rename) query "
                "over a single bound Scan, or a join/set/aggregate tree it "
                "can flatten exactly"
            )
        return composite_answer(
            composite,
            mode,
            lambda flat, m: select_project_answers(
                flat.to_query(),
                flat.table,
                name=flat.name,
                mode=m,
                stacked=flat.grid(grids),
            ),
        )

    def certain(self, query, database, prepared=None):
        return self._run(query, database, prepared, "certain")

    def possible(self, query, database, prepared=None):
        return self._run(query, database, prepared, "possible")


class NaiveCoddBackend(CoddAnswerBackend):
    """Pruned world enumeration: any query shape, any number of tables.

    :func:`~repro.codd.certain.prune_database` first collapses unreferenced
    tables and drops rows no filter chain can accept; the enumeration cap
    applies to the *pruned* world product. The unpruned single-table
    oracles (:func:`~repro.codd.certain.certain_answers_naive`) stay
    available for differential testing.
    """

    name = "naive"

    def supports(self, query, database, prepared=None):
        return True

    def estimate_cost(self, query, database, prepared=None):
        worlds = _database_worlds(database, 10 * MAX_NAIVE_WORLDS)
        rows = sum(len(table) for table in database.values())
        # Each world materialises whole Relation objects and re-runs the
        # evaluator — far heavier per unit than a grid cell, hence the
        # large constant factor.
        cost = float(worlds) * max(rows, 1) * 32.0
        return cost, "pruned enumeration of the possible-world product"

    def certain(self, query, database, prepared=None):
        return certain_answers_database(query, database)

    def possible(self, query, database, prepared=None):
        return possible_answers_database(query, database)


# ---------------------------------------------------------------------------
# Default registry
# ---------------------------------------------------------------------------

register_codd_backend(VectorizedCoddBackend())
register_codd_backend(NaiveCoddBackend())
