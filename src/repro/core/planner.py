"""The unified CP query planner: one front door, pluggable backends.

Every CP query over possible worlds — whatever its kind or task flavor —
goes through one planner-plus-backend layer:

* :class:`CPQuery` (built via :func:`make_query`) is the *descriptor* of a
  query family: the dataset, a test matrix, the query kind
  (``counts`` / ``certain_label`` / ``check``), the task **flavor**
  (``binary``, ``multiclass``, ``weighted``, ``topk``,
  ``label_uncertainty``), ``k``, the kernel, the pins applied so far and
  optional candidate weights.
* :class:`Backend` is the executor protocol. Each backend declares
  :class:`BackendCapabilities` (which flavors and kinds it can serve,
  whether it is the unpruned reference) and estimates its cost for a
  concrete query; a process-wide registry
  (:func:`register_backend` / :func:`get_backend` /
  :func:`backend_names`) makes backends pluggable.
* :func:`plan_query` is the cost-model-lite planner: an explicit backend
  request is validated against capabilities, ``"auto"`` scores every
  capable backend and picks the cheapest (single points and batches go to
  the vectorised path, warm incremental state wins for repeated pinned
  queries; the per-row reference is never chosen while another backend
  can serve the query). :func:`execute_query` executes the plan and
  returns a :class:`QueryResult`.

Three backends ship by default (each class docstring has the details):
``sequential``, the unpruned per-row reference every other backend and
every pruned path is tested against, running each flavor's reference
kernel of :data:`FLAVOR_POINTS`; ``batch``, the one serving evaluator,
running the pruned :data:`FLAVOR_POINTS` evaluators over a vectorised
:class:`~repro.core.batch_engine.PreparedBatch` (the partitioned gateway
hands it a gathered similarity matrix); and ``incremental``, which serves
counting queries from a :class:`~repro.core.deltas.DeltaMaintainedState`
kept per query family, absorbing a cleaning session's growing pin set
one delta at a time.

All backends return bit-identical values for any query they both support
(``tests/core/test_planner.py`` holds the full equivalence matrix);
``benchmarks/bench_planner.py`` measures the speedups.

Pin semantics are uniform across flavors: a pin ``(row, candidate)``
restricts that row to one candidate. Counting flavors apply pins natively
inside the scan (the original candidate indices keep the paper's
tie-break); the weighted flavor conditions the prior
(:func:`repro.core.weighted.condition_weights`); the ``topk`` and
``label_uncertainty`` flavors restrict the dataset itself.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from abc import ABC, abstractmethod
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Any

import numpy as np

from repro.core.batch_engine import (
    PreparedBatch,
    fanout_map,
    kernel_cache_key,
    resolve_n_jobs,
)
from repro.core.dataset import IncompleteDataset
from repro.core.deltas import CellRepair, DeltaMaintainedState
from repro.core.entropy import certain_label_from_counts
from repro.core.kernels import Kernel, resolve_kernel
from repro.core.label_uncertainty import LabelUncertainDataset, label_uncertain_counts
from repro.core.minmax import binary_minmax_label
from repro.core.prepared import PreparedQuery
from repro.obs.tracing import trace_span
from repro.core.pruning import (
    accumulate_prune_stats,
    empty_prune_stats,
    pruned_counts_from_sims,
    pruned_decision_from_sims,
    pruned_label_uncertain_counts,
    pruned_topk_counts_from_scan,
    pruned_weighted_probabilities,
)
from repro.core.topk_prob import topk_inclusion_counts
from repro.core.weighted import (
    condition_weights,
    uniform_candidate_weights,
    weighted_prediction_probabilities,
)
from repro.utils.lru import LRUCache
from repro.utils.validation import check_in_options, check_positive_int

__all__ = [
    "DENSE_BLOCK_BYTES",
    "MAX_MAINTAINED_STATES",
    "RESULT_CACHE_SIZE",
    "FLAVORS",
    "FLAVOR_POINTS",
    "KINDS",
    "CPQuery",
    "make_query",
    "ExecutionOptions",
    "QueryPlan",
    "QueryResult",
    "PlanError",
    "BackendCapabilities",
    "Backend",
    "register_backend",
    "get_backend",
    "backend_names",
    "capable_backends",
    "plan_query",
    "execute_query",
    "scan_dataset",
    "SequentialBackend",
    "BatchParallelBackend",
    "IncrementalBackend",
]

#: The five task flavors the planner serves.
FLAVORS = ("binary", "multiclass", "weighted", "topk", "label_uncertainty")

#: Query kinds: exact per-label counts (Q2), the CP'ed label or ``None``,
#: and the boolean check "is this label certainly predicted?" (Q1).
KINDS = ("counts", "certain_label", "check")

#: Dense ``(T, P)`` float64 similarity-matrix size above which the
#: ``batch`` backend executes a query in consecutive row blocks.
DENSE_BLOCK_BYTES = 64 * 1024 * 1024

#: Entries in the ``batch`` backend's shared result cache (and in the
#: service broker's).
RESULT_CACHE_SIZE = 4096

#: Query families whose maintained state the ``incremental`` backend keeps.
MAX_MAINTAINED_STATES = 8


# ---------------------------------------------------------------------------
# The query descriptor
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CPQuery:
    """A fully-resolved CP query family: what to compute, not how.

    Built by :func:`make_query` (which validates and infers the fields);
    consumed by the planner and the backends. One descriptor covers a
    whole test matrix — per-point results come back in row order.
    """

    dataset: Any  # IncompleteDataset or LabelUncertainDataset
    test_X: np.ndarray
    kind: str
    flavor: str
    k: int
    kernel: Kernel
    pins: tuple[tuple[int, int], ...] = ()
    label: int | None = None
    weights: tuple[tuple[Fraction, ...], ...] | None = None

    @property
    def n_points(self) -> int:
        """Number of test points the query covers."""
        return int(self.test_X.shape[0])

    @property
    def n_labels(self) -> int:
        """Size of the label space ``|Y|``."""
        return int(self.dataset.n_labels)

    def pins_dict(self) -> dict[int, int]:
        """The pins as a ``row -> candidate`` mapping."""
        return dict(self.pins)

    @cached_property
    def n_candidates(self) -> int:
        """Total candidates over all rows (counted once per query)."""
        return int(np.sum(self.dataset.candidate_counts()))

    @cached_property
    def restricted_dataset(self) -> Any:
        """The dataset with every pin applied by restriction, for the
        flavors without native pin support (``topk`` and
        ``label_uncertainty``); restricted once per query."""
        dataset = self.dataset
        for row, cand in self.pins:
            dataset = dataset.restrict_row(row, cand)
        return dataset

    def workload_size(self) -> int:
        """``n_points * total candidates`` — the planner's cost unit."""
        return self.n_points * self.n_candidates

    def fingerprint(self) -> str:
        """Content fingerprint of the underlying dataset (cache-key part)."""
        return self.dataset.fingerprint()

    def __repr__(self) -> str:
        return (
            f"CPQuery(kind={self.kind!r}, flavor={self.flavor!r}, "
            f"n_points={self.n_points}, k={self.k}, n_pins={len(self.pins)})"
        )


def _normalise_test_X(dataset: Any, test_X: Any) -> np.ndarray:
    points = np.asarray(test_X, dtype=np.float64)
    if points.ndim == 1:
        points = points.reshape(1, -1)
    if points.size == 0:
        points = points.reshape(0, dataset.n_features)
    if points.ndim != 2 or points.shape[1] != dataset.n_features:
        raise ValueError(
            f"test_X must have shape (n_points, {dataset.n_features}), "
            f"got {points.shape}"
        )
    return points


def _normalise_pins(dataset: Any, pins: Any) -> tuple[tuple[int, int], ...]:
    if not pins:
        return ()
    items = sorted(dict(pins).items()) if isinstance(pins, Mapping) else sorted(
        dict((int(r), int(c)) for r, c in pins).items()
    )
    counts = dataset.candidate_counts()
    out = []
    for row, cand in items:
        row, cand = int(row), int(cand)
        if not 0 <= row < dataset.n_rows:
            raise IndexError(f"pinned row {row} out of range for {dataset.n_rows} rows")
        if not 0 <= cand < int(counts[row]):
            raise IndexError(
                f"pinned candidate {cand} out of range for row {row} "
                f"with {int(counts[row])} candidates"
            )
        out.append((row, cand))
    return tuple(out)


def make_query(
    dataset: IncompleteDataset | LabelUncertainDataset,
    test_X: np.ndarray,
    kind: str = "counts",
    flavor: str = "auto",
    k: int = 3,
    kernel: Kernel | str | None = None,
    pins: Mapping[int, int] | Sequence[tuple[int, int]] | None = None,
    label: int | None = None,
    weights: Sequence[Sequence[Fraction]] | None = None,
) -> CPQuery:
    """Build and validate a :class:`CPQuery`.

    ``flavor="auto"`` infers the task: a
    :class:`~repro.core.label_uncertainty.LabelUncertainDataset` means
    ``label_uncertainty``, explicit ``weights`` mean ``weighted``, and a
    plain dataset is ``binary`` or ``multiclass`` by its label-space size.
    ``kind="check"`` requires ``label``; the ``topk`` flavor only supports
    ``kind="counts"`` (the per-row inclusion counts).
    """
    kind = check_in_options(kind, "kind", KINDS)
    flavor = check_in_options(flavor, "flavor", ("auto", *FLAVORS))
    k = check_positive_int(k, "k")

    if flavor == "auto":
        if isinstance(dataset, LabelUncertainDataset):
            flavor = "label_uncertainty"
        elif weights is not None:
            flavor = "weighted"
        else:
            flavor = "binary" if dataset.n_labels == 2 else "multiclass"

    if flavor == "label_uncertainty":
        if not isinstance(dataset, LabelUncertainDataset):
            raise ValueError(
                "flavor 'label_uncertainty' requires a LabelUncertainDataset"
            )
    elif isinstance(dataset, LabelUncertainDataset):
        raise ValueError(
            f"flavor {flavor!r} requires an IncompleteDataset; wrap-around via "
            "LabelUncertainDataset.feature_dataset if labels are actually certain"
        )
    if flavor == "binary" and dataset.n_labels != 2:
        raise ValueError(
            f"flavor 'binary' requires 2 labels, dataset has {dataset.n_labels}"
        )
    if weights is not None and flavor != "weighted":
        raise ValueError(f"candidate weights are only valid for flavor 'weighted', not {flavor!r}")
    if flavor == "topk" and kind != "counts":
        raise ValueError("flavor 'topk' only supports kind='counts' (inclusion counts)")

    if k > dataset.n_rows:
        raise ValueError(f"k={k} exceeds the number of training rows {dataset.n_rows}")

    if kind == "check":
        if label is None:
            raise ValueError("kind='check' requires a target label")
        if not 0 <= int(label) < dataset.n_labels:
            raise ValueError(
                f"label {label} outside the label space of size {dataset.n_labels}"
            )
        label = int(label)
    else:
        label = None

    weights_tuple: tuple[tuple[Fraction, ...], ...] | None = None
    if weights is not None:
        weights_tuple = tuple(tuple(Fraction(w) for w in row) for row in weights)

    return CPQuery(
        dataset=dataset,
        test_X=_normalise_test_X(dataset, test_X),
        kind=kind,
        flavor=flavor,
        k=k,
        kernel=resolve_kernel(kernel),
        pins=_normalise_pins(dataset, pins),
        label=label,
        weights=weights_tuple,
    )


# ---------------------------------------------------------------------------
# Plans, options, results
# ---------------------------------------------------------------------------


class PlanError(ValueError):
    """No backend can serve the query (or an explicit request is incapable)."""


@dataclass(frozen=True)
class ExecutionOptions:
    """Execution knobs that change wall-clock, never results.

    ``n_jobs`` fans per-point work out over forked worker processes where
    the backend supports it; ``cache`` reads and fills the ``batch``
    backend's shared result cache (``True``, the default) or bypasses it
    (``False``); ``prepared`` hands an existing
    :class:`~repro.core.batch_engine.PreparedBatch` to the ``batch`` and
    ``incremental`` backends so a session's vectorised distance state is
    shared instead of rebuilt.

    Both knobs are validated at construction, with the same rules the CLI
    flags enforce: ``n_jobs`` must be a positive integer, ``-1`` (all
    CPUs) or ``None``; ``cache`` must be a bool.
    """

    n_jobs: int | None = 1
    cache: bool = True
    prepared: PreparedBatch | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.cache, bool):
            raise TypeError(f"cache must be a bool, got {type(self.cache).__name__}")
        if self.n_jobs is not None:
            if isinstance(self.n_jobs, bool) or not isinstance(
                self.n_jobs, (int, np.integer)
            ):
                raise TypeError(
                    f"n_jobs must be an integer or None, got {type(self.n_jobs).__name__}"
                )
            if self.n_jobs < 1 and self.n_jobs != -1:
                raise ValueError(
                    f"n_jobs must be a positive integer, -1 (all CPUs) or None, "
                    f"got {self.n_jobs}"
                )


@dataclass(frozen=True)
class QueryPlan:
    """The planner's decision: which backend runs the query, and why."""

    backend: str
    reason: str
    cost: float
    considered: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True, eq=False)
class QueryResult:
    """Per-point values plus the plan that produced them.

    ``values[i]`` belongs to ``test_X[i]``; its type depends on the query:
    exact count vectors (``counts``), labels-or-``None``
    (``certain_label``), booleans (``check``), exact
    :class:`~fractions.Fraction` distributions (``weighted`` counts) or
    per-row inclusion counts (``topk``).

    ``stats`` is the executing backend's observability report for this
    call (pruning counters, early-termination tallies, …). Purely
    informational: empty when the backend reports nothing, and never part
    of equality or caching.
    """

    query: CPQuery
    plan: QueryPlan
    values: list
    stats: dict = field(default_factory=dict)

    @property
    def n_points(self) -> int:
        return len(self.values)


# ---------------------------------------------------------------------------
# The backend protocol and registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can serve, declared up front for the planner."""

    flavors: frozenset[str]
    kinds: frozenset[str] = frozenset(KINDS)
    #: A per-row, unpruned reference oracle: ``"auto"`` plans onto it only
    #: when no other capable backend can serve the query.
    reference: bool = False


class Backend(ABC):
    """An executor for CP queries; subclasses register via :func:`register_backend`."""

    name: str = "abstract"
    capabilities: BackendCapabilities

    def supports(self, query: CPQuery) -> bool:
        """True iff the declared capabilities cover this query."""
        caps = self.capabilities
        return query.flavor in caps.flavors and query.kind in caps.kinds

    @abstractmethod
    def estimate_cost(
        self, query: CPQuery, options: ExecutionOptions
    ) -> tuple[float, str]:
        """``(cost, reason)`` in the planner's abstract cost unit."""

    @abstractmethod
    def execute(
        self, query: CPQuery, options: ExecutionOptions | None = None
    ) -> tuple[list, dict]:
        """Run the query: ``(values, stats)``.

        ``values`` holds one value per test point (row order); ``stats`` is
        this call's observability report (:attr:`QueryResult.stats`).
        """


_REGISTRY: dict[str, Backend] = {}


def register_backend(backend: Backend, replace: bool = False) -> Backend:
    """Add a backend to the process-wide registry (``replace`` to override)."""
    if not replace and backend.name in _REGISTRY:
        raise ValueError(f"backend {backend.name!r} is already registered")
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> Backend:
    """The registered backend of that name (:class:`PlanError` if unknown)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise PlanError(
            f"unknown backend {name!r}; registered: {backend_names()}"
        ) from None


def backend_names() -> list[str]:
    """Registered backend names, in registration order."""
    return list(_REGISTRY)


def capable_backends(query: CPQuery) -> list[Backend]:
    """Every registered backend whose capabilities cover ``query``."""
    return [backend for backend in _REGISTRY.values() if backend.supports(query)]


# ---------------------------------------------------------------------------
# The planner
# ---------------------------------------------------------------------------


def plan_query(
    query: CPQuery,
    backend: str = "auto",
    options: ExecutionOptions | None = None,
) -> QueryPlan:
    """Choose the backend for ``query``.

    An explicit ``backend`` name is validated against the backend's
    declared capabilities; ``"auto"`` scores every capable backend with
    its own cost estimate and picks the cheapest (registration order
    breaks ties). Reference backends
    (:attr:`BackendCapabilities.reference`) are scored and listed in
    :attr:`QueryPlan.considered`, but chosen only when nothing else can
    serve the query — the per-row oracle is the yardstick, not a serving
    path. Raises :class:`PlanError` when nothing can serve the query.
    """
    options = options or ExecutionOptions()
    if backend != "auto":
        chosen = get_backend(backend)
        if not chosen.supports(query):
            raise PlanError(
                f"backend {backend!r} cannot serve {query!r} "
                f"(capabilities: {chosen.capabilities})"
            )
        cost, _ = chosen.estimate_cost(query, options)
        return QueryPlan(
            backend=chosen.name,
            reason="requested explicitly",
            cost=cost,
            considered=((chosen.name, cost),),
        )

    candidates = capable_backends(query)
    if not candidates:
        raise PlanError(f"no registered backend can serve {query!r}")
    scored = [(*b.estimate_cost(query, options), b) for b in candidates]
    eligible = [item for item in scored if not item[2].capabilities.reference]
    best_cost, best_reason, best = min(eligible or scored, key=lambda item: item[0])
    return QueryPlan(
        backend=best.name,
        reason=best_reason,
        cost=best_cost,
        considered=tuple((b.name, cost) for cost, _, b in scored),
    )


def execute_query(
    query: CPQuery,
    backend: str = "auto",
    options: ExecutionOptions | None = None,
) -> QueryResult:
    """Plan and run ``query``; the one call every front door goes through."""
    options = options or ExecutionOptions()
    with trace_span("planner.execute_query") as span:
        plan = plan_query(query, backend, options)
        span.set(
            backend=plan.backend,
            reason=plan.reason,
            flavor=query.flavor,
            kind=query.kind,
            n_points=query.n_points,
        )
        if query.n_points == 0:
            return QueryResult(query=query, plan=plan, values=[])
        values, stats = get_backend(plan.backend).execute(query, options)
        span.set(
            **{
                key: value
                for key, value in stats.items()
                if isinstance(value, (int, float, bool, str))
            }
        )
    return QueryResult(query=query, plan=plan, values=values, stats=stats)


# ---------------------------------------------------------------------------
# Shared flavor plumbing
# ---------------------------------------------------------------------------


def scan_dataset(query: CPQuery) -> IncompleteDataset:
    """The dataset whose candidates the query's per-point scans run over
    (its :data:`FLAVOR_POINTS` row's ``scan``)."""
    return FLAVOR_POINTS[query.flavor].scan(query)


def _labels_to_kind(query: CPQuery, labels: list) -> list:
    """``certain_label`` values as they are, or the ``check`` booleans."""
    if query.kind == "check":
        return [lbl == query.label for lbl in labels]
    return labels


def _counts_to_kind(query: CPQuery, counts_per_point: list[list]) -> list:
    """Derive ``certain_label`` / ``check`` values from exact per-label
    counts or exact probabilities: a certain label holds the whole total
    (every world, or probability exactly 1)."""
    if query.kind == "counts":
        return counts_per_point
    return _labels_to_kind(
        query, [certain_label_from_counts(counts) for counts in counts_per_point]
    )


def _minmax_decides(query: CPQuery) -> bool:
    """Whether the binary MinMax check (Algorithm 2) answers ``query``.

    That path builds no scan, so it runs no pruning pass either; backends
    report ``prune: False`` for it rather than empty pruning counters.
    """
    return (
        query.flavor in ("binary", "multiclass")
        and query.kind != "counts"
        and query.n_labels == 2
    )


def _prune_summary(query: CPQuery, totals: dict | None) -> dict:
    """A backend's stats report: context keys plus accumulated prune
    counters; ``prune`` says whether a pruning pass ran (``totals`` given)."""
    return {
        "flavor": query.flavor,
        "kind": query.kind,
        "prune": totals is not None,
        **(totals or {}),
    }


def _handed_prepared(
    dataset: IncompleteDataset, query: CPQuery, options: ExecutionOptions
) -> PreparedBatch | None:
    """:attr:`ExecutionOptions.prepared` if it covers exactly ``query``'s
    family, scanned over ``dataset``."""
    handed = options.prepared
    if (
        handed is not None
        and handed.k == query.k
        and kernel_cache_key(handed.kernel) == kernel_cache_key(query.kernel)
        and handed.fingerprint() == dataset.fingerprint()
        and np.array_equal(handed.test_X, query.test_X)
    ):
        return handed
    return None


def _point_key(t: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(t).tobytes()).hexdigest()


def _weights_key(weights: list[list[Fraction]]) -> str:
    """A digest identifying an exact prior by value.

    ``Fraction`` reprs are canonical (always in lowest terms), so equal
    priors hash equal. A digest rather than the weights tuple itself keeps
    cache keys O(1) — a weighted cleaning session issues one differently
    conditioned prior per (row, candidate) pair, and embedding the full
    ``N x M`` matrix in every key would bloat the shared LRU.
    """
    digest = hashlib.sha256()
    for row in weights:
        digest.update(repr(row).encode("ascii"))
        digest.update(b";")
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# The flavor table
# ---------------------------------------------------------------------------
#
# Every batch evaluator has the signature ``point(state, index)`` with
# ``state = (prepared, argument)`` and returns ``(value, stats)``, ``stats``
# being the point's pruning telemetry (``None`` from the MinMax check,
# which prunes nothing). :meth:`BatchParallelBackend._evaluate` runs them;
# the ``prepared`` batch is built over :func:`scan_dataset`. Every reference
# kernel has the signature ``reference(dataset, argument, t, k, kernel)``
# and returns the same value, unpruned; :class:`SequentialBackend` runs them.


def _sims_problem(prepared: PreparedBatch, index: int) -> tuple:
    """The leading arguments of the ``pruned_*_from_sims`` kernels."""
    return (
        prepared.sims_matrix[index],
        prepared._rows,
        prepared._cands,
        prepared._labels,
        prepared._counts,
        prepared.k,
        prepared.dataset.n_labels,
    )


def _count_point(state: tuple, index: int) -> tuple[list[int], dict]:
    """Q2 counts of one point; ``argument`` is the pin mapping.

    Counts straight from the point's similarity row and never touches
    ``prepared.scan(index)`` — pruning happens *before* the sort, which is
    where the clustered-candidate speedup comes from.
    """
    prepared, fixed = state
    return pruned_counts_from_sims(*_sims_problem(prepared, index), fixed)


def _decision_point(state: tuple, index: int) -> tuple[int | None, dict]:
    """The certain label of one point via prune + vectorised decision scan."""
    prepared, fixed = state
    decision, stats = pruned_decision_from_sims(*_sims_problem(prepared, index), fixed)
    return decision.certain_label, stats


def _minmax_point(state: tuple, index: int) -> tuple[int | None, None]:
    """The binary MinMax check (Algorithm 2) of one point, vectorised.

    Mirrors :meth:`PreparedQuery.certain_label_minmax`: per-row extreme
    similarities come straight off the shared similarity matrix via
    ``reduceat`` instead of per-row ``min()``/``max()`` calls. The pins
    were range-checked by :func:`make_query`.
    """
    prepared, fixed = state
    sims = prepared.sims_matrix[index]
    starts = prepared._offsets[:-1]
    mins = np.minimum.reduceat(sims, starts)
    maxs = np.maximum.reduceat(sims, starts)
    for row, cand in fixed.items():
        mins[row] = maxs[row] = sims[int(starts[row]) + cand]
    return binary_minmax_label(mins, maxs, prepared.dataset.labels, prepared.k), None


def _weighted_point(state: tuple, index: int) -> tuple[list[Fraction], dict]:
    """Weighted label probabilities of one point; ``argument`` is the prior."""
    prepared, weights = state
    return pruned_weighted_probabilities(
        prepared.dataset,
        prepared.test_X[index],
        weights,
        prepared.k,
        kernel=prepared.kernel,
        scan=prepared.scan(index),
    )


def _topk_point(state: tuple, index: int) -> tuple[list[int], dict]:
    """Top-K inclusion counts of one point over the restricted dataset."""
    prepared, _ = state
    return pruned_topk_counts_from_scan(prepared.scan(index), prepared.k)


def _label_uncertain_point(state: tuple, index: int) -> tuple[list[int], dict]:
    """Label-uncertain counts of one point; ``argument`` is the restricted
    :class:`LabelUncertainDataset` whose feature side ``prepared`` holds."""
    prepared, dataset = state
    return pruned_label_uncertain_counts(
        dataset,
        prepared.test_X[index],
        k=prepared.k,
        kernel=prepared.kernel,
        scan=prepared.scan(index),
    )


def _count_reference(dataset, fixed, t, k, kernel) -> list[int]:
    """One :class:`PreparedQuery` scan; pins keep the paper's tie-break on
    the original candidate indices."""
    return PreparedQuery(dataset, t, k=k, kernel=kernel).counts(fixed)


def _weighted_reference(dataset, weights, t, k, kernel) -> list[Fraction]:
    return weighted_prediction_probabilities(dataset, t, k=k, weights=weights, kernel=kernel)


def _topk_reference(dataset, _, t, k, kernel) -> list[int]:
    return topk_inclusion_counts(dataset, t, k=k, kernel=kernel)


def _label_uncertain_reference(_, dataset, t, k, kernel) -> list[int]:
    return label_uncertain_counts(dataset, t, k=k, kernel=kernel)


def _weights_argument(query: CPQuery) -> list[list[Fraction]]:
    """The weighted flavor's prior with pins conditioned in as point masses."""
    base = (
        [list(row) for row in query.weights]
        if query.weights is not None
        else uniform_candidate_weights(query.dataset)
    )
    return condition_weights(base, query.pins_dict())


@dataclass(frozen=True)
class FlavorPoint:
    """One flavor's row of :data:`FLAVOR_POINTS`.

    ``scan(query)`` is the dataset the flavor's scans run over;
    ``argument(query)`` is the per-query input both evaluators take, and
    ``argument_key(query, argument)`` its result-cache key part, computed
    only when the result cache is read; ``point`` is the pruned
    ``batch`` evaluator, with result-cache ``tag``; ``reference`` is the
    unpruned per-point kernel ``sequential`` runs. Both return per-label
    counts or probabilities (``topk``: per-row inclusion counts), which
    :func:`_counts_to_kind` turns into the query's kind. ``decision`` is
    the ``(tag, point)`` of the pruned decision scan that answers
    ``certain_label`` / ``check`` in place of ``point``, if any;
    ``reads_scan`` says whether ``point`` reads ``prepared.scan``, whose
    scans are then built before a fork so workers share them.
    """

    tag: str
    scan: Callable[[CPQuery], IncompleteDataset]
    argument: Callable[[CPQuery], Any]
    argument_key: Callable[[CPQuery, Any], tuple]
    point: Callable[[tuple, int], tuple[Any, dict | None]]
    reference: Callable[..., Any]
    decision: tuple[str, Callable] | None = None
    reads_scan: bool = False


_COUNTING = FlavorPoint(
    tag="q2",
    scan=lambda query: query.dataset,
    argument=lambda query: query.pins_dict(),
    argument_key=lambda query, _: query.pins,
    point=_count_point,
    reference=_count_reference,
    decision=("q2d", _decision_point),
)

#: The one flavor table: the ``batch`` backend (and through it the
#: gateway) serves its pruned evaluators, the ``sequential`` reference
#: runs its unpruned kernels. Binary decisions take the MinMax check
#: (:func:`_minmax_point`) instead; see
#: :meth:`BatchParallelBackend._execute_block`.
FLAVOR_POINTS = {
    "binary": _COUNTING,
    "multiclass": _COUNTING,
    "weighted": FlavorPoint(
        tag="wt",
        scan=lambda query: query.dataset,
        argument=_weights_argument,
        argument_key=lambda _, weights: (_weights_key(weights),),
        point=_weighted_point,
        reference=_weighted_reference,
        reads_scan=True,
    ),
    "topk": FlavorPoint(
        tag="topk",
        scan=lambda query: query.restricted_dataset,
        argument=lambda query: None,
        # Pins live in the restricted dataset's fingerprint.
        argument_key=lambda query, _: (),
        point=_topk_point,
        reference=_topk_reference,
        reads_scan=True,
    ),
    "label_uncertainty": FlavorPoint(
        tag="lu",
        scan=lambda query: query.restricted_dataset.feature_dataset,
        argument=lambda query: query.restricted_dataset,
        # The scan is the restricted feature dataset, so the key adds the
        # restricted label-uncertain dataset's whole fingerprint.
        argument_key=lambda _, dataset: (dataset.fingerprint(),),
        point=_label_uncertain_point,
        reference=_label_uncertain_reference,
        reads_scan=True,
    ),
}


_MISS = object()


def _copied(value: Any) -> Any:
    """A fresh copy of a list value, so cache entries are never aliased."""
    return list(value) if isinstance(value, list) else value


# ---------------------------------------------------------------------------
# SequentialBackend — the unpruned per-row reference
# ---------------------------------------------------------------------------


class SequentialBackend(Backend):
    """Each flavor's reference kernel once per test point, in process.

    Supports every flavor and every kind, and never prunes — the unpruned
    reference semantics every other backend (and every pruned path) is
    held to. Counting pins go through :meth:`PreparedQuery.counts`, which
    keeps the paper's tie-break on the original candidate indices.
    """

    name = "sequential"
    capabilities = BackendCapabilities(flavors=frozenset(FLAVORS), reference=True)

    def estimate_cost(self, query, options):
        return float(query.workload_size()), "one prepared scan per test point"

    def execute(self, query, options=None):
        if _minmax_decides(query):
            # The MM shortcut (Algorithm 2): no counting at all. Exact, and
            # it matches the counts-based answer bit for bit (tested).
            fixed = query.pins_dict()
            labels = [
                PreparedQuery(
                    query.dataset, t, k=query.k, kernel=query.kernel
                ).certain_label_minmax(fixed)
                for t in query.test_X
            ]
            return _labels_to_kind(query, labels), _prune_summary(query, None)
        row = FLAVOR_POINTS[query.flavor]
        dataset = row.scan(query)
        argument = row.argument(query)
        values = [
            row.reference(dataset, argument, t, query.k, query.kernel)
            for t in query.test_X
        ]
        return _counts_to_kind(query, values), _prune_summary(query, None)


# ---------------------------------------------------------------------------
# BatchParallelBackend — vectorised prep, fan-out, result caching
# ---------------------------------------------------------------------------


class BatchParallelBackend(Backend):
    """The batch execution layer behind one registry name.

    Every flavor runs over one :class:`PreparedBatch` per call — the one
    handed in via :attr:`ExecutionOptions.prepared` when it covers the
    query, else a fresh one: per-point scans derived from the shared
    similarity matrix, the pruned :data:`FLAVOR_POINTS` evaluators,
    ``fork`` fan-out across ``n_jobs`` workers, and :attr:`cache`, the
    fingerprint-keyed result cache shared across calls
    (:attr:`ExecutionOptions.cache`).

    A query whose dense similarity matrix (``T·P·8`` bytes) exceeds
    :data:`DENSE_BLOCK_BYTES` runs as consecutive row blocks, each through
    the same per-flavor path on its own :class:`PreparedBatch`, so resident
    memory stays flat in ``T``, and each block's kernel temporaries are
    bounded by :data:`~repro.core.batch_engine.PAIRWISE_BLOCK_BYTES`.
    Results are cached per point, so blocked and unblocked runs share
    cache entries.
    """

    name = "batch"
    capabilities = BackendCapabilities(flavors=frozenset(FLAVORS))

    def __init__(self) -> None:
        self.cache = LRUCache(RESULT_CACHE_SIZE)

    def estimate_cost(self, query, options):
        jobs = min(resolve_n_jobs(options.n_jobs), max(query.n_points, 1))
        per_point = query.workload_size() / max(query.n_points, 1)
        cost = per_point * (0.6 + 0.5 * query.n_points / jobs)
        return cost, "vectorised preparation + parallel per-point scans"

    # ------------------------------------------------------------------
    def execute(self, query, options=None):
        options = options or ExecutionOptions()
        # Binary decisions take the MM check, which builds no scan to prune.
        totals = None if _minmax_decides(query) else empty_prune_stats()
        values = []
        for block in self._row_blocks(query, options):
            values.extend(self._execute_block(block, options, totals))
        return values, _prune_summary(query, totals)

    def _row_blocks(self, query: CPQuery, options: ExecutionOptions) -> list[CPQuery]:
        """``[query]``, or its row blocks when the dense matrix is over budget.

        A handed-in :class:`PreparedBatch` that covers the query already
        holds the whole matrix, so that query is never split.
        """
        step = max(DENSE_BLOCK_BYTES // max(query.n_candidates * 8, 1), 1)
        if step >= query.n_points:
            return [query]
        if _handed_prepared(scan_dataset(query), query, options):
            return [query]
        return [
            replace(query, test_X=query.test_X[r0 : r0 + step])
            for r0 in range(0, query.n_points, step)
        ]

    def _execute_block(
        self, query: CPQuery, options: ExecutionOptions, totals: dict | None
    ) -> list:
        """One block's values: the one place decisions split from counts."""
        row = FLAVOR_POINTS[query.flavor]
        dataset = row.scan(query)
        prepared = _handed_prepared(dataset, query, options) or PreparedBatch(
            dataset, query.test_X, k=query.k, kernel=query.kernel
        )
        argument = row.argument(query)
        tag, point = row.tag, row.point
        decides = query.kind != "counts" and row.decision is not None
        if decides:
            # A decision carries less than the full counts, so it has its
            # own cache tag; two labels take the MinMax check.
            tag, point = ("mm", _minmax_point) if _minmax_decides(query) else row.decision
        # A MinMax check is two reductions per point: cheaper than a fork.
        n_jobs = 1 if tag == "mm" else options.n_jobs
        cache = self.cache if options.cache else None
        argument_key = None if cache is None else row.argument_key(query, argument)
        values = self._evaluate(
            prepared, tag, point, argument, argument_key, row.reads_scan, totals,
            n_jobs, cache,
        )
        return (_labels_to_kind if decides else _counts_to_kind)(query, values)

    @staticmethod
    def _evaluate(
        prepared: PreparedBatch,
        tag: str,
        point,
        argument: Any,
        argument_key: tuple | None,
        reads_scan: bool,
        totals: dict | None,
        n_jobs: int | None,
        cache: LRUCache | None,
    ) -> list:
        """``point`` over every test point: served from ``cache``, else fanned out.

        Results are cached under ``(tag, fingerprint, k, kernel,
        argument_key, point digest)`` (``argument_key`` is ``None`` without
        a cache); ``totals`` accumulates the prune telemetry of the points
        computed this call.
        """
        results: list = [None] * prepared.n_points
        missing = list(range(prepared.n_points))
        if cache is not None:
            family = (
                tag,
                prepared.fingerprint(),
                prepared.k,
                kernel_cache_key(prepared.kernel),
                argument_key,
            )
            keys = [(*family, _point_key(t)) for t in prepared.test_X]
            missing = []
            for index, key in enumerate(keys):
                hit = cache.get(key, _MISS)
                if hit is _MISS:
                    missing.append(index)
                else:
                    results[index] = _copied(hit)
            if not missing:
                return results
        if reads_scan and resolve_n_jobs(n_jobs) > 1:
            # Build the sorted scans before the fork so workers share them
            # copy-on-write. (Counts and decisions sort only the positions
            # that survive the prune.)
            prepared.materialize_scans(missing)
        outputs = fanout_map(point, missing, n_jobs=n_jobs, state=(prepared, argument))
        for index, (value, stats) in zip(missing, outputs):
            results[index] = value
            if cache is not None:
                cache.put(keys[index], _copied(value))
            if totals is not None:
                accumulate_prune_stats(totals, stats)
        return results


# ---------------------------------------------------------------------------
# IncrementalBackend — maintained counts across growing pin sets
# ---------------------------------------------------------------------------


class IncrementalBackend(Backend):
    """Serves repeated pinned queries from maintained counts.

    Per query family ``(dataset fingerprint, test matrix, k, kernel)`` the
    backend keeps, in a small LRU, one
    :class:`~repro.core.deltas.DeltaMaintainedState` and the pins it has
    absorbed. A query whose pins extend those pins applies only the new
    ones, as :class:`~repro.core.deltas.CellRepair` deltas in row order:
    points outside the repaired row's support set get an exact scalar
    update, and only the contested points are recounted. Pins that
    contradict or shrink the absorbed set rebuild the state (correct for
    any pin pattern; fast for the monotone pin growth of a cleaning
    session, which is the workload this backend exists for).

    A cold state is seeded from :attr:`ExecutionOptions.prepared` when that
    batch covers the family, so the build makes no kernel call: the state
    shares the batch's similarity matrix read-only. Such a state lives no
    longer than the batch — once the batch is collected (its session or
    registry dropped it), the family's state is dropped too.
    """

    name = "incremental"
    capabilities = BackendCapabilities(flavors=frozenset({"binary", "multiclass"}))

    def __init__(self) -> None:
        # family key -> (maintained state, the pins it has absorbed, a weak
        # reference to the batch it was seeded from or None)
        self._states = LRUCache(MAX_MAINTAINED_STATES)
        # The backend-wide lock only keeps the family locks in step with
        # the LRU; the expensive per-family work (state builds, pin
        # maintenance) runs under a per-family lock so concurrent sessions
        # on different query families never serialise each other. It is
        # reentrant because a seeding batch's collection can run
        # :meth:`_forget` on a thread that already holds it.
        self._lock = threading.RLock()
        self._family_locks: dict[tuple, threading.Lock] = {}
        self.n_reuses = 0
        self.n_rebuilds = 0

    @staticmethod
    def _family_key(query: CPQuery) -> tuple:
        return (
            query.fingerprint(),
            _point_key(query.test_X),
            query.k,
            kernel_cache_key(query.kernel),
        )

    @staticmethod
    def _warm_state(query: CPQuery, entry: tuple | None) -> tuple | None:
        """The family's ``entry``, if its absorbed pins extend to the query's."""
        if entry is None:
            return None
        if entry[1].items() <= query.pins_dict().items():
            return entry
        return None

    def _forget(self, key: tuple, owner: weakref.ref) -> None:
        """Drop ``key``'s state: the batch it was seeded from is gone."""
        with self._lock:
            entry = self._states.peek(key)
            if entry is not None and entry[2] is owner:
                self._states.pop(key)
                self._family_locks.pop(key, None)

    def estimate_cost(self, query, options):
        # A peek: planning must not count a cache hit that served nothing.
        entry = self._states.peek(self._family_key(query))
        if self._warm_state(query, entry) is not None:
            return 0.1 * query.workload_size(), "maintained counts, delta pins only"
        return 1.5 * query.workload_size(), "cold start: full preparation + counts"

    def execute(self, query, options=None):
        options = options or ExecutionOptions()
        key = self._family_key(query)
        while True:
            with self._lock:
                family_lock = self._family_locks.setdefault(key, threading.Lock())
            with family_lock:
                with self._lock:
                    current = self._family_locks.get(key) is family_lock
                if current:
                    return self._execute_locked(query, options, key)
            # An eviction dropped the lock this call waited on; a caller
            # holding the family's new lock may be using its state.

    def _execute_locked(self, query, options, key):
        """Absorb the query's new pins into the family's state and count.

        Runs under the family's current lock, so no other caller is
        applying deltas to the same state.
        """
        entry = self._warm_state(query, self._states.get(key))
        if entry is None:  # no state yet, or pins shrank or contradict
            handed = _handed_prepared(query.dataset, query, options)
            state = DeltaMaintainedState(
                query.dataset,
                query.test_X,
                k=query.k,
                kernel=query.kernel,
                sims_matrix=None if handed is None else handed.sims_matrix,
                prune=True,
            )
            absorbed: dict[int, int] = {}
            owner = None if handed is None else weakref.ref(
                handed, lambda ref: self._forget(key, ref)
            )
            # The build's recounts are this call's work too.
            skipped_before, recomputed_before = 0, 0
            prune_before = empty_prune_stats()
        else:
            state, absorbed, owner = entry
            skipped_before, recomputed_before = state.n_pruned, state.n_recomputed
            prune_before = dict(state.prune_stats)
        # The warm state's pins are a subset of the query's, so the new pins
        # are the difference of the two.
        new_pins = sorted(query.pins_dict().items() - absorbed.items())
        try:
            state.apply_many([CellRepair(row, cand) for row, cand in new_pins])
        except BaseException:
            # A half-applied pin list would desync state and pins.
            self._states.pop(key)
            raise
        counts = state.counts_all()
        prune_stats = {
            name: value - prune_before[name] for name, value in state.prune_stats.items()
        }
        summary = _prune_summary(query, prune_stats)
        summary["n_rows_skipped"] = state.n_pruned - skipped_before
        summary["n_recomputed"] = state.n_recomputed - recomputed_before
        # Stored only after the last read: once an eviction has dropped
        # this family's lock, a caller holding a fresh lock may take the
        # state up the moment it is stored.
        with self._lock:
            if owner is not None and owner() is None:
                # An earlier caller's seeding batch was collected while this
                # call ran, so its _forget may have found nothing to drop.
                self._states.pop(key)
                evicted = []
            else:
                evicted = self._states.put(
                    key, (state, {**absorbed, **dict(new_pins)}, owner)
                )
            if entry is None:
                self.n_rebuilds += 1
            else:
                self.n_reuses += 1
            for family in evicted:
                self._family_locks.pop(family, None)
        return _counts_to_kind(query, counts), summary


# ---------------------------------------------------------------------------
# Default registry
# ---------------------------------------------------------------------------

register_backend(SequentialBackend())
register_backend(BatchParallelBackend())
register_backend(IncrementalBackend())
