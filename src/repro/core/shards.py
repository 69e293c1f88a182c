"""Sharded out-of-core CP query execution: bounded tiles, persistent workers.

Every backend before this one materialises the full candidate-distance
state for a query in one process's memory: ``PreparedBatch`` holds the
dense ``(T, P)`` similarity matrix for ``T`` test points over ``P``
stacked candidates, and the sequential path holds one full ``P``-row per
point. That caps the dataset sizes the screening and cleaning loops can
serve. This module is the execution layer that removes the cap, the same
move ProvSQL-style provenance engines make when exact counting must scale:
**tile the evaluation over bounded memory and merge exactly**.

* :func:`plan_tiles` / :class:`TilePlan` split the test-point × candidate
  space into a grid of tiles: at most ``tile_rows`` test points and
  ``tile_candidates`` stacked candidates are resident at once.
* :class:`ShardedExecutor` streams one query family through that grid.
  Per row tile it fills a **shared-memory** similarity buffer candidate
  tile by candidate tile (one bounded ``kernel.pairwise`` call each) and
  evaluates the tile's points from scans built straight off the buffer
  rows. With ``n_jobs > 1`` the per-point evaluations run on a
  **persistent** forked worker pool: the pool is created once per
  execution, the buffer is an anonymous shared mapping
  (``multiprocessing.RawArray``) created before the fork, so every tile
  the parent writes is immediately visible to all workers — the hand-off
  is zero-copy and nothing is pickled per task but a
  ``(global index, buffer row)`` pair. For consumers that want the
  familiar prepared interface over an out-of-core slice,
  :meth:`ShardedExecutor.tile_batch` wraps a streamed tile in a zero-copy
  :class:`~repro.core.batch_engine.PreparedBatch` (the new
  ``sims_matrix=`` hand-off).
* Binary certainty checks never build even a tile-wide scan:
  :meth:`ShardedExecutor.minmax_labels` keeps only per-row min/max
  similarity tallies (``tile_rows × N``), merged **exactly** across
  candidate tiles (min-of-mins / max-of-maxes — associative, no
  floating-point reordering), and decides Q1 from the merged extremes with
  the very same :func:`~repro.core.knn.top_k_rows` /
  :func:`~repro.core.knn.majority_label` calls as the reference MinMax
  path.
* :class:`ShardedBackend` plugs the executor into the planner registry
  under the name ``"sharded"``, serving **all five task flavors** and all
  three kinds. Its cost model prefers tiled execution once the dense
  similarity matrix would exceed ``memory_budget_bytes``, and defers to
  the ``batch`` backend below that threshold.

Memory model: the resident similarity state is one ``tile_rows × P``
buffer (counting needs a point's full candidate row to sort its scan) plus
the ``tile_rows × tile_candidates`` kernel block being filled; the MinMax
path is bounded by ``tile_rows × N`` tallies and the kernel block only.
Tiling is a layout decision, never a semantic one: every value is
bit-identical to the sequential reference for any ``tile_rows``,
``tile_candidates`` and ``n_jobs`` (``tests/core/test_shards.py`` and the
differential harness in ``tests/core/test_backend_differential.py`` hold
the matrix; ``benchmarks/bench_shards.py`` measures the speedups).
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.batch_engine import (
    PreparedBatch,
    QueryResultCache,
    _counts_from_scan,
    kernel_cache_key,
    resolve_n_jobs,
)
from repro.core.dataset import IncompleteDataset
from repro.core.kernels import Kernel, resolve_kernel
from repro.core.knn import majority_label, top_k_rows
from repro.core.label_uncertainty import label_uncertain_counts
from repro.core.planner import (
    FLAVORS,
    KINDS,
    Backend,
    BackendCapabilities,
    CPQuery,
    ExecutionOptions,
    _conditioned_weights,
    _counts_to_kind,
    _point_key,
    _prune_enabled,
    _restricted_dataset,
    _scan_kernel_arg,
    _weighted_to_kind,
    _weights_key,
    register_backend,
)
from repro.core.pruning import (
    accumulate_prune_stats,
    empty_prune_stats,
    pruned_counts_from_scan,
    pruned_decision_from_scan,
    pruned_label_uncertain_counts,
    pruned_topk_counts_from_scan,
    pruned_weighted_probabilities,
)
from repro.core.scan import ScanOrder, _scan_from_sims
from repro.core.topk_prob import topk_inclusion_counts
from repro.core.weighted import weighted_prediction_probabilities
from repro.utils.validation import check_matrix, check_positive_int

__all__ = [
    "DEFAULT_TILE_ROWS",
    "DEFAULT_TILE_CANDIDATES",
    "DEFAULT_MEMORY_BUDGET_BYTES",
    "TilePlan",
    "plan_tiles",
    "merge_minmax_block",
    "binary_minmax_label",
    "ShardedExecutor",
    "ShardedBackend",
]

#: Default test points resident per tile.
DEFAULT_TILE_ROWS = 32

#: Default stacked candidates per kernel block.
DEFAULT_TILE_CANDIDATES = 4096

#: Dense-similarity-matrix size above which the cost model prefers tiling.
DEFAULT_MEMORY_BUDGET_BYTES = 64 * 1024 * 1024


# ---------------------------------------------------------------------------
# Tile planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TilePlan:
    """The tile grid over one query's test-point × candidate space.

    ``tile_rows`` / ``tile_candidates`` are the *effective* (clamped) tile
    edges; the spans partition both axes exactly, so every (point,
    candidate) pair belongs to exactly one tile regardless of whether the
    boundaries align with a dataset row's candidate segment.
    """

    n_points: int
    n_candidates: int
    tile_rows: int
    tile_candidates: int

    @staticmethod
    def _spans(total: int, size: int) -> tuple[tuple[int, int], ...]:
        return tuple(
            (start, min(start + size, total)) for start in range(0, total, size)
        )

    @property
    def row_tiles(self) -> tuple[tuple[int, int], ...]:
        """``(start, stop)`` spans over the test points."""
        return self._spans(self.n_points, self.tile_rows)

    @property
    def candidate_tiles(self) -> tuple[tuple[int, int], ...]:
        """``(start, stop)`` spans over the stacked candidate order."""
        return self._spans(self.n_candidates, self.tile_candidates)

    @property
    def n_row_tiles(self) -> int:
        return len(self.row_tiles)

    @property
    def n_candidate_tiles(self) -> int:
        return len(self.candidate_tiles)

    @property
    def n_tiles(self) -> int:
        """Total kernel blocks the grid produces."""
        return self.n_row_tiles * self.n_candidate_tiles

    @property
    def tile_buffer_bytes(self) -> int:
        """Bytes of the resident per-row-tile similarity buffer."""
        return self.tile_rows * self.n_candidates * 8

    @property
    def dense_bytes(self) -> int:
        """Bytes the dense (untiled) similarity matrix would occupy."""
        return self.n_points * self.n_candidates * 8


def plan_tiles(
    n_points: int,
    n_candidates: int,
    tile_rows: int = DEFAULT_TILE_ROWS,
    tile_candidates: int = DEFAULT_TILE_CANDIDATES,
) -> TilePlan:
    """Build the :class:`TilePlan` for a workload, validating the knobs.

    Tile edges must be positive; edges larger than the workload collapse to
    one tile on that axis (so any configuration is valid for any dataset).
    """
    if n_points < 0 or n_candidates < 0:
        raise ValueError("n_points and n_candidates must be non-negative")
    tile_rows = check_positive_int(tile_rows, "tile_rows")
    tile_candidates = check_positive_int(tile_candidates, "tile_candidates")
    return TilePlan(
        n_points=n_points,
        n_candidates=n_candidates,
        tile_rows=min(tile_rows, max(n_points, 1)),
        tile_candidates=min(tile_candidates, max(n_candidates, 1)),
    )


# ---------------------------------------------------------------------------
# The exact min/max tally-merge algebra
# ---------------------------------------------------------------------------
#
# These two helpers are the whole of the MinMax "tally" contract: fold
# similarity blocks into per-row extreme tallies (merge), decide Q1 from
# the merged extremes (decision). They are shared by the tile-streaming
# executor below and the partitioned service gateway
# (:mod:`repro.service.gateway`), which merges tallies produced in
# *different processes* — the algebra is what makes that merge lossless.


def merge_minmax_block(
    mins: np.ndarray,
    maxs: np.ndarray,
    block: np.ndarray,
    rows: np.ndarray,
    offsets: np.ndarray,
    c0: int,
    c1: int,
) -> None:
    """Fold one candidate-block of similarities into running min/max tallies.

    ``block`` holds similarities for stacked-candidate positions
    ``[c0, c1)`` (shape ``(n_points, c1 - c0)``); ``rows`` maps each
    stacked position to its dataset row and ``offsets`` is the row →
    first-stacked-position table. ``mins`` / ``maxs`` (shape
    ``(n_points, n_rows)``) are updated in place for the rows the block
    touches. The merge is exact for any block boundaries: min and max are
    associative and commutative, so min-of-mins / max-of-maxes over a row's
    segments equals the min/max over the whole row — no floating-point
    reordering is introduced.
    """
    first = int(rows[c0])
    last = int(rows[c1 - 1])
    starts = (np.maximum(offsets[first : last + 1], c0) - c0).astype(np.intp)
    np.minimum(
        mins[:, first : last + 1],
        np.minimum.reduceat(block, starts, axis=1),
        out=mins[:, first : last + 1],
    )
    np.maximum(
        maxs[:, first : last + 1],
        np.maximum.reduceat(block, starts, axis=1),
        out=maxs[:, first : last + 1],
    )


def binary_minmax_label(
    lo: np.ndarray, hi: np.ndarray, labels: np.ndarray, k: int
) -> int | None:
    """The Q1 verdict for one point from merged per-row extreme tallies.

    ``lo`` / ``hi`` are the per-row min/max similarities (pins already
    applied as ``lo == hi == pinned similarity``). Binary label spaces
    only; uses the very same :func:`~repro.core.knn.top_k_rows` /
    :func:`~repro.core.knn.majority_label` calls as the reference MinMax
    path, so the verdict is bit-identical to it.
    """
    winners = []
    for target in range(2):
        extremes = np.where(labels == target, hi, lo)
        top = top_k_rows(extremes, k)
        if majority_label(labels[top], tally_size=2) == target:
            winners.append(target)
    return winners[0] if len(winners) == 1 else None


# ---------------------------------------------------------------------------
# The persistent-pool plumbing
# ---------------------------------------------------------------------------

#: The executor context of the active pooled run. Set in the parent before
#: the pool forks so workers inherit it; the similarity buffer inside it is
#: an anonymous *shared* mapping, so tiles the parent writes after the fork
#: are visible to every worker without copies or pickling. Guarded by
#: ``_SHARD_LOCK`` for the pool's whole lifetime so two concurrent sharded
#: executions cannot see each other's state.
_SHARD_STATE: Any = None
_SHARD_LOCK = threading.Lock()


def _shard_point_worker(task: tuple[int, int]) -> tuple[int, Any]:
    """Pool worker: evaluate one test point from the shared tile buffer."""
    global_index, buffer_row = task
    return global_index, _SHARD_STATE.run_point(global_index, buffer_row)


class _ShardContext:
    """What a pooled run shares with its workers (by fork, never pickled)."""

    __slots__ = ("buffer", "rows", "cands", "labels", "counts", "evaluate")

    def __init__(self, buffer, rows, cands, labels, counts, evaluate) -> None:
        self.buffer = buffer
        self.rows = rows
        self.cands = cands
        self.labels = labels
        self.counts = counts
        self.evaluate = evaluate

    def run_point(self, global_index: int, buffer_row: int) -> Any:
        scan = _scan_from_sims(
            self.buffer[buffer_row], self.rows, self.cands, self.labels, self.counts
        )
        return self.evaluate(scan, global_index)


# ---------------------------------------------------------------------------
# The tile-streaming executor
# ---------------------------------------------------------------------------


class ShardedExecutor:
    """Streams one ``(dataset, test matrix, k, kernel)`` family tile by tile.

    The executor owns the tile grid and the streaming loops; what to do
    with each point is injected (``evaluate(scan, index)`` for scan-based
    evaluation, or the built-in exact min/max merge for binary certainty).
    Only the requested point indices are evaluated and only their row tiles
    are streamed — a fully cached tile costs nothing.
    """

    def __init__(
        self,
        dataset: IncompleteDataset,
        test_X: np.ndarray,
        k: int = 3,
        kernel: Kernel | str | None = None,
        tile_rows: int = DEFAULT_TILE_ROWS,
        tile_candidates: int = DEFAULT_TILE_CANDIDATES,
        n_jobs: int | None = 1,
    ) -> None:
        self.dataset = dataset
        self.k = check_positive_int(k, "k")
        if self.k > dataset.n_rows:
            raise ValueError(
                f"k={self.k} exceeds the number of training rows {dataset.n_rows}"
            )
        self.kernel = resolve_kernel(kernel)
        self.test_X = check_matrix(test_X, "test_X", n_cols=dataset.n_features)
        layout = dataset.candidate_layout()
        self._stacked = layout.stacked
        rows = self._rows = layout.rows
        self._cands = layout.cands
        self._counts = layout.counts
        self._offsets = layout.offsets
        self._labels = dataset.labels.copy()
        self.plan = plan_tiles(
            int(self.test_X.shape[0]),
            int(rows.shape[0]),
            tile_rows=tile_rows,
            tile_candidates=tile_candidates,
        )
        self.n_jobs = resolve_n_jobs(n_jobs)
        #: Row tiles actually streamed (observability; benchmarks assert on it).
        self.n_tiles_streamed = 0

    @property
    def n_points(self) -> int:
        return self.plan.n_points

    # ------------------------------------------------------------------
    def _fill_tile(self, view: np.ndarray, r0: int, r1: int) -> None:
        """Fill ``view`` with the tile's similarities, one bounded block at a time."""
        tile_X = self.test_X[r0:r1]
        for c0, c1 in self.plan.candidate_tiles:
            view[:, c0:c1] = self.kernel.pairwise(self._stacked[c0:c1], tile_X)

    def _tiles_with(
        self, indices: Iterable[int]
    ) -> list[tuple[tuple[int, int], list[int]]]:
        """The row tiles containing ``indices``, each with its members."""
        size = self.plan.tile_rows
        groups: dict[int, list[int]] = {}
        for index in sorted(set(indices)):
            if not 0 <= index < self.n_points:
                raise IndexError(
                    f"point index {index} out of range for {self.n_points} points"
                )
            groups.setdefault(index // size, []).append(index)
        out = []
        for tile_index in sorted(groups):
            r0 = tile_index * size
            r1 = min(r0 + size, self.n_points)
            out.append(((r0, r1), groups[tile_index]))
        return out

    # ------------------------------------------------------------------
    def map_points(
        self,
        evaluate: Callable[[ScanOrder, int], Any],
        indices: Iterable[int],
    ) -> dict[int, Any]:
        """``evaluate(scan, index)`` for each requested point, tile-streamed.

        The scan order handed to ``evaluate`` is bit-identical to
        ``compute_scan_order(dataset, test_X[index], kernel)`` — same
        similarities (candidate tiling never splits the per-element feature
        reduction), same tie-break. With ``n_jobs > 1`` on a platform that
        can fork, evaluations run on a persistent worker pool reading the
        shared tile buffer; otherwise in process, building the identical
        scans off a private buffer. Results are identical either way.
        """
        tiles = self._tiles_with(indices)
        if not tiles:
            return {}
        n_missing = sum(len(members) for _, members in tiles)
        use_pool = (
            self.n_jobs > 1
            and n_missing > 1
            and sys.platform.startswith("linux")
            and "fork" in multiprocessing.get_all_start_methods()
        )
        if not use_pool:
            return self._map_in_process(evaluate, tiles)
        return self._map_pooled(evaluate, tiles, n_missing)

    def _map_in_process(self, evaluate, tiles) -> dict[int, Any]:
        results: dict[int, Any] = {}
        buffer = np.empty((self.plan.tile_rows, self.plan.n_candidates))
        for (r0, r1), members in tiles:
            view = buffer[: r1 - r0]
            self._fill_tile(view, r0, r1)
            for index in members:
                # The same scan construction the pooled workers use — one
                # code path, zero copies off the buffer row.
                scan = _scan_from_sims(
                    view[index - r0], self._rows, self._cands, self._labels, self._counts
                )
                results[index] = evaluate(scan, index)
            self.n_tiles_streamed += 1
        return results

    def tile_batch(self, r0: int, r1: int) -> PreparedBatch:
        """A zero-copy :class:`PreparedBatch` over one streamed row tile.

        Fills a fresh buffer for test points ``[r0, r1)`` and wraps it via
        ``sims_matrix=`` — nothing recomputed, nothing copied. This is the
        hand-off for consumers that want the familiar prepared interface
        (per-point queries, row similarities) over an out-of-core slice;
        the executor's own paths build scans straight off the buffer.
        """
        if not 0 <= r0 < r1 <= self.n_points:
            raise IndexError(
                f"tile [{r0}, {r1}) out of range for {self.n_points} points"
            )
        sims = np.empty((r1 - r0, self.plan.n_candidates))
        self._fill_tile(sims, r0, r1)
        return PreparedBatch(
            self.dataset,
            self.test_X[r0:r1],
            k=self.k,
            kernel=self.kernel,
            sims_matrix=sims,
        )

    def _map_pooled(self, evaluate, tiles, n_missing: int) -> dict[int, Any]:
        global _SHARD_STATE
        results: dict[int, Any] = {}
        with _SHARD_LOCK:
            # An anonymous shared mapping: created before the fork, written
            # by the parent per tile, read by every worker — zero-copy.
            raw = multiprocessing.RawArray(
                "d", self.plan.tile_rows * self.plan.n_candidates
            )
            buffer = np.frombuffer(raw, dtype=np.float64).reshape(
                self.plan.tile_rows, self.plan.n_candidates
            )
            _SHARD_STATE = _ShardContext(
                buffer, self._rows, self._cands, self._labels, self._counts, evaluate
            )
            context = multiprocessing.get_context("fork")
            n_workers = min(self.n_jobs, n_missing)
            pool = context.Pool(processes=n_workers)
            try:
                for (r0, r1), members in tiles:
                    self._fill_tile(buffer[: r1 - r0], r0, r1)
                    tasks = [(index, index - r0) for index in members]
                    # ~4 chunks per worker, as in fanout_map: coarse enough
                    # to amortise queue trips, fine enough to steal work.
                    chunksize = max(1, -(-len(tasks) // (n_workers * 4)))
                    for index, value in pool.imap_unordered(
                        _shard_point_worker, tasks, chunksize=chunksize
                    ):
                        results[index] = value
                    self.n_tiles_streamed += 1
            finally:
                pool.close()
                pool.join()
                _SHARD_STATE = None
        return results

    # ------------------------------------------------------------------
    def minmax_labels(
        self, pins: Mapping[int, int], indices: Iterable[int]
    ) -> dict[int, int | None]:
        """The CP'ed label (or ``None``) per point via exact min/max merging.

        Binary label spaces only. Per candidate tile the per-row extreme
        similarities are tallied with ``reduceat`` over the block's (possibly
        partial) row segments and merged into running ``tile_rows × N``
        min/max tallies — an exact merge, since min and max are associative.
        The merged extremes feed the same top-K/majority decision as
        :meth:`PreparedQuery.certain_label_minmax`, so labels are
        bit-identical to the reference. The full ``P``-wide similarity row
        is never materialised.
        """
        if self.dataset.n_labels != 2:
            raise ValueError("minmax_labels requires a binary label space")
        counts = self._counts
        pin_items = sorted(dict(pins).items())
        for row, cand in pin_items:
            if not 0 <= row < self.dataset.n_rows:
                raise IndexError(
                    f"pinned row {row} out of range for {self.dataset.n_rows} rows"
                )
            if not 0 <= cand < int(counts[row]):
                raise IndexError(
                    f"pinned candidate {cand} out of range for row {row} "
                    f"with {int(counts[row])} candidates"
                )
        pin_positions = [int(self._offsets[row]) + cand for row, cand in pin_items]
        labels = self._labels
        n_rows = self.dataset.n_rows
        results: dict[int, int | None] = {}
        for (r0, r1), members in self._tiles_with(indices):
            height = r1 - r0
            mins = np.full((height, n_rows), np.inf)
            maxs = np.full((height, n_rows), -np.inf)
            pinned_sims = np.empty((height, len(pin_items)))
            for c0, c1 in self.plan.candidate_tiles:
                block = self.kernel.pairwise(
                    self._stacked[c0:c1], self.test_X[r0:r1]
                )
                merge_minmax_block(
                    mins, maxs, block, self._rows, self._offsets, c0, c1
                )
                for slot, position in enumerate(pin_positions):
                    if c0 <= position < c1:
                        pinned_sims[:, slot] = block[:, position - c0]
            for index in members:
                local = index - r0
                lo, hi = mins[local], maxs[local]
                for slot, (row, _) in enumerate(pin_items):
                    lo[row] = hi[row] = pinned_sims[local, slot]
                results[index] = binary_minmax_label(lo, hi, labels, self.k)
            self.n_tiles_streamed += 1
        return results


# ---------------------------------------------------------------------------
# The planner backend
# ---------------------------------------------------------------------------

_MISS = object()


class ShardedBackend(Backend):
    """Tile-streaming out-of-core execution behind the registry name ``sharded``.

    Serves all five task flavors and all three kinds with results
    bit-identical to the sequential reference. Counting and the
    weighted/top-k/label-uncertain flavors evaluate per-point scans built
    from the streamed tile buffer (pooled across ``n_jobs`` workers);
    binary certainty checks use the exact per-tile min/max merge and touch
    no scan at all. Results are cached per point in a fingerprint-keyed
    LRU, so a cleaning session's repeated queries skip their tiles
    entirely.

    ``tile_rows`` / ``tile_candidates`` are defaults a query can override
    through :class:`ExecutionOptions`; ``memory_budget_bytes`` is the
    dense-matrix size above which :meth:`estimate_cost` prefers this
    backend over the dense ``batch`` path.
    """

    name = "sharded"
    capabilities = BackendCapabilities(
        flavors=frozenset(FLAVORS),
        kinds=frozenset(KINDS),
        batchable=True,
        incremental=False,
        exact=True,
        algorithms=frozenset({"auto", "engine"}),
    )

    def __init__(
        self,
        tile_rows: int = DEFAULT_TILE_ROWS,
        tile_candidates: int = DEFAULT_TILE_CANDIDATES,
        memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES,
        cache_size: int = 4096,
    ) -> None:
        self.tile_rows = check_positive_int(tile_rows, "tile_rows")
        self.tile_candidates = check_positive_int(tile_candidates, "tile_candidates")
        self.memory_budget_bytes = check_positive_int(
            memory_budget_bytes, "memory_budget_bytes"
        )
        self.cache = QueryResultCache(maxsize=cache_size)
        #: Stats of the most recent execution (observability; see benchmarks).
        self.last_stats: dict[str, Any] | None = None

    # ------------------------------------------------------------------
    def _tiling(self, options: ExecutionOptions) -> tuple[int, int]:
        tile_rows = (
            self.tile_rows
            if options.tile_rows is None
            else check_positive_int(options.tile_rows, "tile_rows")
        )
        tile_candidates = (
            self.tile_candidates
            if options.tile_candidates is None
            else check_positive_int(options.tile_candidates, "tile_candidates")
        )
        return tile_rows, tile_candidates

    def estimate_cost(self, query, options):
        jobs = min(resolve_n_jobs(options.n_jobs), max(query.n_points, 1))
        per_point = query.workload_size() / max(query.n_points, 1)
        if query.workload_size() * 8 > self.memory_budget_bytes:
            cost = per_point * (0.55 + 0.45 * query.n_points / jobs)
            return cost, "dense distance state exceeds the memory budget; tile it"
        cost = per_point * (0.7 + 0.5 * query.n_points / jobs)
        return cost, "tile streaming (dense state fits in memory)"

    def _resolve_cache(self, options: ExecutionOptions) -> QueryResultCache | None:
        if options.cache is True:
            return self.cache
        if isinstance(options.cache, QueryResultCache):
            return options.cache
        return None

    # ------------------------------------------------------------------
    def execute(self, query, options=None):
        options = options or ExecutionOptions()
        tile_rows, tile_candidates = self._tiling(options)
        prune = _prune_enabled(query, options)
        totals = empty_prune_stats() if prune else None
        flavor = query.flavor
        if flavor in ("binary", "multiclass"):
            values, scan_dataset, lazy = self._execute_counting(
                query, options, tile_rows, tile_candidates, prune, totals
            )
        elif flavor == "weighted":
            values, scan_dataset, lazy = self._execute_weighted(
                query, options, tile_rows, tile_candidates, prune, totals
            )
        elif flavor == "topk":
            values, scan_dataset, lazy = self._execute_topk(
                query, options, tile_rows, tile_candidates, prune, totals
            )
        else:
            values, scan_dataset, lazy = self._execute_label_uncertain(
                query, options, tile_rows, tile_candidates, prune, totals
            )
        if lazy.executor is not None:
            plan = lazy.executor.plan
            n_tiles_streamed = lazy.executor.n_tiles_streamed
        else:
            # Every point was cache-served: no executor was built (and no
            # candidates stacked); derive the grid for the stats directly.
            plan = plan_tiles(
                query.n_points,
                int(np.sum(scan_dataset.candidate_counts())),
                tile_rows=tile_rows,
                tile_candidates=tile_candidates,
            )
            n_tiles_streamed = 0
        self.last_stats = {
            "flavor": query.flavor,
            "kind": query.kind,
            "n_points": plan.n_points,
            "n_candidates": plan.n_candidates,
            "tile_rows": plan.tile_rows,
            "tile_candidates": plan.tile_candidates,
            "n_row_tiles": plan.n_row_tiles,
            "n_candidate_tiles": plan.n_candidate_tiles,
            "n_tiles_streamed": n_tiles_streamed,
            "tile_buffer_bytes": plan.tile_buffer_bytes,
            "dense_bytes": plan.dense_bytes,
            "prune": prune,
        }
        if totals:
            self.last_stats.update(totals)
        return values

    @staticmethod
    def _strip_stats(
        mapping: Mapping[int, tuple[Any, dict]], totals: dict | None
    ) -> dict[int, Any]:
        """Split pruned ``(value, stats)`` results: fold stats, keep values.

        Keeps the cache layer stats-free, so pruned and unpruned runs share
        entries (their values are bit-identical).
        """
        out: dict[int, Any] = {}
        for index, (value, stats) in mapping.items():
            if totals is not None:
                accumulate_prune_stats(totals, stats)
            out[index] = value
        return out

    # ------------------------------------------------------------------
    def _cached_points(
        self,
        query: CPQuery,
        options: ExecutionOptions,
        tag: str,
        fingerprint: str,
        extra_key: tuple,
        compute: Callable[[list[int]], Mapping[int, Any]],
    ) -> list:
        """Serve per-point values from cache; stream only the missing tiles."""
        cache = self._resolve_cache(options)
        kernel_key = kernel_cache_key(query.kernel)
        n = query.n_points
        results: list = [None] * n
        keys: list[tuple | None] = [None] * n
        missing: list[int] = []
        for index in range(n):
            if cache is not None:
                keys[index] = (
                    tag,
                    fingerprint,
                    _point_key(query.test_X[index]),
                    query.k,
                    kernel_key,
                    extra_key,
                )
                hit = cache.get(keys[index], _MISS)
                if hit is not _MISS:
                    results[index] = list(hit) if isinstance(hit, list) else hit
                    continue
            missing.append(index)
        if missing:
            for index, value in compute(missing).items():
                results[index] = value
                if cache is not None:
                    cache.put(
                        keys[index], list(value) if isinstance(value, list) else value
                    )
        return results

    class _LazyExecutor:
        """Builds the (stacking-heavy) executor only if a point misses the cache."""

        def __init__(self, factory: Callable[[], "ShardedExecutor"]) -> None:
            self._factory = factory
            self.executor: ShardedExecutor | None = None

        def __call__(self) -> "ShardedExecutor":
            if self.executor is None:
                self.executor = self._factory()
            return self.executor

    def _lazy_executor(
        self,
        dataset: IncompleteDataset,
        query: CPQuery,
        options: ExecutionOptions,
        tile_rows: int,
        tile_candidates: int,
    ) -> "ShardedBackend._LazyExecutor":
        return self._LazyExecutor(
            lambda: ShardedExecutor(
                dataset,
                query.test_X,
                k=query.k,
                kernel=query.kernel,
                tile_rows=tile_rows,
                tile_candidates=tile_candidates,
                n_jobs=options.n_jobs,
            )
        )

    # ------------------------------------------------------------------
    def _execute_counting(
        self, query, options, tile_rows, tile_candidates, prune, totals
    ):
        fixed = query.pins_dict()
        fixed_key = tuple(sorted(fixed.items()))
        lazy = self._lazy_executor(
            query.dataset, query, options, tile_rows, tile_candidates
        )
        if query.kind in ("certain_label", "check") and query.dataset.n_labels == 2:
            # The MM shortcut: exact Q1 from merged min/max tallies alone.
            # Pruning never enters — no scan is built to prune.
            labels = self._cached_points(
                query,
                options,
                tag="sh-mm",
                fingerprint=query.fingerprint(),
                extra_key=fixed_key,
                compute=lambda missing: lazy().minmax_labels(fixed, missing),
            )
            if query.kind == "certain_label":
                return labels, query.dataset, lazy
            return [label == query.label for label in labels], query.dataset, lazy

        n_labels = query.dataset.n_labels
        if prune and query.kind in ("certain_label", "check"):
            # Multiclass decisions (binary took the MM branch): the pruned
            # early-terminating decision kernel, cached under its own tag —
            # the verdict carries less information than the counts.
            implementation = _scan_kernel_arg(options)

            def _decide(scan: ScanOrder, index: int) -> tuple[int | None, dict]:
                decision, stats = pruned_decision_from_scan(
                    scan, query.k, n_labels, fixed, implementation=implementation
                )
                return decision.certain_label, stats

            labels = self._cached_points(
                query,
                options,
                tag="sh-q2d",
                fingerprint=query.fingerprint(),
                extra_key=fixed_key,
                compute=lambda missing: self._strip_stats(
                    lazy().map_points(_decide, missing), totals
                ),
            )
            if query.kind == "certain_label":
                return labels, query.dataset, lazy
            return [label == query.label for label in labels], query.dataset, lazy

        if prune:
            compute = lambda missing: self._strip_stats(
                lazy().map_points(
                    lambda scan, index: pruned_counts_from_scan(
                        scan, query.k, n_labels, fixed
                    ),
                    missing,
                ),
                totals,
            )
        else:
            compute = lambda missing: lazy().map_points(
                lambda scan, index: _counts_from_scan(scan, query.k, n_labels, fixed),
                missing,
            )
        counts = self._cached_points(
            query,
            options,
            tag="sh-q2",
            fingerprint=query.fingerprint(),
            extra_key=fixed_key,
            compute=compute,
        )
        return _counts_to_kind(query, counts), query.dataset, lazy

    def _execute_weighted(
        self, query, options, tile_rows, tile_candidates, prune, totals
    ):
        weights = _conditioned_weights(query)
        dataset = query.dataset
        lazy = self._lazy_executor(dataset, query, options, tile_rows, tile_candidates)
        if prune:
            compute = lambda missing: self._strip_stats(
                lazy().map_points(
                    lambda scan, index: pruned_weighted_probabilities(
                        dataset,
                        query.test_X[index],
                        weights,
                        query.k,
                        kernel=query.kernel,
                        scan=scan,
                    ),
                    missing,
                ),
                totals,
            )
        else:
            compute = lambda missing: lazy().map_points(
                lambda scan, index: weighted_prediction_probabilities(
                    dataset,
                    query.test_X[index],
                    k=query.k,
                    weights=weights,
                    kernel=query.kernel,
                    scan=scan,
                ),
                missing,
            )
        probs = self._cached_points(
            query,
            options,
            tag="sh-wt",
            fingerprint=query.fingerprint(),
            extra_key=(_weights_key(weights),),
            compute=compute,
        )
        return _weighted_to_kind(query, probs), dataset, lazy

    def _execute_topk(self, query, options, tile_rows, tile_candidates, prune, totals):
        restricted = _restricted_dataset(query)
        lazy = self._lazy_executor(
            restricted, query, options, tile_rows, tile_candidates
        )
        if prune:
            compute = lambda missing: self._strip_stats(
                lazy().map_points(
                    lambda scan, index: pruned_topk_counts_from_scan(scan, query.k),
                    missing,
                ),
                totals,
            )
        else:
            compute = lambda missing: lazy().map_points(
                lambda scan, index: topk_inclusion_counts(
                    restricted,
                    query.test_X[index],
                    k=query.k,
                    kernel=query.kernel,
                    scan=scan,
                ),
                missing,
            )
        values = self._cached_points(
            query,
            options,
            tag="sh-topk",
            fingerprint=restricted.fingerprint(),
            extra_key=(),
            compute=compute,
        )
        return values, restricted, lazy

    def _execute_label_uncertain(
        self, query, options, tile_rows, tile_candidates, prune, totals
    ):
        restricted = _restricted_dataset(query)
        lazy = self._lazy_executor(
            restricted.feature_dataset, query, options, tile_rows, tile_candidates
        )
        if prune:
            compute = lambda missing: self._strip_stats(
                lazy().map_points(
                    lambda scan, index: pruned_label_uncertain_counts(
                        restricted,
                        query.test_X[index],
                        k=query.k,
                        kernel=query.kernel,
                        scan=scan,
                    ),
                    missing,
                ),
                totals,
            )
        else:
            compute = lambda missing: lazy().map_points(
                lambda scan, index: label_uncertain_counts(
                    restricted,
                    query.test_X[index],
                    k=query.k,
                    kernel=query.kernel,
                    scan=scan,
                ),
                missing,
            )
        counts = self._cached_points(
            query,
            options,
            tag="sh-lu",
            fingerprint=restricted.fingerprint(),
            extra_key=(),
            compute=compute,
        )
        return _counts_to_kind(query, counts), restricted.feature_dataset, lazy


register_backend(ShardedBackend())
