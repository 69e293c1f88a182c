"""The batch substrate: prepared distances, the tuned kernel, the fan-out.

The per-point query path (:mod:`repro.core.prepared`,
:mod:`repro.core.engine`) answers one certain-prediction query at a time:
each :class:`~repro.core.prepared.PreparedQuery` recomputes candidate
similarities row by row, sorts them, and runs the SortScan counting loop in
pure Python. That is the right shape for interactive use but not for the
batch workloads this library actually serves — screening a whole test set,
or CPClean re-evaluating the same validation points after every cleaning
step. This module holds the pieces the ``batch`` backend
(:class:`repro.core.planner.BatchParallelBackend`) executes with:

* :class:`PreparedBatch` extends the prepared layer across an entire test
  set: the full candidate-distance matrix is computed with vectorised
  :meth:`~repro.core.kernels.Kernel.pairwise` calls over the stacked
  candidate matrix — one per row block, sized so the kernel's
  ``(rows, P, d)`` broadcast temporary stays under
  :data:`PAIRWISE_BLOCK_BYTES` — and per-point scan orders are derived
  from its rows on demand (bit-identical to
  :func:`repro.core.scan.compute_scan_order`).
* :func:`_counts_from_scan` is the tuned counting kernel — the same exact
  big-integer algorithm as :class:`~repro.core.engine.LabelPolynomials`,
  restructured to avoid per-position allocations and NumPy scalar boxing.
* :func:`fanout_map` fans per-point work out across a ``multiprocessing``
  worker pool: ``n_jobs`` forked workers pull index chunks from a shared
  task queue, inheriting the prepared arrays read-only through
  copy-on-write fork memory, so nothing is pickled per task except the
  tiny result vectors.
* :func:`kernel_cache_key` names a kernel by value in cache keys.

All outputs are verified bit-identical to the sequential per-point path
(``tests/core/test_batch_engine.py``); ``benchmarks/bench_batch_engine.py``
measures the speedup on Table 2-style workloads. New code reaches this
layer through :func:`repro.core.planner.execute_query`.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import uuid
from collections.abc import Callable, Iterable, Sequence
from functools import lru_cache
from math import comb, prod
from typing import Any

import numpy as np

from repro.core.dataset import IncompleteDataset
from repro.core.kernels import Kernel, resolve_kernel
from repro.core.polynomials import poly_one
from repro.core.prepared import PreparedQuery
from repro.core.scan import ScanOrder, _scan_from_sims
from repro.core.tally import tallies_with_prediction
from repro.utils.validation import check_matrix, check_positive_int

__all__ = [
    "PAIRWISE_BLOCK_BYTES",
    "PreparedBatch",
    "fanout_map",
    "resolve_n_jobs",
    "kernel_cache_key",
]


#: Upper bound on the ``(rows, P, d)`` float64 broadcast temporary of one
#: :meth:`~repro.core.kernels.Kernel.pairwise` call while a
#: :class:`PreparedBatch` fills its similarity matrix (at least one test
#: point per call).
PAIRWISE_BLOCK_BYTES = 16 * 1024 * 1024

# ---------------------------------------------------------------------------
# Worker-pool plumbing
# ---------------------------------------------------------------------------

#: ``(worker, state)`` of the current forked :func:`fanout_map` call. Set in
#: the parent immediately before the fork so children inherit it through
#: copy-on-write memory; never pickled, never mutated by workers. Guarded
#: by ``_FANOUT_LOCK`` so concurrent pooled fan-outs (e.g. two queries on
#: different threads) cannot read each other's state.
_FANOUT_STATE: Any = None
_FANOUT_LOCK = threading.Lock()


def _forked_call(item: Any) -> Any:
    """The one pool entry point: apply the inherited worker to one item."""
    worker, state = _FANOUT_STATE
    return worker(state, item)


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalise an ``n_jobs`` request: ``None``/negative means all CPUs."""
    if n_jobs is None or n_jobs < 0:
        return os.cpu_count() or 1
    if n_jobs == 0:
        raise ValueError("n_jobs must be positive, negative (all CPUs) or None")
    return n_jobs


def fanout_map(
    worker: Callable[[Any, Any], Any],
    items: Iterable[Any],
    n_jobs: int | None = 1,
    state: Any = None,
    chunksize: int | None = None,
) -> list[Any]:
    """``[worker(state, item) for item in items]``, optionally across forked processes.

    Forked workers inherit ``worker`` and ``state`` through fork, so
    neither is pickled — large arrays are shared read-only — and only the
    items and the results cross the pipe. Items are distributed in chunks
    over the pool's shared task queue, so idle workers take the next chunk
    and an unlucky chunk of slow queries cannot stall the whole batch.
    Results come back in item order.

    Falls back to an in-process loop when ``n_jobs == 1``, when there is
    nothing to parallelise over, or when the platform cannot fork safely.
    Sharing-by-inheritance is only sound under the ``fork`` start method,
    and bare fork-without-exec is only reliable on Linux (on macOS,
    forked children of a process that has touched Accelerate/Objective-C
    runtimes can abort — the reason CPython made ``spawn`` the default
    there), so the pool is gated to Linux with ``fork`` available.

    Pooled calls from different threads are serialised on an internal
    lock — the hand-off to the children is a process-wide slot. In-process
    calls pass ``state`` directly and never take it.
    """
    items = list(items)
    n_jobs = resolve_n_jobs(n_jobs)
    use_pool = (
        n_jobs > 1
        and len(items) > 1
        and sys.platform.startswith("linux")
        and "fork" in multiprocessing.get_all_start_methods()
    )
    if not use_pool:
        return [worker(state, item) for item in items]
    global _FANOUT_STATE
    with _FANOUT_LOCK:
        _FANOUT_STATE = (worker, state)
        try:
            context = multiprocessing.get_context("fork")
            n_workers = min(n_jobs, len(items))
            if chunksize is None:
                # ~4 chunks per worker: coarse enough to amortise queue
                # trips, fine enough that work can be stolen when chunks
                # are uneven.
                chunksize = max(1, -(-len(items) // (n_workers * 4)))
            with context.Pool(processes=n_workers) as pool:
                return list(pool.imap(_forked_call, items, chunksize=chunksize))
        finally:
            _FANOUT_STATE = None


# ---------------------------------------------------------------------------
# The tuned batch counting kernel
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _tally_plans(
    k: int, n_labels: int
) -> tuple[tuple[tuple[int, tuple[tuple[int, int], ...]], ...], ...]:
    """Per boundary-row label: the tally loop, pre-resolved.

    ``plans[y]`` lists ``(winner, wants)`` for every tally with
    ``tally[y] >= 1``, where ``wants`` pairs each label with the
    coefficient index it must contribute (the boundary row's own label
    needs one slot fewer). Hoisting this out of the scan loop removes the
    per-position tally filtering of the reference engine.
    """
    plans = []
    for y in range(n_labels):
        plan = []
        for tally, winner in tallies_with_prediction(k, n_labels):
            if tally[y] < 1:
                continue
            wants = tuple(
                (label, slots - 1 if label == y else slots)
                for label, slots in enumerate(tally)
            )
            plan.append((winner, wants))
        plans.append(tuple(plan))
    return tuple(plans)


def _mul_binomial_power(poly: list[int], a: int, b: int, e: int) -> None:
    """``poly *= (a + b z) ** e`` in place, truncated to ``poly``'s degree.

    The power's coefficients are ``C(e, j) a^(e-j) b^j``; the product runs
    descending so each step reads the not-yet-updated lower coefficients.
    """
    k = len(poly) - 1
    top = min(e, k)
    power = [comb(e, j) * a ** (e - j) * b**j for j in range(top + 1)]
    for d in range(k, -1, -1):
        poly[d] = sum(power[j] * poly[d - j] for j in range(min(d, top) + 1))


def _counts_from_scan(
    scan: ScanOrder,
    k: int,
    n_labels: int,
    head: np.ndarray | None = None,
) -> list[int]:
    """Q2 counts from a precomputed scan order — the batch engine's kernel.

    Exactly the incremental algorithm of
    :func:`repro.core.engine.sortscan_counts` /
    :meth:`repro.core.prepared.PreparedQuery.counts` (the same exact
    big-integer polynomials, so results are bit-identical), restructured
    for batch throughput: scan arrays are converted to plain Python lists
    once, the per-position tally loop uses the precomputed
    :func:`_tally_plans`, the linear-factor updates run in place on the
    coefficient lists (no per-step allocations or calls into
    :mod:`repro.core.polynomials`), and the forced-shift bookkeeping is
    applied on the fly instead of materialising shifted coefficient arrays
    at every boundary position. The truncated divisions are exact by
    construction (see :mod:`repro.core.polynomials`); the closing
    sum-over-worlds assertion would catch any violation.

    **Start state.** ``head[i]`` (default 0) is how many of row ``i``'s
    candidates sit *before* the scan: the caller has already folded them.
    Each label's polynomial starts as the closed-form product
    ``prod (a_i + (m_i - a_i) z)`` over its rows with ``a_i = head[i] > 0``
    (one binomial power per distinct ``(a_i, m_i)``), and only rows with
    ``a_i == 0`` start in the forced-above set (``forced_count`` /
    ``forced_scale``). The walk then continues from there. This is the
    same product the walk would have built one factor at a time, so
    skipping a head whose positions all have zero support — the positions
    below the pruner's threshold, see :func:`repro.core.pruning.window_scan`
    — leaves every count bit-identical. With no head this is the full scan.
    """
    rows = scan.rows.tolist()
    row_labels = scan.row_labels.tolist()
    counts = scan.row_counts.tolist()

    plans = _tally_plans(k, n_labels)
    n = len(row_labels)
    alpha = [0] * n if head is None else head.tolist()
    polys = [poly_one(k) for _ in range(n_labels)]
    forced_count = [0] * n_labels
    forced_scale = [1] * n_labels
    factors: dict[tuple[int, int, int], int] = {}
    for i in range(n):
        label = row_labels[i]
        if alpha[i]:
            key = (label, alpha[i], counts[i])
            factors[key] = factors.get(key, 0) + 1
        else:
            forced_count[label] += 1
            forced_scale[label] *= counts[i]
    for (label, a, m), e in factors.items():
        _mul_binomial_power(polys[label], a, m - a, e)
    result = [0] * n_labels

    for i in rows:
        a = alpha[i] = alpha[i] + 1
        label_i = row_labels[i]
        m = counts[i]
        poly = polys[label_i]
        if a == 1:
            # The row leaves the forced-above set and gains a real factor:
            # poly *= (1 + (m-1) z), in place (descending, so each step
            # reads the not-yet-updated lower coefficient).
            forced_count[label_i] -= 1
            forced_scale[label_i] //= m
            b = m - 1
            for c in range(k, 0, -1):
                poly[c] += b * poly[c - 1]
        else:
            # poly = poly / ((a-1) + (m-a+1) z) * (a + (m-a) z), in place:
            # the exact truncated division runs ascending (each step reads
            # the already-updated lower coefficient), the multiplication
            # descending.
            a0 = a - 1
            b0 = m - a + 1
            poly[0] //= a0
            for c in range(1, k + 1):
                poly[c] = (poly[c] - b0 * poly[c - 1]) // a0
            b = m - a
            for c in range(k, 0, -1):
                poly[c] = a * poly[c] + b * poly[c - 1]
            poly[0] *= a
        # Coefficients with the boundary row's own factor divided out.
        b = m - a
        excluded = [0] * (k + 1)
        excluded[0] = prev = poly[0] // a
        for c in range(1, k + 1):
            excluded[c] = prev = (poly[c] - b * prev) // a
        for winner, wants in plans[label_i]:
            support = 1
            for label, want in wants:
                index = want - forced_count[label]
                if 0 <= index <= k:
                    base = excluded if label == label_i else polys[label]
                    coeff = base[index]
                    if coeff:
                        support *= forced_scale[label] * coeff
                        continue
                support = 0
                break
            if support:
                result[winner] += support

    expected_total = prod(counts)
    if sum(result) != expected_total:
        raise AssertionError(
            f"internal error: counts sum to {sum(result)} but there are "
            f"{expected_total} possible worlds"
        )
    return result


# ---------------------------------------------------------------------------
# PreparedBatch: the vectorised prepared layer
# ---------------------------------------------------------------------------


class PreparedBatch:
    """Shared prepared state for CP queries against an entire test set.

    Extends the per-point prepared layer (:class:`PreparedQuery`): the
    candidate-distance matrix for *all* test points is computed in one
    vectorised kernel call, and per-point scan orders / prepared queries
    are materialised from its rows on demand and cached. All derived state
    is bit-identical to what the per-point path computes, so every consumer
    of :class:`PreparedQuery` can be handed a batch-built instance
    transparently (this is how
    :class:`repro.cleaning.sequential.CleaningSession` gets its queries).
    """

    def __init__(
        self,
        dataset: IncompleteDataset,
        test_X: np.ndarray,
        k: int = 3,
        kernel: Kernel | str | None = None,
        sims_matrix: np.ndarray | None = None,
    ) -> None:
        self.k = check_positive_int(k, "k")
        if self.k > dataset.n_rows:
            raise ValueError(
                f"k={self.k} exceeds the number of training rows {dataset.n_rows}"
            )
        self.dataset = dataset
        self.kernel = resolve_kernel(kernel)
        self.test_X = check_matrix(test_X, "test_X", n_cols=dataset.n_features)
        # The dataset version's shared, read-only stacked layout; offsets[i]
        # is where row i's candidates start in the stacked order.
        layout = dataset.candidate_layout()
        rows = self._rows = layout.rows
        self._cands = layout.cands
        self._counts = layout.counts
        self._offsets = layout.offsets
        self._labels = dataset.labels.copy()
        if sims_matrix is None:
            self.sims_matrix = self._pairwise_in_blocks(layout.stacked)
        else:
            # A caller-computed similarity matrix (a cleaning session's or
            # the delta layer's maintained one), used without a copy. The
            # caller owns correctness of the values; the shape contract is
            # enforced here.
            sims_matrix = np.asarray(sims_matrix, dtype=np.float64)
            expected = (self.test_X.shape[0], int(rows.shape[0]))
            if sims_matrix.shape != expected:
                raise ValueError(
                    f"sims_matrix must have shape {expected}, got {sims_matrix.shape}"
                )
            self.sims_matrix = sims_matrix
        self._scans: list[ScanOrder | None] = [None] * self.n_points
        self._queries: list[PreparedQuery | None] = [None] * self.n_points

    def _pairwise_in_blocks(self, stacked: np.ndarray) -> np.ndarray:
        """The ``(T, P)`` similarity matrix, filled one row block at a time.

        Each block's ``pairwise`` call keeps its broadcast temporary under
        :data:`PAIRWISE_BLOCK_BYTES`. Every similarity is reduced over its
        own feature vector alone, so the blocks are bit-identical to one
        whole-matrix call.
        """
        n_points = self.n_points
        row_bytes = max(stacked.shape[0] * stacked.shape[1] * 8, 1)
        step = max(PAIRWISE_BLOCK_BYTES // row_bytes, 1)
        if step >= n_points:
            return self.kernel.pairwise(stacked, self.test_X)
        sims = np.empty((n_points, stacked.shape[0]))
        for r0 in range(0, n_points, step):
            sims[r0 : r0 + step] = self.kernel.pairwise(
                stacked, self.test_X[r0 : r0 + step]
            )
        return sims

    @property
    def n_points(self) -> int:
        """Number of test points in the batch."""
        return int(self.test_X.shape[0])

    def fingerprint(self) -> str:
        """The underlying dataset's content fingerprint (cache-key component)."""
        return self.dataset.fingerprint()

    # ------------------------------------------------------------------
    def scan(self, index: int) -> ScanOrder:
        """The scan order of test point ``index`` (built lazily, cached).

        Identical to ``compute_scan_order(dataset, test_X[index], kernel)``
        — same similarities, same tie-break — but sorted from the shared
        similarity matrix instead of recomputing distances.
        """
        scan = self._scans[index]
        if scan is None:
            scan = _scan_from_sims(
                self.sims_matrix[index], self._rows, self._cands, self._labels, self._counts
            )
            self._scans[index] = scan
        return scan

    def materialize_scans(self, indices: Sequence[int] | None = None) -> None:
        """Build (and cache) scan orders ahead of a fork.

        Forked pool workers inherit this object copy-on-write, so anything
        they should *share* must exist before the fork — a scan built
        inside a worker would be recomputed per process.
        """
        for index in range(self.n_points) if indices is None else indices:
            self.scan(index)

    def row_sims(self, index: int) -> list[np.ndarray]:
        """Per-row candidate similarities of one point, in candidate order.

        Views into the shared similarity matrix (the layout MinMax checks
        need); no per-point recomputation.
        """
        return np.split(self.sims_matrix[index], self._offsets[1:-1])

    def query(self, index: int) -> PreparedQuery:
        """A :class:`PreparedQuery` for test point ``index`` (cached).

        The instance is indistinguishable from
        ``PreparedQuery(dataset, test_X[index], k, kernel)`` but is built
        from the shared prepared state, skipping the per-point similarity
        pass entirely.
        """
        query = self._queries[index]
        if query is None:
            query = PreparedQuery(
                self.dataset,
                self.test_X[index],
                k=self.k,
                kernel=self.kernel,
                scan=self.scan(index),
                row_sims=self.row_sims(index),
            )
            self._queries[index] = query
        return query

    def queries(self) -> list[PreparedQuery]:
        """All per-point prepared queries (building any not yet materialised)."""
        return [self.query(index) for index in range(self.n_points)]


# ---------------------------------------------------------------------------
# Cache-key helpers
# ---------------------------------------------------------------------------


def kernel_cache_key(kernel: Kernel) -> str:
    """A cache-key component identifying the kernel *by value*.

    The key always includes the kernel's concrete class (a subclass that
    merely inherits its parent's parameterised ``__repr__`` must not alias
    the parent's entries — it may compute different similarities). The
    built-in kernels have deterministic value-based reprs
    (``RBFKernel(gamma=2.0)``), so two equal-parameter instances share a
    key. A user-defined kernel that keeps ``object.__repr__`` would be
    keyed by its memory address — and a recycled address could alias two
    different kernels into one cache entry — so such kernels get a
    process-unique token instead: caching still works within one
    call, but entries are never shared across kernel instances.

    The contract for custom kernels that *do* define ``__repr__``: the
    repr must encode every parameter that changes the similarity values
    (as the built-ins do). Two kernels of the same class whose reprs are
    equal are treated as interchangeable by any shared cache.
    """
    cls = type(kernel)
    identity = f"{cls.__module__}.{cls.__qualname__}"
    if cls.__repr__ is object.__repr__:
        return f"{identity}#{uuid.uuid4().hex}"
    return f"{identity}:{kernel!r}"
