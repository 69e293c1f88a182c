"""Shared similarity/scan-order infrastructure for the SS-family algorithms.

Every SortScan variant starts the same way: compute the similarity of all
candidates to the test example and sort them in increasing similarity (paper
§3.1, "sort and scan"). This module computes that structure once so the
faithful Algorithm-1 implementation, the fast incremental engine, the SS-DC
tree and the CPClean entropy engine all share a single, consistent total
order.

The total order extends the tie-break of :mod:`repro.core.knn`: candidates
are ranked by ``(similarity, row index desc, candidate index desc)`` in scan
(ascending) direction, so that among equal similarities the candidate with
the *smaller* ``(row, candidate)`` pair counts as *more* similar — the
paper's "break a tie by favoring a smaller i and j".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.dataset import IncompleteDataset
from repro.core.kernels import Kernel, resolve_kernel
from repro.utils.validation import check_vector

__all__ = [
    "ScanOrder",
    "compute_scan_order",
    "compute_scan_orders",
    "candidate_similarities",
    "check_ranked",
]


def candidate_similarities(
    dataset: IncompleteDataset, t: np.ndarray, kernel: Kernel | str | None = None
) -> list[np.ndarray]:
    """Similarity of every candidate to ``t``; entry ``i`` has shape ``(m_i,)``."""
    kernel = resolve_kernel(kernel)
    t = check_vector(t, "t", length=dataset.n_features)
    return [kernel.similarities(dataset.candidates(i), t) for i in range(dataset.n_rows)]


@dataclass(frozen=True)
class ScanOrder:
    """All candidates of a dataset sorted by increasing similarity to ``t``.

    Attributes
    ----------
    rows:
        Row index of each candidate, in scan order (``(P,)`` where ``P`` is
        the total number of candidates).
    cands:
        Candidate index *within its row* of each candidate, in scan order.
    sims:
        Similarity values in scan order (non-decreasing).
    row_labels:
        Label of each dataset row (``(N,)``), cached here for the engines.
    row_counts:
        Candidate-set size ``m_i`` per row (``(N,)``).
    """

    rows: np.ndarray
    cands: np.ndarray
    sims: np.ndarray
    row_labels: np.ndarray
    row_counts: np.ndarray

    @property
    def n_candidates(self) -> int:
        return int(self.rows.shape[0])

    @property
    def n_rows(self) -> int:
        return int(self.row_counts.shape[0])


def check_ranked(sims: np.ndarray) -> None:
    """Raise ``ValueError`` if any similarity is NaN.

    A NaN similarity (an overflowing dot product gives ``inf - inf``)
    ranks nothing, so no nearest-neighbour answer exists. A sort would
    place it above every number, and an ``np.minimum`` envelope would
    spread it over its row, so each way of ranking it would pick a
    different answer; every scan build and every prune certificate
    refuses it instead.
    """
    if np.isnan(sims).any():
        raise ValueError(
            "a candidate similarity is NaN: the kernel gives no ranking, so "
            "no nearest-neighbour answer exists"
        )


def _scan_from_sims(
    sims: np.ndarray,
    rows: np.ndarray,
    cands: np.ndarray,
    labels: np.ndarray,
    counts: np.ndarray,
) -> ScanOrder:
    """Build a :class:`ScanOrder` from candidate-order similarities.

    Ascending similarity; among ties the larger (row, cand) pair comes
    first so the smaller pair is treated as more similar (it sits later in
    the scan). lexsort uses the last key as the primary key.
    """
    check_ranked(sims)
    order = np.lexsort((-cands, -rows, sims))
    return ScanOrder(
        rows=rows[order],
        cands=cands[order],
        sims=sims[order],
        row_labels=labels,
        row_counts=counts,
    )


def compute_scan_order(
    dataset: IncompleteDataset, t: np.ndarray, kernel: Kernel | str | None = None
) -> ScanOrder:
    """Sort all candidates of ``dataset`` by increasing similarity to ``t``.

    Cost is ``O(N M log(N M))`` — the sort term in the paper's complexity
    analysis of SS.
    """
    sims_per_row = candidate_similarities(dataset, t, kernel)
    layout = dataset.candidate_layout()
    sims = np.concatenate(sims_per_row)
    return _scan_from_sims(
        sims, layout.rows, layout.cands, dataset.labels.copy(), layout.counts
    )


def compute_scan_orders(
    dataset: IncompleteDataset,
    test_X: np.ndarray,
    kernel: Kernel | str | None = None,
) -> list[ScanOrder]:
    """Scan orders for a whole test matrix, with batched similarity computation.

    Produces exactly the same :class:`ScanOrder` per point as
    :func:`compute_scan_order` (same similarities, same tie-break), but the
    similarity matrix is computed in one vectorised
    :meth:`repro.core.kernels.Kernel.pairwise` call over the stacked
    candidate matrix instead of ``N`` kernel calls per test point. This is
    the standalone convenience form of the recipe; the batch engine's
    ``PreparedBatch`` uses the same underlying pieces (the dataset's
    :meth:`~repro.core.dataset.IncompleteDataset.candidate_layout` + the
    shared sort) directly because it also keeps the similarity matrix for
    MinMax checks and row similarities.
    """
    kernel = resolve_kernel(kernel)
    test_X = np.asarray(test_X, dtype=np.float64)
    layout = dataset.candidate_layout()
    sims_matrix = kernel.pairwise(layout.stacked, test_X)
    labels = dataset.labels.copy()
    return [
        _scan_from_sims(sims_matrix[i], layout.rows, layout.cands, labels, layout.counts)
        for i in range(test_X.shape[0])
    ]
