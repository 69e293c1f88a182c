"""Candidate-row partitioning for the gateway: one span per executor.

The partitioned serving topology (:mod:`repro.service.gateway`) splits a
dataset's *rows* — and with them their candidate sets — across executor
processes. This module is the layout layer underneath it:

* :func:`plan_row_partitions` cuts ``n_rows`` into contiguous, balanced
  :class:`RowPartition` spans, one per executor: partition ``i`` lives on
  executor ``i``. The executor set is fixed at start-up, so placement
  needs no ring and never moves. Contiguity is what makes the merge at
  the gateway exact: concatenating per-partition results in partition
  order restores the global stacked-candidate order bit for bit (the
  kernels compute every candidate's similarity from that candidate's
  features alone, so slicing rows never changes a value — the same
  argument the batch backend's row blocks rely on).
* :func:`merge_sim_blocks` is the gather-side merge: similarity blocks of
  disjoint stacked-candidate spans, concatenated losslessly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.utils.validation import check_positive_int

__all__ = ["RowPartition", "plan_row_partitions", "merge_sim_blocks"]


@dataclass(frozen=True)
class RowPartition:
    """One contiguous span of dataset rows owned by a single executor."""

    index: int
    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"partition index must be >= 0, got {self.index}")
        if not 0 <= self.start < self.stop:
            raise ValueError(
                f"partition span [{self.start}, {self.stop}) must be non-empty"
            )

    @property
    def n_rows(self) -> int:
        return self.stop - self.start


def plan_row_partitions(n_rows: int, n_partitions: int) -> tuple[RowPartition, ...]:
    """Cut ``n_rows`` into at most ``n_partitions`` contiguous balanced spans.

    Sizes differ by at most one row (the first ``n_rows % n_partitions``
    spans take the extra); more partitions than rows collapse to one span
    per row, so every returned partition is non-empty. The spans cover
    ``[0, n_rows)`` exactly, in order — the contract the gateway's
    concatenation merge relies on.
    """
    n_rows = check_positive_int(n_rows, "n_rows")
    n_partitions = min(check_positive_int(n_partitions, "n_partitions"), n_rows)
    base, extra = divmod(n_rows, n_partitions)
    partitions = []
    start = 0
    for index in range(n_partitions):
        size = base + (1 if index < extra else 0)
        partitions.append(RowPartition(index=index, start=start, stop=start + size))
        start += size
    return tuple(partitions)


def merge_sim_blocks(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Merge per-partition similarity blocks into the full ``(T, P)`` matrix.

    Blocks cover disjoint, contiguous stacked-candidate spans in partition
    order, so horizontal concatenation restores the exact global stacked
    order — every similarity is the very float the single-process kernel
    call would have produced for that candidate.
    """
    if not blocks:
        raise ValueError("no similarity blocks to merge")
    return np.concatenate(blocks, axis=1)
