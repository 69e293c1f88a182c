"""Candidate-row partitioning and consistent-hash placement for the gateway.

The partitioned serving topology (:mod:`repro.service.gateway`) splits a
dataset's *rows* — and with them their candidate sets — across executor
processes. This module is the layout layer underneath it:

* :func:`plan_row_partitions` cuts ``n_rows`` into contiguous, balanced
  :class:`RowPartition` spans. Contiguity is what makes the merge at the
  gateway exact: concatenating per-partition results in partition order
  restores the global stacked-candidate order bit for bit (the kernels
  compute every candidate's similarity from that candidate's features
  alone, so slicing rows never changes a value — the same argument the
  batch backend's row blocks rely on).
* :class:`HashRing` is a consistent-hash ring (hashlib-backed — Python's
  ``hash()`` is salted per process and useless for stable placement) with
  virtual nodes, plus a *bounded-load* assignment: each partition goes to
  the live node owning its hash point, skipping nodes already at capacity
  ``ceil(n_keys / n_nodes)``. Placement is deterministic across gateway
  restarts and moves only the dead node's partitions when membership
  changes, while staying balanced enough that one executor can never own
  more than its fair share (which the ≥2x throughput bar depends on).
* :func:`merge_minmax_tallies` / :func:`merge_sim_blocks` are the
  gather-side merges, both thin and both lossless: tallies concatenate
  per-row extremes of disjoint row spans (the per-span extremes were
  folded with the associative min/max algebra of
  :func:`repro.core.minmax.merge_minmax_block`); similarity blocks
  concatenate disjoint stacked-candidate spans.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.utils.validation import check_positive_int

__all__ = [
    "RowPartition",
    "plan_row_partitions",
    "HashRing",
    "merge_minmax_tallies",
    "merge_sim_blocks",
]


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


def _hash_point(token: str) -> int:
    """A stable 64-bit ring position for ``token`` (md5; never ``hash()``)."""
    return int.from_bytes(hashlib.md5(token.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """A consistent-hash ring over executor ids, with virtual nodes.

    ``replicas`` virtual points per node smooth the arc lengths; lookups
    walk clockwise from the key's hash point. :meth:`assign` adds the
    bounded-load rule (skip nodes at capacity), which keeps the placement
    both consistent — removing a node only re-homes keys it owned — and
    balanced — no node exceeds ``ceil(n_keys / n_nodes)`` assignments.
    """

    def __init__(self, nodes: Sequence[int | str], replicas: int = 64) -> None:
        nodes = list(nodes)
        if not nodes:
            raise ValueError("HashRing needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise ValueError(f"duplicate nodes in {nodes!r}")
        self.replicas = check_positive_int(replicas, "replicas")
        self.nodes = tuple(nodes)
        points = []
        for node in nodes:
            for replica in range(self.replicas):
                points.append((_hash_point(f"{node}#{replica}"), node))
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [node for _, node in points]

    def node_for(self, key: str) -> int | str:
        """The node owning ``key``'s hash point (clockwise successor)."""
        where = bisect.bisect_right(self._points, _hash_point(key))
        return self._owners[where % len(self._owners)]

    def preference(self, key: str) -> list[int | str]:
        """Every node, ordered by the clockwise walk from ``key``'s point.

        The first entry is :meth:`node_for`; later entries are the
        fallbacks :meth:`assign` spills to when earlier ones are full.
        """
        where = bisect.bisect_right(self._points, _hash_point(key))
        seen: list[int | str] = []
        for step in range(len(self._owners)):
            node = self._owners[(where + step) % len(self._owners)]
            if node not in seen:
                seen.append(node)
                if len(seen) == len(self.nodes):
                    break
        return seen

    def assign(self, keys: Iterable[str]) -> dict[str, int | str]:
        """Bounded-load consistent assignment of every key to a node."""
        keys = list(keys)
        capacity = -(-len(keys) // len(self.nodes)) if keys else 0
        loads: dict[int | str, int] = {node: 0 for node in self.nodes}
        assignment: dict[str, int | str] = {}
        for key in keys:
            for node in self.preference(key):
                if loads[node] < capacity:
                    assignment[key] = node
                    loads[node] += 1
                    break
        return assignment


def merge_minmax_tallies(
    tallies: Sequence[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Merge per-partition ``(mins, maxs)`` tallies into full-width tallies.

    Each entry covers one partition's row span ``(n_points,
    partition.n_rows)``; entries must arrive in partition order. Spans are
    disjoint, so the merge is plain concatenation — the per-row extremes
    themselves were already folded exactly (associative min/max) inside
    each executor.
    """
    if not tallies:
        raise ValueError("no tallies to merge")
    mins = np.concatenate([lo for lo, _ in tallies], axis=1)
    maxs = np.concatenate([hi for _, hi in tallies], axis=1)
    return mins, maxs


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
