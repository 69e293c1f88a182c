"""Seeded random CP-query cases shared by the differential harnesses.

Extracted from ``tests/core/test_backend_differential.py`` so the planner
harness and the update-sequence harness draw from one generator. Every
function is a pure function of its inputs — the same seed always builds
the same case, so a failure report's seed replays it exactly.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from repro.core.bruteforce import brute_force_counts
from repro.core.dataset import IncompleteDataset
from repro.core.label_uncertainty import (
    LabelUncertainDataset,
    label_uncertain_counts_bruteforce,
)
from repro.core import batch_engine, planner
from repro.core.planner import make_query

__all__ = [
    "BACKENDS",
    "BLOCK_CONFIGS",
    "KERNELS",
    "SEEDS",
    "FLAVOR_CYCLE",
    "random_dataset",
    "random_pins",
    "random_weights",
    "random_case",
    "set_block_rows",
]

#: The backends the harness differentiates (a capability-filtered subset
#: runs per query). Order matters only for error messages.
BACKENDS = ("sequential", "batch", "incremental")

#: Test points per ``batch`` row block: one point, three points, or the
#: whole matrix in one block (see :func:`set_block_rows`).
BLOCK_CONFIGS = (1, 3, None)

#: Every built-in kernel, by its registry name.
KERNELS = ("euclidean", "rbf", "linear", "cosine")

SEEDS = list(range(20))

#: Flavor cycles with the seed so every flavor is guaranteed coverage in
#: any contiguous seed range of length >= 5; everything else is random.
FLAVOR_CYCLE = ("binary", "multiclass", "weighted", "topk", "label_uncertainty")


def random_dataset(rng: np.random.Generator, n_labels: int) -> IncompleteDataset:
    n_rows = int(rng.integers(4, 8))
    sets = [rng.normal(size=(int(rng.integers(1, 4)), 2)) for _ in range(n_rows)]
    labels = [int(label) for label in rng.integers(0, n_labels, size=n_rows)]
    labels[0] = 0  # the label space is exactly as declared
    labels[1] = n_labels - 1
    return IncompleteDataset(sets, labels)


def random_pins(rng: np.random.Generator, dataset: IncompleteDataset) -> dict[int, int]:
    counts = dataset.candidate_counts()
    dirty = dataset.uncertain_rows()
    n_pins = int(rng.integers(0, len(dirty) + 1)) if dirty else 0
    chosen = rng.permutation(dirty)[:n_pins] if n_pins else []
    return {int(row): int(rng.integers(0, counts[int(row)])) for row in chosen}


def random_weights(
    rng: np.random.Generator, dataset: IncompleteDataset
) -> list[list[Fraction]]:
    weights = []
    for m in dataset.candidate_counts():
        raw = [Fraction(int(rng.integers(1, 6))) for _ in range(int(m))]
        total = sum(raw)
        weights.append([w / total for w in raw])
    return weights


def set_block_rows(monkeypatch, query, rows: int | None) -> None:
    """Size the ``batch`` backend's two row blocks to ``rows`` test points.

    Monkeypatches :data:`repro.core.planner.DENSE_BLOCK_BYTES` (the dense
    matrix per executed block) and
    :data:`repro.core.batch_engine.PAIRWISE_BLOCK_BYTES` (the kernel
    temporary per ``pairwise`` call); ``None`` makes both hold the whole
    query in one block.
    """
    n_candidates = int(np.sum(query.dataset.candidate_counts()))
    n_features = query.dataset.n_features
    if rows is None:
        rows = max(query.n_points, 1)
    monkeypatch.setattr(planner, "DENSE_BLOCK_BYTES", rows * n_candidates * 8)
    monkeypatch.setattr(
        batch_engine, "PAIRWISE_BLOCK_BYTES", rows * n_candidates * n_features * 8
    )


def random_case(
    seed: int,
    kernel: str = "euclidean",
    flavor: str | None = None,
    kind: str | None = None,
    pinned: bool | None = None,
    n_points: int | None = None,
):
    """One seeded random query: ``(query, oracle_or_None, description)``.

    The keyword overrides fix one dimension of the case (the flavor, the
    kind, whether it carries pins, how many test points) while the seed
    still draws everything else; ``pinned=True`` pins at least one row.
    """
    rng = np.random.default_rng(seed)
    flavor = flavor or FLAVOR_CYCLE[seed % len(FLAVOR_CYCLE)]
    n_labels = 2 if flavor in ("binary", "weighted") else int(rng.integers(2, 4))
    dataset = random_dataset(rng, n_labels)
    k = int(rng.integers(1, min(4, dataset.n_rows) + 1))
    drawn_points = int(rng.integers(1, 4))
    test_X = rng.normal(size=(n_points or drawn_points, 2))
    pins = random_pins(rng, dataset)
    if pinned is False:
        pins = {}
    elif pinned and not pins:
        dirty = dataset.uncertain_rows()
        if not dirty:
            raise ValueError(f"seed={seed} draws no dirty row to pin")
        pins = {int(dirty[0]): 0}
    drawn_kind = "counts" if flavor == "topk" else str(
        rng.choice(["counts", "certain_label", "check"])
    )
    kind = kind or drawn_kind
    label = int(rng.integers(0, n_labels)) if kind == "check" else None
    kwargs = dict(kind=kind, flavor=flavor, k=k, pins=pins, label=label, kernel=kernel)

    oracle = None
    if flavor in ("binary", "multiclass"):
        query = make_query(dataset, test_X, **kwargs)
        if kind == "counts":
            restricted = dataset
            for row, cand in pins.items():
                restricted = restricted.restrict_row(row, cand)
            oracle = [
                brute_force_counts(restricted, t, k=k, kernel=kernel) for t in test_X
            ]
    elif flavor == "weighted":
        kwargs["weights"] = random_weights(rng, dataset)
        query = make_query(dataset, test_X, **kwargs)
    elif flavor == "topk":
        query = make_query(
            dataset, test_X, kind="counts", flavor="topk", k=k, pins=pins, kernel=kernel
        )
    else:
        flip_rows = [
            int(row)
            for row in rng.permutation(dataset.n_rows)[: int(rng.integers(1, 3))]
        ]
        lu = LabelUncertainDataset.from_incomplete(dataset, flip_rows=flip_rows)
        query = make_query(lu, test_X, **kwargs)
        if kind == "counts":
            restricted = lu
            for row, cand in pins.items():
                restricted = restricted.restrict_row(row, cand)
            oracle = [
                label_uncertain_counts_bruteforce(restricted, t, k=k, kernel=kernel)
                for t in test_X
            ]
    description = (
        f"seed={seed} flavor={flavor} kind={kind} k={k} pins={pins} kernel={kernel}"
    )
    return query, oracle, description
