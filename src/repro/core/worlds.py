"""Possible-world enumeration and sampling (paper §2, Definition 2).

The set of possible worlds ``I_D`` of an incomplete dataset ``D`` contains
one complete dataset per way of choosing a candidate for every row. The
brute-force oracle iterates over all of them; the samplers support
randomised tests.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

import numpy as np

from repro.core.dataset import IncompleteDataset
from repro.utils.rng import ensure_rng

__all__ = [
    "iter_world_choices",
    "iter_worlds",
    "sample_world_choice",
    "sample_worlds",
    "count_worlds",
]

#: Safety cap for exhaustive enumeration; callers may override explicitly.
DEFAULT_MAX_WORLDS = 2_000_000


def count_worlds(dataset: IncompleteDataset) -> int:
    """Exact number of possible worlds ``|I_D|`` as a Python big int."""
    return dataset.n_worlds()


def iter_world_choices(
    dataset: IncompleteDataset, max_worlds: int = DEFAULT_MAX_WORLDS
) -> Iterator[tuple[int, ...]]:
    """Yield every candidate-choice tuple ``(j_1, ..., j_N)`` of ``dataset``.

    Raises ``ValueError`` when the number of worlds exceeds ``max_worlds`` so
    an accidental exponential enumeration fails fast instead of hanging.
    """
    total = dataset.n_worlds()
    if total > max_worlds:
        raise ValueError(
            f"dataset has {total} possible worlds which exceeds max_worlds={max_worlds}; "
            "use the polynomial-time SS/MM algorithms instead of enumeration"
        )
    ranges = [range(int(m)) for m in dataset.candidate_counts()]
    yield from itertools.product(*ranges)


def iter_worlds(
    dataset: IncompleteDataset, max_worlds: int = DEFAULT_MAX_WORLDS
) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """Yield ``(choice, features)`` for every possible world."""
    for choice in iter_world_choices(dataset, max_worlds=max_worlds):
        yield choice, dataset.world(choice)


def sample_world_choice(
    dataset: IncompleteDataset, seed: int | np.random.Generator | None = None
) -> tuple[int, ...]:
    """Sample a uniformly random possible world's candidate choices."""
    rng = ensure_rng(seed)
    counts = dataset.candidate_counts()
    return tuple(int(rng.integers(0, m)) for m in counts)


def sample_worlds(
    dataset: IncompleteDataset,
    n_samples: int,
    seed: int | np.random.Generator | None = None,
) -> Iterator[np.ndarray]:
    """Yield ``n_samples`` feature matrices of uniformly sampled worlds."""
    if n_samples < 0:
        raise ValueError(f"n_samples must be non-negative, got {n_samples}")
    rng = ensure_rng(seed)
    for _ in range(n_samples):
        yield dataset.world(sample_world_choice(dataset, rng))
