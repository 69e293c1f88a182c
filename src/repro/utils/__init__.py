"""Shared utilities: RNG handling, argument validation, the LRU cache, tables,
timing."""

from repro.utils.lru import LRUCache
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.validation import (
    check_fraction,
    check_in_options,
    check_matrix,
    check_positive_int,
    check_vector,
)

__all__ = [
    "LRUCache",
    "ensure_rng",
    "spawn_rngs",
    "check_fraction",
    "check_in_options",
    "check_matrix",
    "check_positive_int",
    "check_vector",
]
