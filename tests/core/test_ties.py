"""Exact similarity ties: every engine must implement one total order.

The paper waves ties away ("we can always break a tie by favoring a smaller
i and j"); the library commits to that exact rule. These tests hammer the
degenerate configurations where *many* candidates are equidistant from the
test point — duplicated candidates within a row, identical rows, whole
datasets collapsed onto one point — and require all Q2 backends, MM, the
prepared-query path and brute force to agree bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bruteforce import brute_force_counts
from repro.core.dataset import IncompleteDataset
from repro.core.engine import sortscan_counts
from repro.core.minmax import minmax_check
from repro.core.multiclass import sortscan_counts_multiclass
from repro.core.prepared import PreparedQuery
from repro.core.queries import q2_counts
from repro.core.sortscan import sortscan_counts_naive
from repro.core.sortscan_tree import sortscan_counts_tree
from repro.core.topk_prob import (
    topk_inclusion_counts,
    topk_inclusion_counts_bruteforce,
)

#: Every Q2 engine, plus the planned front door that serves queries.
ENGINES = {
    "q2_counts": q2_counts,
    "engine": sortscan_counts,
    "tree": sortscan_counts_tree,
    "multiclass": sortscan_counts_multiclass,
    "naive": sortscan_counts_naive,
}


def assert_all_engines_agree(dataset: IncompleteDataset, t: np.ndarray, k: int) -> list[int]:
    reference = brute_force_counts(dataset, t, k=k)
    for name, engine in ENGINES.items():
        counts = engine(dataset, t, k=k)
        assert counts == reference, f"{name} disagrees with brute force under ties"
    return reference


class TestDegenerateGeometry:
    def test_all_candidates_identical(self) -> None:
        # Every candidate of every row sits exactly at t.
        sets = [np.zeros((2, 2)) for _ in range(4)]
        dataset = IncompleteDataset(sets, [0, 1, 0, 1])
        counts = assert_all_engines_agree(dataset, np.zeros(2), k=3)
        assert sum(counts) == dataset.n_worlds() == 16

    def test_duplicate_candidates_within_rows(self) -> None:
        row = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        dataset = IncompleteDataset([row, row.copy(), np.array([[2.0, 0.0]])], [0, 1, 1])
        counts = assert_all_engines_agree(dataset, np.zeros(2), k=1)
        assert sum(counts) == 9

    def test_two_rows_equidistant_opposite_sides(self) -> None:
        # x = -1 and x = +1 are equally similar to t = 0; the row-index
        # tie-break decides the 1-NN deterministically.
        dataset = IncompleteDataset(
            [np.array([[-1.0]]), np.array([[1.0]])], [0, 1]
        )
        counts = assert_all_engines_agree(dataset, np.array([0.0]), k=1)
        assert counts == [1, 0]  # smaller row index wins the tie

    def test_mixed_ties_and_distinct_values(self) -> None:
        dataset = IncompleteDataset(
            [
                np.array([[1.0], [1.0]]),   # internal duplicate
                np.array([[1.0], [3.0]]),   # ties row 0 in one candidate
                np.array([[2.0]]),
            ],
            [0, 1, 1],
        )
        assert_all_engines_agree(dataset, np.array([0.0]), k=2)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=9999),
        k=st.integers(min_value=1, max_value=3),
        n_labels=st.integers(min_value=2, max_value=3),
    )
    def test_random_grid_datasets(self, seed: int, k: int, n_labels: int) -> None:
        # Candidates snapped to a 3-value grid: ties everywhere.
        rng = np.random.default_rng(seed)
        n_rows = int(rng.integers(max(3, n_labels), 6))
        sets = [
            rng.choice([0.0, 1.0, 2.0], size=(int(rng.integers(1, 4)), 1))
            for _ in range(n_rows)
        ]
        labels = rng.integers(0, n_labels, size=n_rows)
        labels[:n_labels] = np.arange(n_labels)
        dataset = IncompleteDataset(sets, labels)
        assert_all_engines_agree(dataset, np.array([1.0]), k=k)


class TestTiesAcrossQueryPaths:
    def test_prepared_query_matches_under_ties(self) -> None:
        sets = [np.array([[1.0], [1.0]]), np.array([[1.0]]), np.array([[1.0], [2.0]])]
        dataset = IncompleteDataset(sets, [0, 1, 1])
        t = np.array([0.0])
        assert PreparedQuery(dataset, t, k=2).counts() == brute_force_counts(dataset, t, k=2)

    def test_prepared_fixing_matches_under_ties(self) -> None:
        sets = [np.array([[1.0], [1.0]]), np.array([[1.0]]), np.array([[1.0], [2.0]])]
        dataset = IncompleteDataset(sets, [0, 1, 1])
        t = np.array([0.0])
        query = PreparedQuery(dataset, t, k=2)
        for cand, variant in enumerate(query.counts_per_fixing(0)):
            fixed = dataset.restrict_row(0, cand)
            assert variant == brute_force_counts(fixed, t, k=2)

    def test_minmax_matches_counting_under_ties(self) -> None:
        sets = [np.zeros((2, 1)) for _ in range(4)]
        dataset = IncompleteDataset(sets, [0, 1, 0, 1])
        t = np.zeros(1)
        counts = q2_counts(dataset, t, k=3)
        total = sum(counts)
        for label in range(2):
            assert minmax_check(dataset, t, label, k=3) == (counts[label] == total)

    def test_topk_membership_under_ties(self) -> None:
        sets = [np.zeros((2, 1)), np.zeros((1, 1)), np.array([[0.0], [1.0]])]
        dataset = IncompleteDataset(sets, [0, 1, 1])
        t = np.zeros(1)
        fast = topk_inclusion_counts(dataset, t, k=2)
        oracle = topk_inclusion_counts_bruteforce(dataset, t, k=2)
        assert fast == oracle


class TestTieBreakDeterminism:
    def test_counts_stable_across_repeated_calls(self) -> None:
        sets = [np.ones((3, 1)) for _ in range(3)]
        dataset = IncompleteDataset(sets, [0, 1, 0])
        t = np.zeros(1)
        first = q2_counts(dataset, t, k=1)
        for _ in range(3):
            assert q2_counts(dataset, t, k=1) == first

    def test_relabelling_rows_moves_the_tie(self) -> None:
        # With everything tied, the 1-NN is always row 0 — whatever its label.
        sets = [np.ones((1, 1)), np.ones((1, 1))]
        a = IncompleteDataset(sets, [0, 1])
        b = IncompleteDataset(sets, [1, 0])
        t = np.zeros(1)
        assert q2_counts(a, t, k=1) == [1, 0]
        assert q2_counts(b, t, k=1) == [0, 1]
