"""Partitioned (gateway) execution must be bit-identical to local.

The gateway slices candidate rows across executor processes, computes
per-partition similarity blocks remotely, and merges them; this harness holds that
whole pipeline to the repo's certification standard. For the seeded
random queries of :mod:`tests.fuzz.cp_cases` — all five flavors, every
kind, pins, exact-``Fraction`` weights — and for random delta sequences
that force redistribution, :meth:`Gateway.execute_query` must return
values equal (with ``==``, exact types) to a direct
:func:`~repro.core.planner.execute_query` call on ``batch`` and to the
unpruned ``sequential`` reference, with the gateway's ``stats["prune"]``
reporting exactly whether a pruning pass ran (as the local ``batch``
backend it counts through does).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.core.deltas import CellRepair, RowAppend, RowDelete, apply_delta_to_dataset
from repro.core.planner import (
    ExecutionOptions,
    _minmax_decides,
    execute_query,
    make_query,
)
from repro.service.gateway import Gateway
from tests.fuzz.cp_cases import FLAVOR_CYCLE, SEEDS, random_case


@pytest.fixture(scope="module")
def gateway():
    with Gateway(2, timeout_s=30.0) as gw:
        yield gw


@pytest.fixture(scope="module", params=(1, 3), ids=("one-executor", "three-executors"))
def other_gateway(request):
    """Row spans other than the two-executor default: one span, so nothing
    to merge, and three spans, uneven on most of the 4-7 row datasets."""
    with Gateway(request.param, timeout_s=30.0) as gw:
        yield gw


def _assert_same_values(gathered, local, where: str) -> None:
    assert gathered == local, f"gateway diverged from local execution: {where}"
    for got, want in zip(gathered, local):
        assert type(got) is type(want), (
            f"type drift ({type(got).__name__} vs {type(want).__name__}): {where}"
        )


def _check_against_local(gateway, seed: int) -> None:
    query, _oracle, where = random_case(seed)
    options = ExecutionOptions(cache=False)
    local = execute_query(query, backend="batch", options=options)
    gathered = gateway.execute_query(f"fuzz-{seed}", query, options=options)
    where = f"{where} n_executors={gateway.n_executors}"
    assert gathered.plan.backend == "gateway"
    assert gathered.stats["n_partitions"] == min(gateway.n_executors, query.dataset.n_rows)
    _assert_same_values(gathered.values, local.values, where)
    reference = execute_query(query, backend="sequential", options=options)
    _assert_same_values(gathered.values, reference.values, where)
    # Pruning is reported exactly when a pass ran: never on a MinMax
    # decision, and otherwise as the local batch run reports.
    assert gathered.stats["prune"] is local.stats["prune"], where
    assert gathered.stats["prune"] is not _minmax_decides(query), where
    if gathered.stats["prune"]:
        assert gathered.stats["n_rows"] == local.stats["n_rows"], where
        assert gathered.stats["n_rows_pruned"] == local.stats["n_rows_pruned"], where


class TestGatewayDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_partitioned_values_match_local(self, gateway, seed):
        _check_against_local(gateway, seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_other_partition_counts_match_local(self, other_gateway, seed):
        _check_against_local(other_gateway, seed)

    def test_seeds_cover_every_flavor(self):
        assert {random_case(seed)[0].flavor for seed in SEEDS} == set(FLAVOR_CYCLE)


class TestDeltasForceExactRedistribution:
    """Same dataset name, new fingerprint → re-partition, still exact."""

    @pytest.mark.parametrize("seed", range(5))
    def test_delta_sequence_stays_bit_identical(self, gateway, seed):
        rng = np.random.default_rng(7000 + seed)
        query, _oracle, _description = random_case(seed * 5)  # binary seed family
        dataset = query.dataset
        test_X = rng.normal(size=(2, 2))
        k = 2
        name = f"delta-{seed}"
        for step in range(4):
            if dataset.uncertain_rows() and step % 2 == 0:
                dirty = dataset.uncertain_rows()
                row = int(dirty[int(rng.integers(0, len(dirty)))])
                cand = int(rng.integers(0, dataset.candidate_counts()[row]))
                delta = CellRepair(row, cand)
            elif step == 1:
                delta = RowAppend(rng.normal(size=(2, 2)), 0)
            else:
                delta = RowDelete(int(rng.integers(0, dataset.n_rows)))
            dataset = apply_delta_to_dataset(dataset, delta)
            q = make_query(dataset, test_X, kind="counts", k=min(k, dataset.n_rows))
            local = execute_query(q, options=ExecutionOptions(cache=False))
            gathered = gateway.execute_query(name, q)
            where = f"seed={seed} step={step} delta={type(delta).__name__}"
            _assert_same_values(gathered.values, local.values, where)
            described = gateway.describe_dataset(name)
            assert described["fingerprint"] == dataset.fingerprint(), (
                f"gateway kept serving a stale distribution: {where}"
            )


class TestWeightedFractionsSurviveTheMerge:
    def test_weighted_probabilities_are_exact_fractions(self, gateway):
        rng = np.random.default_rng(99)
        sets = [rng.normal(size=(m, 2)) for m in (2, 3, 1, 2, 2)]
        dataset_labels = [0, 1, 0, 1, 1]
        from repro.core.dataset import IncompleteDataset

        dataset = IncompleteDataset(sets, dataset_labels)
        weights = []
        for m in dataset.candidate_counts():
            raw = [Fraction(int(rng.integers(1, 5))) for _ in range(int(m))]
            total = sum(raw)
            weights.append([w / total for w in raw])
        query = make_query(
            dataset,
            rng.normal(size=(3, 2)),
            kind="counts",
            flavor="weighted",
            k=2,
            weights=weights,
        )
        local = execute_query(query, options=ExecutionOptions(cache=False))
        gathered = gateway.execute_query("fractions", query)
        _assert_same_values(gathered.values, local.values, "weighted fractions")
