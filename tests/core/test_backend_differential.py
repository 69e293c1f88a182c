"""The differential property-test harness across every planner backend.

Seeded random :class:`~repro.core.planner.CPQuery` generation — random
datasets, kind × flavor × pins × weights × k, under every built-in kernel
— cross-checked across the ``sequential``, ``batch`` and ``incremental``
backends (whichever declare themselves capable) and, for the counting
flavors, against the brute-force world-enumeration oracle. The reference
is ``sequential``, which never prunes, so every pruned path (``batch`` and
``incremental`` always run the prune certificate) is checked against an
unpruned one. Any divergence
between two backends on any generated query is a bug in a certification
system, so the harness asserts **bit-identical** values, not approximate
ones.

The harness is deliberately adversarial for ``batch``'s memory bound:
every case also runs with the backend's row blocks shrunk to one test
point and to three, and the block matrix below covers every flavor × kind
with and without pins on queries large enough to split, so blocking
artefacts cannot hide behind a query that fits in one block.

The seeded case generators live in :mod:`fuzz.cp_cases`
(``tests/fuzz/cp_cases.py``), shared with the update-sequence harness.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from fuzz.cp_cases import (
    BACKENDS,
    BLOCK_CONFIGS,
    FLAVOR_CYCLE,
    KERNELS,
    SEEDS,
    random_case,
    set_block_rows,
)
from repro.core import batch_engine
from repro.core.kernels import resolve_kernel
from repro.core.planner import (
    BatchParallelBackend,
    ExecutionOptions,
    _minmax_decides,
    capable_backends,
    execute_query,
)

FLAVOR_KINDS = [
    (flavor, kind)
    for flavor in FLAVOR_CYCLE
    for kind in ("counts", "certain_label", "check")
    if flavor != "topk" or kind == "counts"
]


def _reference(query):
    """The unpruned ``sequential`` values: every other backend, pruned or
    not, is held to them."""
    return execute_query(
        query, backend="sequential", options=ExecutionOptions(cache=False)
    ).values


class TestDifferentialMatrix:
    """Every capable backend must agree bit for bit on every random query."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_backends_agree_and_match_oracle(self, seed, kernel, monkeypatch):
        query, oracle, description = random_case(seed, kernel=kernel)
        capable = [b.name for b in capable_backends(query) if b.name in BACKENDS]
        assert "sequential" in capable, description
        assert "batch" in capable, description

        reference = _reference(query)
        if oracle is not None:
            assert reference == oracle, f"sequential diverged from oracle: {description}"

        for name in capable:
            if name == "sequential":
                continue
            values = execute_query(
                query, backend=name, options=ExecutionOptions(cache=False)
            ).values
            assert values == reference, f"{name} diverged: {description}"
        for rows in BLOCK_CONFIGS[:-1]:
            with monkeypatch.context() as patch:
                set_block_rows(patch, query, rows)
                values = execute_query(
                    query, backend="batch", options=ExecutionOptions(cache=False)
                ).values
            assert values == reference, f"batch ({rows}-row blocks) diverged: {description}"

    @pytest.mark.parametrize("seed", SEEDS[:8])
    def test_cached_blocked_rerun_is_identical(self, seed, monkeypatch):
        """A second (cache-served) blocked run must replay the first exactly."""
        query, _, description = random_case(seed)
        set_block_rows(monkeypatch, query, 1)
        options = ExecutionOptions(cache=True)
        first = execute_query(query, backend="batch", options=options).values
        second = execute_query(query, backend="batch", options=options).values
        assert second == first == _reference(query), description

    def test_generator_covers_every_flavor_and_kind(self):
        """The seed range must actually exercise the whole query space."""
        flavors = set()
        kinds = set()
        pinned = 0
        for seed in SEEDS:
            query, _, _ = random_case(seed)
            flavors.add(query.flavor)
            kinds.add(query.kind)
            pinned += bool(query.pins)
        assert flavors == {"binary", "multiclass", "weighted", "topk", "label_uncertainty"}
        assert kinds == {"counts", "certain_label", "check"}
        assert pinned >= 5, "too few generated cases carry pins"


class TestRowBlocks:
    """``batch`` split into row blocks is bit-identical to ``sequential``."""

    N_POINTS = 7

    @pytest.mark.parametrize("rows", BLOCK_CONFIGS)
    @pytest.mark.parametrize("pinned", [False, True])
    @pytest.mark.parametrize("flavor,kind", FLAVOR_KINDS)
    def test_every_flavor_and_kind(self, flavor, kind, pinned, rows, monkeypatch):
        query, oracle, description = random_case(
            3, flavor=flavor, kind=kind, pinned=pinned, n_points=self.N_POINTS
        )
        assert bool(query.pins) == pinned, description
        reference = _reference(query)
        if oracle is not None:
            assert reference == oracle, description
        set_block_rows(monkeypatch, query, rows)
        for n_jobs in (1, 2):
            values = execute_query(
                query,
                backend="batch",
                options=ExecutionOptions(cache=False, n_jobs=n_jobs),
            ).values
            assert values == reference, f"{rows}-row blocks, n_jobs={n_jobs}: {description}"

    def test_handed_prepared_batch_is_not_split(self, monkeypatch):
        query, _, _ = random_case(2, flavor="binary", kind="counts", n_points=6)
        prepared = batch_engine.PreparedBatch(
            query.dataset, query.test_X, k=query.k, kernel=query.kernel
        )
        set_block_rows(monkeypatch, query, 1)
        backend = BatchParallelBackend()
        options = ExecutionOptions(cache=False, prepared=prepared)
        assert backend._row_blocks(query, options) == [query]
        assert len(backend._row_blocks(query, ExecutionOptions(cache=False))) == 6
        assert backend.execute(query, options)[0] == _reference(query)

    def test_pairwise_blocks_are_bit_identical(self, monkeypatch):
        query, _, _ = random_case(4, flavor="binary", kind="counts", n_points=7)
        whole = batch_engine.PreparedBatch(query.dataset, query.test_X, k=query.k)
        monkeypatch.setattr(batch_engine, "PAIRWISE_BLOCK_BYTES", 1)
        blocked = batch_engine.PreparedBatch(query.dataset, query.test_X, k=query.k)
        assert np.array_equal(blocked.sims_matrix, whole.sims_matrix)


class TestCertificateEdge:
    """The prune pass runs at every ``k``, also where it can prune little.

    A row is pruned only when ``k`` *other* rows dominate it, so at
    ``k == n_rows`` the certificate keeps every row, and at
    ``k == n_rows - 1`` only a row all others dominate goes.
    """

    @pytest.mark.parametrize("offset", (0, 1))
    @pytest.mark.parametrize("flavor,kind", FLAVOR_KINDS)
    def test_pruned_backends_match_sequential(self, flavor, kind, offset):
        for seed in range(8):
            query, _, description = random_case(seed, flavor=flavor, kind=kind)
            query = replace(query, k=query.dataset.n_rows - offset)
            reference = _reference(query)
            for backend in capable_backends(query):
                if backend.name not in ("batch", "incremental"):
                    continue
                result = execute_query(
                    query, backend=backend.name, options=ExecutionOptions(cache=False)
                )
                where = f"{backend.name} k={query.k}: {description}"
                assert result.values == reference, where
                # Only batch's two-label MinMax check builds no scan to prune.
                pruned = backend.name == "incremental" or not _minmax_decides(query)
                assert result.stats["prune"] is pruned, where
                if offset == 0:
                    assert result.stats.get("n_rows_pruned", 0) == 0, where


@pytest.mark.parametrize("name", KERNELS)
def test_stacked_and_per_row_similarities_are_bit_identical(name):
    """A candidate's similarity never depends on the matrix it sits in."""
    kernel = resolve_kernel(name)
    rng = np.random.default_rng(11)
    for n_features in (1, 2, 7, 13):
        sets = [rng.normal(size=(int(rng.integers(1, 6)), n_features)) for _ in range(60)]
        stacked = np.concatenate(sets)
        test_X = rng.normal(size=(5, n_features))
        pairwise = kernel.pairwise(stacked, test_X)
        for index, t in enumerate(test_X):
            per_row = np.concatenate([kernel.similarities(c, t) for c in sets])
            assert np.array_equal(per_row, kernel.similarities(stacked, t))
            assert np.array_equal(per_row, pairwise[index])
            fortran = kernel.similarities(np.asfortranarray(stacked), t)
            assert np.array_equal(per_row, fortran)
