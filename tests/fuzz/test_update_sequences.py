"""The fuzzed update-sequence differential harness.

The delta-maintenance layer (:mod:`repro.core.deltas` for CP tallies,
:meth:`repro.codd.vectorized.StackedTable.with_cell_fixed` for Codd
grids) promises O(Δ) updates whose results are **bit-identical** to a
full recompute — counts as Python big ints, weighted probabilities as
Fractions, Codd relations exact. This harness fuzzes that promise over
random *sequences* of writes, not single deltas:

* 30 seeded random interleavings of :class:`~repro.core.deltas.CellRepair`
  / :class:`~repro.core.deltas.RowAppend` /
  :class:`~repro.core.deltas.RowDelete` against a warm
  :class:`~repro.core.deltas.DeltaMaintainedState`; after **every** step
  the maintained similarities, counts and certain labels must equal a
  from-scratch recompute on the delta'd dataset, and every capable planner
  backend must return the same count vectors on the current dataset
  (including the batch backend fed the maintained
  :class:`~repro.core.batch_engine.PreparedBatch` — the warm-state handoff
  the service registry rides).
* seeded chains of single-cell Codd fixes; after every fix the surgically
  updated :class:`~repro.codd.vectorized.StackedTable` must be
  cell-for-cell identical to a freshly built grid, and the vectorized
  certain/possible answers over the updated grid must match the naive
  world-enumeration oracle exactly.

Kernels are restricted to ``euclidean`` and ``rbf``: their ``pairwise``
reduces only over the feature axis per element, so a similarity block
computed for an appended row alone is bit-identical to the corresponding
slice of a full pairwise — the property the maintained state relies on
(``linear``/``cosine`` go through BLAS reductions whose float ordering
may differ between block shapes).

The dataset/query generators are shared with the other differential
harnesses via :mod:`fuzz.cp_cases` and :mod:`fuzz.codd_cases`.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from fuzz.codd_cases import TYPE_POOLS, random_predicate, random_table
from fuzz.cp_cases import BACKENDS, random_dataset, random_weights
from repro.codd.algebra import Project, Scan, Select
from repro.codd.certain import certain_answers_naive, possible_answers_naive
from repro.codd.codd_table import Null
from repro.codd.vectorized import (
    StackedTable,
    certain_answers_vectorized,
    possible_answers_vectorized,
)
from repro.core.deltas import (
    CellRepair,
    DeltaMaintainedState,
    RowAppend,
    RowDelete,
    apply_delta_to_dataset,
)
from repro.core.planner import (
    ExecutionOptions,
    capable_backends,
    execute_query,
    make_query,
)

UPDATE_SEEDS = list(range(30))

#: Kernels whose pairwise is per-element deterministic (see module docs).
_KERNELS = ("euclidean", "rbf")


def random_update_sequence(seed: int):
    """One seeded random case: ``(dataset, test_X, k, kernel, deltas)``.

    The delta list is always *valid* for sequential application: repairs
    target currently-dirty rows, deletes respect ``k`` and never empty the
    dataset, appends occasionally grow the label space.
    """
    rng = np.random.default_rng(2000 + seed)
    n_labels = int(rng.integers(2, 4))
    dataset = random_dataset(rng, n_labels)
    kernel = _KERNELS[seed % len(_KERNELS)]
    k = int(rng.integers(1, 4))
    test_X = rng.normal(size=(int(rng.integers(2, 5)), 2))

    deltas = []
    current = dataset
    for _ in range(int(rng.integers(5, 9))):
        ops = ["append"]
        if current.uncertain_rows():
            ops += ["repair", "repair"]  # writes skew toward cleaning
        if current.n_rows > max(1, k):
            ops.append("delete")
        op = str(rng.choice(ops))
        if op == "repair":
            dirty = current.uncertain_rows()
            row = int(dirty[int(rng.integers(0, len(dirty)))])
            candidate = int(rng.integers(0, current.candidate_counts()[row]))
            delta = CellRepair(row, candidate)
        elif op == "append":
            m_new = int(rng.integers(1, 4))
            grow = int(rng.random() < 0.25)  # sometimes mint a new label
            label = int(rng.integers(0, current.n_labels)) if not grow else current.n_labels
            delta = RowAppend(rng.normal(size=(m_new, 2)), label)
        else:
            delta = RowDelete(int(rng.integers(0, current.n_rows)))
        deltas.append(delta)
        current = apply_delta_to_dataset(current, delta)
    return dataset, test_X, k, kernel, deltas


class TestMaintainedStateDifferential:
    """O(Δ) maintenance must be bit-identical to recompute after every step."""

    @pytest.mark.parametrize("seed", UPDATE_SEEDS)
    def test_counts_match_full_recompute_after_every_step(self, seed):
        dataset, test_X, k, kernel, deltas = random_update_sequence(seed)
        state = DeltaMaintainedState(dataset, test_X, k=k, kernel=kernel)
        current = dataset
        for step, delta in enumerate(deltas):
            report = state.apply(delta)
            current = apply_delta_to_dataset(current, delta)
            fresh = DeltaMaintainedState(current, test_X, k=k, kernel=kernel)
            where = f"seed={seed} step={step} op={report['op']} row={report['row']}"
            assert state.dataset.fingerprint() == current.fingerprint(), where
            assert np.array_equal(state.sims_matrix(), fresh.sims_matrix()), (
                f"maintained similarities diverged: {where}"
            )
            assert state.counts_all() == fresh.counts_all(), (
                f"maintained counts diverged: {where}"
            )
            assert state.certain_labels() == fresh.certain_labels(), (
                f"maintained certain labels diverged: {where}"
            )

    @pytest.mark.parametrize("seed", UPDATE_SEEDS)
    def test_every_backend_agrees_after_every_step(self, seed):
        """The maintained counts equal what every planner backend computes
        from scratch on the current dataset — including the batch backend
        handed the maintained PreparedBatch (the registry's warm path)."""
        dataset, test_X, k, kernel, deltas = random_update_sequence(seed)
        state = DeltaMaintainedState(dataset, test_X, k=k, kernel=kernel)
        current = dataset
        for step, delta in enumerate(deltas):
            state.apply(delta)
            current = apply_delta_to_dataset(current, delta)
            expected = state.counts_all()
            query = make_query(current, test_X, kind="counts", k=k, kernel=kernel)
            capable = [b.name for b in capable_backends(query) if b.name in BACKENDS]
            assert "sequential" in capable
            for name in capable:
                values = execute_query(
                    query, backend=name, options=ExecutionOptions(cache=False)
                ).values
                assert values == expected, (
                    f"{name} diverged from maintained counts: seed={seed} step={step}"
                )
            warm = execute_query(
                query,
                backend="batch",
                options=ExecutionOptions(cache=False, prepared=state.prepared_batch()),
            ).values
            assert warm == expected, (
                f"batch over the maintained PreparedBatch diverged: "
                f"seed={seed} step={step}"
            )

    @pytest.mark.parametrize("seed", UPDATE_SEEDS[::3])
    def test_weighted_probabilities_exact_after_updates(self, seed):
        """Weighted queries over the maintained PreparedBatch return the
        same Fractions as a cold run — probabilities survive the warm
        handoff exactly, not approximately."""
        dataset, test_X, k, kernel, deltas = random_update_sequence(seed)
        state = DeltaMaintainedState(dataset, test_X, k=k, kernel=kernel)
        for delta in deltas:
            state.apply(delta)
        current = state.dataset
        weights = random_weights(np.random.default_rng(9000 + seed), current)
        query = make_query(
            current, test_X, kind="counts", flavor="weighted",
            k=k, kernel=kernel, weights=weights,
        )
        cold = execute_query(
            query, backend="sequential", options=ExecutionOptions(cache=False)
        ).values
        warm = execute_query(
            query,
            backend="batch",
            options=ExecutionOptions(cache=False, prepared=state.prepared_batch()),
        ).values
        assert warm == cold, f"seed={seed}"
        flat = [p for point in cold for p in point]
        assert flat and all(isinstance(p, Fraction) for p in flat)
        assert all(sum(point) == 1 for point in cold)

    def test_generator_covers_every_delta_kind(self):
        """The seed range must exercise repairs, appends, deletes, both
        kernels and label-space growth — otherwise the harness proves
        less than it claims."""
        ops = set()
        kernels = set()
        grew_labels = 0
        total = 0
        for seed in UPDATE_SEEDS:
            dataset, _, _, kernel, deltas = random_update_sequence(seed)
            kernels.add(kernel)
            total += len(deltas)
            current = dataset
            for delta in deltas:
                ops.add(type(delta).__name__)
                before = current.n_labels
                current = apply_delta_to_dataset(current, delta)
                grew_labels += current.n_labels > before
        assert ops == {"CellRepair", "RowAppend", "RowDelete"}
        assert kernels == set(_KERNELS)
        assert grew_labels >= 3, "too few appends mint a new label"
        assert total >= 5 * len(UPDATE_SEEDS)


def random_fix_sequence(seed: int):
    """A Codd table plus a valid chain of single-NULL-cell fixes.

    Returns ``(table, fixes, attrs, types)`` where each fix is a
    ``(row, column, value)`` triple valid at its position in the chain.
    """
    rng = np.random.default_rng(3000 + seed)
    arity = int(rng.integers(1, 4))
    attrs = tuple(f"c{i}" for i in range(arity))
    types = [str(rng.choice(list(TYPE_POOLS))) for _ in range(arity)]
    table = random_table(rng, attrs, types)
    while not table.variables:  # every seed must exercise at least one fix
        table = random_table(rng, attrs, types)
    fixes = []
    current = table
    for _ in range(int(rng.integers(1, 5))):
        variables = current.variables
        if not variables:
            break
        row, column, null = variables[int(rng.integers(0, len(variables)))]
        value = null.domain[int(rng.integers(0, len(null.domain)))]
        fixes.append((row, column, value))
        current = current.with_cell_fixed(row, column, value)
    assert fixes, "generator invariant: the table has at least one NULL"
    return table, fixes, attrs, types


class TestCoddGridUpdateDifferential:
    """Surgical grid updates must equal fresh grids and the naive oracle."""

    @pytest.mark.parametrize("seed", UPDATE_SEEDS)
    def test_fixed_grid_identical_to_rebuilt_grid(self, seed):
        table, fixes, _, _ = random_fix_sequence(seed)
        stacked = StackedTable(table)
        for c in range(len(stacked.columns)):
            stacked.numeric_column(c)  # resolved float views ride the fixes too
        current = table
        for step, (row, column, value) in enumerate(fixes):
            stacked = stacked.with_cell_fixed(row, column, value)
            current = current.with_cell_fixed(row, column, value)
            rebuilt = StackedTable(current)
            where = f"seed={seed} step={step} fix=({row},{column},{value!r})"
            for c in range(len(rebuilt.columns)):
                view, fresh_view = stacked.numeric_column(c), rebuilt.numeric_column(c)
                assert (view is None) == (fresh_view is None), f"{where} column={c}"
                if view is not None:
                    assert np.array_equal(view, fresh_view), f"{where} column={c}"
            assert stacked.table.fingerprint() == current.fingerprint(), where
            assert stacked.total == rebuilt.total, where
            assert np.array_equal(stacked.counts, rebuilt.counts), where
            assert np.array_equal(stacked.offsets, rebuilt.offsets), where
            for c, (col, fresh_col) in enumerate(
                zip(stacked.columns, rebuilt.columns)
            ):
                assert col.tolist() == fresh_col.tolist(), f"{where} column={c}"

    @pytest.mark.parametrize("seed", UPDATE_SEEDS)
    def test_answers_over_updated_grid_match_oracle(self, seed):
        table, fixes, attrs, types = random_fix_sequence(seed)
        rng = np.random.default_rng(4000 + seed)
        query = Select(Scan("T"), random_predicate(rng, attrs, types))
        if rng.random() < 0.6:
            kept = sorted(
                rng.choice(
                    len(attrs), size=int(rng.integers(1, len(attrs) + 1)),
                    replace=False,
                )
            )
            query = Project(query, tuple(attrs[i] for i in kept))
        stacked = StackedTable(table)
        current = table
        for step, (row, column, value) in enumerate(fixes):
            stacked = stacked.with_cell_fixed(row, column, value)
            current = current.with_cell_fixed(row, column, value)
            where = f"seed={seed} step={step}"
            certain = certain_answers_vectorized(
                query, current, name="T", stacked=stacked
            )
            assert certain == certain_answers_naive(query, current, name="T"), where
            possible = possible_answers_vectorized(
                query, current, name="T", stacked=stacked
            )
            assert possible == possible_answers_naive(query, current, name="T"), where
