"""The version differential harness: derived versions equal fresh ones.

A one-row write derives the new dataset version from its parent in O(Δ):
:class:`~repro.core.dataset.IncompleteDataset` carries the parent's per-row
digests (hashing only the changed row), its world count (one exact
division and/or multiplication) and its candidate layout (spliced on first
use), and :meth:`~repro.codd.codd_table.CoddTable.with_cell_fixed` replaces
one row tuple, drops one variable and patches the row completions, the
world count and one row digest. None of that may be observable: over
seeded random write sequences, every derived version must report exactly
what an object built fresh from the same content reports —
``fingerprint()``, every ``candidate_layout()`` array, ``n_worlds()``, and
the Codd ``rows``/``variables``/``row_completions``.

What a parent has already computed decides which derivation runs, so each
step warms a random subset of the parent's artifacts first; every version
is checked only at the end of its sequence, so later derivations see cold
parents too.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import numpy as np
import pytest

from fuzz.codd_cases import TYPE_POOLS
from fuzz.cp_cases import random_dataset
from repro.codd.codd_table import CoddTable, Null
from repro.codd.vectorized import StackedTable
from repro.core.dataset import IncompleteDataset
from repro.core.deltas import CellRepair, RowAppend, RowDelete, apply_delta_to_dataset

SEEDS = list(range(30))

DATASET_OPS = ("repair", "append", "delete", "with_row_fixed", "restrict_row")


def fresh_dataset(dataset: IncompleteDataset) -> IncompleteDataset:
    """The same content through the public constructor: no lineage."""
    return IncompleteDataset(
        [dataset.candidates(i).copy() for i in range(dataset.n_rows)],
        dataset.labels.copy(),
    )


def fresh_table(table: CoddTable) -> CoddTable:
    return CoddTable(table.schema, table.rows)


def warm_some(rng: np.random.Generator, version) -> None:
    """Compute a random subset of the version's memoized artifacts."""
    for artifact in ("fingerprint", "n_worlds", "candidate_layout", "row_completions"):
        if hasattr(version, artifact) and rng.random() < 0.5:
            getattr(version, artifact)()


def derive(rng: np.random.Generator, dataset: IncompleteDataset):
    """One random one-row derivation valid for ``dataset``: ``(op, child)``."""
    ops = ["append", "restrict_row", "with_row_fixed"]
    if dataset.uncertain_rows():
        ops.append("repair")
    if dataset.n_rows > 1:
        ops.append("delete")
    op = str(rng.choice(ops))
    counts = dataset.candidate_counts()
    row = int(rng.integers(dataset.n_rows))
    if op == "repair":
        dirty = dataset.uncertain_rows()
        row = int(dirty[int(rng.integers(len(dirty)))])
        delta = CellRepair(row, int(rng.integers(counts[row])))
        return op, apply_delta_to_dataset(dataset, delta)
    if op == "append":
        label = int(rng.integers(dataset.n_labels + 1))
        delta = RowAppend(rng.normal(size=(int(rng.integers(1, 4)), 2)), label)
        return op, apply_delta_to_dataset(dataset, delta)
    if op == "delete":
        return op, apply_delta_to_dataset(dataset, RowDelete(row))
    candidate = int(rng.integers(counts[row]))
    if op == "restrict_row":
        return op, dataset.restrict_row(row, candidate)
    value = dataset.candidates(row)[candidate].copy()
    if rng.random() < 0.25:  # a negative row addresses the same row
        row -= dataset.n_rows
    return op, dataset.with_row_fixed(row, value)


def random_version_chain(seed: int) -> list[tuple[str, IncompleteDataset]]:
    rng = np.random.default_rng(5000 + seed)
    dataset = random_dataset(rng, int(rng.integers(2, 4)))
    chain = [("base", dataset)]
    for _ in range(int(rng.integers(6, 12))):
        warm_some(rng, dataset)
        op, dataset = derive(rng, dataset)
        chain.append((op, dataset))
    return chain


def assert_dataset_equals_fresh(version: IncompleteDataset, where: str) -> None:
    fresh = fresh_dataset(version)
    assert version.fingerprint() == fresh.fingerprint(), where
    assert version.n_worlds() == fresh.n_worlds(), where
    for field, derived, built in zip(
        fresh.candidate_layout()._fields,
        version.candidate_layout(),
        fresh.candidate_layout(),
    ):
        assert derived.dtype == built.dtype, f"{where} layout.{field}"
        assert np.array_equal(derived, built), f"{where} layout.{field}"
        assert not derived.flags.writeable, f"{where} layout.{field}"
    assert np.array_equal(version.candidate_counts(), fresh.candidate_counts()), where


class TestDatasetVersions:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_derived_version_equals_a_fresh_one(self, seed):
        for step, (op, version) in enumerate(random_version_chain(seed)):
            assert_dataset_equals_fresh(version, f"seed={seed} step={step} op={op}")

    @pytest.mark.parametrize("seed", SEEDS[:10])
    def test_pickle_round_trip_keeps_the_fingerprint(self, seed):
        # Gateway executors receive versions by pickle, some with a layout
        # still waiting to be spliced from the parent's.
        for step, (op, version) in enumerate(random_version_chain(seed)):
            clone = pickle.loads(pickle.dumps(version))
            where = f"seed={seed} step={step} op={op}"
            assert clone.fingerprint() == version.fingerprint(), where
            assert_dataset_equals_fresh(clone, where)

    def test_the_chain_covers_every_derivation(self):
        ops = {op for seed in SEEDS for op, _ in random_version_chain(seed)}
        assert ops == {"base", *DATASET_OPS}

    @pytest.mark.parametrize("op", DATASET_OPS)
    def test_a_derived_version_does_not_keep_its_parent_alive(self, op):
        rng = np.random.default_rng(7)
        parent = IncompleteDataset(
            [rng.normal(size=(3, 2)) for _ in range(6)], [0, 1, 0, 1, 1, 0]
        )
        parent.fingerprint(), parent.n_worlds(), parent.candidate_layout()
        while True:  # draw until derive() picks ``op``
            drawn, child = derive(rng, parent)
            if drawn == op:
                break
        alive = weakref.ref(parent)
        # The parent's digests and layout live on only until the child
        # has spliced its own from them.
        artifacts = [weakref.ref(parent._digests), weakref.ref(parent.candidate_layout().stacked)]
        del parent
        gc.collect()
        assert alive() is None
        assert_dataset_equals_fresh(child, op)
        gc.collect()
        assert [ref() for ref in artifacts] == [None, None]


class TestDistinctContents:
    """The per-row digest combine separates what the old stream hash did."""

    @staticmethod
    def base() -> IncompleteDataset:
        a, b, c = np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]]), np.array([[5.0, 6.0]])
        return IncompleteDataset([np.vstack([a, b]), c, a], [0, 1, 1])

    def test_a_label_flip_changes_the_fingerprint(self):
        dataset = self.base()
        flipped = IncompleteDataset(
            [dataset.candidates(i) for i in range(3)], [0, 1, 0]
        )
        assert flipped.fingerprint() != dataset.fingerprint()

    def test_a_changed_candidate_count_changes_the_fingerprint(self):
        # Same candidate bytes in the same order, split differently.
        dataset = self.base()
        stacked = dataset.candidate_layout().stacked
        resplit = IncompleteDataset([stacked[:1], stacked[1:3], stacked[3:]], [0, 1, 1])
        assert resplit.fingerprint() != dataset.fingerprint()

    def test_swapped_rows_change_the_fingerprint(self):
        dataset = self.base()
        swapped = IncompleteDataset(
            [dataset.candidates(i) for i in (1, 0, 2)], [1, 0, 1]
        )
        assert swapped.fingerprint() != dataset.fingerprint()

    def test_a_derived_version_differs_from_its_parent_and_matches_its_twin(self):
        dataset = self.base()
        dataset.fingerprint()
        child = dataset.restrict_row(0, 1)
        assert child.fingerprint() != dataset.fingerprint()
        assert child.fingerprint() == self.base().restrict_row(0, 1).fingerprint()

    def test_swapped_codd_rows_change_the_fingerprint(self):
        rows = [(1, "a"), (2, Null(["a", "b"]))]
        table = CoddTable(("x", "y"), rows)
        assert CoddTable(("x", "y"), rows[::-1]).fingerprint() != table.fingerprint()
        fixed = table.with_cell_fixed(1, 1, "a")
        assert fixed.fingerprint() != table.fingerprint()
        assert fixed.fingerprint() == CoddTable(("x", "y"), [(1, "a"), (2, "a")]).fingerprint()


def random_codd_chain(seed: int) -> list[CoddTable]:
    """A Codd table with NULLs in several rows, fixed cell by cell to the end."""
    rng = np.random.default_rng(6000 + seed)
    arity = int(rng.integers(1, 4))
    types = [str(rng.choice(list(TYPE_POOLS))) for _ in range(arity)]
    rows = []
    for _ in range(int(rng.integers(3, 9))):
        row = []
        for col_type in types:
            pool = TYPE_POOLS[col_type]
            if rng.random() < 0.5:
                size = int(rng.integers(1, 4))
                row.append(Null([pool[i] for i in rng.choice(len(pool), size, replace=False)]))
            else:
                row.append(pool[int(rng.integers(len(pool)))])
        rows.append(row)
    table = CoddTable(tuple(f"c{i}" for i in range(arity)), rows)
    chain = [table]
    while table.variables:
        warm_some(rng, table)
        row, column, null = table.variables[int(rng.integers(len(table.variables)))]
        if rng.random() < 0.25:  # negative indices address the same cell
            row, column = row - len(table), column - len(table.schema)
        table = table.with_cell_fixed(row, column, null.domain[int(rng.integers(len(null.domain)))])
        chain.append(table)
    return chain


class TestCoddVersions:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_fixed_table_equals_a_fresh_one(self, seed):
        chain = random_codd_chain(seed)
        assert len(chain) > 1 or not chain[0].variables
        for step, table in enumerate(chain):
            fresh = fresh_table(table)
            where = f"seed={seed} step={step}"
            assert table.rows == fresh.rows, where
            assert table.variables == fresh.variables, where
            assert table.row_completions() == fresh.row_completions(), where
            assert table.n_worlds() == fresh.n_worlds(), where
            assert table.fingerprint() == fresh.fingerprint(), where

    @pytest.mark.parametrize("seed", SEEDS[:10])
    def test_a_fixed_grid_equals_a_fresh_grid(self, seed):
        chain = random_codd_chain(seed)
        grid = StackedTable(chain[0])
        for step, table in enumerate(chain[1:], start=1):
            fixed = next(
                (r, c, table.rows[r][c])
                for r, c, _ in grid.table.variables
                if not isinstance(table.rows[r][c], Null)
            )
            grid = grid.with_cell_fixed(*fixed)
            fresh = StackedTable(fresh_table(table))
            where = f"seed={seed} step={step}"
            assert grid.table.fingerprint() == table.fingerprint(), where
            assert grid.varying == fresh.varying, where
            assert np.array_equal(grid.counts, fresh.counts), where
            assert [c.tolist() for c in grid.columns] == [c.tolist() for c in fresh.columns], where
