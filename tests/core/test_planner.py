"""The unified planner: registry, planning, and the cross-backend matrix.

The load-bearing guarantee is the equivalence matrix: for random small
incomplete datasets, every task flavor × every capable backend must return
**bit-identical** values — including with pins applied mid-cleaning — and
the counting flavors must match the brute-force world enumeration.
"""

from __future__ import annotations

import dataclasses
import threading
from fractions import Fraction

import numpy as np
import pytest

from repro.core.bruteforce import brute_force_counts
from repro.core.dataset import IncompleteDataset
from repro.core.label_uncertainty import LabelUncertainDataset
from repro.core.planner import (
    Backend,
    BackendCapabilities,
    BatchParallelBackend,
    ExecutionOptions,
    IncrementalBackend,
    PlanError,
    backend_names,
    capable_backends,
    execute_query,
    get_backend,
    make_query,
    plan_query,
    register_backend,
)


def random_dataset(seed: int, n_rows: int = 6, n_labels: int = 2) -> IncompleteDataset:
    """A small random incomplete dataset with a mix of clean and dirty rows."""
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(n_rows):
        m = int(rng.integers(1, 4))
        sets.append(rng.normal(size=(m, 2)))
    labels = [int(label) for label in rng.integers(0, n_labels, size=n_rows)]
    labels[0] = 0  # every label space size is as declared
    labels[1] = n_labels - 1
    return IncompleteDataset(sets, labels)


def some_pins(dataset: IncompleteDataset, seed: int, n_pins: int = 2) -> dict[int, int]:
    """Pins on the first dirty rows, as a mid-cleaning session would apply."""
    rng = np.random.default_rng(seed + 1000)
    counts = dataset.candidate_counts()
    pins = {}
    for row in dataset.uncertain_rows()[:n_pins]:
        pins[row] = int(rng.integers(0, counts[row]))
    return pins


def capable_names(query) -> list[str]:
    return [backend.name for backend in capable_backends(query)]


class TestRegistry:
    def test_default_backends_registered(self):
        assert backend_names() == ["sequential", "batch", "incremental"]

    def test_get_backend_unknown_raises(self):
        with pytest.raises(PlanError, match="unknown backend"):
            get_backend("gpu")

    def test_register_rejects_duplicates(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend(get_backend("batch"))

    def test_declared_capabilities(self):
        assert get_backend("sequential").capabilities.reference
        assert not get_backend("batch").capabilities.reference
        assert not get_backend("incremental").capabilities.reference
        assert get_backend("incremental").capabilities.flavors == {"binary", "multiclass"}

    def test_custom_backend_registers_and_plans(self):
        class NullBackend(Backend):
            name = "null-test"
            capabilities = BackendCapabilities(flavors=frozenset({"binary"}))

            def estimate_cost(self, query, options):
                return float("inf"), "never picked automatically"

            def execute(self, query, options=None):
                return [None] * query.n_points, {}

        try:
            register_backend(NullBackend())
            dataset = random_dataset(0)
            query = make_query(dataset, np.zeros((2, 2)), k=1)
            assert "null-test" in capable_names(query)
            # auto never picks the infinite-cost backend ...
            assert plan_query(query).backend != "null-test"
            # ... but an explicit request runs it.
            assert execute_query(query, backend="null-test").values == [None, None]
        finally:
            from repro.core import planner

            planner._REGISTRY.pop("null-test", None)


class TestRegistryErrorPaths:
    """The registry's failure modes: precise errors, no partial state."""

    def test_unknown_backend_error_lists_registered_names(self):
        with pytest.raises(PlanError) as excinfo:
            get_backend("gpu")
        message = str(excinfo.value)
        for name in ("sequential", "batch", "incremental"):
            assert name in message

    def test_unknown_backend_raises_through_plan_and_execute(self):
        dataset = random_dataset(61)
        query = make_query(dataset, np.zeros((2, 2)), k=1)
        with pytest.raises(PlanError, match="unknown backend"):
            plan_query(query, backend="gpu")
        with pytest.raises(PlanError, match="unknown backend"):
            execute_query(query, backend="gpu")

    def test_capability_mismatch_flavor(self):
        dataset = random_dataset(62)
        query = make_query(dataset, np.zeros((2, 2)), k=1, flavor="weighted")
        with pytest.raises(PlanError, match="cannot serve"):
            plan_query(query, backend="incremental")

    def test_mismatch_error_names_capabilities(self):
        dataset = random_dataset(64)
        query = make_query(dataset, np.zeros((2, 2)), k=1, flavor="weighted")
        with pytest.raises(PlanError, match="capabilities"):
            execute_query(query, backend="incremental")

    def test_double_registration_rejected_and_registry_intact(self):
        before = backend_names()
        with pytest.raises(ValueError, match="already registered"):
            register_backend(get_backend("batch"))
        assert backend_names() == before

    def test_replace_reregisters_under_same_name(self):
        original = get_backend("batch")
        try:
            replacement = BatchParallelBackend()
            assert register_backend(replacement, replace=True) is replacement
            assert get_backend("batch") is replacement
            assert backend_names() == ["sequential", "batch", "incremental"]
        finally:
            register_backend(original, replace=True)
        assert get_backend("batch") is original


class TestPlanning:
    @pytest.mark.parametrize("n_points", [1, 8])
    @pytest.mark.parametrize("kind", ["counts", "certain_label"])
    def test_engine_queries_go_batch(self, n_points, kind):
        # The per-row reference is scored but never chosen for a query the
        # vectorised engine serves, however few points it has.
        dataset = random_dataset(1)
        query = make_query(dataset, np.zeros((n_points, 2)), kind=kind, k=2)
        plan = plan_query(query)
        assert plan.backend == "batch"
        assert "sequential" in dict(plan.considered)

    def test_explicit_sequential_still_serves(self):
        dataset = random_dataset(1)
        query = make_query(dataset, np.zeros((1, 2)), k=2)
        plan = plan_query(query, backend="sequential")
        assert (plan.backend, plan.reason) == ("sequential", "requested explicitly")
        result = execute_query(query, backend="sequential")
        assert result.plan.backend == "sequential"
        assert result.values == execute_query(query).values

    @pytest.mark.parametrize(
        "flavor, kind",
        [
            (flavor, kind)
            for flavor in ("binary", "multiclass", "weighted", "label_uncertainty")
            for kind in ("counts", "certain_label", "check")
        ]
        + [("topk", "counts")],
    )
    def test_auto_matches_sequential_on_single_points(self, flavor, kind):
        features = random_dataset(21, n_labels=3 if flavor == "multiclass" else 2)
        dataset = features
        if flavor == "label_uncertainty":
            dataset = LabelUncertainDataset.from_incomplete(features, flip_rows=[0, 2])
        test_X = np.random.default_rng(22).normal(size=(5, 2))
        for pins in ({}, some_pins(features, 21)):
            for t in test_X:
                query = make_query(
                    dataset, t, kind=kind, flavor=flavor, k=2, pins=pins,
                    label=1 if kind == "check" else None,
                )
                auto = execute_query(query, options=ExecutionOptions(cache=False))
                assert auto.plan.backend != "sequential"
                assert auto.values == execute_query(query, backend="sequential").values

    def test_batch_goes_parallel(self):
        dataset = random_dataset(2)
        plan = plan_query(make_query(dataset, np.zeros((8, 2)), k=2))
        assert plan.backend == "batch"
        assert dict(plan.considered)["sequential"] > plan.cost

    def test_warm_incremental_state_wins(self):
        backend = IncrementalBackend()
        dataset = random_dataset(3)
        test_X = np.zeros((4, 2))
        query = make_query(dataset, test_X, k=2)
        cold, _ = backend.estimate_cost(query, ExecutionOptions())
        backend.execute(query)
        warm, reason = backend.estimate_cost(query, ExecutionOptions())
        assert warm < cold
        assert "delta" in reason

    def test_explicit_incapable_backend_raises(self):
        dataset = random_dataset(4)
        query = make_query(dataset, np.zeros((2, 2)), k=1, flavor="weighted")
        with pytest.raises(PlanError, match="cannot serve"):
            plan_query(query, backend="incremental")

    def test_empty_test_set_executes_to_nothing(self):
        dataset = random_dataset(6)
        query = make_query(dataset, np.zeros((0, 2)), k=2)
        assert execute_query(query).values == []


class TestMakeQuery:
    def test_flavor_inference(self):
        binary = random_dataset(7, n_labels=2)
        multi = random_dataset(7, n_labels=3)
        lu = LabelUncertainDataset.from_incomplete(binary, flip_rows=[0])
        assert make_query(binary, np.zeros((1, 2)), k=1).flavor == "binary"
        assert make_query(multi, np.zeros((1, 2)), k=1).flavor == "multiclass"
        assert make_query(lu, np.zeros((1, 2)), k=1).flavor == "label_uncertainty"
        weights = [[Fraction(1, m)] * m for m in binary.candidate_counts()]
        assert (
            make_query(binary, np.zeros((1, 2)), k=1, weights=weights).flavor
            == "weighted"
        )

    def test_invalid_combinations_rejected(self):
        dataset = random_dataset(8, n_labels=3)
        with pytest.raises(ValueError, match="binary"):
            make_query(dataset, np.zeros((1, 2)), k=1, flavor="binary")
        with pytest.raises(ValueError, match="topk"):
            make_query(dataset, np.zeros((1, 2)), k=1, flavor="topk", kind="certain_label")
        with pytest.raises(ValueError, match="label"):
            make_query(dataset, np.zeros((1, 2)), k=1, kind="check")
        with pytest.raises(IndexError):
            make_query(dataset, np.zeros((1, 2)), k=1, pins={0: 99})
        with pytest.raises(ValueError, match="exceeds"):
            make_query(dataset, np.zeros((1, 2)), k=99)


class TestEquivalenceMatrix:
    """Every capable backend must return bit-identical values."""

    SEEDS = [11, 12, 13]

    def assert_backends_agree(self, query, options=None, oracle=None):
        names = capable_names(query)
        assert names, f"no backend serves {query!r}"
        reference = None
        for name in names:
            values = execute_query(query, backend=name, options=options).values
            if reference is None:
                reference = (name, values)
            else:
                assert values == reference[1], (
                    f"{name} diverged from {reference[0]} on {query!r}"
                )
        if oracle is not None:
            assert reference[1] == oracle, f"backends diverge from oracle on {query!r}"
        return reference[1]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n_labels", [2, 3])
    @pytest.mark.parametrize("kind", ["counts", "certain_label"])
    def test_counting_flavors(self, seed, n_labels, kind):
        dataset = random_dataset(seed, n_labels=n_labels)
        rng = np.random.default_rng(seed + 500)
        test_X = rng.normal(size=(3, 2))
        for pins in ({}, some_pins(dataset, seed)):
            query = make_query(dataset, test_X, kind=kind, k=2, pins=pins)
            oracle = None
            if kind == "counts":
                restricted = dataset
                for row, cand in pins.items():
                    restricted = restricted.restrict_row(row, cand)
                oracle = [brute_force_counts(restricted, t, k=2) for t in test_X]
            self.assert_backends_agree(query, oracle=oracle)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_check_kind(self, seed):
        dataset = random_dataset(seed, n_labels=2)
        test_X = np.random.default_rng(seed).normal(size=(3, 2))
        query = make_query(dataset, test_X, kind="check", label=1, k=2)
        values = self.assert_backends_agree(query)
        assert all(isinstance(v, bool) for v in values)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_weighted_flavor(self, seed):
        dataset = random_dataset(seed, n_labels=2)
        rng = np.random.default_rng(seed + 600)
        test_X = rng.normal(size=(3, 2))
        # A non-uniform exact prior per dirty row.
        weights = []
        for m in dataset.candidate_counts():
            m = int(m)
            raw = [Fraction(int(rng.integers(1, 5)), 1) for _ in range(m)]
            total = sum(raw)
            weights.append([w / total for w in raw])
        for pins in ({}, some_pins(dataset, seed)):
            query = make_query(
                dataset, test_X, kind="counts", flavor="weighted", k=2,
                weights=weights, pins=pins,
            )
            values = self.assert_backends_agree(query)
            assert all(sum(probs) == 1 for probs in values)
        # Uniform prior must reproduce the integer counts exactly.
        uniform = make_query(dataset, test_X, kind="counts", flavor="weighted", k=2)
        counts = make_query(dataset, test_X, kind="counts", k=2)
        n_worlds = dataset.n_worlds()
        probs = self.assert_backends_agree(uniform)
        exact = self.assert_backends_agree(counts)
        assert probs == [
            [Fraction(c, n_worlds) for c in point] for point in exact
        ]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_topk_flavor(self, seed):
        dataset = random_dataset(seed, n_labels=2)
        test_X = np.random.default_rng(seed + 700).normal(size=(3, 2))
        for pins in ({}, some_pins(dataset, seed)):
            query = make_query(
                dataset, test_X, kind="counts", flavor="topk", k=2, pins=pins
            )
            values = self.assert_backends_agree(query)
            restricted = dataset
            for row, cand in pins.items():
                restricted = restricted.restrict_row(row, cand)
            for counts in values:
                assert sum(counts) == 2 * restricted.n_worlds()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_label_uncertainty_flavor(self, seed):
        dataset = random_dataset(seed, n_labels=2, n_rows=5)
        lu = LabelUncertainDataset.from_incomplete(dataset, flip_rows=[0, 2])
        test_X = np.random.default_rng(seed + 800).normal(size=(3, 2))
        for pins in ({}, some_pins(dataset, seed, n_pins=1)):
            query = make_query(lu, test_X, kind="counts", k=2, pins=pins)
            values = self.assert_backends_agree(query)
            restricted = lu
            for row, cand in pins.items():
                restricted = restricted.restrict_row(row, cand)
            for counts in values:
                assert sum(counts) == restricted.n_worlds()

    def test_incremental_pins_grow_across_calls(self):
        """The session workload: one state, pins applied one at a time."""
        dataset = random_dataset(21, n_labels=3)
        test_X = np.random.default_rng(21).normal(size=(4, 2))
        backend = IncrementalBackend()
        pins: dict[int, int] = {}
        for row in dataset.uncertain_rows():
            pins[row] = 0
            query = make_query(dataset, test_X, kind="counts", k=2, pins=pins)
            incremental, _ = backend.execute(query)
            sequential = execute_query(query, backend="sequential").values
            assert incremental == sequential
        assert backend.n_rebuilds == 1
        assert backend.n_reuses == len(pins) - 1

    def test_incremental_rebuilds_on_contradicting_or_shrinking_pins(self):
        dataset = random_dataset(22, n_rows=8, n_labels=3)
        test_X = np.random.default_rng(22).normal(size=(5, 2))
        options = ExecutionOptions()
        backend = IncrementalBackend()
        first, second = dataset.uncertain_rows()[:2]
        sequence = [
            {first: 0, second: 0},
            {first: 1, second: 0},  # contradicts an absorbed pin
            {second: 0},  # shrinks the absorbed set
            {second: 0, first: 0},  # extends it again
        ]
        for pins in sequence:
            query = make_query(dataset, test_X, kind="counts", k=2, pins=pins)
            values, _ = backend.execute(query, options)
            assert values == execute_query(query, backend="sequential").values
        assert (backend.n_rebuilds, backend.n_reuses) == (3, 1)

    def test_incremental_stats_report_this_calls_work_only(self):
        dataset = random_dataset(23, n_rows=8)
        test_X = np.random.default_rng(23).normal(size=(6, 2))
        options = ExecutionOptions()
        backend = IncrementalBackend()
        pins: dict[int, int] = {}
        for row in dataset.uncertain_rows():
            pins[row] = 0
            query = make_query(dataset, test_X, kind="counts", k=2, pins=pins)
            _, stats = backend.execute(query, options)
            assert stats["n_rows_skipped"] + stats["n_recomputed"] == len(test_X)
            if len(pins) > 1:
                # Pruned recounts are only the contested points of this pin.
                assert stats["n_points"] == stats["n_recomputed"]
        _, stats = backend.execute(query, options)  # nothing new to absorb
        assert stats["n_rows_skipped"] == stats["n_recomputed"] == 0
        assert stats.get("n_points", 0) == 0

    def test_incremental_keeps_one_pruning_state_per_family(self):
        # Every call prunes, so a repeat of the query reuses the one state
        # and reports no pruning work it did not do.
        dataset = random_dataset(24, n_rows=8, n_labels=3)
        test_X = np.random.default_rng(24).normal(size=(4, 2))
        query = make_query(dataset, test_X, kind="counts", k=2)
        backend = IncrementalBackend()
        _, first = backend.execute(query, ExecutionOptions())
        values, again = backend.execute(query, ExecutionOptions())
        assert first["prune"] is True and again["prune"] is True
        assert first["n_points"] == len(test_X) and again["n_points"] == 0
        assert values == execute_query(query, backend="sequential").values
        assert (backend.n_rebuilds, backend.n_reuses) == (1, 1)
        assert len(backend._states) == 1

    @pytest.mark.parametrize("n_labels", (2, 3))
    def test_incremental_cold_state_is_seeded_from_a_handed_batch(self, n_labels):
        from repro.core.batch_engine import PreparedBatch

        dataset = random_dataset(25, n_rows=8, n_labels=n_labels)
        test_X = np.random.default_rng(25).normal(size=(5, 2))
        prepared = PreparedBatch(dataset, test_X, k=2)
        before = prepared.sims_matrix.copy()
        seeded, unseeded = IncrementalBackend(), IncrementalBackend()
        pins: dict[int, int] = {}
        for row in dataset.uncertain_rows():
            pins[row] = 1
            query = make_query(dataset, test_X, kind="counts", k=2, pins=pins)
            values, _ = seeded.execute(query, ExecutionOptions(prepared=prepared))
            assert values == unseeded.execute(query)[0]
        (state, _, owner), = map(seeded._states.peek, seeded._states)
        assert owner() is prepared
        clean = next(r for r in range(dataset.n_rows) if r not in pins)
        assert np.shares_memory(state._row_sims[clean], prepared.sims_matrix)
        assert np.array_equal(prepared.sims_matrix, before)
        (_, _, no_owner), = map(unseeded._states.peek, unseeded._states)
        assert no_owner is None

    def test_planning_peeks_at_the_maintained_state_without_counting(self):
        dataset = random_dataset(27, n_rows=8)
        test_X = np.random.default_rng(27).normal(size=(3, 2))
        query = make_query(dataset, test_X, kind="counts", k=2)
        backend = IncrementalBackend()
        backend.execute(query)  # cold: one miss, then the state is stored
        stats = backend._states.stats()
        assert (stats["hits"], stats["misses"]) == (0, 1)
        _, reason = backend.estimate_cost(query, ExecutionOptions())
        assert reason == "maintained counts, delta pins only"
        assert backend._states.stats() == stats  # the probe served nothing
        backend.execute(query)
        assert backend._states.stats()["hits"] == 1

    def test_incremental_state_seeded_from_a_batch_dies_with_it(self):
        import gc

        from repro.core.batch_engine import PreparedBatch

        dataset = random_dataset(26, n_rows=8)
        test_X = np.random.default_rng(26).normal(size=(3, 2))
        backend = IncrementalBackend()
        query = make_query(dataset, test_X, kind="certain_label", k=2)
        prepared = PreparedBatch(dataset, test_X, k=2)
        backend.execute(query, ExecutionOptions(prepared=prepared))
        backend.execute(query)  # reuses the seeded state
        assert len(backend._states) == 1
        del prepared
        gc.collect()
        assert not backend._states and not backend._family_locks
        backend.execute(query)  # an unseeded state stays in the LRU
        gc.collect()
        assert len(backend._states) == 1


class TestCachingAndOptions:
    def test_batch_cache_serves_repeats(self):
        from repro.core.planner import BatchParallelBackend

        backend = BatchParallelBackend()
        dataset = random_dataset(31)
        test_X = np.random.default_rng(31).normal(size=(4, 2))
        query = make_query(dataset, test_X, kind="counts", k=2)
        first, _ = backend.execute(query, ExecutionOptions(cache=True))
        hits_before = backend.cache.hits
        second, _ = backend.execute(query, ExecutionOptions(cache=True))
        assert second == first
        assert backend.cache.hits >= hits_before + len(test_X)

    def test_prepared_handoff_is_used(self, monkeypatch):
        from repro.core.batch_engine import PreparedBatch
        from repro.core.planner import BatchParallelBackend

        backend = BatchParallelBackend()
        dataset = random_dataset(32)
        test_X = np.random.default_rng(32).normal(size=(3, 2))
        prepared = PreparedBatch(dataset, test_X, k=2)
        options = ExecutionOptions(cache=False, prepared=prepared)
        query = make_query(dataset, test_X, kind="counts", k=2)
        built = []
        original_init = PreparedBatch.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(PreparedBatch, "__init__", counting_init)
        values, _ = backend.execute(query, options)
        assert values == execute_query(query, backend="sequential").values
        assert not built  # the handed-in batch was used, not rebuilt

    def test_n_jobs_does_not_change_results(self):
        dataset = random_dataset(33)
        test_X = np.random.default_rng(33).normal(size=(6, 2))
        query = make_query(dataset, test_X, kind="counts", k=2)
        single = execute_query(query, backend="batch", options=ExecutionOptions(n_jobs=1)).values
        multi = execute_query(query, backend="batch", options=ExecutionOptions(n_jobs=2)).values
        assert single == multi


class TestPerCallStats:
    """``Backend.execute`` returns each call's stats; nothing is shared."""

    def test_concurrent_calls_report_their_own_stats(self, monkeypatch):
        from repro.core import planner
        from repro.core.planner import _count_point

        barrier = threading.Barrier(2, timeout=30)
        gated_threads: set[int] = set()

        def gated(state, index):
            # Each call's first point waits for the other call's first
            # point, so the two executions provably overlap.
            if threading.get_ident() not in gated_threads:
                gated_threads.add(threading.get_ident())
                barrier.wait()
            return _count_point(state, index)

        monkeypatch.setitem(
            planner.FLAVOR_POINTS,
            "binary",
            dataclasses.replace(planner.FLAVOR_POINTS["binary"], point=gated),
        )
        dataset = random_dataset(41, n_rows=8)
        rng = np.random.default_rng(41)
        queries = [
            make_query(dataset, rng.normal(size=(n_points, 2)), kind="counts", k=2)
            for n_points in (2, 5)
        ]
        options = ExecutionOptions(cache=False)
        results: list = [None, None]

        def run(slot: int) -> None:
            results[slot] = execute_query(queries[slot], backend="batch", options=options)

        threads = [threading.Thread(target=run, args=(slot,)) for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert len(gated_threads) == 2
        for query, result in zip(queries, results):
            assert result.stats["n_points"] == query.n_points
            assert result.values == execute_query(query, backend="sequential").values


    def test_incremental_threads_stay_exact_under_evictions(self, monkeypatch):
        # More threads than cores over two families on a one-state LRU, so
        # every call can evict the other family and rebuild its own: a
        # state shared by two callers at once would return wrong counts.
        import sys

        dataset = random_dataset(42, n_rows=8, n_labels=3)
        rng = np.random.default_rng(42)
        families = [rng.normal(size=(3, 2)) for _ in range(2)]
        rows = dataset.uncertain_rows()
        pin_sets = [dict.fromkeys(rows[:n], 0) for n in range(len(rows) + 1)]
        pin_sets.append({rows[0]: 1})  # contradicts the grown set
        expected = {
            (f, i): execute_query(
                make_query(dataset, test_X, kind="counts", k=2, pins=pins),
                backend="sequential",
            ).values
            for f, test_X in enumerate(families)
            for i, pins in enumerate(pin_sets)
        }
        from repro.core import planner

        monkeypatch.setattr(planner, "MAX_MAINTAINED_STATES", 1)
        backend = IncrementalBackend()
        mismatches: list = []

        def run(f: int) -> None:
            try:
                for _ in range(5):
                    for i, pins in enumerate(pin_sets):
                        query = make_query(
                            dataset, families[f], kind="counts", k=2, pins=pins
                        )
                        values, _ = backend.execute(query)
                        if values != expected[(f, i)]:
                            mismatches.append((f, i))
            except AssertionError as error:  # a raced state fails its own checks
                mismatches.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(n % 2,)) for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert mismatches == []
        assert len(backend._states) == 1

    def test_incremental_threads_stay_exact_while_seeding_batches_die(
        self, monkeypatch
    ):
        # Every call hands a fresh PreparedBatch that dies as the call
        # returns, so states are dropped (_forget) while other threads take
        # them up, rebuild them or store them back.
        import gc
        import sys

        from repro.core.batch_engine import PreparedBatch

        dataset = random_dataset(44, n_rows=8, n_labels=3)
        rng = np.random.default_rng(44)
        families = [rng.normal(size=(3, 2)) for _ in range(2)]
        rows = dataset.uncertain_rows()
        pin_sets = [dict.fromkeys(rows[:n], 0) for n in range(len(rows) + 1)]
        expected = {
            (f, i): execute_query(
                make_query(dataset, test_X, kind="counts", k=2, pins=pins),
                backend="sequential",
            ).values
            for f, test_X in enumerate(families)
            for i, pins in enumerate(pin_sets)
        }
        from repro.core import planner

        monkeypatch.setattr(planner, "MAX_MAINTAINED_STATES", 1)
        backend = IncrementalBackend()
        mismatches: list = []

        def run(f: int) -> None:
            try:
                for _ in range(3):
                    for i, pins in enumerate(pin_sets):
                        query = make_query(
                            dataset, families[f], kind="counts", k=2, pins=pins
                        )
                        prepared = PreparedBatch(dataset, families[f], k=2)
                        values, _ = backend.execute(
                            query, ExecutionOptions(prepared=prepared)
                        )
                        del prepared
                        if values != expected[(f, i)]:
                            mismatches.append((f, i))
            except AssertionError as error:  # a raced state fails its own checks
                mismatches.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(n % 2,)) for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert mismatches == []
        gc.collect()
        assert not backend._states  # every seeding batch is gone


class TestExecutionOptionsValidation:
    """Library callers get the same knob validation the CLI flags enforce."""

    def test_defaults_and_sentinels_accepted(self):
        ExecutionOptions()
        ExecutionOptions(n_jobs=None)
        ExecutionOptions(n_jobs=-1)  # the all-CPUs sentinel
        ExecutionOptions(n_jobs=4, cache=False)
        ExecutionOptions(n_jobs=np.int64(2))  # numpy integers are integers

    def test_zero_n_jobs_rejected(self):
        with pytest.raises(ValueError, match="n_jobs"):
            ExecutionOptions(n_jobs=0)

    def test_other_negative_n_jobs_rejected(self):
        # -1 is the conventional sentinel; -2 etc. used to silently mean
        # "all CPUs", which hid typos — exactly what the CLI flag rejects.
        with pytest.raises(ValueError, match="-1"):
            ExecutionOptions(n_jobs=-2)

    def test_non_integer_n_jobs_rejected(self):
        with pytest.raises(TypeError, match="n_jobs"):
            ExecutionOptions(n_jobs=2.5)
        with pytest.raises(TypeError, match="n_jobs"):
            ExecutionOptions(n_jobs=True)

    def test_cache_must_be_a_bool(self):
        from repro.utils.lru import LRUCache

        ExecutionOptions(cache=True)
        ExecutionOptions(cache=False)
        # The planner has one result cache; a handed-in cache is refused.
        for bad in (None, LRUCache(2), "yes", 1, object()):
            with pytest.raises(TypeError, match="cache must be a bool"):
                ExecutionOptions(cache=bad)

    def test_only_the_three_knobs(self):
        names = [f.name for f in dataclasses.fields(ExecutionOptions)]
        assert names == ["n_jobs", "cache", "prepared"]
        with pytest.raises(TypeError):
            ExecutionOptions(prune="off")
        with pytest.raises(TypeError):
            ExecutionOptions(tile_rows=8)
        with pytest.raises(TypeError):
            ExecutionOptions(scan_kernel="numpy")


class TestFrontDoorGuards:
    """The single-point front door must not silently mis-handle matrices."""

    def test_q2_counts_rejects_matrices(self):
        from repro.core.queries import q2_counts

        dataset = random_dataset(51)
        with pytest.raises(ValueError):
            q2_counts(dataset, np.zeros((2, 2)), k=1)

    def test_unknown_backend_rejected_even_on_minmax_shortcut(self):
        from repro.core.queries import certain_label, q1

        dataset = random_dataset(52, n_labels=2)  # binary: MM shortcut fires
        t = np.zeros(2)
        with pytest.raises(PlanError, match="unknown backend"):
            q1(dataset, t, 0, k=1, backend="gpu")
        with pytest.raises(PlanError, match="unknown backend"):
            certain_label(dataset, t, k=1, backend="gpu")


class TestSessionBackends:
    """A cleaning session must report identically on every backend."""

    def test_session_reports_identical_across_backends(self):
        from repro.cleaning.cp_clean import run_cp_clean
        from repro.cleaning.oracle import GroundTruthOracle
        from repro.data.task import build_cleaning_task

        task = build_cleaning_task("supreme", n_train=30, n_val=6, n_test=10, seed=3)
        oracle = GroundTruthOracle(task.gt_choice)
        reports = {
            name: run_cp_clean(
                task.incomplete, task.val_X, oracle, k=task.k, backend=name
            )
            for name in ("auto", "sequential", "batch", "incremental")
        }
        reference = reports["auto"]
        for name, report in reports.items():
            assert report.final_fixed == reference.final_fixed, name
            assert report.cp_fraction_final == reference.cp_fraction_final, name
            assert [s.row for s in report.steps] == [s.row for s in reference.steps], name

    @pytest.mark.parametrize("n_labels", (2, 3))
    def test_auto_session_checks_on_warm_maintained_state(self, n_labels):
        import gc

        from repro.cleaning.sequential import CleaningSession

        dataset = random_dataset(43, n_rows=8, n_labels=n_labels)
        val_X = np.random.default_rng(43).normal(size=(4, 2))
        session = CleaningSession(dataset, val_X, k=2)
        assert session._check_backend == "incremental"
        backend = get_backend("incremental")
        rebuilds = backend.n_rebuilds
        for row in dataset.uncertain_rows():
            session.clean_row(row, 0)
            query = make_query(
                dataset, val_X, kind="certain_label", k=2, pins=session.fixed
            )
            expected = execute_query(
                query, backend="batch", options=ExecutionOptions(cache=False)
            ).values
            assert session.checkpoint()["certain_labels"] == expected
        assert backend.n_rebuilds == rebuilds + 1  # one seeded build, then deltas
        fingerprint = dataset.fingerprint()
        assert any(key[0] == fingerprint for key in backend._states)
        batch = session.batch
        del session
        gc.collect()
        assert any(key[0] == fingerprint for key in backend._states)  # batch lives
        del batch
        gc.collect()
        assert all(key[0] != fingerprint for key in backend._states)

    def test_session_rejects_unknown_backend(self):
        from repro.cleaning.sequential import CleaningSession

        dataset = random_dataset(41)
        with pytest.raises(PlanError, match="unknown backend"):
            CleaningSession(dataset, np.zeros((2, 2)), k=1, backend="gpu")
