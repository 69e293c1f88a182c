"""The differential property-test harness for the certain-answer engine.

Seeded random Codd tables (fuzzed schemas and column types — small ints,
floats, strings, ints beyond float64 exactness — with random NULL domains)
and random select-project(-rename) queries, cross-checked across the
``vectorized`` and ``naive`` backends and the streaming reference
functions. The naive world-enumeration oracle is the ground truth, exactly
as ``tests/core/test_backend_differential.py`` holds the planner backends to
the brute-force counting oracle: any divergence anywhere is a bug in a
certification system, so the harness asserts **bit-identical**
:class:`~repro.codd.relation.Relation` values.

A second generator fuzzes two-table databases with join queries and
asserts the pruned multi-table path agrees with unpruned enumeration.

A third generator fuzzes the served SQL read shape — ``GROUP BY`` with
``COUNT``/``SUM`` over a qualified ``JOIN ... ON`` — with and without
pinned grids, and the join prune on a grid is held to the row loop it
replaces, kept row for kept row.  So are the pair table's gathered grid
(to a fresh ``StackedTable`` build), the probe's pairs (to a brute-force
overlap check) and the aggregation's grid row options (to the row loop);
cached analyses are held to pinning no per-query grid.  The aggregation
DP's state cap is checked on both sides of its boundary, and its integer
state algebra (COUNT/SUM over bounded ints) is held to the set DP:
answers, per-member state counts and declines.

The row-block leg lowers the stacking cap below each case's grid, so the
``vectorized`` backend evaluates every leaf in transient row blocks (and
streams a lone row above the cap through the reference), and holds the
single-table, join and aggregate generators to the same oracle.

The seeded case generators live in :mod:`fuzz.codd_cases`
(``tests/fuzz/codd_cases.py``), shared with the update-sequence harness.
"""

from __future__ import annotations

import copy
import gc
import types

import numpy as np
import pytest

import repro.codd.aggregate as aggregate
import repro.codd.certain as certain_module
import repro.codd.engine as engine
import repro.codd.joins as joins
import repro.codd.vectorized as vectorized
from fuzz.codd_cases import (
    JOIN_AGGREGATE_SQL,
    SEEDS,
    TYPE_POOLS as _TYPE_POOLS,
    random_aggregate_case,
    random_case,
    random_database_case,
    random_join_aggregate_case,
    random_join_case,
)
from repro.codd.algebra import (
    Aggregate,
    AggregateSpec,
    Attribute,
    Comparison,
    Disjunction,
    Join,
    Literal,
    Project,
    Rename,
    Scan,
    Select,
)
from repro.codd.certain import (
    certain_answers,
    certain_answers_database,
    certain_answers_naive,
    certain_select_project_rowwise,
    possible_answers,
    possible_answers_database,
    possible_answers_naive,
    possible_select_project_rowwise,
)
from repro.codd.codd_table import CoddTable, Null
from repro.codd.engine import VectorizedCoddBackend, answer_query, plan_codd_query
from repro.codd.joins import FlatQuery, composite_analysis
from repro.codd.optimizer import optimize_query
from repro.codd.sql import parse_sql
from repro.codd.vectorized import StackedTable, predicate_mask
from repro.utils.lru import LRUCache


class TestSingleTableDifferential:
    """Both backends and the streaming reference must agree bit for bit
    with the naive oracle."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_certain_answers_match_oracle(self, seed):
        query, table, name, description = random_case(seed)
        oracle = certain_answers_naive(query, table, name=name)
        for backend in ("vectorized", "naive"):
            result = answer_query(
                query, {name: table}, mode="certain", backend=backend
            ).relation
            assert result == oracle, f"{backend} diverged: {description}"
        assert certain_answers(query, table, name=name) == oracle, description
        reference = certain_select_project_rowwise(query, table, name=name)
        assert reference == oracle, f"streaming reference diverged: {description}"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_possible_answers_match_oracle(self, seed):
        query, table, name, description = random_case(seed)
        oracle = possible_answers_naive(query, table, name=name)
        for backend in ("vectorized", "naive"):
            result = answer_query(
                query, {name: table}, mode="possible", backend=backend
            ).relation
            assert result == oracle, f"{backend} diverged: {description}"
        assert possible_answers(query, table, name=name) == oracle, description
        reference = possible_select_project_rowwise(query, table, name=name)
        assert reference == oracle, f"streaming reference diverged: {description}"

    def test_generator_actually_covers_the_space(self):
        """The seed range must exercise NULLs, every column type, renames
        and projections — otherwise the harness proves nothing."""
        types_seen: set[str] = set()
        with_nulls = renamed = projected = selected = 0
        for seed in SEEDS:
            query, table, name, _ = random_case(seed)
            with_nulls += table.n_variables > 0
            node = query
            if isinstance(node, Project):
                projected += 1
                node = node.child
            if isinstance(node, Select):
                selected += 1
                node = node.child
            if isinstance(node, Rename):
                renamed += 1
            rng = np.random.default_rng(seed)
            arity = int(rng.integers(1, 4))
            types_seen |= {
                str(rng.choice(list(_TYPE_POOLS))) for _ in range(arity)
            }
        assert types_seen == set(_TYPE_POOLS)
        assert with_nulls >= len(SEEDS) // 2
        assert renamed >= 3 and projected >= 10 and selected >= 15


class TestMultiTableDifferential:
    """Pruned enumeration must agree with the unpruned product."""

    @pytest.mark.parametrize("seed", SEEDS[:15])
    def test_pruned_matches_unpruned(self, seed):
        query, database, description = random_database_case(seed)
        for func in (certain_answers_database, possible_answers_database):
            pruned = func(query, database)
            unpruned = func(query, database, prune=False)
            assert pruned == unpruned, f"{func.__name__} diverged: {description}"


def _oracle(query, database, mode):
    """Pure unpruned world enumeration — the ground truth for every path."""
    func = (
        certain_answers_database if mode == "certain" else possible_answers_database
    )
    return func(query, database, prune=False)


def _capable_backends(query, database, prepared=None):
    """``auto`` plus every explicit backend that can serve the query."""
    from repro.codd.engine import capable_codd_backends

    capable = capable_codd_backends(query, database, prepared)
    return ["auto"] + [b.name for b in capable]


@pytest.fixture
def fresh_analysis(monkeypatch):
    """A composite-analysis cache of the test's own, so an analysis runs
    afresh after each ``joins._ANALYSIS_CACHE.clear()``."""
    monkeypatch.setattr(joins, "_ANALYSIS_CACHE", LRUCache(32))


class TestJoinDifferential:
    """The pair-table hash join (and its declines) against the oracle."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("mode", ["certain", "possible"])
    def test_joins_match_oracle(self, seed, mode):
        query, database, description = random_join_case(seed)
        oracle = _oracle(query, database, mode)
        for backend in _capable_backends(query, database):
            result = answer_query(
                query, database, mode=mode, backend=backend
            ).relation
            assert result == oracle, f"{backend}/{mode} diverged: {description}"

    def test_fast_path_actually_engages(self):
        """Enough seeds must plan off the naive backend, or the join work
        is untested; enough must fall back, or the declines are."""
        fast = slow = 0
        for seed in SEEDS:
            query, database, _ = random_join_case(seed)
            plan = plan_codd_query(query, database)
            fast += plan.backend != "naive"
            slow += plan.backend == "naive"
        assert fast >= 8, f"only {fast} join seeds took a fast path"
        assert slow >= 3, f"only {slow} join seeds exercised the fallback"


class TestAggregateDifferential:
    """The aggregation DP (and its declines) against the oracle."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("mode", ["certain", "possible"])
    def test_aggregates_match_oracle(self, seed, mode):
        query, database, description = random_aggregate_case(seed)
        oracle = _oracle(query, database, mode)
        for backend in _capable_backends(query, database):
            result = answer_query(
                query, database, mode=mode, backend=backend
            ).relation
            assert result == oracle, f"{backend}/{mode} diverged: {description}"

    def test_large_ints_that_cancel_before_a_float_joins(self):
        # float(2**60 + 1) is 2**60, so once 0.5 joins, the world with
        # -(2**60) sums to 0.5 over the float-converted terms, not 1.5.
        table = CoddTable(
            ("g", "v"), [(0, 2**60 + 1), (0, Null([-(2**60), 5])), (0, 0.5)]
        )
        query = Aggregate(Scan("T"), ("g",), (AggregateSpec("sum", "v", "total"),))
        database = {"T": table}
        assert plan_codd_query(query, database).backend == "vectorized"
        possible = answer_query(query, database, mode="possible").relation
        assert possible == _oracle(query, database, "possible")
        assert possible.rows == {(0, 0.5), (0, float(2**60))}

    def test_a_certain_answer_finalizes_no_possible_relation(self, fresh_analysis):
        table = CoddTable(("g", "v"), [(0, 1), (0, Null([2, 3])), (1, 4)])
        query = Aggregate(Scan("T"), ("g",), (AggregateSpec("sum", "v", "total"),))
        database = {"T": table}
        certain = answer_query(query, database, mode="certain").relation
        assert certain == _oracle(query, database, "certain")
        cache = joins._ANALYSIS_CACHE
        (composite,) = (cache.peek(key) for key in cache)
        assert composite.aggregation._possible is None
        possible = answer_query(query, database, mode="possible").relation
        assert possible == _oracle(query, database, "possible")
        assert composite.aggregation._possible is possible

    def test_fast_path_actually_engages(self):
        fast = 0
        for seed in SEEDS:
            query, database, _ = random_aggregate_case(seed)
            fast += plan_codd_query(query, database).backend != "naive"
        assert fast >= 8, f"only {fast} aggregate seeds took a fast path"


class TestJoinAggregateDifferential:
    """The served SQL read shape — GROUP BY with COUNT/SUM over a
    qualified join filtered on each side — against the oracle, planned and
    run once on grids the engine resolves and once on handed grids."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("mode", ["certain", "possible"])
    def test_join_aggregates_match_oracle(self, seed, mode, fresh_analysis):
        query, database, description = random_join_aggregate_case(seed)
        oracle = _oracle(query, database, mode)
        pinned = {name: StackedTable(table) for name, table in database.items()}
        for prepared in (None, pinned):
            joins._ANALYSIS_CACHE.clear()
            for backend in _capable_backends(query, database, prepared):
                result = answer_query(
                    query, database, mode=mode, backend=backend, prepared=prepared
                ).relation
                assert result == oracle, (
                    f"{backend}/{mode} diverged "
                    f"({'handed' if prepared else 'resolved'} grids): {description}"
                )

    def test_fast_path_actually_engages(self):
        fast = slow = 0
        for seed in SEEDS:
            query, database, _ = random_join_aggregate_case(seed)
            backend = plan_codd_query(query, database).backend
            fast += backend != "naive"
            slow += backend == "naive"
        assert fast >= 8, f"only {fast} join-aggregate seeds took a fast path"
        assert slow >= 3, f"only {slow} join-aggregate seeds exercised the fallback"


def _resolve(name, table):
    return StackedTable(table)


def _pruned_sides(query, database, monkeypatch):
    """``(side, kept row indices)`` for every join side the analysis of
    ``query`` prunes without grids, i.e. on the row loop."""
    seen = []
    row_loop = joins._prune_rows

    def recording(flat, grids):
        assert grids is None
        kept = row_loop(flat, grids)
        seen.append((flat, kept))
        return kept

    with monkeypatch.context() as patch:
        patch.setattr(joins, "_prune_rows", recording)
        patch.setattr(joins, "_ANALYSIS_CACHE", LRUCache(32))
        composite_analysis(query, database)
    return seen


class TestGridPrune:
    """The join prune on a grid keeps exactly the rows the row loop keeps."""

    @pytest.mark.parametrize(
        "generator",
        [random_join_case, random_database_case, random_join_aggregate_case],
        ids=["join", "database", "join_aggregate"],
    )
    def test_grid_prune_keeps_the_row_loops_rows(self, generator, monkeypatch):
        filtered = dropped = 0
        for seed in SEEDS:
            query, database, description = generator(seed)
            # The optimizer pushes filters below the join, onto the sides.
            optimized = optimize_query(query, database).query()
            for run in (query, optimized):
                for side, kept in _pruned_sides(run, database, monkeypatch):
                    grid_kept = joins._prune_rows(side, _resolve)
                    assert grid_kept.tolist() == kept.tolist(), description
                    filtered += side.predicate is not None
                    dropped += len(kept) < len(side.table)
        assert filtered >= 10 and dropped >= 5, (filtered, dropped)

    def test_a_row_above_the_completion_cap_is_kept(self, monkeypatch):
        # Row 0 has three completions and none passes x < 3.
        table = CoddTable(("k", "x"), [(1, Null([5, 6, 7])), (2, 1)])
        side = FlatQuery(
            table=table,
            name="L",
            working=("k", "x"),
            output=("k", "x"),
            predicate=Comparison(Attribute("x"), "<", Literal(3)),
            sources=frozenset({"L"}),
        )
        assert joins._prune_rows(side, _resolve).tolist() == [1]
        assert joins._prune_rows(side, None).tolist() == [1]
        monkeypatch.setattr(joins, "MAX_JOIN_PRUNE_COMPLETIONS", 2)
        assert joins._prune_rows(side, _resolve).tolist() == [0, 1]
        assert joins._prune_rows(side, None).tolist() == [0, 1]

        monkeypatch.setattr(joins, "_ANALYSIS_CACHE", LRUCache(32))
        database = {"L": table, "R": CoddTable(("k", "y"), [(1, "u"), (2, "v")])}
        query = Join(Select(Scan("L"), side.predicate), Scan("R"))
        assert plan_codd_query(query, database).backend == "vectorized"
        for mode in ("certain", "possible"):
            result = answer_query(query, database, mode=mode).relation
            assert result == _oracle(query, database, mode)

    MIXED = CoddTable(("k", "x"), [(1, 1), (2, "b"), (3, Null([5, "b"]))])
    RIGHT = CoddTable(("k", "y"), [(1, "u"), (2, "v"), (3, "w")])

    @pytest.mark.parametrize(
        "predicate",
        [
            # Short-circuits past every str < int on each row: an answer.
            Disjunction(
                Comparison(Attribute("x"), "==", Literal("b")),
                Comparison(Attribute("x"), "<", Literal(2)),
            ),
            # Compares "b" < 2 in every world: the oracle's TypeError.
            Comparison(Attribute("x"), "<", Literal(2)),
        ],
        ids=["answer", "type_error"],
    )
    def test_a_mixed_type_ordering_takes_the_row_loop(
        self, predicate, fresh_analysis
    ):
        side = FlatQuery(
            table=self.MIXED,
            name="L",
            working=("k", "x"),
            output=("k", "x"),
            predicate=predicate,
            sources=frozenset({"L"}),
        )
        with pytest.raises(TypeError):
            predicate_mask(predicate, side.working, StackedTable(self.MIXED))
        grid_kept = joins._prune_rows(side, _resolve)
        assert grid_kept.tolist() == joins._prune_rows(side, None).tolist()

        database = {"L": self.MIXED, "R": self.RIGHT}
        query = Join(Select(Scan("L"), predicate), Scan("R"))
        pinned = {name: StackedTable(table) for name, table in database.items()}
        for mode in ("certain", "possible"):
            try:
                expected = answer_query(query, database, mode=mode, backend="naive")
            except TypeError as error:
                with pytest.raises(TypeError) as raised:
                    answer_query(query, database, mode=mode, prepared=pinned)
                assert str(raised.value) == str(error)
            else:
                served = answer_query(query, database, mode=mode, prepared=pinned)
                assert served.plan.backend == "vectorized"
                assert served.relation == expected.relation


#: The served join reads: ``sql_mix``'s aggregate, and the join under it.
_JOIN_SQL = {
    "aggregate": (
        "SELECT o.cid, COUNT(*) AS n, SUM(o.amount) AS total "
        "FROM customers c JOIN orders o ON c.cid = o.cid "
        "WHERE c.region = 'north' AND o.oid >= {t} GROUP BY o.cid"
    ),
    "flat": (
        "SELECT o.oid, o.amount FROM customers c JOIN orders o "
        "ON c.cid = o.cid WHERE c.region = 'north' AND o.oid >= {t}"
    ),
}


def _engine_grids(database, handed: bool):
    """The grid resolver a fresh ``vectorized`` backend reads: the handed
    (pinned) grids, their float views resolved up front, or grids it
    resolves into its own LRU."""
    pinned = None
    if handed:
        pinned = {name: StackedTable(table) for name, table in database.items()}
        for grid in pinned.values():
            for c in range(len(grid.columns)):
                grid.numeric_column(c)
    return VectorizedCoddBackend()._grids(pinned)


def _pair_flats(query, database, grids, monkeypatch):
    """Every pair table's :class:`FlatQuery` the analysis of ``query``
    synthesizes."""
    made = []
    synthesize = joins._synthesize_pair

    def recording(*args):
        made.append(synthesize(*args))
        return made[-1]

    with monkeypatch.context() as patch:
        patch.setattr(joins, "_synthesize_pair", recording)
        patch.setattr(joins, "_ANALYSIS_CACHE", LRUCache(32))
        composite_analysis(query, database, grids)
    return made


def _assert_same_grid(gathered, fresh):
    """Column values (the same objects), dtypes, segments, total, varying
    columns and every column's resolved float view all equal."""
    assert gathered.table is fresh.table
    assert len(gathered.columns) == len(fresh.columns)
    for ours, theirs in zip(gathered.columns, fresh.columns):
        assert ours.dtype == theirs.dtype == np.dtype(object)
        assert len(ours) == len(theirs)
        assert all(a is b for a, b in zip(ours, theirs))
    for ours, theirs in (
        (gathered.counts, fresh.counts),
        (gathered.offsets, fresh.offsets),
    ):
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)
    assert type(gathered.total) is int and gathered.total == fresh.total
    assert gathered.varying == fresh.varying
    # Every view also resolves from the gathered columns alone, without
    # the sides' views or the pair table's rows.
    unresolved = copy.copy(gathered)
    unresolved.table = None
    unresolved._numeric = [False] * len(fresh.columns)
    for c in range(len(fresh.columns)):
        theirs = fresh.numeric_column(c)
        for ours in (gathered.numeric_column(c), unresolved.numeric_column(c)):
            assert (ours is None) == (theirs is None), c
            if ours is not None:
                assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)


class TestPairGrid:
    """A pair table's grid, gathered from its sides' grids, is the grid
    :class:`StackedTable` builds from the pair table."""

    @pytest.mark.parametrize("handed", [False, True], ids=["resolved", "handed"])
    @pytest.mark.parametrize(
        "generator",
        [random_join_case, random_join_aggregate_case],
        ids=["join", "join_aggregate"],
    )
    def test_gathered_grid_equals_a_fresh_build(self, generator, handed, monkeypatch):
        pairs = with_nulls = 0
        for seed in SEEDS:
            query, database, description = generator(seed)
            grids = _engine_grids(database, handed)
            optimized = optimize_query(query, database).query()
            for run in (query, optimized):
                for flat in _pair_flats(run, database, grids, monkeypatch):
                    _assert_same_grid(flat.grid(grids), StackedTable(flat.table))
                    pairs += len(flat.table)
                    with_nulls += flat.table.n_variables
        assert pairs >= 40 and with_nulls >= 20, (pairs, with_nulls)

    L = CoddTable(
        ("k", "a", "b"),
        [
            (1, Null([1, 2]), Null(["x", "y", "z"])),  # two NULLs
            (2, 5, "w"),  # no partner
            (Null([3, 4]), Null([7, 8.5]), "v"),  # a NULL join key
            (6, 6, Null([2**60, 1])),
        ],
    )
    # Column c is not float-exact as a whole ("z"), but is on paired rows.
    R = CoddTable(
        ("k", "c"), [(1, Null([1, 2])), (3, Null([5, 2])), (6, 0.5), (7, "z")]
    )
    S = CoddTable(("k", "d"), [(2, "p"), (3, Null(["q", "r"])), (6, "t")])

    @pytest.mark.parametrize("handed", [False, True], ids=["resolved", "handed"])
    @pytest.mark.parametrize(
        "query, tables, n_pairs",
        [
            # NULL keys, rows with several NULLs, and both sides' NULLs in
            # one pair row: left row 0 x right row 2 has 2 * 3 * 2 completions.
            (Join(Scan("L"), Scan("R")), "LR", None),
            # A pair table as a join side: its grid is gathered in turn.
            (Join(Join(Scan("L"), Scan("R")), Scan("S")), "LRS", None),
            # No key pairs: a cross product with a one-row complete side.
            (
                Join(
                    Scan("L"),
                    Rename(
                        Select(Scan("R"), Comparison(Attribute("c"), "==", Literal(0.5))),
                        {"k": "k2"},
                    ),
                ),
                "LR",
                4,
            ),
            # An empty side.
            (Join(Scan("L"), Scan("E")), "LE", 0),
        ],
        ids=["null_keys", "nested", "cross_product", "empty_side"],
    )
    def test_gathered_grid_on_built_cases(
        self, query, tables, n_pairs, handed, monkeypatch
    ):
        every = {"L": self.L, "R": self.R, "S": self.S, "E": CoddTable(("k", "e"), [])}
        database = {name: every[name] for name in tables}
        grids = _engine_grids(database, handed)
        flats = _pair_flats(query, database, grids, monkeypatch)
        assert flats, "the join declined"
        for flat in flats:
            _assert_same_grid(flat.grid(grids), StackedTable(flat.table))
        if n_pairs is not None:
            assert len(flats[-1].table) == n_pairs
        for mode in ("certain", "possible"):
            result = answer_query(query, database, mode=mode, backend="vectorized")
            assert result.relation == _oracle(query, database, mode)

    def test_the_probe_pairs_exactly_the_rows_whose_keys_can_match(
        self, monkeypatch, fresh_analysis
    ):
        probe, probed = joins._probe, []

        def recording(*args):
            probed.append((args, probe(*args)))
            return probed[-1][1]

        monkeypatch.setattr(joins, "_probe", recording)
        # Two key pairs, NULLs on both: the second key filters the first's pairs.
        two_keys = (
            Join(Scan("A"), Scan("B")),
            {
                "A": CoddTable(
                    ("k", "j"), [(1, Null([1, 2])), (1, 3), (Null([2, 9]), 2), (2, 1)]
                ),
                "B": CoddTable(
                    ("k", "j", "z"), [(1, 2, "u"), (2, Null([2, 5]), "v"), (1, 1, "w")]
                ),
            },
        )
        cases = [two_keys] + [
            generator(seed)[:2]
            for generator in (random_join_case, random_join_aggregate_case)
            for seed in SEEDS
        ]
        for query, database in cases:
            joins._ANALYSIS_CACHE.clear()
            composite_analysis(query, database)

        def values(cell):
            return set(cell.domain) if isinstance(cell, Null) else {cell}

        keys = pairs = 0
        for (left, right, kept, _, key_pairs), (left_rows, right_rows) in probed:
            key_cols = [
                (left.working.index(a), right.working.index(b)) for a, b in key_pairs
            ]
            expected = [
                (i, j)
                for i in kept[0].tolist()
                for j in kept[1].tolist()
                if all(
                    values(left.table.rows[i][a]) & values(right.table.rows[j][b])
                    for a, b in key_cols
                )
            ]
            assert list(zip(left_rows.tolist(), right_rows.tolist())) == expected
            keys = max(keys, len(key_pairs))
            pairs += len(expected)
        assert keys >= 2 and pairs >= 50, (keys, pairs)

    @pytest.mark.parametrize("kind", ["aggregate", "flat"])
    def test_a_join_read_on_pinned_grids_builds_no_table_or_grid(
        self, kind, monkeypatch, fresh_analysis
    ):
        customers = CoddTable(
            ("cid", "region"), [(cid, ("north", "south")[cid % 2]) for cid in range(6)]
        )
        orders = CoddTable(
            ("oid", "cid", "amount"),
            [
                (oid, oid % 6, Null([oid, oid + 30, oid + 60]) if oid % 5 == 0 else oid)
                for oid in range(16)
            ],
        )
        database = {"customers": customers, "orders": orders}
        query = parse_sql(
            _JOIN_SQL[kind].format(t=3),
            schemas={name: table.schema for name, table in database.items()},
        )
        expected = {
            mode: _oracle(query, database, mode) for mode in ("certain", "possible")
        }
        pinned = {name: StackedTable(table) for name, table in database.items()}
        built = []
        for cls in (StackedTable, CoddTable):
            def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
                built.append(_name)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        for mode in ("certain", "possible"):
            result = answer_query(query, database, mode=mode, prepared=pinned)
            assert result.plan.backend == "vectorized"
            assert result.relation == expected[mode]
        assert built == []


def _aggregations(query, database, grids, monkeypatch):
    """``(flat, group_by, aggregates, grid)`` for every aggregation the
    analysis of ``query`` prepares."""
    seen = []
    prepare = aggregate.prepare_aggregation

    def recording(flat, group_by, aggregates, stacked=None):
        seen.append((flat, group_by, aggregates, stacked))
        return prepare(flat, group_by, aggregates, stacked)

    with monkeypatch.context() as patch:
        patch.setattr(aggregate, "prepare_aggregation", recording)
        patch.setattr(joins, "_ANALYSIS_CACHE", LRUCache(32))
        composite_analysis(query, database, grids)
    return seen


def _options(flat, stacked):
    """The option table as plain lists: ``(distinct, bounds, can_fail)``."""
    distinct, bounds, can_fail = aggregate._row_options(flat, stacked)
    return distinct, bounds.tolist(), can_fail.tolist()


def _row_options_outcome(flat, stacked):
    """The option table, or the type of the error it raises."""
    try:
        return _options(flat, stacked)
    except (joins._Decline, TypeError) as error:
        return type(error)


class TestGridRowOptions:
    """Row options read off one predicate pass over the grid are the row
    loop's, option for option, and decline where it declines."""

    @pytest.mark.parametrize(
        "generator, min_declines",
        # The join-aggregate cases decline in the join, before any options.
        [(random_join_aggregate_case, 0), (random_aggregate_case, 1)],
        ids=["join_aggregate", "aggregate"],
    )
    def test_grid_row_options_match_the_row_loop(
        self, generator, min_declines, monkeypatch
    ):
        rows = declined = 0
        for seed in SEEDS:
            query, database, description = generator(seed)
            optimized = optimize_query(query, database).query()
            for handed in (False, True):
                grids = _engine_grids(database, handed)
                for run in (query, optimized):
                    aggregations = _aggregations(run, database, grids, monkeypatch)
                    for flat, _, _, stacked in aggregations:
                        assert stacked is not None, description
                        outcome = _row_options_outcome(flat, stacked)
                        assert outcome == _row_options_outcome(flat, None), description
                        if isinstance(outcome, tuple):
                            rows += len(outcome[2])
                        else:
                            declined += 1
        assert rows >= 100 and declined >= min_declines, (rows, declined)

    def test_a_type_error_off_the_short_circuit_stays_on_the_fast_path(
        self, monkeypatch, fresh_analysis
    ):
        # Every row short-circuits before comparing "b" < 2; a vectorised
        # pass over the pair grid compares them all and raises.
        predicate = Disjunction(
            Comparison(Attribute("x"), "==", Literal("b")),
            Comparison(Attribute("x"), "<", Literal(2)),
        )
        query = Aggregate(
            Select(Join(Scan("L"), Scan("R")), predicate),
            ("y",),
            (AggregateSpec("count", None, "n"),),
        )
        database = {"L": TestGridPrune.MIXED, "R": TestGridPrune.RIGHT}
        grids = _engine_grids(database, handed=True)
        (flat, _, _, stacked), = _aggregations(query, database, grids, monkeypatch)
        with pytest.raises(TypeError):
            predicate_mask(flat.predicate, flat.working, stacked)
        assert _options(flat, stacked) == _options(flat, None)
        pinned = {name: StackedTable(table) for name, table in database.items()}
        for prepared in (None, pinned):
            joins._ANALYSIS_CACHE.clear()
            for mode in ("certain", "possible"):
                result = answer_query(query, database, mode=mode, prepared=prepared)
                assert result.plan.backend == "vectorized"
                assert result.relation == _oracle(query, database, mode)


def _reachable(root) -> list:
    """Every object reachable from ``root``, past no type, module or function."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
            obj, (type, types.ModuleType, types.FunctionType)
        ):
            continue
        seen.add(id(obj))
        found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


class TestAnalysisCacheMemory:
    """Cached analyses keep no per-query grid: an aggregate keeps only its
    answers and a cell estimate, a flat join its pair table."""

    @pytest.mark.parametrize("kind", ["aggregate", "flat"])
    def test_forty_join_analyses_pin_no_pair_grid(self, kind, fresh_analysis):
        customers = CoddTable(
            ("cid", "region"), [(cid, ("north", "south")[cid % 2]) for cid in range(8)]
        )
        orders = CoddTable(
            ("oid", "cid", "amount"),
            [
                (oid, oid % 8, Null([oid, oid + 7]) if oid % 3 == 0 else oid)
                for oid in range(60)
            ],
        )
        database = {"customers": customers, "orders": orders}
        schemas = {name: table.schema for name, table in database.items()}
        pinned = {name: StackedTable(table) for name, table in database.items()}
        for t in range(40):
            query = parse_sql(_JOIN_SQL[kind].format(t=t), schemas=schemas)
            result = answer_query(query, database, mode="possible", prepared=pinned)
            assert result.plan.backend == "vectorized"
        cache = joins._ANALYSIS_CACHE
        assert len(cache) == 32
        for key in cache:
            composite = cache.peek(key)
            assert composite.kind == kind
            reachable = _reachable(composite)
            assert not any(isinstance(obj, StackedTable) for obj in reachable)
            if kind == "aggregate":
                assert composite.flat is None
                assert not any(isinstance(obj, CoddTable) for obj in reachable)


class TestAggregateStateCap:
    """``MAX_AGGREGATE_STATES`` bounds the DP's largest state set; past it
    the query plans onto ``naive``, and either side answers exactly."""

    #: Group 0 reaches four SUM states, {11, 12, 21, 22}, after its second row.
    TABLE = CoddTable(("g", "v"), [(0, Null([1, 2])), (0, Null([10, 20])), (1, 4)])
    QUERY = Aggregate(Scan("T"), ("g",), (AggregateSpec("sum", "v", "total"),))

    @pytest.mark.parametrize(
        "cap, backend", [(3, "naive"), (4, "vectorized")], ids=["above", "at"]
    )
    def test_both_sides_of_the_cap(self, cap, backend, monkeypatch, fresh_analysis):
        monkeypatch.setattr(aggregate, "MAX_AGGREGATE_STATES", cap)
        database = {"T": self.TABLE}
        assert plan_codd_query(self.QUERY, database).backend == backend
        for mode in ("certain", "possible"):
            result = answer_query(self.QUERY, database, mode=mode).relation
            assert result == _oracle(self.QUERY, database, mode)

    def test_certain_rows_fold_first(self, monkeypatch, fresh_analysis):
        # In table order the two uncertain rows hold two MAX states each;
        # folding the certain 10 first keeps one state throughout.
        table = CoddTable(("g", "v"), [(0, Null([1, 2])), (0, Null([3, 4])), (0, 10)])
        query = Aggregate(Scan("T"), ("g",), (AggregateSpec("max", "v", "top"),))
        monkeypatch.setattr(aggregate, "MAX_AGGREGATE_STATES", 1)
        database = {"T": table}
        assert plan_codd_query(query, database).backend == "vectorized"
        for mode in ("certain", "possible"):
            result = answer_query(query, database, mode=mode).relation
            assert result == _oracle(query, database, mode)
            assert result.rows == {(0, 10)}


def _prepare_on(path, aggregation, monkeypatch):
    """Prepare ``aggregation`` (``(flat, group_by, aggregates, grid)``) on
    ``path``: ``"integer"`` where the integer state algebra applies, else
    ``"set"`` (the set DP, always).  Returns ``(algebra, outcome,
    steps)``: the algebra's class name, the certain and possible
    relations (schema and sorted row reprs) or the decline's message, and
    ``(group, options, avoidable, states)`` for every DP step."""
    algebras, steps = [], []
    with monkeypatch.context() as patch:
        if path == "set":
            patch.setattr(aggregate, "_integer_contributions", lambda *args: None)
        for cls in (aggregate._IntegerStates, aggregate._SetStates):

            def init(self, *args, _init=cls.__init__, _name=cls.__name__):
                algebras.append(_name)
                _init(self, *args)

            def step(self, g, states, options, avoidable, _step=cls.step):
                states = _step(self, g, states, options, avoidable)
                steps.append((g, len(options), avoidable, self.count(states)))
                return states

            patch.setattr(cls, "__init__", init)
            patch.setattr(cls, "step", step)
        try:
            prepared = aggregate.prepare_aggregation(*aggregation)
        except joins._Decline as error:
            outcome = str(error)
        else:
            # Bit for bit: each value's type and repr, not only equality.
            outcome = tuple(
                (relation.schema, sorted(map(repr, relation.rows)))
                for relation in (prepared.certain, prepared.possible)
            )
    return (algebras or [None])[0], outcome, steps


def _assert_paths_agree(aggregation, monkeypatch, description=""):
    """Both state algebras give the same answers or the same decline, and
    the same state count after every member: the set DP steps through
    the certain members (one state each) that the integer path folds on
    arrays.  Returns the algebra the unforced run took."""
    algebra, outcome, steps = _prepare_on("integer", aggregation, monkeypatch)
    set_algebra, set_outcome, set_steps = _prepare_on("set", aggregation, monkeypatch)
    assert set_algebra in ("_SetStates", None), description
    assert outcome == set_outcome, description
    certain = [step for step in set_steps if step[1:3] == (1, False)]
    assert all(step[3] == 1 for step in certain), description
    if algebra == "_IntegerStates":
        assert steps == [step for step in set_steps if step[1:3] != (1, False)]
    else:
        assert steps == set_steps, description
    return algebra


def _only_aggregation(query, database, monkeypatch):
    grids = _engine_grids(database, handed=False)
    (aggregation,) = _aggregations(query, database, grids, monkeypatch)
    return aggregation


class TestIntegerStates:
    """COUNT/SUM over bounded ints runs on packed integer states, with the
    certain members folded on arrays; its answers, per-member state counts
    and declines are the set DP's, which keeps every other input."""

    @pytest.mark.parametrize(
        "generator, min_integer, min_set, min_declined",
        # The join-aggregate cases decline in the join, before any DP.
        [(random_aggregate_case, 8, 30, 1), (random_join_aggregate_case, 15, 15, 0)],
        ids=["aggregate", "join_aggregate"],
    )
    def test_the_integer_path_matches_the_set_dp(
        self, generator, min_integer, min_set, min_declined, monkeypatch
    ):
        taken = {"_IntegerStates": 0, "_SetStates": 0, None: 0}
        for seed in SEEDS:
            query, database, description = generator(seed)
            grids = _engine_grids(database, handed=False)
            for aggregation in _aggregations(query, database, grids, monkeypatch):
                for stacked in (aggregation[3], None):
                    taken[
                        _assert_paths_agree(
                            aggregation[:3] + (stacked,), monkeypatch, description
                        )
                    ] += 1
        assert taken["_IntegerStates"] >= min_integer, taken
        assert taken["_SetStates"] >= min_set, taken
        assert taken[None] >= min_declined, taken

    @pytest.mark.parametrize(
        "rows, specs, group_by, predicate, path",
        [
            pytest.param(
                [(0, -5), (0, Null([-3, 4])), (1, Null([-7, -1])), (1, -2)],
                [("sum", "v")],
                ("g",),
                None,
                "integer",
                id="negative_sums",
            ),
            pytest.param(
                [(0, True), (0, Null([False, 2])), (1, False), (1, Null([True, 3]))],
                [("sum", "v"), ("count", "v")],
                ("g",),
                None,
                "integer",
                id="bools",
            ),
            pytest.param(
                [
                    (0, 2**53),
                    (0, Null([-(2**53), 5])),
                    (1, -(2**53)),
                    (1, Null([2**53, 0])),
                ],
                [("sum", "v")],
                ("g",),
                None,
                "integer",
                id="plus_minus_2_53",
            ),
            pytest.param(
                [(0, 2**53 + 1), (0, Null([1, 2])), (1, 4)],
                [("sum", "v")],
                ("g",),
                None,
                "set",
                id="2_53_plus_1",
            ),
            pytest.param(
                [(0, -(2**53) - 1), (0, Null([1, 2])), (1, 4)],
                [("sum", "v")],
                ("g",),
                None,
                "set",
                id="minus_2_53_minus_1",
            ),
            pytest.param(
                [(0, 1), (0, Null([2, 2.5])), (1, 4)],
                [("sum", "v")],
                ("g",),
                None,
                "set",
                id="a_float",
            ),
            pytest.param(
                [(0, 1), (0, Null([3, 4])), (1, 2)],
                [("count", None), ("count", "v"), ("sum", "v")],
                ("g",),
                None,
                "integer",
                id="count_attribute_beside_sum",
            ),
            pytest.param(
                [(0, 2**53 - i) for i in range(9)] + [(0, Null([-(2**53), -5]))],
                [("sum", "v"), ("count", None), ("sum", "v")],
                ("g",),
                None,
                "integer",
                id="packed_states_wider_than_int64",
            ),
            pytest.param(
                [(i % 2, 2**53 - i) for i in range(600)]
                + [(0, Null([-(2**53), -5])), (1, Null([0, -(2**53)]))],
                [("sum", "v")],
                ("g",),
                None,
                "integer",
                id="sums_wider_than_int64",
            ),
            pytest.param(
                [(0, 1), (0, Null([3, 4])), (1, 2)],
                [("max", "v"), ("sum", "v")],
                ("g",),
                None,
                "set",
                id="max_beside_sum",
            ),
            pytest.param(
                [(0, Null([1, 5])), (1, Null([2, 6])), (2, 3)],
                [("sum", "v")],
                (),
                Comparison(Attribute("v"), ">", Literal(4)),
                "integer",
                id="sum_without_group_by_over_a_child_that_may_be_empty",
            ),
            pytest.param(
                [(0, Null([1, 5])), (0, Null([2, 6])), (Null([0, 1]), 3), (1, 8)],
                [("count", None), ("sum", "v")],
                ("g",),
                Comparison(Attribute("v"), "<", Literal(5)),
                "integer",
                id="groups_of_avoidable_rows_only",
            ),
        ],
    )
    def test_edge_cases(
        self, rows, specs, group_by, predicate, path, monkeypatch, fresh_analysis
    ):
        child = Scan("T")
        if predicate is not None:
            child = Select(child, predicate)
        query = Aggregate(
            child,
            group_by,
            tuple(
                AggregateSpec(func, attribute, f"{func}_{i}")
                for i, (func, attribute) in enumerate(specs)
            ),
        )
        database = {"T": CoddTable(("g", "v"), rows)}
        aggregation = _only_aggregation(query, database, monkeypatch)
        algebra = _assert_paths_agree(aggregation, monkeypatch)
        assert algebra == {"integer": "_IntegerStates", "set": "_SetStates"}[path]
        joins._ANALYSIS_CACHE.clear()
        assert plan_codd_query(query, database).backend == "vectorized"
        for mode in ("certain", "possible"):
            result = answer_query(query, database, mode=mode).relation
            assert result == _oracle(query, database, mode)

    def test_no_group_by_over_an_empty_child(self, monkeypatch, fresh_analysis):
        query = Aggregate(
            Select(Scan("T"), Comparison(Attribute("v"), ">", Literal(9))),
            (),
            (AggregateSpec("sum", "v", "total"), AggregateSpec("count", None, "n")),
        )
        database = {"T": CoddTable(("g", "v"), [(0, 1), (1, Null([2, 3]))])}
        aggregation = _only_aggregation(query, database, monkeypatch)
        assert _assert_paths_agree(aggregation, monkeypatch) == "_IntegerStates"
        for mode in ("certain", "possible"):
            assert answer_query(query, database, mode=mode).relation.rows == {(None, 0)}

    @pytest.mark.parametrize("cap", [3, 4], ids=["above", "at"])
    def test_the_cap_on_the_integer_path(self, cap, monkeypatch, fresh_analysis):
        # Group 0 reaches four SUM states after its second uncertain row,
        # behind two certain rows folded on arrays.
        table = CoddTable(
            ("g", "v"),
            [(0, 5), (0, Null([1, 2])), (0, 7), (0, Null([10, 20])), (1, 4)],
        )
        query = Aggregate(
            Scan("T"),
            ("g",),
            (AggregateSpec("count", None, "n"), AggregateSpec("sum", "v", "total")),
        )
        database = {"T": table}
        monkeypatch.setattr(aggregate, "MAX_AGGREGATE_STATES", cap)
        aggregation = _only_aggregation(query, database, monkeypatch)
        algebra, outcome, steps = _prepare_on("integer", aggregation, monkeypatch)
        assert algebra == "_IntegerStates"
        assert [step[3] for step in steps] == [2, 4]
        assert isinstance(outcome, str) == (cap == 3)
        _assert_paths_agree(aggregation, monkeypatch)
        joins._ANALYSIS_CACHE.clear()
        backend = "naive" if cap == 3 else "vectorized"
        assert plan_codd_query(query, database).backend == backend
        for mode in ("certain", "possible"):
            result = answer_query(query, database, mode=mode).relation
            assert result == _oracle(query, database, mode)

    def test_a_cap_below_one_declines_certain_rows_alone(self, monkeypatch):
        # The set DP holds one state after each certain member; folded on
        # arrays they still count as one state, checked against the cap.
        query = Aggregate(Scan("T"), ("g",), (AggregateSpec("sum", "v", "total"),))
        database = {"T": CoddTable(("g", "v"), [(0, 1), (0, 2), (1, 3)])}
        aggregation = _only_aggregation(query, database, monkeypatch)
        monkeypatch.setattr(aggregate, "MAX_AGGREGATE_STATES", 0)
        algebra, outcome, steps = _prepare_on("integer", aggregation, monkeypatch)
        assert algebra == "_IntegerStates" and steps == []
        assert outcome == "aggregate DP exceeded 0 states"
        assert _assert_paths_agree(aggregation, monkeypatch) == "_IntegerStates"

    def test_every_served_shape_read_takes_the_integer_path(
        self, monkeypatch, fresh_analysis
    ):
        # The served benchmark's read shape: COUNT(*) and SUM over int
        # amounts, a quarter of them NULL with three options, behind a
        # join filtered on both sides; on pinned grids, as served.
        rng = np.random.default_rng(33)
        regions = ("north", "south", "east", "west")
        customers = CoddTable(
            ("cid", "region"), [(cid, regions[cid % 4]) for cid in range(40)]
        )
        orders = []
        for oid in range(240):
            amount: object = int(rng.integers(0, 160))
            if oid % 4 == 0:
                base = int(rng.integers(0, 120))
                amount = Null([base, base + 30, base + 60])
            orders.append((oid, int(rng.integers(40)), amount))
        database = {
            "customers": customers,
            "orders": CoddTable(("oid", "cid", "amount"), orders),
        }
        schemas = {name: table.schema for name, table in database.items()}
        pinned = {name: StackedTable(table) for name, table in database.items()}
        grids = VectorizedCoddBackend()._grids(pinned)
        reads = 0
        for region in regions:
            for t in (0, 60, 150):
                sql = JOIN_AGGREGATE_SQL.format(
                    region=region, order_filter=f"o.oid >= {t}"
                )
                query = parse_sql(sql, schemas=schemas)
                for aggregation in _aggregations(query, database, grids, monkeypatch):
                    algebra = _assert_paths_agree(aggregation, monkeypatch)
                    assert algebra == "_IntegerStates"
                    reads += 1
        assert reads == 12


def _generated(generator, seed):
    """``(query, database, description)`` from any of the case generators."""
    made = generator(seed)
    if generator is random_case:
        query, table, name, description = made
        return query, {name: table}, description
    return made


class TestOptimizerDifferential:
    """Optimized and unoptimized execution must be bit-identical — every
    rewrite is a per-world equivalence, certified here over fuzzed inputs."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "generator", [random_case, random_join_case, random_aggregate_case],
        ids=["single", "join", "aggregate"],
    )
    def test_optimized_matches_unoptimized(self, seed, generator):
        query, database, description = _generated(generator, seed)
        for mode in ("certain", "possible"):
            plain = answer_query(query, database, mode=mode, optimize=False)
            optimized = answer_query(query, database, mode=mode, optimize=True)
            assert plain.relation == optimized.relation, (
                f"optimizer changed the {mode} answer: {description} "
                f"(rewrites: {optimized.rewrites})"
            )


def _leaf_cells(query, database) -> list[int]:
    """Grid sizes of the flat leaves the ``vectorized`` backend evaluates
    for ``query`` (empty when it plans elsewhere or aggregates)."""
    cells: list[int] = []

    def walk(composite):
        if composite.kind == "flat":
            cells.append(composite.flat.completion_cells())
        elif composite.kind in ("union", "difference"):
            walk(composite.left)
            walk(composite.right)

    composite = composite_analysis(query, database)
    if composite is not None:
        walk(composite)
    return cells


@pytest.fixture
def row_blocked(monkeypatch):
    """Lower the stacking cap to ``cap`` on a fresh ``vectorized`` backend
    (so no whole grid cached by another test is reused), counting the
    evaluations that ran in more than one row block."""
    monkeypatch.setitem(engine._REGISTRY, "vectorized", VectorizedCoddBackend())
    multi_block = []
    real_row_blocks = certain_module.row_blocks

    def counting_row_blocks(table):
        blocks = real_row_blocks(table)
        multi_block.append(len(blocks) > 1)
        return blocks

    monkeypatch.setattr(certain_module, "row_blocks", counting_row_blocks)

    def lower(cap: int) -> None:
        monkeypatch.setattr(vectorized, "MAX_STACKED_CELLS", cap)

    lower.multi_block = multi_block
    return lower


class TestRowBlockDifferential:
    """Row-block evaluation must stay bit-identical to the oracle."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "generator", [random_case, random_join_case, random_aggregate_case],
        ids=["single", "join", "aggregate"],
    )
    def test_row_blocks_match_oracle(self, seed, generator, row_blocked):
        query, database, description = _generated(generator, seed)
        # Below the smallest leaf grid: every leaf splits into blocks, and
        # a row whose grid is above half the leaf streams on its own.
        cap = min(_leaf_cells(query, database), default=0) // 2
        row_blocked(cap)
        for mode in ("certain", "possible"):
            oracle = _oracle(query, database, mode)
            for backend in _capable_backends(query, database):
                result = answer_query(
                    query, database, mode=mode, backend=backend
                ).relation
                assert result == oracle, f"{backend}/{mode} diverged: {description}"
        grids = engine.get_codd_backend("vectorized")._prepared
        cached = map(grids.peek, grids)
        assert all(
            grid.total * len(grid.columns) <= cap for grid in cached
        ), "a grid above the stacking cap entered the LRU"

    def test_row_blocks_actually_engage(self, row_blocked):
        for seed in SEEDS:
            query, table, name, _ = random_case(seed)
            row_blocked(vectorized.estimate_stacked_cells(table) // 2)
            answer_query(query, {name: table}, mode="certain", backend="vectorized")
        assert sum(row_blocked.multi_block) >= 10, row_blocked.multi_block

    def test_lone_row_above_the_block_cap_streams(self, row_blocked):
        # Row 1 alone has 18 grid cells (9 completions x 2 columns), above
        # a cap of 4; rows 0 and 2 (2 and 4 cells) run on grids of their own.
        table = CoddTable(
            ("a", "b"),
            [(1, "x"), (Null([1, 2, 3]), Null(["x", "y", "z"])), (3, Null(["x", "y"]))],
        )
        row_blocked(4)
        assert vectorized.row_blocks(table) == [(0, 1, True), (1, 2, False), (2, 3, True)]
        query = Select(Scan("T"), Comparison(Attribute("a"), ">=", Literal(1)))
        for mode, oracle in (
            ("certain", certain_answers_naive(query, table)),
            ("possible", possible_answers_naive(query, table)),
        ):
            result = answer_query(query, {"T": table}, mode=mode, backend="vectorized")
            assert result.relation == oracle, mode
        assert row_blocked.multi_block == [True, True]

    def test_mixed_type_error_in_a_later_block_replays_the_reference(
        self, row_blocked
    ):
        # The non-comparable completion ("a" < 2) sits in the second block;
        # the first block evaluates cleanly. The whole query must replay on
        # the streaming reference: an answer for `certain` (its first
        # completion already fails, so the reference never compares "a"),
        # the reference's TypeError for `possible`.
        table = CoddTable(("x",), [(1,), (2,), (Null([5, "a"]),)])
        query = Select(Scan("T"), Comparison(Attribute("x"), "<", Literal(2)))
        row_blocked(2)
        assert vectorized.row_blocks(table) == [(0, 2, True), (2, 3, True)]
        reference = certain_select_project_rowwise(query, table)
        assert reference.rows == {(1,)}
        result = answer_query(query, {"T": table}, mode="certain", backend="vectorized")
        assert result.relation == reference
        with pytest.raises(TypeError) as expected:
            possible_select_project_rowwise(query, table)
        with pytest.raises(TypeError) as raised:
            answer_query(query, {"T": table}, mode="possible", backend="vectorized")
        assert str(raised.value) == str(expected.value)
