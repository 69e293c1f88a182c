"""The vectorized certain-answer engine: grid layout, exactness, registry."""

from __future__ import annotations

import numpy as np
import pytest

import repro.codd.certain as certain_module
import repro.codd.engine as eng
import repro.codd.vectorized as vec
from repro.codd.algebra import (
    Attribute,
    Comparison,
    Conjunction,
    Disjunction,
    Literal,
    Negation,
    Project,
    Rename,
    Scan,
    Select,
    Union,
)
from repro.codd.certain import (
    certain_answers,
    certain_answers_naive,
    certain_select_project_rowwise,
    possible_answers,
    possible_answers_naive,
    possible_select_project_rowwise,
)
from repro.codd.codd_table import CoddTable, Null
from repro.codd.engine import (
    CoddPlanError,
    NaiveCoddBackend,
    VectorizedCoddBackend,
    answer_query,
    capable_codd_backends,
    codd_backend_names,
    get_codd_backend,
    plan_codd_query,
    register_codd_backend,
    scan_relations,
)
from repro.codd.vectorized import (
    StackedTable,
    certain_answers_vectorized,
    estimate_stacked_cells,
    possible_answers_vectorized,
)


class TestStackedTable:
    def test_grid_matches_rowwise_completion_order(self):
        table = CoddTable(
            ("a", "b"),
            [(Null([1, 2]), Null(["x", "y", "z"])), (7, "w")],
        )
        stacked = StackedTable(table)
        assert stacked.total == 7
        assert stacked.counts.tolist() == [6, 1]
        assert stacked.offsets.tolist() == [0, 6]
        # First NULL varies slowest (itertools.product order).
        assert stacked.columns[0].tolist() == [1, 1, 1, 2, 2, 2, 7]
        assert stacked.columns[1].tolist() == ["x", "y", "z", "x", "y", "z", "w"]

    def test_varying_flags(self):
        table = CoddTable(("a", "b"), [(1, Null([2, 3]))])
        stacked = StackedTable(table)
        assert stacked.varying == (False, True)

    def test_numeric_column_views(self):
        table = CoddTable(
            ("num", "text", "big"),
            [(1, "x", 2**60), (Null([2.5, 3]), "y", 1)],
        )
        stacked = StackedTable(table)
        numeric = stacked.numeric_column(0)
        assert numeric is not None and numeric.dtype == np.float64
        assert stacked.numeric_column(1) is None  # strings
        assert stacked.numeric_column(2) is None  # beyond float64 exactness

    def test_numeric_column_rejects_nan_and_inexact_ints(self):
        table = CoddTable(
            ("x", "y", "z"),
            [(float("nan"), 2**53 + 1, 1), (1.0, Null([1, 2]), Null([True, 2.5]))],
        )
        stacked = StackedTable(table)
        assert stacked.numeric_column(0) is None  # NaN breaks reflexivity
        assert stacked.numeric_column(1) is None  # rounds as a float64
        assert stacked.numeric_column(2).tolist() == [1.0, 1.0, 2.5, 1.0, 2.5]

    def test_estimate_matches_grid(self):
        table = CoddTable(("a", "b"), [(Null([1, 2, 3]), Null([0, 1])), (5, 6)])
        assert estimate_stacked_cells(table) == StackedTable(table).total * 2

    def test_stacking_cap_enforced(self, monkeypatch):
        rows = [(Null([0, 1]),)] * 1  # 2 completions, far below any cap
        table = CoddTable(("a",), rows)
        StackedTable(table)  # fine

        big = CoddTable(("a",), [(Null(range(2)),) for _ in range(30)])
        monkeypatch.setattr(vec, "MAX_STACKED_CELLS", 10)
        with pytest.raises(ValueError, match="stacking cap"):
            StackedTable(big)
        assert not vec.stackable(big)

    def test_row_blocks_split_at_the_cap(self, monkeypatch):
        table = CoddTable(("a",), [(Null(range(2)),) for _ in range(30)])
        assert vec.row_blocks(table) == [(0, 30, True)]
        monkeypatch.setattr(vec, "MAX_STACKED_CELLS", 10)
        assert vec.row_blocks(table) == [
            (0, 5, True), (5, 10, True), (10, 15, True),
            (15, 20, True), (20, 25, True), (25, 30, True),
        ]
        assert vec.row_blocks(CoddTable(("a",), [])) == [(0, 0, True)]


class TestExactness:
    """The engine must be bit-exact where float64 would not be."""

    def test_big_integers_never_go_through_floats(self):
        table = CoddTable(
            ("a", "b"),
            [(2**60, Null([2**60, 2**60 + 1]))],
        )
        query = Select(Scan("T"), Comparison(Attribute("a"), "==", Attribute("b")))
        # 2**60 and 2**60 + 1 collapse as float64; exactly one completion
        # matches, so the answer is possible but not certain.
        assert certain_answers_vectorized(query, table).rows == set()
        assert possible_answers_vectorized(query, table).rows == {
            (2**60, 2**60)
        }
        assert certain_answers_naive(query, table).rows == set()

    def test_emitted_cells_are_original_objects(self):
        value = 2**70  # far outside float64
        table = CoddTable(("a",), [(value,), (Null([value, 1]),)])
        result = possible_answers_vectorized(Scan("T"), table)
        emitted = {row[0] for row in result.rows}
        assert emitted == {value, 1}
        assert all(isinstance(v, int) for v in emitted)

    def test_string_ordering_comparisons(self):
        table = CoddTable(("s",), [(Null(["apple", "pear"]),), ("fig",)])
        query = Select(Scan("T"), Comparison(Attribute("s"), "<", Literal("melon")))
        assert certain_answers_vectorized(query, table) == certain_answers_naive(
            query, table
        )
        assert possible_answers_vectorized(query, table).rows == {
            ("apple",),
            ("fig",),
        }

    def test_mixed_type_ordering_raises_like_python(self):
        table = CoddTable(("a",), [(1,), ("x",)])
        query = Select(Scan("T"), Comparison(Attribute("a"), "<", Literal(5)))
        with pytest.raises(TypeError):
            certain_answers_vectorized(query, table)

    def test_mixed_type_equality_is_false_not_an_error(self):
        table = CoddTable(("a",), [(Null([1, "x"]),)])
        query = Select(Scan("T"), Comparison(Attribute("a"), "==", Literal("x")))
        assert possible_answers_vectorized(query, table).rows == {("x",)}
        assert certain_answers_vectorized(query, table).rows == set()

    @pytest.mark.parametrize("literal", [["x"], ("x",)], ids=["list", "tuple"])
    def test_a_sequence_literal_is_one_value_not_broadcast(self, literal):
        # "x" == ["x"] is False cell by cell; numpy must not compare each
        # cell with the sequence's elements instead.
        table = CoddTable(("a",), [("x",), (Null(["x", "y"]),)])
        for op, expected in (("==", set()), ("!=", {("x",), ("y",)})):
            query = Select(Scan("T"), Comparison(Attribute("a"), op, Literal(literal)))
            assert possible_answers_vectorized(query, table).rows == expected
            assert possible_answers_vectorized(query, table) == possible_answers_naive(
                query, table
            )
            assert certain_answers_vectorized(query, table) == certain_answers_naive(
                query, table
            )

    def test_rename_and_projection(self):
        table = CoddTable(("a", "b"), [(1, Null([5, 6])), (2, 9)])
        query = Project(
            Select(
                Rename(Scan("T"), {"a": "key"}),
                Comparison(Attribute("key"), ">=", Literal(1)),
            ),
            ("key",),
        )
        assert certain_answers_vectorized(query, table).rows == {(1,), (2,)}

    def test_empty_table(self):
        table = CoddTable(("a",), [])
        assert certain_answers_vectorized(Scan("T"), table).rows == set()
        assert possible_answers_vectorized(Scan("T"), table).rows == set()

    def test_empty_conjunction_and_disjunction(self):
        table = CoddTable(("a",), [(Null([1, 2]),)])
        everything = Select(Scan("T"), Conjunction())
        nothing = Select(Scan("T"), Disjunction())
        assert possible_answers_vectorized(everything, table).rows == {(1,), (2,)}
        assert possible_answers_vectorized(nothing, table).rows == set()

    def test_negation_and_literal_comparison(self):
        table = CoddTable(("a",), [(Null([1, 2]),), (3,)])
        query = Select(
            Scan("T"),
            Conjunction(
                Negation(Comparison(Attribute("a"), "==", Literal(2))),
                Comparison(Literal(1), "<", Literal(5)),  # vacuous, vectorised
            ),
        )
        assert possible_answers_vectorized(query, table).rows == {(1,), (3,)}
        assert certain_answers_vectorized(query, table).rows == {(3,)}

    def test_prepared_grid_is_reused(self):
        table = CoddTable(("a",), [(Null([1, 2]),)])
        stacked = StackedTable(table)
        query = Select(Scan("T"), Comparison(Attribute("a"), "==", Literal(1)))
        result = certain_answers_vectorized(query, table, stacked=stacked)
        assert result.rows == set()
        # A grid from a different table object is ignored, not misused.
        other = CoddTable(("a",), [(5,)])
        assert certain_answers_vectorized(Scan("T"), other, stacked=stacked).rows == {
            (5,)
        }

    def test_content_equal_grid_is_accepted_without_rebuild(self):
        # Inline service tables are decoded fresh per request; a grid that
        # matches by fingerprint must be reused, not rebuilt.
        from repro.codd.vectorized import _grid_for

        table = CoddTable(("a",), [(Null([1, 2]),)])
        twin = CoddTable(("a",), [(Null([1, 2]),)])
        stacked = StackedTable(table)
        assert _grid_for(stacked, twin) is stacked
        assert possible_answers_vectorized(Scan("T"), twin, stacked=stacked).rows == {
            (1,),
            (2,),
        }


class TestEngineRegistry:
    def test_default_backends_registered_in_order(self):
        assert codd_backend_names() == ["vectorized", "naive"]

    def test_auto_plans_vectorized_for_select_project(self):
        table = CoddTable(("a",), [(Null([1, 2]),)] * 4)
        plan = plan_codd_query(Scan("T"), {"T": table})
        assert plan.backend == "vectorized"
        assert dict(plan.considered).keys() == {"vectorized", "naive"}

    def test_auto_falls_back_to_naive_for_union(self):
        table = CoddTable(("a",), [(Null([1, 2]),)])
        query = Union(Scan("T"), Scan("T"))
        plan = plan_codd_query(query, {"T": table})
        assert plan.backend == "naive"
        result = answer_query(query, {"T": table}, mode="possible")
        assert result.relation.rows == {(1,), (2,)}
        assert result.plan.backend == "naive"

    def test_explicit_backend_is_validated(self):
        # An incomplete table on both sides of a Union couples its worlds
        # across the sides, which only the naive backend can serve.
        table = CoddTable(("a",), [(Null([1, 2]),)])
        with pytest.raises(CoddPlanError, match="cannot serve"):
            plan_codd_query(Union(Scan("T"), Scan("T")), {"T": table}, backend="vectorized")
        with pytest.raises(CoddPlanError, match="unknown codd backend"):
            plan_codd_query(Scan("T"), {"T": table}, backend="bogus")

    def test_every_backend_agrees(self):
        table = CoddTable(
            ("name", "age"),
            [("John", 32), ("Anna", 29), ("Kevin", Null([1, 2, 30]))],
        )
        query = Project(
            Select(Scan("T"), Comparison(Attribute("age"), "<", Literal(30))),
            ("name",),
        )
        results = {
            name: answer_query(query, {"T": table}, mode="certain", backend=name).relation
            for name in ("vectorized", "naive")
        }
        assert results["vectorized"] == results["naive"]
        assert results["vectorized"] == certain_select_project_rowwise(query, table)
        assert results["vectorized"].rows == {("Anna",)}

    def test_capable_backends_filters_by_shape(self):
        table = CoddTable(("a",), [(Null([1, 2]),)])
        names = {b.name for b in capable_codd_backends(Union(Scan("T"), Scan("T")), {"T": table})}
        assert "vectorized" not in names and "naive" in names

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_codd_backend(NaiveCoddBackend())

    def test_unknown_mode_rejected(self):
        table = CoddTable(("a",), [(1,)])
        with pytest.raises(ValueError, match="mode"):
            answer_query(Scan("T"), {"T": table}, mode="definite")

    def test_vectorized_lru_reuses_grids_by_fingerprint(self, monkeypatch):
        monkeypatch.setattr(eng, "MAX_PREPARED_GRIDS", 2)
        backend = VectorizedCoddBackend()
        table = CoddTable(("a",), [(Null([1, 2]),)])
        twin = CoddTable(("a",), [(Null([1, 2]),)])  # same content, new Nulls
        backend.certain(Scan("T"), {"T": table})
        assert len(backend._prepared) == 1
        backend.certain(Scan("T"), {"T": twin})  # fingerprint hit, no growth
        assert len(backend._prepared) == 1
        for value in (3, 4, 5):
            backend.certain(Scan("T"), {"T": CoddTable(("a",), [(value,)])})
        assert len(backend._prepared) == 2  # evicted down to the constant

    @staticmethod
    def _join_database() -> dict[str, CoddTable]:
        customers = CoddTable(
            ("cid", "region"),
            [(0, "north"), (1, "south"), (2, "east"), (3, "north")],
        )
        orders = CoddTable(
            ("oid", "cid", "amount"),
            [(oid, oid % 4, Null([oid, oid + 30]) if oid % 3 else oid) for oid in range(12)],
        )
        return {"customers": customers, "orders": orders}

    @pytest.mark.parametrize("handed", [True, False], ids=["handed", "resolved"])
    def test_join_reads_cache_only_base_table_grids(self, monkeypatch, handed):
        from repro.codd import joins
        from repro.codd.optimizer import optimize_query
        from repro.codd.sql import parse_sql

        # A fresh analysis cache, so every analysis resolves its grids here.
        monkeypatch.setattr(joins, "_ANALYSIS_CACHE", joins.LRUCache(32))
        database = self._join_database()
        prepared = (
            {name: StackedTable(table) for name, table in database.items()}
            if handed
            else None
        )
        backend = VectorizedCoddBackend()
        for t in range(10):
            query = parse_sql(
                "SELECT o.oid, o.amount FROM customers c JOIN orders o "
                f"ON c.cid = o.cid WHERE c.region = 'north' AND o.oid >= {t}",
                schemas={name: table.schema for name, table in database.items()},
            )
            # Pushed below the join, as served: each side's filter prunes
            # on its base table's grid.
            query = optimize_query(query, database).query()
            assert backend.supports(query, database, prepared)
            served = backend.certain(query, database, prepared=prepared)
            naive = answer_query(query, database, backend="naive").relation
            assert served == naive
        # A flat join's pair table is gridded per query and never cached:
        # the LRU holds base-table grids only (none when they are handed).
        base = {table.fingerprint() for table in database.values()}
        assert set(backend._prepared) == (set() if handed else base)

    def test_prepared_mapping_handed_in_wins(self):
        backend = VectorizedCoddBackend()
        table = CoddTable(("a",), [(Null([1, 2]),)])
        stacked = StackedTable(table)
        backend.possible(Scan("T"), {"T": table}, prepared={"T": stacked})
        assert len(backend._prepared) == 0  # the handed grid was used

    def test_mixed_type_ordering_matches_the_streaming_reference(self):
        # The grid evaluates every completion at once; the reference path
        # (like the naive oracle's per-world loop) skips a row as soon as
        # its first completion fails the predicate, never touching the
        # non-comparable one. The engine must agree with the reference:
        # an answer here, not a TypeError.
        table = CoddTable(("x",), [(Null([5, "a"]),)])
        query = Select(Scan("T"), Comparison(Attribute("x"), "<", Literal(2)))
        assert certain_select_project_rowwise(query, table).rows == set()
        assert certain_answers(query, table).rows == set()  # auto → vectorized
        assert answer_query(
            query, {"T": table}, mode="certain", backend="vectorized"
        ).relation.rows == set()
        # The public select-project front door must answer the same way.
        from repro.codd.certain import certain_answers_select_project

        assert certain_answers_select_project(query, table).rows == set()
        # `possible` must enumerate the bad completion on every path.
        with pytest.raises(TypeError):
            possible_select_project_rowwise(query, table)
        with pytest.raises(TypeError):
            possible_answers(query, table)

    def test_vectorized_refuses_above_the_total_bound(self):
        # One row with 10 NULLs of 10 values each: 10^10 row-local
        # completions, far beyond the stacking cap and the total cell
        # bound — planning must fail fast instead of pinning a thread in a
        # years-long loop over row blocks.
        table = CoddTable(
            tuple(f"v{i}" for i in range(10)), [[Null(range(10))] * 10]
        )
        assert not get_codd_backend("vectorized").supports(Scan("T"), {"T": table})
        plan = plan_codd_query(Scan("T"), {"T": table})
        assert plan.backend == "naive"  # ... whose world cap raises promptly
        with pytest.raises(ValueError, match="naive-enumeration cap"):
            answer_query(Scan("T"), {"T": table}, mode="certain")
        assert vec.MAX_QUERY_CELLS == 10 * vec.MAX_STACKED_CELLS

    def test_table_between_the_caps_runs_in_row_blocks(self, monkeypatch):
        # 40 rows x 2 columns; every odd row has a NULL of 2-4 values, so
        # the grid holds 158 cells. With the stacking cap at 50 the table
        # sits between the two caps.
        rows = [
            (i % 7, Null(range(i % 3 + 2))) if i % 2 else (i % 7, i % 5)
            for i in range(40)
        ]
        table = CoddTable(("a", "b"), rows)
        monkeypatch.setattr(vec, "MAX_STACKED_CELLS", 50)
        assert vec.MAX_STACKED_CELLS < estimate_stacked_cells(table) <= vec.MAX_QUERY_CELLS
        backend = VectorizedCoddBackend()
        monkeypatch.setitem(eng._REGISTRY, "vectorized", backend)
        n_blocks = []
        real_row_blocks = certain_module.row_blocks
        monkeypatch.setattr(
            certain_module,
            "row_blocks",
            lambda t: n_blocks.append(len(real_row_blocks(t))) or real_row_blocks(t),
        )
        query = Project(
            Select(Scan("T"), Comparison(Attribute("b"), "<", Literal(3))), ("a",)
        )
        assert plan_codd_query(query, {"T": table}).backend == "vectorized"
        certain = answer_query(query, {"T": table}, mode="certain").relation
        possible = answer_query(query, {"T": table}, mode="possible").relation
        assert n_blocks and all(n > 1 for n in n_blocks)
        assert len(backend._prepared) == 0  # block grids are transient
        assert certain == certain_select_project_rowwise(query, table)
        assert possible == possible_select_project_rowwise(query, table)

    def test_scan_relations_walks_every_shape(self):
        query = Union(
            Select(Scan("a"), Comparison(Attribute("x"), "==", Literal(1))),
            Project(Rename(Scan("b"), {"x": "y"}), ("y",)),
        )
        assert scan_relations(query) == ["a", "b"]


class TestDispatcherRegression:
    """The `name=` binding must be validated on every path (the tractable
    path used to silently evaluate a `person` query against `T`)."""

    @pytest.fixture
    def table(self):
        return CoddTable(("a",), [(Null([1, 2]),), (3,)])

    def test_tractable_dispatch_validates_relation_name(self, table):
        query = Project(Scan("person"), ("a",))
        with pytest.raises(KeyError, match="person"):
            certain_answers(query, table)  # bound as the default "T"
        with pytest.raises(KeyError, match="person"):
            possible_answers(query, table)

    def test_naive_and_tractable_raise_the_same_way(self, table):
        query = Union(Scan("person"), Scan("person"))  # forces the naive path
        with pytest.raises(KeyError, match="person"):
            certain_answers(query, table)

    def test_matching_name_binds_correctly(self, table):
        query = Project(Scan("person"), ("a",))
        result = certain_answers(query, table, name="person")
        assert result.rows == {(3,)}
        assert possible_answers(query, table, name="person").rows == {(1,), (2,), (3,)}

    def test_rowwise_helpers_validate_too(self, table):
        query = Project(Scan("person"), ("a",))
        with pytest.raises(KeyError, match="person"):
            certain_select_project_rowwise(query, table)
        with pytest.raises(KeyError, match="person"):
            possible_select_project_rowwise(query, table)
        assert certain_select_project_rowwise(query, table, name="person").rows == {
            (3,)
        }
