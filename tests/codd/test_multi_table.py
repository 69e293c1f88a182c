"""Certain answers over multi-table databases (joins across Codd tables)."""

from __future__ import annotations

import pytest

from repro.codd.algebra import (
    Aggregate,
    AggregateSpec,
    Attribute,
    Comparison,
    Join,
    Literal,
    Negation,
    Project,
    Scan,
    Select,
)
from repro.codd.certain import (
    certain_answers_database,
    certain_answers_naive,
    possible_answers_database,
    prune_database,
)
from repro.codd.codd_table import CoddTable, Null


@pytest.fixture
def database() -> dict[str, CoddTable]:
    person = CoddTable(
        ("name", "age"),
        [("John", 32), ("Anna", 29), ("Kevin", Null([28, 31]))],
    )
    city = CoddTable(
        ("name", "city"),
        [("John", "Rome"), ("Anna", Null(["Paris", "Lyon"])), ("Kevin", "Rome")],
    )
    return {"person": person, "city": city}


def young_city_query() -> Project:
    """SELECT city FROM person ⋈ city WHERE age < 30."""
    return Project(
        Select(
            Join(Scan("person"), Scan("city")),
            Comparison(Attribute("age"), "<", Literal(30)),
        ),
        ("city",),
    )


class TestJoinAcrossTables:
    def test_certain_join_answers(self, database) -> None:
        # Anna is certainly < 30 but her city is uncertain; Kevin's city is
        # certain but his age may be 31 — so no city is certain.
        result = certain_answers_database(young_city_query(), database)
        assert result.rows == set()

    def test_possible_join_answers(self, database) -> None:
        result = possible_answers_database(young_city_query(), database)
        assert result.rows == {("Paris",), ("Lyon",), ("Rome",)}

    def test_cleaning_one_table_creates_certainty(self, database) -> None:
        # Fix Anna's city: Paris becomes a certain answer of the join.
        cleaned = dict(database)
        cleaned["city"] = database["city"].with_cell_fixed(1, 1, "Paris")
        result = certain_answers_database(young_city_query(), cleaned)
        assert result.rows == {("Paris",)}

    def test_join_on_fully_certain_tables(self) -> None:
        a = CoddTable(("id", "x"), [(1, "u"), (2, "v")])
        b = CoddTable(("id", "y"), [(1, "w")])
        result = certain_answers_database(Join(Scan("a"), Scan("b")), {"a": a, "b": b})
        assert result.rows == {(1, "u", "w")}

    def test_single_table_database_matches_naive(self, database) -> None:
        query = Project(
            Select(Scan("person"), Comparison(Attribute("age"), "<", Literal(30))),
            ("name",),
        )
        single = {"person": database["person"]}
        assert certain_answers_database(query, single) == certain_answers_naive(
            query, database["person"], name="person"
        )

    def test_unhashable_literal_is_answered_like_naive(self, database) -> None:
        # The join-analysis cache cannot key this query: the analysis must
        # skip the cache, not fail the request.
        from repro.codd.engine import answer_query

        query = Select(
            Join(Scan("person"), Scan("city")),
            Comparison(Attribute("city"), "==", Literal(["Rome"])),
        )
        for mode in ("certain", "possible"):
            served = answer_query(query, database, mode=mode)
            naive = answer_query(query, database, mode=mode, backend="naive")
            assert served.relation == naive.relation

    def test_unhashable_literal_in_an_aggregate_is_answered_like_naive(self) -> None:
        # The aggregate's filter cannot be hashed either: the analysis must
        # prepare the aggregation without any cache keyed on the query.
        from repro.codd.engine import answer_query

        table = CoddTable(
            ("g", "v", "city"),
            [(1, 2, "Rome"), (1, Null([3, 4]), "Oslo"), (2, 5, "Rome")],
        )
        query = Aggregate(
            Select(Scan("T"), Comparison(Attribute("city"), "==", Literal(["Rome"]))),
            ("g",),
            (AggregateSpec("count", None, "n"),),
        )
        for mode in ("certain", "possible"):
            served = answer_query(query, {"T": table}, mode=mode)
            naive = answer_query(query, {"T": table}, mode=mode, backend="naive")
            assert served.relation == naive.relation
            assert served.relation.rows == set()

    @pytest.mark.parametrize("city", [["Rome"], "Rome"], ids=["unhashable", "hashable"])
    def test_one_aggregate_analysis_per_call(self, monkeypatch, city) -> None:
        # supports, estimate_cost and answer share one analysis, also for a
        # query the analysis cache cannot hash.
        from repro.codd import aggregate
        from repro.codd.engine import answer_query

        calls = []
        prepare = aggregate.prepare_aggregation

        def counted(*args, **kwargs):
            calls.append(args)
            return prepare(*args, **kwargs)

        monkeypatch.setattr(aggregate, "prepare_aggregation", counted)
        table = CoddTable(
            ("g", "v", "city"),
            [(1, 2, "Rome"), (1, Null([3, 4]), "Oslo"), (2, 5, "Rome")],
        )
        query = Aggregate(
            Select(Scan("T"), Comparison(Attribute("city"), "==", Literal(city))),
            ("g",),
            (AggregateSpec("count", None, "n"),),
        )
        result = answer_query(query, {"T": table}, mode="certain")
        assert result.plan.backend == "vectorized"
        assert len(calls) == 1

    def test_world_cap_enforced(self) -> None:
        big = CoddTable(("a",), [(Null(range(100)),)] * 4)
        database = {"x": big, "y": big}
        with pytest.raises(ValueError, match="cap"):
            certain_answers_database(Scan("x"), database)


class TestPruneDatabase:
    """The smarter multi-table path: shrink the world product soundly."""

    def test_unreferenced_table_collapses_to_one_world(self) -> None:
        used = CoddTable(("a",), [(1,)])
        unused = CoddTable(("z",), [(Null([5, 6, 7]),), (Null([1, 2]),)])
        pruned = prune_database(Scan("t"), {"t": used, "spare": unused})
        assert pruned["t"] is used
        assert pruned["spare"].n_worlds() == 1
        assert len(pruned["spare"]) == 2  # rows survive, variables do not

    def test_filtered_scan_drops_impossible_rows(self) -> None:
        table = CoddTable(
            ("age",),
            [(50,), (Null([40, 45]),), (Null([10, 45]),), (20,)],
        )
        query = Select(Scan("t"), Comparison(Attribute("age"), "<", Literal(30)))
        pruned = prune_database(query, {"t": table})
        # Rows 0 and 1 can never satisfy age < 30 in any completion.
        assert len(pruned["t"]) == 2
        assert pruned["t"].n_worlds() == 2  # only the {10, 45} NULL remains

    def test_bare_scan_occurrence_blocks_pruning(self) -> None:
        table = CoddTable(("age",), [(50,), (Null([40, 45]),)])
        query = Join(
            Select(Scan("t"), Comparison(Attribute("age"), "<", Literal(30))),
            Scan("t"),  # the unfiltered occurrence needs every row
        )
        pruned = prune_database(query, {"t": table})
        assert pruned["t"] is table

    def test_project_only_chain_keeps_every_row(self) -> None:
        table = CoddTable(("a", "b"), [(1, Null([2, 3]))])
        pruned = prune_database(Project(Scan("t"), ("a",)), {"t": table})
        assert pruned["t"] is table

    def test_pruning_shrinks_an_otherwise_uncountable_product(self) -> None:
        # Unpruned: 4^10 * 3^5 worlds — far beyond the naive cap. Every row
        # of `huge` fails the filter, and `spare` is never scanned, so the
        # pruned product is exactly 1 and the query answers instantly.
        huge = CoddTable(("v",), [(Null([1, 2, 3, 4]),)] * 10)
        spare = CoddTable(("w",), [(Null([0, 1, 2]),)] * 5)
        query = Select(Scan("huge"), Comparison(Attribute("v"), ">", Literal(9)))
        database = {"huge": huge, "spare": spare}
        with pytest.raises(ValueError, match="cap"):
            certain_answers_database(query, database, prune=False)
        assert certain_answers_database(query, database).rows == set()
        assert possible_answers_database(query, database).rows == set()

    def test_pruned_results_match_unpruned(self, database) -> None:
        query = young_city_query()
        assert certain_answers_database(query, database) == certain_answers_database(
            query, database, prune=False
        )
        assert possible_answers_database(query, database) == possible_answers_database(
            query, database, prune=False
        )

    def test_negation_inside_a_filter_is_still_sound(self) -> None:
        table = CoddTable(("a",), [(Null([1, 2]),), (3,)])
        query = Select(
            Scan("t"),
            Negation(Comparison(Attribute("a"), "<", Literal(10))),  # nothing passes
        )
        pruned = prune_database(query, {"t": table})
        assert len(pruned["t"]) == 0
        assert certain_answers_database(query, {"t": table}).rows == set()
