"""Unit tests for Codd tables and their possible-world semantics."""

from __future__ import annotations

import pytest

from repro.codd.codd_table import CoddTable, Null
from repro.codd.relation import Relation


@pytest.fixture
def figure1() -> CoddTable:
    """The paper's Figure 1: Kevin's age is NULL over a small domain."""
    return CoddTable(
        ("name", "age"),
        [("John", 32), ("Anna", 29), ("Kevin", Null([1, 2, 30]))],
    )


class TestNull:
    def test_domain_deduplicated_in_order(self) -> None:
        assert Null([3, 1, 3, 2]).domain == (3, 1, 2)

    def test_empty_domain_rejected(self) -> None:
        with pytest.raises(ValueError, match="non-empty"):
            Null([])

    def test_nulls_are_distinct_variables(self) -> None:
        a, b = Null([1]), Null([1])
        assert a != b  # identity semantics: no sharing between cells

    def test_repr_previews_domain(self) -> None:
        assert "Null(" in repr(Null(range(100)))


class TestCoddTable:
    def test_variable_inventory(self, figure1: CoddTable) -> None:
        assert figure1.n_variables == 1
        (r, c, null) = figure1.variables[0]
        assert (r, c) == (2, 1)
        assert null.domain == (1, 2, 30)

    def test_world_count(self, figure1: CoddTable) -> None:
        assert figure1.n_worlds() == 3

    def test_world_count_multiplies_domains(self) -> None:
        table = CoddTable(
            ("a", "b"), [(Null([1, 2]), Null([1, 2, 3])), (Null([4, 5]), 0)]
        )
        assert table.n_worlds() == 12

    def test_row_completions_multiply_within_a_row(self) -> None:
        table = CoddTable(
            ("a", "b"), [(Null([1, 2]), Null([1, 2, 3])), (7, 0), (Null([4, 5]), 0)]
        )
        assert table.row_completions() == (6, 1, 2)
        assert table.row_completions() is table.row_completions()  # memoized

    def test_complete_table_has_one_world(self) -> None:
        table = CoddTable(("a",), [(1,), (2,)])
        assert table.is_complete()
        worlds = list(table.possible_worlds())
        assert worlds == [Relation(("a",), [(1,), (2,)])]

    def test_arity_checked(self) -> None:
        with pytest.raises(ValueError, match="arity"):
            CoddTable(("a", "b"), [(1,)])

    def test_world_materialisation(self, figure1: CoddTable) -> None:
        world = figure1.world({(2, 1): 30})
        assert world == Relation(
            ("name", "age"), [("John", 32), ("Anna", 29), ("Kevin", 30)]
        )

    def test_world_value_outside_domain_rejected(self, figure1: CoddTable) -> None:
        with pytest.raises(ValueError, match="domain"):
            figure1.world({(2, 1): 99})

    def test_world_missing_assignment_rejected(self, figure1: CoddTable) -> None:
        with pytest.raises(KeyError, match="missing"):
            figure1.world({})

    def test_world_extra_assignment_rejected(self, figure1: CoddTable) -> None:
        with pytest.raises(KeyError, match="non-NULL"):
            figure1.world({(2, 1): 30, (0, 1): 32})

    def test_possible_worlds_enumerates_each_domain_value(self, figure1: CoddTable) -> None:
        ages = sorted(
            next(iter(w.rows - {("John", 32), ("Anna", 29)}))[1]
            for w in figure1.possible_worlds()
        )
        assert ages == [1, 2, 30]

    def test_duplicate_looking_rows_are_kept(self) -> None:
        # Two NULL rows that could collapse in some worlds must both be kept.
        table = CoddTable(("a",), [(Null([1, 2]),), (Null([1, 2]),)])
        assert len(table) == 2
        sizes = sorted(len(w) for w in table.possible_worlds())
        assert sizes == [1, 1, 2, 2]  # set semantics collapses equal completions

    def test_with_cell_fixed(self, figure1: CoddTable) -> None:
        fixed = figure1.with_cell_fixed(2, 1, 30)
        assert fixed.is_complete()
        assert figure1.n_variables == 1  # original untouched

    def test_with_cell_fixed_rejects_constant_cell(self, figure1: CoddTable) -> None:
        with pytest.raises(ValueError, match="not NULL"):
            figure1.with_cell_fixed(0, 1, 32)

    def test_with_cell_fixed_rejects_foreign_value(self, figure1: CoddTable) -> None:
        with pytest.raises(ValueError, match="domain"):
            figure1.with_cell_fixed(2, 1, 99)

    def test_from_relation_roundtrip(self) -> None:
        rel = Relation(("a", "b"), [(1, "x"), (2, "y")])
        table = CoddTable.from_relation(rel)
        assert table.is_complete()
        assert next(iter(table.possible_worlds())) == rel
