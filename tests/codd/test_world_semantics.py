"""Hand-built query shapes held to possible-world semantics.

The differential harness (``test_codd_differential.py``) fuzzes random
tables and queries; this module pins the small shapes where a symbolic
evaluator is most likely to go wrong — a NULL compared against itself
through a self-join, NULLs on both sides of a difference, a row that is
certain through different union branches in different worlds — and
checks every capable backend, with and without the optimizer, against an
oracle that evaluates the query on each world separately.
"""

from __future__ import annotations

import pytest

from repro.codd.algebra import (
    Attribute,
    Comparison,
    Difference,
    Join,
    Literal,
    Negation,
    Project,
    Rename,
    Scan,
    Select,
    Union,
    evaluate,
)
from repro.codd.codd_table import CoddTable, Null
from repro.codd.engine import answer_query, capable_codd_backends


def mixed_table() -> CoddTable:
    """Constant rows, NULLs in ``a``, in ``b`` and in both."""
    return CoddTable(
        ("a", "b"),
        [
            (1, "u"),
            (Null([1, 2]), "v"),
            (Null([2, 3]), Null(["u", "w"])),
            (3, Null(["u", "w"])),
        ],
    )


def single_null_table() -> CoddTable:
    return CoddTable(("a", "b"), [(Null([1, 2]), "l"), (2, "r")])


def one_column_table() -> CoddTable:
    return CoddTable(("a",), [(Null([1, 2]),), (1,)])


def t(name: str = "T") -> Scan:
    return Scan(name)


def a_equals(value: object) -> Comparison:
    return Comparison(Attribute("a"), "==", Literal(value))


CASES = {
    "select-num": (mixed_table, Select(t(), Comparison(Attribute("a"), "<", Literal(3)))),
    "select-str": (mixed_table, Select(t(), Comparison(Attribute("b"), "==", Literal("u")))),
    "select-negated": (mixed_table, Select(t(), Negation(a_equals(2)))),
    "project-a": (mixed_table, Project(t(), ("a",))),
    "project-b": (mixed_table, Project(t(), ("b",))),
    "rename": (mixed_table, Rename(t(), {"a": "z"})),
    "union": (mixed_table, Union(t(), t())),
    "cross-join": (
        mixed_table,
        Join(Project(t(), ("a",)), Rename(Project(t(), ("b",)), {"b": "c"})),
    ),
    "self-join-uncertain": (
        single_null_table,
        Join(Project(t(), ("a",)), Project(t(), ("a",))),
    ),
    "difference": (
        mixed_table,
        Difference(t(), Select(t(), Comparison(Attribute("a"), "<", Literal(2)))),
    ),
    "difference-nulls-both-sides": (
        one_column_table,
        Difference(t(), Select(t(), a_equals(2))),
    ),
    "certain-via-different-branches": (
        mixed_table,
        Union(
            Project(Select(t(), Comparison(Attribute("b"), "==", Literal("u"))), ("a",)),
            Project(Select(t(), Comparison(Attribute("b"), "!=", Literal("u"))), ("a",)),
        ),
    ),
}


def world_oracle(query, table: CoddTable) -> tuple[frozenset, frozenset]:
    """``(certain rows, possible rows)`` from one evaluation per world."""
    answers = [evaluate(query, {"T": world}).rows for world in table.possible_worlds()]
    return frozenset.intersection(*answers), frozenset.union(*answers)


@pytest.mark.parametrize("mode", ["certain", "possible"])
@pytest.mark.parametrize("case", list(CASES))
def test_every_backend_matches_world_by_world_evaluation(case: str, mode: str) -> None:
    make_table, query = CASES[case]
    table = make_table()
    database = {"T": table}
    certain, possible = world_oracle(query, table)
    expected = certain if mode == "certain" else possible
    backends = [b.name for b in capable_codd_backends(query, database)]
    assert backends, "no backend serves this shape"
    for backend in ["auto", *backends]:
        for optimize in (True, False):
            result = answer_query(query, database, mode=mode, backend=backend, optimize=optimize)
            assert result.relation.rows == expected, (backend, optimize)


def test_row_certain_through_different_branches_is_found() -> None:
    # (3,) comes from the b == "u" branch when its NULL is "u" and from the
    # b != "u" branch when it is "w": uncertain in each branch, certain in
    # the union. (2,) is not certain: the NULLs in rows 1 and 2 can both
    # avoid 2.
    _, query = CASES["certain-via-different-branches"]
    database = {"T": mixed_table()}
    assert answer_query(query, database, mode="certain").relation.rows == {(1,), (3,)}
    assert answer_query(query, database, mode="possible").relation.rows == {
        (1,),
        (2,),
        (3,),
    }


def test_self_join_pairs_a_null_only_with_its_own_value() -> None:
    # The natural join of pi_a(T) with itself is pi_a(T) in every world: the
    # NULL meets its own value, never an independent copy of itself. The
    # certain answer is the constant 2 alone; 1 is possible.
    _, query = CASES["self-join-uncertain"]
    database = {"T": single_null_table()}
    assert answer_query(query, database, mode="certain").relation.rows == {(2,)}
    assert answer_query(query, database, mode="possible").relation.rows == {(1,), (2,)}


def test_difference_with_nulls_on_both_sides() -> None:
    # T - sigma_{a=2}(T): the NULL row is removed exactly when it is 2, so
    # (1,) (the constant row) is certain and nothing else is possible.
    _, query = CASES["difference-nulls-both-sides"]
    database = {"T": one_column_table()}
    assert answer_query(query, database, mode="certain").relation.rows == {(1,)}
    assert answer_query(query, database, mode="possible").relation.rows == {(1,)}
