"""Dirty Table → Codd table conversion and the sql CLI."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.codd.certain import certain_answers
from repro.codd.codd_table import CoddTable, Null
from repro.codd.from_table import codd_table_from_dirty_table
from repro.codd.sql import parse_sql
from repro.data.io import read_csv
from repro.data.table import MISSING_CATEGORY, Table


@pytest.fixture
def dirty_table() -> Table:
    return Table(
        numeric=np.array([[1.0], [np.nan], [3.0]]),
        categorical=np.array([[0], [1], [MISSING_CATEGORY]]),
        labels=np.array([0, 1, 0]),
        numeric_names=["weight"],
        categorical_names=["brand"],
    )


class TestCoddFromTable:
    def test_schema_and_shape(self, dirty_table: Table) -> None:
        codd = codd_table_from_dirty_table(dirty_table)
        assert codd.schema == ("weight", "brand", "label")
        assert len(codd) == 3
        assert codd.n_variables == 2

    def test_numeric_null_domain_is_repair_candidates(self, dirty_table: Table) -> None:
        codd = codd_table_from_dirty_table(dirty_table)
        (r, c, null) = next(v for v in codd.variables if v[1] == 0)
        assert r == 1
        # observed weights are {1, 3}: min/p25/mean/p75/max collapse to a few
        assert set(null.domain) <= {1.0, 1.5, 2.0, 2.5, 3.0}
        assert len(null.domain) >= 2

    def test_categorical_null_domain_includes_other(self, dirty_table: Table) -> None:
        codd = codd_table_from_dirty_table(dirty_table)
        (_, _, null) = next(v for v in codd.variables if v[1] == 1)
        # codes 0, 1 observed; the repair space adds a fresh "other" code 2
        assert set(null.domain) == {0, 1, 2}

    def test_labels_always_complete(self, dirty_table: Table) -> None:
        codd = codd_table_from_dirty_table(dirty_table)
        label_col = codd.schema.index("label")
        assert all(not isinstance(row[label_col], Null) for row in codd.rows)

    def test_schema_decodes_strings(self, tmp_path) -> None:
        path = tmp_path / "f.csv"
        path.write_text(
            "weight,brand,price\n1.0,acme,high\n,globex,low\n2.0,,high\n",
            encoding="utf-8",
        )
        table, schema = read_csv(path, label_column="price")
        codd = codd_table_from_dirty_table(table, schema=schema)
        brand_col = codd.schema.index("brand")
        constants = {
            row[brand_col] for row in codd.rows if not isinstance(row[brand_col], Null)
        }
        assert constants == {"acme", "globex"}
        (_, _, null) = next(v for v in codd.variables if v[1] == brand_col)
        assert "acme" in null.domain and "globex" in null.domain
        assert any(str(v).startswith("<other:") for v in null.domain)

    def test_sql_query_over_converted_table(self, dirty_table: Table) -> None:
        codd = codd_table_from_dirty_table(dirty_table)
        query = parse_sql("SELECT label FROM T WHERE weight <= 3")
        # row 0 (weight 1) and row 2 (weight 3) are certain; row 1's weight
        # is NULL but every repair candidate is <= 3, so label 1 is certain too
        assert certain_answers(query, codd).rows == {(0,), (1,)}


class TestSqlCommand:
    @pytest.fixture
    def csv_path(self, tmp_path):
        path = tmp_path / "products.csv"
        path.write_text(
            "weight,brand,price\n"
            "1.0,acme,high\n"
            ",globex,low\n"
            "2.0,acme,high\n"
            "3.5,,low\n",
            encoding="utf-8",
        )
        return path

    def test_certain_and_possible_sections(self, csv_path, capsys) -> None:
        code = main(
            [
                "sql",
                "--input",
                str(csv_path),
                "--label",
                "price",
                "--query",
                "SELECT brand FROM T WHERE weight >= 1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "certain answers" in out
        assert "possible-but-not-certain" in out
        assert "acme" in out

    def test_bad_sql_returns_error_code(self, csv_path, capsys) -> None:
        code = main(
            ["sql", "--input", str(csv_path), "--label", "price", "--query", "DROP TABLE T"]
        )
        assert code == 2
        assert "SQL error" in capsys.readouterr().err

    def test_limit_truncates_output(self, csv_path, capsys) -> None:
        code = main(
            [
                "sql",
                "--input",
                str(csv_path),
                "--label",
                "price",
                "--query",
                "SELECT weight, brand FROM T",
                "--limit",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "more" in out
