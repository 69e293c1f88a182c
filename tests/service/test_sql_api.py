"""The /sql endpoint: exact round trips, pinned grids, structured errors.

The acceptance bar is the wire one: a ``repro serve`` ``/sql`` round trip
must return the *same* :class:`~repro.codd.relation.Relation` as calling
:func:`repro.codd.certain.certain_answers` in process — floats, big ints,
strings and booleans included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codd.certain import certain_answers, possible_answers
from repro.codd.codd_table import CoddTable, Null
from repro.codd.relation import Relation
from repro.codd.sql import parse_sql
from repro.service import DatasetRegistry, ServiceClient, ServiceError, make_service
from repro.service.wire import (
    WireError,
    decode_codd_table,
    decode_relation,
    encode_codd_table,
    encode_relation,
)


def person_table() -> CoddTable:
    return CoddTable(
        ("name", "age"),
        [
            ("John", 32),
            ("Anna", 29),
            ("Kevin", Null([1, 2, 30])),
            ("Pi", 3.5),
            ("Huge", Null([2**60, 2**60 + 1])),
        ],
    )


@pytest.fixture(scope="module")
def service():
    registry = DatasetRegistry()
    registry.register_codd_table("person", person_table())
    server = make_service(registry)
    client = ServiceClient(server.url)
    client.wait_until_ready()
    yield server, client
    server.close()


class TestWireCoddFormat:
    def test_codd_table_round_trip(self):
        table = person_table()
        decoded = decode_codd_table(encode_codd_table(table))
        assert decoded.schema == table.schema
        assert decoded.fingerprint() == table.fingerprint()

    def test_relation_round_trip_is_exact(self):
        relation = Relation(
            ("a", "b"),
            [(1, "x"), (2.5, "y"), (True, "z"), (2**70, "w"), (None, "n")],
        )
        decoded = decode_relation(encode_relation(relation))
        assert decoded == relation
        # Types survive, not just values-as-floats.
        kinds = {type(row[0]) for row in decoded.rows}
        assert {int, float, bool, type(None)} <= kinds

    def test_unencodable_cell_rejected(self):
        table = CoddTable(("a",), [(object(),)])
        with pytest.raises(WireError, match="cannot encode cell"):
            encode_codd_table(table)

    def test_malformed_payloads_rejected(self):
        with pytest.raises(WireError, match="schema"):
            decode_codd_table({"rows": []})
        with pytest.raises(WireError, match="NULL markers"):
            decode_codd_table({"schema": ["a"], "rows": [[{"nope": 1}]]})
        with pytest.raises(WireError, match="relation"):
            decode_relation([1, 2, 3])


class TestSqlRoundTrip:
    def test_round_trip_matches_in_process_certain_answers(self, service):
        server, client = service
        sql = "SELECT name FROM person WHERE age < 30"
        response = client.sql(sql, mode="both")
        query = parse_sql(sql)
        local_certain = certain_answers(query, person_table(), name="person")
        local_possible = possible_answers(query, person_table(), name="person")
        assert response["results"]["certain"] == local_certain
        assert response["results"]["possible"] == local_possible
        assert response["results"]["certain"].rows == {("Anna",), ("Pi",)}
        assert response["backends"]["certain"] == "vectorized"
        assert response["n_worlds"] == str(person_table().n_worlds())

    def test_big_integers_survive_the_sql_wire(self, service):
        server, client = service
        response = client.sql("SELECT age FROM person WHERE age > 1000")
        values = {row[0] for row in response["results"]["certain"].rows}
        assert values == set()  # Huge's age is uncertain between two values
        possible = client.sql("SELECT age FROM person WHERE age > 1000", mode="possible")
        values = {row[0] for row in possible["results"]["possible"].rows}
        assert values == {2**60, 2**60 + 1}
        assert all(isinstance(v, int) for v in values)

    def test_float_cells_survive_exactly(self, service):
        server, client = service
        response = client.sql("SELECT age FROM person WHERE age == 3.5")
        assert response["results"]["certain"].rows == {(3.5,)}

    def test_repeat_query_is_served_from_cache(self, service):
        server, client = service
        sql = "SELECT name FROM person WHERE age >= 29"
        first = client.sql(sql)
        again = client.sql(sql)
        assert again["cached"] is True
        assert again["results"] == first["results"]

    def test_inline_table_needs_no_registration(self, service):
        server, client = service
        table = CoddTable(("x",), [(1,), (Null([2, 3]),)])
        response = client.sql(
            "SELECT x FROM anything WHERE x >= 2", codd_table=table, mode="both"
        )
        assert response["results"]["certain"].rows == set()
        assert response["results"]["possible"].rows == {(2,), (3,)}

    def test_registered_grid_is_pinned_after_first_query(self, service):
        server, client = service
        entry = server.registry.get_codd("person")
        client.sql("SELECT name FROM person")
        assert entry.stacked is not None
        detail = client.dataset("person")
        assert detail["type"] == "codd" and detail["grid_pinned"] is True
        assert detail["n_queries"] >= 1

    def test_codd_tables_appear_in_dataset_listing(self, service):
        server, client = service
        rows = {row["name"]: row for row in client.datasets()}
        assert rows["person"]["type"] == "codd"
        assert rows["person"]["n_worlds"] == str(person_table().n_worlds())

    def test_metrics_count_sql_traffic(self, service):
        server, client = service
        client.sql("SELECT name FROM person")
        metrics = client.metrics()
        assert metrics["broker"]["sql_requests"] >= 1
        assert metrics["registry"]["n_codd_tables"] >= 1
        assert metrics["registry"]["n_sql_queries"] >= 1

    def test_codd_table_can_be_removed(self, service):
        server, client = service
        table = CoddTable(("q",), [(1,)])
        server.registry.register_codd_table("ephemeral", table)
        assert "ephemeral" in server.registry.codd_names()
        server.registry.remove_codd("ephemeral")
        assert "ephemeral" not in server.registry.codd_names()
        with pytest.raises(ServiceError) as excinfo:
            client.sql("SELECT * FROM ephemeral")
        assert excinfo.value.status == 404

    def test_register_codd_table_over_the_wire(self, service):
        server, client = service
        table = CoddTable(("v", "w"), [(1, "a"), (Null([2, 3]), "b")])
        created = client.register_codd_table("shipped", table)
        assert created["type"] == "codd"
        assert created["fingerprint"] == table.fingerprint()
        response = client.sql("SELECT w FROM shipped WHERE v == 2", mode="possible")
        assert response["results"]["possible"].rows == {("b",)}

    def test_forced_backend_is_honoured(self, service):
        server, client = service
        for backend in ("vectorized", "naive"):
            response = client.sql(
                "SELECT name FROM person WHERE age < 30", backend=backend
            )
            assert response["backends"]["certain"] == backend
            assert response["results"]["certain"].rows == {("Anna",), ("Pi",)}


class TestMultiTableSql:
    """JOIN / GROUP BY queries spanning registered tables, end to end.

    The acceptance bar from the planner refactor: a two-table join with
    aliases and a GROUP BY must come back over the wire bit-identical to
    the in-process engine, the response must explain its optimized plan,
    and a PATCH to *any* referenced table must purge the cached answer.
    """

    JOIN_SQL = (
        "SELECT c.name, o.amount FROM customers c "
        "JOIN orders o ON c.cid = o.cid WHERE o.amount > 4"
    )

    @pytest.fixture(scope="class")
    def join_tables(self, service):
        server, client = service
        customers = CoddTable(
            ("cid", "name"),
            [(1, "Ada"), (2, "Bob"), (3, Null(["Cy", "Cyd"]))],
        )
        orders = CoddTable(
            ("oid", "cid", "amount"),
            [(10, 1, 7), (11, 2, Null([3, 9])), (12, 1, 2)],
        )
        server.registry.register_codd_table("customers", customers, replace=True)
        server.registry.register_codd_table("orders", orders, replace=True)
        return {"customers": customers, "orders": orders}

    def _local(self, sql, database, mode):
        from repro.codd.engine import answer_query

        query = parse_sql(
            sql, schemas={name: t.schema for name, t in database.items()}
        )
        return answer_query(query, database, mode=mode).relation

    def test_join_round_trip_matches_in_process(self, service, join_tables):
        server, client = service
        response = client.sql(self.JOIN_SQL, mode="both")
        assert response["results"]["certain"] == self._local(
            self.JOIN_SQL, join_tables, "certain"
        )
        assert response["results"]["possible"] == self._local(
            self.JOIN_SQL, join_tables, "possible"
        )
        assert response["results"]["certain"].rows == {("Ada", 7)}
        assert response["results"]["possible"].rows == {("Ada", 7), ("Bob", 9)}
        assert set(response["tables"]) == {"customers", "orders"}
        assert set(response["versions"]) == {"customers", "orders"}

    @pytest.mark.parametrize("backend", ["auto", "naive"])
    def test_both_modes_share_one_optimization(
        self, service, join_tables, monkeypatch, backend
    ):
        from repro.codd import optimizer
        from repro.codd.engine import answer_query

        server, _ = service
        calls = []
        original = optimizer.optimize_query

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(optimizer, "optimize_query", counted)
        sql = self.JOIN_SQL + " AND o.oid >= 10"  # a key no other test caches
        response = server.broker.sql(sql, mode="both", backend=backend)
        assert len(calls) == 1
        query = parse_sql(
            sql, schemas={name: t.schema for name, t in join_tables.items()}
        )
        local = {
            mode: answer_query(query, join_tables, mode=mode, backend=backend)
            for mode in ("certain", "possible")
        }
        for mode, answer in local.items():
            assert response["results"][mode] == encode_relation(answer.relation)
            assert response["backends"][mode] == answer.plan.backend
        assert response["explain"]["plan"] == local["certain"].logical.render()
        assert response["explain"]["rewrites"] == list(local["certain"].rewrites)

    def test_group_by_round_trip_matches_in_process(self, service, join_tables):
        server, client = service
        sql = "SELECT cid, COUNT(*) AS n, SUM(amount) AS total FROM orders GROUP BY cid"
        response = client.sql(sql, mode="both")
        for mode in ("certain", "possible"):
            assert response["results"][mode] == self._local(
                sql, {"orders": join_tables["orders"]}, mode
            )
        assert ((1, 2, 9)) in response["results"]["certain"].rows

    def test_response_explains_the_optimized_plan(self, service, join_tables):
        server, client = service
        response = client.sql(self.JOIN_SQL)
        explain = response["explain"]
        assert "Join" in explain["plan"] and "Scan customers" in explain["plan"]
        assert "push-select-below-join" in explain["rewrites"]
        ops = set()
        stack = [explain["tree"]]
        while stack:
            node = stack.pop()
            ops.add(node["op"])
            stack.extend(node.get("inputs", []))
            if "input" in node:
                stack.append(node["input"])
        assert {"join", "select", "project", "rename", "scan"} <= ops
        # The explain payload is cached with the answer.
        again = client.sql(self.JOIN_SQL)
        assert again["cached"] is True
        assert again["explain"] == explain

    def test_patch_to_any_referenced_table_purges_the_cache(self, service):
        server, client = service
        left = CoddTable(("k", "tag"), [(1, "x"), (2, Null(["y", "z"]))])
        right = CoddTable(("k", "amt"), [(1, Null([5, 6])), (2, 8)])
        server.registry.register_codd_table("purge_left", left, replace=True)
        server.registry.register_codd_table("purge_right", right, replace=True)
        sql = (
            "SELECT l.tag, r.amt FROM purge_left l "
            "JOIN purge_right r ON l.k = r.k"
        )
        first = client.sql(sql, mode="both")
        assert first["cached"] is False
        assert client.sql(sql, mode="both")["cached"] is True

        # Fixing a NULL in ONE referenced table must purge the shared entry.
        client.fix_cell("purge_right", 0, 1, 5)
        after_right = client.sql(sql, mode="both")
        assert after_right["cached"] is False
        assert after_right["results"]["certain"].rows >= {("x", 5)}
        assert after_right["versions"]["purge_right"] > first["versions"]["purge_right"]

        # Re-primed... and a PATCH to the *other* table purges it too.
        assert client.sql(sql, mode="both")["cached"] is True
        client.fix_cell("purge_left", 1, 1, "y")
        after_left = client.sql(sql, mode="both")
        assert after_left["cached"] is False
        assert after_left["results"]["certain"].rows == {("x", 5), ("y", 8)}

    def test_patch_leaves_unrelated_sql_entries_cached(self, service):
        server, client = service
        table = CoddTable(("q",), [(1,), (2,)])
        server.registry.register_codd_table("purge_bystander", table, replace=True)
        sql = "SELECT q FROM purge_bystander WHERE q > 0"
        client.sql(sql)
        other = CoddTable(("k",), [(Null([1, 2]),)])
        server.registry.register_codd_table("purge_other", other, replace=True)
        client.sql("SELECT k FROM purge_other")
        client.fix_cell("purge_other", 0, 0, 1)
        assert client.sql(sql)["cached"] is True

    def test_self_join_with_aliases(self, service, join_tables):
        server, client = service
        sql = (
            "SELECT a.name, b.name FROM customers a "
            "JOIN customers b ON a.cid = b.cid WHERE a.cid < 2"
        )
        response = client.sql(sql)
        assert response["results"]["certain"].rows == {("Ada", "Ada")}
        assert set(response["tables"]) == {"customers"}


class TestSqlErrorPaths:
    def test_bad_sql_is_400_sql_error(self, service):
        server, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.sql("SELEKT * FROM person")
        assert excinfo.value.status == 400
        assert excinfo.value.code == "sql_error"

    def test_unknown_table_is_404(self, service):
        server, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.sql("SELECT * FROM missing")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown_dataset"
        assert "missing" in excinfo.value.message

    def test_bad_mode_is_400(self, service):
        server, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.sql("SELECT * FROM person", mode="definitely")
        assert excinfo.value.status == 400
        assert excinfo.value.code == "malformed_payload"

    def test_unknown_backend_is_plan_error(self, service):
        server, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.sql("SELECT * FROM person", backend="gpu")
        assert excinfo.value.status == 400
        assert excinfo.value.code == "plan_error"

    def test_retired_rowwise_backend_is_plan_error(self, service):
        server, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.sql("SELECT * FROM person", backend="rowwise")
        assert excinfo.value.status == 400
        assert excinfo.value.code == "plan_error"
        assert "rowwise" in excinfo.value.message

    def test_unknown_column_is_400(self, service):
        server, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.sql("SELECT salary FROM person")
        assert excinfo.value.status == 400

    def test_duplicate_codd_registration_is_409(self, service):
        server, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.register_codd_table("person", person_table())
        assert excinfo.value.status == 409
        assert excinfo.value.code == "registry_conflict"

    def test_replace_overwrites(self, service):
        server, client = service
        client.register_codd_table("person", person_table(), replace=True)

    def test_malformed_inline_table_is_400(self, service):
        server, client = service
        import json
        from urllib import error, request

        req = request.Request(
            server.url + "/sql",
            data=json.dumps(
                {"query": "SELECT * FROM t", "codd_table": {"schema": ["a"]}}
            ).encode(),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(error.HTTPError) as excinfo:
            request.urlopen(req, timeout=10)
        assert excinfo.value.code == 400
