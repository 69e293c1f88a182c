"""PATCH /datasets/{name}: live writes, versioning, and cache hygiene.

Three layers are held to account here:

* the HTTP round trip — wire-encoded deltas and Codd fixes applied to
  registered entries, version/fingerprint echoes, structured errors;
* the broker — per-dataset result-cache purging on writes *and* on
  re-registration (the stale-fingerprint regression), patch metrics;
* concurrency — a hammer test interleaving PATCH writes with concurrent
  reads: every response must be consistent with exactly one serializable
  dataset version (counts bit-identical to a from-scratch recompute at
  the echoed version), and versions must be monotone.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.codd.codd_table import CoddTable, Null
from repro.codd.sql import parse_sql
from repro.codd.certain import certain_answers
from repro.core.dataset import IncompleteDataset
from repro.core.deltas import CellRepair, RowAppend, RowDelete, apply_delta_to_dataset
from repro.core.planner import ExecutionOptions, execute_query, make_query
from repro.service import DatasetRegistry, ServiceClient, ServiceError, make_service
from repro.service.broker import QueryBroker


def small_dataset() -> IncompleteDataset:
    rng = np.random.default_rng(11)
    sets = [rng.normal(size=(m, 2)) for m in (1, 3, 2, 2, 1, 3)]
    return IncompleteDataset(sets, [0, 1, 0, 1, 1, 0])


def small_codd_table() -> CoddTable:
    return CoddTable(
        ("name", "age"),
        [
            ("ada", Null([35, 36])),
            ("bob", 41),
            (Null(["eve", "mal"]), 29),
        ],
    )


@pytest.fixture
def service():
    registry = DatasetRegistry()
    registry.register("d", small_dataset(), k=2)
    registry.register_codd_table("t", small_codd_table())
    server = make_service(registry, window_s=0.0, max_batch=8)
    client = ServiceClient(server.url)
    client.wait_until_ready()
    yield server, client
    server.close()


class TestDatasetPatchRoundTrip:
    def test_versions_and_counts_track_local_deltas(self, service):
        server, client = service
        local = small_dataset()
        assert client.dataset("d")["version"] == 1

        deltas = [
            CellRepair(1, 0),
            RowAppend(np.array([[0.5, 0.5], [1.5, 0.5]]), 1),
            RowDelete(0),
        ]
        result = client.patch("d", deltas=deltas)
        for delta in deltas:
            local = apply_delta_to_dataset(local, delta)
        assert result["version"] == 4  # one bump per delta
        assert [r["version"] for r in result["reports"]] == [2, 3, 4]
        assert result["fingerprint"] == local.fingerprint()
        assert result["n_rows"] == local.n_rows
        assert int(result["n_worlds"]) == local.n_worlds()

        # Every subsequent read echoes the version it was served at, and
        # the served counts are bit-identical to a local recompute.
        response = client.query("d", point=[0.0, 0.0], kind="counts")
        assert response["version"] == 4
        assert response["fingerprint"] == local.fingerprint()
        expected = execute_query(
            make_query(local, np.zeros((1, 2)), kind="counts", k=2),
            options=ExecutionOptions(cache=False),
        ).values
        assert response["values"] == expected

    def test_convenience_methods_apply_single_deltas(self, service):
        server, client = service
        before = client.dataset("d")["version"]
        dirty = server.registry.get("d").dataset.uncertain_rows()[0]
        result = client.repair_cell("d", dirty, 0)
        assert result["version"] == before + 1
        assert result["reports"][0]["op"] == "cell_repair"

    def test_repair_conflicting_with_clean_pin_is_rejected(self, service):
        server, client = service
        client.register_recipe("r", n_train=40, n_val=4, seed=0)
        entry = server.registry.get("r")
        row = entry.dataset.uncertain_rows()[0]
        truth = int(entry.gt_choice[row])
        client.clean_step("r", row=row)  # session pin via the oracle
        with pytest.raises(ServiceError) as excinfo:
            client.repair_cell("r", row, 1 - truth)
        assert excinfo.value.status == 400
        # The matching repair absorbs the pin instead: the row is physically
        # clean now, no longer a session fix.
        result = client.repair_cell("r", row, truth)
        assert result["reports"][0]["op"] == "cell_repair"
        next_dirty = server.registry.get("r").dataset.uncertain_rows()[0]
        checkpoint = client.clean_step("r", row=next_dirty)
        assert row not in checkpoint["fixed"]
        assert row not in server.registry.get("r").dataset.uncertain_rows()

    def test_patch_errors_are_structured(self, service):
        server, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.patch("nope", deltas=[CellRepair(0, 0)])
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client.patch("t", deltas=[CellRepair(0, 0)])  # codd entry, CP deltas
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client._request("PATCH", "/datasets/d", {})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                "PATCH",
                "/datasets/d",
                {"deltas": [{"op": "warp_core_breach"}]},
            )
        assert excinfo.value.status == 400
        with pytest.raises(ValueError, match="exactly one"):
            client.patch("d")


class TestCoddPatchRoundTrip:
    def test_fix_cell_matches_local_with_cell_fixed(self, service):
        server, client = service
        local = small_codd_table()
        result = client.fix_cell("t", 0, 1, 36)
        local = local.with_cell_fixed(0, 1, 36)
        assert result["version"] == 2
        assert result["fingerprint"] == local.fingerprint()
        assert int(result["n_worlds"]) == local.n_worlds()

        query = "SELECT name FROM t WHERE age > 30"
        response = client.sql(query, mode="certain")
        assert response["versions"] == {"t": 2}
        assert response["results"]["certain"] == certain_answers(
            parse_sql(query), local, name="t"
        )

    def test_fix_errors_are_structured(self, service):
        server, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.fix_cell("t", 1, 1, 99)  # cell (1, 1) is not NULL
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.fix_cell("d", 0, 0, 1)  # CP dataset, codd fixes
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                "PATCH", "/datasets/t", {"fixes": [{"row": 0, "column": 1}]}
            )
        assert excinfo.value.status == 400


class TestCacheHygiene:
    def test_patch_purges_cached_results_for_that_dataset(self):
        registry = DatasetRegistry()
        registry.register("d", small_dataset(), k=2)
        registry.register("other", small_dataset(), k=2)
        broker = QueryBroker(registry, window_s=0.0, max_batch=1, cache=True, ttl_s=60.0)
        point = np.zeros(2)
        broker.query("d", point, kind="counts")
        broker.query("other", point, kind="counts")
        populated = len(broker.cache)
        assert populated > 0
        broker.patch("d", deltas=[CellRepair(1, 0)])
        assert len(broker.cache) < populated  # "d" entries dropped
        fresh = broker.query("d", point, kind="counts")
        assert not fresh["cached"]
        assert fresh["version"] == 2
        # "other" was untouched: its cached result still serves.
        assert broker.query("other", point, kind="counts")["cached"]
        assert broker.metrics()["patch_requests"] == 1
        broker.close()

    def test_reregistration_purges_stale_cache_entries(self):
        """Replacing a dataset under the same name must not leave the old
        content's cached results pinned for the TTL (the regression:
        fingerprint-keyed entries were unreachable but kept alive)."""
        registry = DatasetRegistry()
        registry.register("d", small_dataset(), k=2)
        broker = QueryBroker(registry, window_s=0.0, max_batch=1, cache=True, ttl_s=600.0)
        points = np.random.default_rng(7).normal(size=(4, 2))
        for point in points:
            broker.query("d", point, kind="counts")
        assert len(broker.cache) > 0

        replacement = small_dataset().restrict_row(1, 0)
        registry.register("d", replacement, k=2, replace=True)
        assert len(broker.cache) == 0
        response = broker.query("d", points[0], kind="counts")
        assert not response["cached"]
        assert response["fingerprint"] == replacement.fingerprint()
        broker.close()

    def test_remove_purges_cache_too(self):
        registry = DatasetRegistry()
        registry.register("d", small_dataset(), k=2)
        broker = QueryBroker(registry, window_s=0.0, max_batch=1, cache=True, ttl_s=600.0)
        broker.query("d", np.zeros(2), kind="counts")
        assert len(broker.cache) > 0
        registry.remove("d")
        assert len(broker.cache) == 0
        broker.close()


class TestPatchReadHammer:
    """Interleaved PATCH writes and reads: serializable versions, no torn
    tallies, monotone version numbers."""

    def test_every_read_is_consistent_with_its_echoed_version(self):
        dataset = small_dataset()
        registry = DatasetRegistry()
        registry.register("d", dataset, k=2)
        broker = QueryBroker(registry, window_s=0.0, max_batch=8, cache=False)
        points = np.random.default_rng(13).normal(size=(3, 2))

        # The writer's script, fixed up front so the dataset at every
        # version is known exactly: version 1 is the registered dataset,
        # version 1 + i is after delta i.
        deltas = [
            CellRepair(1, 0),
            RowAppend(np.array([[0.3, -0.2], [0.8, 0.1]]), 0),
            CellRepair(2, 1),
            RowDelete(0),
            RowAppend(np.array([[-0.5, 0.4]]), 1),
            CellRepair(3, 0),
            RowDelete(4),
            CellRepair(2, 0),
        ]
        at_version = [dataset]
        for delta in deltas:
            at_version.append(apply_delta_to_dataset(at_version[-1], delta))

        reads: dict[int, list[dict]] = {}
        errors: list[BaseException] = []
        done = threading.Event()
        landed = threading.Condition()
        latest = [0]  # the newest version any read has echoed

        def writer() -> None:
            try:
                for delta in deltas:
                    version = broker.patch("d", deltas=[delta])["version"]
                    # A read must land on this version before the next write,
                    # or one slow read could span every write.
                    with landed:
                        landed.wait_for(lambda: latest[0] >= version, timeout=10)
            except BaseException as exc:  # pragma: no cover — surfaced below
                errors.append(exc)
            finally:
                done.set()

        def reader(slot: int) -> None:
            mine: list[dict] = []
            reads[slot] = mine
            try:
                # Read for the writer's whole run: a reader that stopped
                # early could finish before the first write committed.
                while not done.is_set() or len(mine) < 4:
                    response = broker.query("d", points, kind="counts")
                    mine.append(
                        {"version": response["version"], "values": response["values"]}
                    )
                    with landed:
                        latest[0] = max(latest[0], response["version"])
                        landed.notify_all()
            except BaseException as exc:  # pragma: no cover — surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(slot,)) for slot in range(4)]
        write_thread = threading.Thread(target=writer)
        for thread in threads:
            thread.start()
        write_thread.start()
        write_thread.join()
        for thread in threads:
            thread.join()
        broker.close()
        assert not errors, errors

        # Writes committed monotonically to the final version.
        assert registry.get("d").version == 1 + len(deltas)

        expected_cache: dict[int, list] = {}
        for slot, mine in reads.items():
            versions = [read["version"] for read in mine]
            # Versions are monotone per reader (each read starts after the
            # previous returned, and versions only ever increase).
            assert versions == sorted(versions), f"reader {slot}: {versions}"
            for read in mine:
                version = read["version"]
                assert 1 <= version <= 1 + len(deltas)
                if version not in expected_cache:
                    snapshot = at_version[version - 1]
                    expected_cache[version] = execute_query(
                        make_query(snapshot, points, kind="counts", k=2),
                        options=ExecutionOptions(cache=False),
                    ).values
                # Bit-identical to the recompute at the echoed version —
                # a torn read (new rows, old tallies) cannot pass this.
                assert read["values"] == expected_cache[version], (
                    f"reader {slot} tore at version {version}"
                )
        # The hammer must actually have observed concurrent versions.
        observed = {read["version"] for mine in reads.values() for read in mine}
        assert len(observed) >= 2, "hammer never overlapped a write"
