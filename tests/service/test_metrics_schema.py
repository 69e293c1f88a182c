"""Golden keys: the documented ``/metrics`` schema survives refactors.

PR 9 moved every serving counter onto typed :mod:`repro.obs` instruments.
These tests pin the *wire* contract — the legacy JSON key set plus the
new ``obs`` section — so dashboards built on either never silently lose
a series.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dataset import IncompleteDataset
from repro.service import DatasetRegistry, ServiceClient, make_service

# The documented legacy broker schema. A missing key breaks dashboards; a
# new key is fine (extend this set when you add one on purpose).
BROKER_KEYS = {
    "requests",
    "single_point_requests",
    "multi_point_requests",
    "batches_executed",
    "points_executed",
    "coalesced_batches",
    "max_batch_size",
    "rejected",
    "served_from_cache",
    "sql_requests",
    "sql_served_from_cache",
    "patch_requests",
    "explain_requests",
    "prune",
    "inflight",
    "window_s",
    "max_batch",
    "max_pending",
    "gateway_served",
    "gateway_fallbacks",
    "cache",
    "gateway",
}

REGISTRY_KEYS = {
    "n_datasets",
    "n_codd_tables",
    "n_queries",
    "n_points_served",
    "n_clean_steps",
    "n_sql_queries",
}

GATEWAY_KEYS = {
    "n_executors",
    "timeout_s",
    "retries",
    "queries",
    "scatters",
    "respawns",
    "stale_snapshots",
    "unavailable",
    "executors",
    "datasets",
}

PRUNE_KEYS = {"executions", "pruned_executions"}

# Counters the obs registry must always carry once a service has served a
# query (name prefixes; label variants collapse onto the base name).
OBS_COUNTER_PREFIXES = {
    "broker_requests_total",
    "broker_batches_total",
    "http_requests_total",
}

OBS_HISTOGRAM_PREFIXES = {
    "broker_request_seconds",
    "http_request_seconds",
}

OBS_GAUGES = {
    "broker_inflight",
    "broker_cache_size",
    "broker_cache_hit_rate",
    "registry_datasets",
    "registry_queries",
}


def _dataset():
    return IncompleteDataset(
        [
            np.array([[5.0], [2.0]]),
            np.array([[6.0], [4.0]]),
            np.array([[3.0], [1.0]]),
        ],
        labels=[1, 1, 0],
    )


@pytest.fixture(scope="module")
def served_metrics():
    registry = DatasetRegistry()
    registry.register("d", _dataset(), k=1)
    server = make_service(registry, window_s=0.0)
    try:
        client = ServiceClient(server.url)
        client.query("d", point=[0.0])
        client.query("d", point=[0.0], explain=True)
        yield client.metrics()
    finally:
        server.close()


def test_top_level_keys(served_metrics):
    assert {"uptime_s", "registry", "broker", "obs"} <= set(served_metrics)


def test_broker_golden_keys(served_metrics):
    missing = BROKER_KEYS - set(served_metrics["broker"])
    assert not missing, f"broker /metrics lost keys: {sorted(missing)}"
    assert PRUNE_KEYS <= set(served_metrics["broker"]["prune"])


def test_registry_golden_keys(served_metrics):
    missing = REGISTRY_KEYS - set(served_metrics["registry"])
    assert not missing, f"registry /metrics lost keys: {sorted(missing)}"


def test_legacy_counters_still_count(served_metrics):
    broker = served_metrics["broker"]
    assert broker["requests"] == 2
    assert broker["single_point_requests"] == 2
    assert broker["explain_requests"] == 1
    assert broker["inflight"] == 0


def test_obs_section_schema(served_metrics):
    obs = served_metrics["obs"]
    assert {"counters", "gauges", "histograms", "tracing"} <= set(obs)
    counter_bases = {name.partition("{")[0] for name in obs["counters"]}
    missing = OBS_COUNTER_PREFIXES - counter_bases
    assert not missing, f"obs counters lost: {sorted(missing)}"
    histogram_bases = {name.partition("{")[0] for name in obs["histograms"]}
    missing = OBS_HISTOGRAM_PREFIXES - histogram_bases
    assert not missing, f"obs histograms lost: {sorted(missing)}"
    missing = OBS_GAUGES - set(obs["gauges"])
    assert not missing, f"obs gauges lost: {sorted(missing)}"
    tracing = obs["tracing"]
    assert {"enabled", "buffered", "published", "slow_queries"} <= set(tracing)


def test_gateway_golden_keys():
    registry = DatasetRegistry()
    registry.register("d", _dataset(), k=1)
    server = make_service(registry, window_s=0.0, executors=2)
    try:
        client = ServiceClient(server.url)
        client.query("d", point=[0.0])
        gateway = client.metrics()["broker"]["gateway"]
    finally:
        server.close()
    missing = GATEWAY_KEYS - set(gateway)
    assert not missing, f"gateway /metrics lost keys: {sorted(missing)}"
    for executor in gateway["executors"].values():
        assert {"pid", "alive", "restarts", "requests", "errors"} <= set(executor)
