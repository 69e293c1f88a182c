"""The served CPClean loop runs on one warm maintained state.

A ``/clean/step`` checkpoint absorbs the new pin into the ``incremental``
backend's state for the validation family; a ``with_cleaned`` validation
read then carries exactly those pins, so the planner serves it from the
same warm state. Both answers must equal a fresh ``batch`` recount.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.core.dataset import IncompleteDataset
from repro.core.planner import (
    ExecutionOptions,
    execute_query,
    get_backend,
    make_query,
)
from repro.service import DatasetRegistry, ServiceClient, make_service


def multiclass_case() -> tuple[IncompleteDataset, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(17)
    sets = [rng.normal(size=(int(rng.integers(1, 4)), 3)) for _ in range(30)]
    labels = rng.integers(0, 3, size=30)
    labels[:3] = [0, 1, 2]
    gt_choice = np.array([int(rng.integers(0, len(c))) for c in sets])
    return IncompleteDataset(sets, labels), rng.normal(size=(5, 3)), gt_choice


@pytest.fixture(scope="module")
def service():
    registry = DatasetRegistry()
    registry.register_recipe("binary", n_train=60, n_val=6, seed=3)
    dataset, val_X, gt_choice = multiclass_case()
    registry.register("multiclass", dataset, k=3, val_X=val_X, gt_choice=gt_choice)
    server = make_service(registry, window_s=0.005, max_batch=8)
    client = ServiceClient(server.url)
    client.wait_until_ready()
    yield server, client
    server.close()


def batch_values(entry, kind: str) -> list:
    query = make_query(
        entry.dataset,
        entry.val_X,
        kind=kind,
        k=entry.k,
        kernel=entry.kernel,
        pins=entry.session_pins(),
    )
    return execute_query(
        query, backend="batch", options=ExecutionOptions(cache=False)
    ).values


@pytest.mark.parametrize("name", ["binary", "multiclass"])
def test_clean_steps_and_cleaned_reads_share_the_warm_state(service, name):
    server, client = service
    entry = server.registry.get(name)
    assert entry.dataset.n_labels == (2 if name == "binary" else 3)
    rows = entry.dataset.uncertain_rows()[:3]
    assert len(rows) == 3
    for row in rows:
        checkpoint = client.clean_step(name, row=row)
        assert checkpoint["certain_labels"] == batch_values(entry, "certain_label")
        served = client.query(
            name, points="validation", with_cleaned=True, explain=True
        )
        assert served["explain"]["backend"] == "incremental"
        assert served["explain"]["stats"]["n_recomputed"] == 0  # nothing new
        assert served["values"] == batch_values(entry, "counts")


def test_a_dropped_registry_takes_its_maintained_state_along():
    registry = DatasetRegistry()
    entry = registry.register_recipe("r", n_train=50, n_val=3, seed=5)
    entry.clean_step(entry.dataset.uncertain_rows()[0], None)
    fingerprint = entry.dataset.fingerprint()
    states = get_backend("incremental")._states
    assert any(key[0] == fingerprint for key in states)
    del registry, entry
    gc.collect()
    assert all(key[0] != fingerprint for key in states)
