"""repro.service — the concurrent CP query service.

The serving layer above the unified planner: long-lived, concurrent, and
warm. Where every other entry point in the repo prepares a dataset's
distance state, answers one call, and throws the state away, the service
keeps it pinned across requests and callers:

* :mod:`repro.service.registry` — named datasets with warm
  ``PreparedBatch`` / cleaning-session state
  (:class:`DatasetRegistry`, :class:`DatasetEntry`);
* :mod:`repro.service.broker` — :class:`QueryBroker`: admission
  control, micro-batching of concurrent single-point queries into
  planner batch calls, and a TTL'd fingerprint-keyed result cache
  (a :class:`~repro.utils.lru.LRUCache`);
* :mod:`repro.service.http` — the threaded stdlib JSON API
  (``/datasets``, ``/query``, ``/sql``, ``/clean/step``, ``/healthz``,
  ``/metrics``), started by ``repro serve`` or :func:`make_service`;
* :mod:`repro.service.client` — :class:`ServiceClient`, the stdlib
  Python client with exact (bit-identical) value round-tripping;
* :mod:`repro.service.wire` — the JSON wire format both ends share;
* every layer reports into one shared :class:`repro.obs.Observability`
  bundle — typed metrics (``/metrics``, also Prometheus text) and
  request span trees (``/debug/traces``, ``explain="trace"``);
* :mod:`repro.service.gateway` / :mod:`repro.service.executor` /
  :mod:`repro.service.partition` — the partitioned multi-process
  topology (``repro serve --executors N``): a :class:`Gateway` that
  gives each executor worker process one candidate-row partition,
  scatter-gathers per-partition similarity blocks into bit-identical
  answers, and respawns dead executors automatically.

Quickstart (in one process; see ``examples/service_quickstart.py``)::

    from repro.service import DatasetRegistry, ServiceClient, make_service

    registry = DatasetRegistry()
    registry.register_recipe("supreme", n_train=60, n_val=8, seed=0)
    server = make_service(registry)          # ephemeral port, background thread
    client = ServiceClient(server.url)
    counts = client.query("supreme", points="validation")["values"]
    server.close()
"""

from repro.service.broker import AdmissionError, QueryBroker
from repro.service.client import ServiceClient, ServiceError
from repro.service.gateway import Gateway, GatewayError, GatewayUnavailable
from repro.service.http import ServiceServer, make_service, serve
from repro.service.partition import RowPartition, plan_row_partitions
from repro.service.registry import (
    CoddTableEntry,
    DatasetEntry,
    DatasetRegistry,
    DuplicateDatasetError,
    RegistryError,
    UnknownDatasetError,
)

__all__ = [
    "DatasetRegistry",
    "DatasetEntry",
    "CoddTableEntry",
    "RegistryError",
    "DuplicateDatasetError",
    "UnknownDatasetError",
    "QueryBroker",
    "AdmissionError",
    "ServiceServer",
    "make_service",
    "serve",
    "ServiceClient",
    "ServiceError",
    "Gateway",
    "GatewayError",
    "GatewayUnavailable",
    "RowPartition",
    "plan_row_partitions",
]
