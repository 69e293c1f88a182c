"""The public API surface: __all__ is accurate everywhere, no stale exports."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.core",
    "repro.codd",
    "repro.data",
    "repro.cleaning",
    "repro.experiments",
    "repro.obs",
    "repro.service",
    "repro.utils",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_names_resolve(package_name: str) -> None:
    module = importlib.import_module(package_name)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{package_name} has no __all__"
    for name in exported:
        assert hasattr(module, name), f"{package_name}.__all__ lists missing {name!r}"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_has_no_duplicates(package_name: str) -> None:
    module = importlib.import_module(package_name)
    exported = list(module.__all__)
    assert len(exported) == len(set(exported)), f"duplicates in {package_name}.__all__"


def _iter_submodules(package_name: str):
    package = importlib.import_module(package_name)
    for info in pkgutil.iter_modules(package.__path__, prefix=package_name + "."):
        if not info.ispkg:
            yield info.name


@pytest.mark.parametrize(
    "module_name",
    sorted(
        name
        for pkg in (
            "repro.core",
            "repro.codd",
            "repro.data",
            "repro.cleaning",
            "repro.obs",
            "repro.service",
        )
        for name in _iter_submodules(pkg)
    ),
)
def test_every_submodule_imports_and_has_docstring(module_name: str) -> None:
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"
    assert getattr(module, "__all__", None), f"{module_name} lacks __all__"


def test_version_is_exposed() -> None:
    assert repro.__version__
    parts = repro.__version__.split(".")
    assert len(parts) == 3 and all(p.isdigit() for p in parts)


def test_quickstart_docstring_example_is_true() -> None:
    # The package docstring promises [6, 2]; hold it to that.
    import numpy as np

    from repro import IncompleteDataset, certain_label, q2_counts

    dataset = IncompleteDataset(
        [np.array([[5.0], [2.0]]), np.array([[6.0], [4.0]]), np.array([[3.0], [1.0]])],
        labels=[1, 1, 0],
    )
    t = np.array([0.0])
    assert q2_counts(dataset, t, k=1) == [6, 2]
    assert certain_label(dataset, t, k=1) is None


def test_one_maintained_count_engine() -> None:
    # Counts maintained across pins, appends and deletes live in
    # repro.core.deltas; the pins-only module is gone.
    import importlib.util

    assert importlib.util.find_spec("repro.core.incremental") is None
    assert "DeltaMaintainedState" in repro.__all__


REMOVED_MODULES = [
    "repro.codd.ctable",
    "repro.core.montecarlo",
    "repro.core.linear",
    "repro.core.witness",
]
REMOVED_NAMES = {
    "CTable",
    "ConditionalRow",
    "evaluate_ctable",
    "ctable_certain_rows",
    "ctable_certain_answers",
    "ctable_possible_answers",
    "MonteCarloEstimate",
    "estimate_prediction_probabilities",
    "sample_size_for",
    "LogisticRegression",
    "Witness",
    "find_witness",
}


def test_modules_nothing_serves_stay_gone() -> None:
    # The c-table evaluator, the Monte-Carlo estimator over logistic
    # regression and the witness finder served no route, command or test
    # oracle; the Codd differential harness checks against naive worlds.
    import importlib.util

    for name in REMOVED_MODULES:
        assert importlib.util.find_spec(name) is None, name
    for package_name in PACKAGES:
        exported = set(importlib.import_module(package_name).__all__)
        assert not exported & REMOVED_NAMES, (package_name, exported & REMOVED_NAMES)


#: module -> names that folded into the ``batch`` backend or stopped
#: existing with the caches that never hit.
FOLDED_NAMES = {
    "repro.core.batch_engine": (
        "BatchQueryExecutor",
        "batch_q2_counts",
        "batch_certain_labels",
        "RESULT_CACHE_SIZE",
        "count_point",
        "decision_point",
    ),
    "repro.core.planner": ("MAX_PREPARED_BATCHES", "PRUNE_MODES", "_prune_enabled"),
    "repro.core.scan_kernels": (
        "KERNEL_IMPLEMENTATIONS",
        "DEFAULT_IMPLEMENTATION",
        "resolve_implementation",
    ),
}


def test_one_batch_execution_path() -> None:
    # Whole test matrices run through execute_query(..., backend="batch");
    # there is no second executor, prepared-batch LRU or kernel switch.
    import inspect

    from repro.cleaning.batch import run_batch_clean
    from repro.cleaning.cp_clean import run_cp_clean
    from repro.cleaning.sequential import CleaningSession
    from repro.cleaning.weighted_clean import run_weighted_cp_clean
    from repro.core import pruning, scan_kernels
    from repro.core.planner import BatchParallelBackend
    from repro.core.screening import screen_dataset

    for module_name, names in FOLDED_NAMES.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert not hasattr(module, name), f"{module_name}.{name}"
    removed = {name for names in FOLDED_NAMES.values() for name in names}
    for package_name in PACKAGES:
        exported = set(importlib.import_module(package_name).__all__)
        assert not exported & removed, (package_name, exported & removed)
    for function, parameter in (
        (CleaningSession, "use_cache"),
        (run_cp_clean, "use_cache"),
        (run_batch_clean, "use_cache"),
        (run_weighted_cp_clean, "use_cache"),
        (screen_dataset, "cache"),
        (scan_kernels.build_scan_arrays, "implementation"),
        (scan_kernels.decision_winners, "implementation"),
        (pruning.pruned_decision_from_sims, "implementation"),
    ):
        assert parameter not in inspect.signature(function).parameters, function
    assert not hasattr(CleaningSession, "executor")
    assert not hasattr(BatchParallelBackend(), "_prepared")


def test_one_q2_engine_on_the_served_path() -> None:
    # Queries always run the fast engine; the paper's other Q2 engines are
    # plain functions, not a per-query `algorithm=` override.
    import dataclasses
    import inspect

    from repro.core import planner
    from repro.core.planner import BackendCapabilities, CPQuery, make_query
    from repro.core.queries import certain_label, q1, q2, q2_counts
    from repro.service import QueryBroker, ServiceClient

    for function in (
        make_query,
        q2_counts,
        q2,
        q1,
        certain_label,
        QueryBroker.query,
        ServiceClient.query,
    ):
        assert "algorithm" not in inspect.signature(function).parameters, function
    assert "algorithm" not in {field.name for field in dataclasses.fields(CPQuery)}
    assert not hasattr(planner, "Q2_ALGORITHMS")
    assert [field.name for field in dataclasses.fields(BackendCapabilities)] == [
        "flavors",
        "kinds",
        "reference",
    ]


def test_pruning_is_not_a_knob() -> None:
    # The prune certificate keeps every answer bit-identical, so ``batch``
    # and ``incremental`` always run it and no caller selects it.
    import dataclasses
    import inspect

    from repro.cli import build_parser
    from repro.core.planner import ExecutionOptions
    from repro.service import QueryBroker, ServiceClient

    assert [field.name for field in dataclasses.fields(ExecutionOptions)] == [
        "n_jobs",
        "cache",
        "prepared",
    ]
    for function in (QueryBroker.query, ServiceClient.query):
        assert "prune" not in inspect.signature(function).parameters, function
    with pytest.raises(SystemExit) as rejected:
        build_parser().parse_args(["query", "--prune", "off"])
    assert rejected.value.code == 2


#: module -> names that went with the gateway's MinMax tally protocol and
#: its consistent-hash placement.
GATEWAY_REMOVED_NAMES = {
    "repro.service.partition": ("HashRing", "_hash_point", "merge_minmax_tallies"),
    "repro.core.minmax": ("merge_minmax_block", "MINMAX_BLOCK_CANDIDATES"),
}


def test_one_gateway_merge_mode() -> None:
    # Every gateway query gathers similarity blocks and decides on the
    # ``batch`` backend; partition i lives on executor i.
    import inspect

    from repro.cli import build_parser
    from repro.service import Gateway, make_service
    from repro.service.executor import ExecutorPartition

    for module_name, names in GATEWAY_REMOVED_NAMES.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert not hasattr(module, name), f"{module_name}.{name}"
    removed = {name for names in GATEWAY_REMOVED_NAMES.values() for name in names}
    for package_name in PACKAGES:
        exported = set(importlib.import_module(package_name).__all__)
        assert not exported & removed, (package_name, exported & removed)
    assert list(inspect.signature(Gateway).parameters) == [
        "n_executors",
        "timeout_s",
        "obs",
    ]
    assert "partitions_per_executor" not in inspect.signature(make_service).parameters
    assert not hasattr(Gateway, "_execute_minmax")
    assert not hasattr(ExecutorPartition, "minmax_tallies")
    with pytest.raises(SystemExit) as rejected:
        build_parser().parse_args(["serve", "--partitions-per-executor", "2"])
    assert rejected.value.code == 2
