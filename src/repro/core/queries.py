"""The public CP query API: Q1 (checking) and Q2 (counting).

This module is the front door to the counting machinery. Since the planner
refactor it is a thin shim over :mod:`repro.core.planner`: every call
builds a :class:`~repro.core.planner.CPQuery` descriptor and routes it
through :func:`~repro.core.planner.plan_query` /
:func:`~repro.core.planner.execute_query`, so single-point queries inherit
the same backend registry (sequential / batch / incremental) as batch and
cleaning workloads. The per-point algorithms it can force are summarised
in the paper's Figure 4:

=============  =========================  ===============================
query          algorithm                  complexity (per test example)
=============  =========================  ===============================
Q1, binary     ``minmax`` (Algorithm 2)   ``O(NM + N log K)``
Q1, any |Y|    via Q2                     as Q2
Q2             ``engine`` (fast SS)       ``O(NM (K + log NM + |Gamma|))``
Q2             ``tree`` (SS-DC, A.1)      ``O(NM (log NM + K^2 log N))``
Q2             ``multiclass`` (A.3)       ``O(NM (log NM + |Y|^2 K^3))``
Q2             ``naive`` (Algorithm 1)    ``O(N^2 M K |Y|)`` reference
Q2             ``bruteforce``             ``O(M^N)`` oracle
=============  =========================  ===============================

All Q2 backends return identical exact counts; ``algorithm="auto"`` picks
the fast engine for Q2 and MinMax for binary Q1. ``backend="auto"``
(default) lets the planner choose the execution backend; pass
``"sequential"``, ``"batch"`` or ``"incremental"`` to force one.
"""

from __future__ import annotations

import numpy as np

from repro.core.dataset import IncompleteDataset
from repro.core.entropy import certain_label_from_counts
from repro.core.kernels import Kernel
from repro.core.minmax import minmax_check, predictable_labels
from repro.core.planner import Q2_ALGORITHMS, execute_query, get_backend, make_query
from repro.utils.validation import check_in_options, check_vector

__all__ = ["q2", "q2_counts", "q1", "certain_label"]


def q2_counts(
    dataset: IncompleteDataset,
    t: np.ndarray,
    k: int = 3,
    kernel: Kernel | str | None = None,
    algorithm: str = "auto",
    backend: str = "auto",
) -> list[int]:
    """All Q2 counts at once: ``result[y] = Q2(D, t, y)``.

    The entries are exact and sum to the number of possible worlds.
    """
    algorithm = check_in_options(algorithm, "algorithm", ("auto", *Q2_ALGORITHMS))
    # This is the single-point front door: a matrix would silently answer
    # only its first row, so reject it here (batch callers use the planner
    # or screen_dataset).
    t = check_vector(t, "t", length=dataset.n_features)
    query = make_query(
        dataset, t, kind="counts", k=k, kernel=kernel, algorithm=algorithm
    )
    return execute_query(query, backend=backend).values[0]


def q2(
    dataset: IncompleteDataset,
    t: np.ndarray,
    label: int,
    k: int = 3,
    kernel: Kernel | str | None = None,
    algorithm: str = "auto",
    backend: str = "auto",
) -> int:
    """The counting query ``Q2(D, t, label)`` (Definition 5)."""
    counts = q2_counts(dataset, t, k=k, kernel=kernel, algorithm=algorithm, backend=backend)
    if not 0 <= label < len(counts):
        raise ValueError(f"label {label} outside the label space of size {len(counts)}")
    return counts[label]


def q1(
    dataset: IncompleteDataset,
    t: np.ndarray,
    label: int,
    k: int = 3,
    kernel: Kernel | str | None = None,
    algorithm: str = "auto",
    backend: str = "auto",
) -> bool:
    """The checking query ``Q1(D, t, label)`` (Definition 4).

    ``algorithm="minmax"`` forces Algorithm 2 (binary labels only);
    ``"auto"`` uses MinMax when the dataset is binary and the counting
    engine otherwise.
    """
    algorithm = check_in_options(algorithm, "algorithm", ("auto", "minmax", *Q2_ALGORITHMS))
    if backend != "auto":
        get_backend(backend)  # consistent validation even on the MM shortcut
    if algorithm == "minmax" or (algorithm == "auto" and dataset.n_labels == 2):
        return minmax_check(dataset, t, label, k=k, kernel=kernel)
    counts = q2_counts(
        dataset,
        t,
        k=k,
        kernel=kernel,
        algorithm="auto" if algorithm == "auto" else algorithm,
        backend=backend,
    )
    if not 0 <= label < len(counts):
        raise ValueError(f"label {label} outside the label space of size {len(counts)}")
    return counts[label] == sum(counts)


def certain_label(
    dataset: IncompleteDataset,
    t: np.ndarray,
    k: int = 3,
    kernel: Kernel | str | None = None,
    algorithm: str = "auto",
    backend: str = "auto",
) -> int | None:
    """The certainly-predicted label of ``t``, or ``None`` if not CP'ed.

    Convenience wrapper: a test point is CP'ed iff this returns a label.
    """
    algorithm = check_in_options(algorithm, "algorithm", ("auto", "minmax", *Q2_ALGORITHMS))
    if backend != "auto":
        get_backend(backend)  # consistent validation even on the MM shortcut
    if algorithm == "minmax" or (algorithm == "auto" and dataset.n_labels == 2):
        winners = predictable_labels(dataset, t, k=k, kernel=kernel)
        return winners[0] if len(winners) == 1 else None
    counts = q2_counts(
        dataset,
        t,
        k=k,
        kernel=kernel,
        algorithm="auto" if algorithm == "auto" else algorithm,
        backend=backend,
    )
    return certain_label_from_counts(counts)
