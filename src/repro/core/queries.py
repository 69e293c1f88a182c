"""The public CP query API: Q1 (checking) and Q2 (counting).

This module is the front door to the counting machinery, a thin shim over
:mod:`repro.core.planner`: every call builds a
:class:`~repro.core.planner.CPQuery` descriptor and routes it through
:func:`~repro.core.planner.execute_query`, so single-point queries inherit
the same backend registry (sequential / batch / incremental) as batch and
cleaning workloads. Q2 always runs the fast engine; Q1 and
:func:`certain_label` take MinMax on binary labels. The paper's Figure 4
engines stay importable as plain functions, and all Q2 engines return
identical exact counts:

=============  ===========================================  ===============================
query          function                                     complexity (per test example)
=============  ===========================================  ===============================
Q1, binary     ``minmax.minmax_check`` (Algorithm 2)        ``O(NM + N log K)``
Q1, any |Y|    via Q2                                       as Q2
Q2             ``engine.sortscan_counts`` (fast SS)         ``O(NM (K + log NM + |Gamma|))``
Q2             ``sortscan_tree.sortscan_counts_tree``       ``O(NM (log NM + K^2 log N))``
               (SS-DC, A.1)
Q2             ``multiclass.sortscan_counts_multiclass``    ``O(NM (log NM + |Y|^2 K^3))``
               (A.3)
Q2             ``sortscan.sortscan_counts_naive``           ``O(N^2 M K |Y|)`` reference
               (Algorithm 1)
Q2             ``bruteforce.brute_force_counts``            ``O(M^N)`` oracle
=============  ===========================================  ===============================

(module names under :mod:`repro.core`). ``backend="auto"`` (default) lets
the planner choose the execution backend; pass ``"sequential"``,
``"batch"`` or ``"incremental"`` to force one.
"""

from __future__ import annotations

import numpy as np

from repro.core.dataset import IncompleteDataset
from repro.core.entropy import certain_label_from_counts
from repro.core.kernels import Kernel
from repro.core.minmax import minmax_check, predictable_labels
from repro.core.planner import execute_query, get_backend, make_query
from repro.utils.validation import check_vector

__all__ = ["q2", "q2_counts", "q1", "certain_label"]


def q2_counts(
    dataset: IncompleteDataset,
    t: np.ndarray,
    k: int = 3,
    kernel: Kernel | str | None = None,
    backend: str = "auto",
) -> list[int]:
    """All Q2 counts at once: ``result[y] = Q2(D, t, y)``.

    The entries are exact and sum to the number of possible worlds.
    """
    # This is the single-point front door: a matrix would silently answer
    # only its first row, so reject it here (batch callers use the planner
    # or screen_dataset).
    t = check_vector(t, "t", length=dataset.n_features)
    query = make_query(dataset, t, kind="counts", k=k, kernel=kernel)
    return execute_query(query, backend=backend).values[0]


def q2(
    dataset: IncompleteDataset,
    t: np.ndarray,
    label: int,
    k: int = 3,
    kernel: Kernel | str | None = None,
    backend: str = "auto",
) -> int:
    """The counting query ``Q2(D, t, label)`` (Definition 5)."""
    counts = q2_counts(dataset, t, k=k, kernel=kernel, backend=backend)
    if not 0 <= label < len(counts):
        raise ValueError(f"label {label} outside the label space of size {len(counts)}")
    return counts[label]


def q1(
    dataset: IncompleteDataset,
    t: np.ndarray,
    label: int,
    k: int = 3,
    kernel: Kernel | str | None = None,
    backend: str = "auto",
) -> bool:
    """The checking query ``Q1(D, t, label)`` (Definition 4).

    Uses MinMax (Algorithm 2) when the dataset is binary and the counting
    engine otherwise.
    """
    if backend != "auto":
        get_backend(backend)  # consistent validation even on the MM shortcut
    if dataset.n_labels == 2:
        return minmax_check(dataset, t, label, k=k, kernel=kernel)
    counts = q2_counts(dataset, t, k=k, kernel=kernel, backend=backend)
    if not 0 <= label < len(counts):
        raise ValueError(f"label {label} outside the label space of size {len(counts)}")
    return counts[label] == sum(counts)


def certain_label(
    dataset: IncompleteDataset,
    t: np.ndarray,
    k: int = 3,
    kernel: Kernel | str | None = None,
    backend: str = "auto",
) -> int | None:
    """The certainly-predicted label of ``t``, or ``None`` if not CP'ed.

    Convenience wrapper: a test point is CP'ed iff this returns a label.
    """
    if backend != "auto":
        get_backend(backend)  # consistent validation even on the MM shortcut
    if dataset.n_labels == 2:
        winners = predictable_labels(dataset, t, k=k, kernel=kernel)
        return winners[0] if len(winners) == 1 else None
    counts = q2_counts(dataset, t, k=k, kernel=kernel, backend=backend)
    return certain_label_from_counts(counts)
