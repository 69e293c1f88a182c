"""MM (MinMax) — the paper's Algorithm 2 for the checking query Q1.

For binary classification, whether *some* possible world predicts label ``l``
can be decided by examining a single greedily constructed world, the
*l-extreme world* ``E_l``: every row with label ``l`` picks its candidate
**most** similar to the test example, every other row picks its candidate
**least** similar. Lemma B.2 shows ``E_l`` predicts ``l`` iff some world
does, so

    ``Q1(D, t, l)  <=>  E_l predicts l  and  no E_{l'} (l' != l) predicts l'``.

The construction costs ``O(N M)`` and the KNN evaluations ``O(N log K)`` —
the row labelled "MM" in the paper's Figure 4.

The correctness proof only holds for ``|Y| = 2`` (a third label can slip into
the top-K when a non-``l`` row is pushed down); by default this module
refuses multi-class datasets. ``allow_multiclass=True`` exposes the
construction anyway for experimentation (it is then only a *necessary*
condition, not sufficient), mirroring the discussion in Appendix B.

The per-row extremes are all the decision needs:
:func:`binary_minmax_label` decides Q1 from them. The ``batch`` backend
takes them off its shared similarity matrix with one ``reduceat`` per
point — for local queries and for the partitioned service gateway
(:mod:`repro.service.gateway`) alike, which gathers that matrix from its
executors and hands it to ``batch``.
"""

from __future__ import annotations

import numpy as np

from repro.core.dataset import IncompleteDataset
from repro.core.kernels import Kernel
from repro.core.knn import majority_label, top_k_rows
from repro.core.scan import candidate_similarities
from repro.utils.validation import check_positive_int

__all__ = [
    "minmax_check",
    "minmax_checks_all",
    "extreme_world_similarities",
    "predictable_labels",
    "binary_minmax_label",
]


def extreme_world_similarities(
    sims_per_row: list[np.ndarray], labels: np.ndarray, target_label: int
) -> np.ndarray:
    """Row similarities of the ``target_label``-extreme world (Eq. B.1).

    Rather than materialising the world's feature vectors, the KNN decision
    only needs each row's similarity: the max over candidates for rows with
    the target label, the min for all other rows.
    """
    n = labels.shape[0]
    sims = np.empty(n, dtype=np.float64)
    for i in range(n):
        row_sims = sims_per_row[i]
        sims[i] = row_sims.max() if labels[i] == target_label else row_sims.min()
    return sims


def predictable_labels(
    dataset: IncompleteDataset,
    t: np.ndarray,
    k: int = 3,
    kernel: Kernel | str | None = None,
    allow_multiclass: bool = False,
) -> list[int]:
    """Labels ``l`` whose l-extreme world predicts ``l``.

    For binary datasets this is exactly the set of labels some possible
    world predicts (Lemma B.2).
    """
    k = check_positive_int(k, "k")
    if k > dataset.n_rows:
        raise ValueError(f"k={k} exceeds the number of training rows {dataset.n_rows}")
    n_labels = dataset.n_labels
    if n_labels > 2 and not allow_multiclass:
        raise ValueError(
            "the MM algorithm is only proven correct for binary classification "
            "(|Y| = 2); use the SS counting engine for multi-class Q1, or pass "
            "allow_multiclass=True to use MM as a heuristic"
        )
    sims_per_row = candidate_similarities(dataset, t, kernel)
    labels = dataset.labels

    winners = []
    for target in range(n_labels):
        sims = extreme_world_similarities(sims_per_row, labels, target)
        top = top_k_rows(sims, k)
        if majority_label(labels[top], tally_size=n_labels) == target:
            winners.append(target)
    return winners


def minmax_check(
    dataset: IncompleteDataset,
    t: np.ndarray,
    label: int,
    k: int = 3,
    kernel: Kernel | str | None = None,
) -> bool:
    """``Q1(D, t, label)`` via MM: true iff every world predicts ``label``."""
    if not 0 <= label < dataset.n_labels:
        raise ValueError(f"label {label} outside the label space of size {dataset.n_labels}")
    return predictable_labels(dataset, t, k=k, kernel=kernel) == [label]


def minmax_checks_all(
    dataset: IncompleteDataset,
    t: np.ndarray,
    k: int = 3,
    kernel: Kernel | str | None = None,
) -> list[bool]:
    """The Boolean vector ``r`` of Algorithm 2: ``r[y] = Q1(D, t, y)``.

    At most one entry can be true; all entries are false iff the test point
    cannot be certainly predicted.
    """
    winners = predictable_labels(dataset, t, k=k, kernel=kernel)
    result = [False] * dataset.n_labels
    if len(winners) == 1:
        result[winners[0]] = True
    return result


def binary_minmax_label(
    lo: np.ndarray, hi: np.ndarray, labels: np.ndarray, k: int
) -> int | None:
    """The Q1 verdict for one point from its per-row extreme similarities.

    ``lo`` / ``hi`` are the per-row min/max similarities (pins already
    applied as ``lo == hi == pinned similarity``). Binary label spaces
    only; uses the very same :func:`~repro.core.knn.top_k_rows` /
    :func:`~repro.core.knn.majority_label` calls as
    :func:`predictable_labels`, so the verdict is bit-identical to it.
    """
    winners = []
    for target in range(2):
        extremes = np.where(labels == target, hi, lo)
        top = top_k_rows(extremes, k)
        if majority_label(labels[top], tally_size=2) == target:
            winners.append(target)
    return winners[0] if len(winners) == 1 else None
