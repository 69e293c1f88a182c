"""The incomplete-dataset data model (paper §2, Definitions 1-2).

An :class:`IncompleteDataset` is the paper's ``D = {(C_i, y_i)}``: each
training example ``i`` has a finite *candidate set* ``C_i`` of possible
feature vectors and a known class label ``y_i``. A row with a single
candidate is *certain* (clean); a row with several candidates is *uncertain*
(dirty). The cross product of all candidate choices induces the set of
possible worlds (see :mod:`repro.core.worlds`).

Candidate sets are ragged: each row may have a different number of
candidates. The paper's uniform-``M`` setting is the special case in which
every dirty row has exactly ``M`` candidates.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Callable, Sequence
from typing import NamedTuple

import numpy as np

from repro.utils.validation import check_matrix

__all__ = ["CandidateLayout", "IncompleteDataset"]


def _frozen(array: np.ndarray) -> np.ndarray:
    """A read-only copy of ``array``."""
    array = array.copy()
    array.setflags(write=False)
    return array


class CandidateLayout(NamedTuple):
    """Every candidate of a dataset stacked into one matrix, in candidate order.

    ``stacked`` is the ``(P, d)`` matrix of all candidates (rows grouped,
    candidates in row order); ``rows``/``cands`` give each stacked
    position's (row index, candidate index) pair; ``counts`` is the
    per-row candidate count ``m_i`` and ``offsets[i]:offsets[i + 1]`` is
    row ``i``'s segment. All arrays are read-only.
    """

    stacked: np.ndarray
    rows: np.ndarray
    cands: np.ndarray
    counts: np.ndarray
    offsets: np.ndarray


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array`` itself, marked read-only."""
    array.setflags(write=False)
    return array


def _row_digests(sets: Sequence[np.ndarray], labels: np.ndarray) -> np.ndarray:
    """The ``(N, 32)`` per-row SHA-256 digests of label, ``m_i`` and candidates.

    Each row hashes its int64 ``(label, m_i)`` header, then its candidate
    bytes; the candidate sets are C-contiguous float64 matrices, which
    hashlib reads without a copy.
    """
    counts = np.fromiter((c.shape[0] for c in sets), dtype=np.int64, count=len(sets))
    headers = np.stack([labels, counts], axis=1).tobytes()
    sha256 = hashlib.sha256
    digests = []
    for i, candidates in enumerate(sets):
        digest = sha256(headers[16 * i : 16 * i + 16])
        digest.update(candidates)
        digests.append(digest.digest())
    # A view of immutable bytes: read-only without a copy.
    return np.frombuffer(b"".join(digests), dtype=np.uint8).reshape(-1, 32)


def _splice_digests(
    digests: np.ndarray, row: int, n_old: int, labels: np.ndarray, block: np.ndarray | None
) -> np.ndarray:
    """``digests`` with rows ``row .. row + n_old - 1`` replaced by the digest
    of new row ``row`` (``labels[row]``, ``block``), or by none when
    ``block`` is None."""
    new = [] if block is None else [_row_digests([block], labels[row : row + 1])]
    return _read_only(np.concatenate([digests[:row], *new, digests[row + n_old :]]))


def _splice_layout(
    layout: CandidateLayout, row: int, n_old: int, block: np.ndarray | None
) -> CandidateLayout:
    """``layout`` with rows ``row .. row + n_old - 1`` replaced by one row
    whose candidates are ``block`` (by no row when ``block`` is None).

    Equal, array for array, to the layout built from the spliced candidate
    sets; O(P) vector copies instead of re-stacking ``N`` candidate sets.
    """
    start = int(layout.offsets[row])
    stop = int(layout.offsets[row + n_old])
    m_new = 0 if block is None else block.shape[0]
    n_new = 0 if block is None else 1
    new_stacked = [] if block is None else [block]
    stacked = np.concatenate(
        [layout.stacked[:start], *new_stacked, layout.stacked[stop:]], axis=0
    )
    rows = np.concatenate(
        [
            layout.rows[:start],
            np.full(m_new, row, dtype=np.int64),
            layout.rows[stop:] + (n_new - n_old),
        ]
    )
    cands = np.concatenate(
        [layout.cands[:start], np.arange(m_new, dtype=np.int64), layout.cands[stop:]]
    )
    counts = np.concatenate(
        [
            layout.counts[:row],
            np.full(n_new, m_new, dtype=np.int64),
            layout.counts[row + n_old :],
        ]
    )
    offsets = np.concatenate(
        [
            layout.offsets[: row + 1],
            np.full(n_new, start + m_new, dtype=np.int64),
            layout.offsets[row + n_old + 1 :] + (m_new - (stop - start)),
        ]
    )
    return CandidateLayout(*map(_read_only, (stacked, rows, cands, counts, offsets)))


class IncompleteDataset:
    """An incomplete training set ``D = {(C_i, y_i)}``.

    Parameters
    ----------
    candidate_sets:
        A sequence of ``N`` arrays; entry ``i`` has shape ``(m_i, d)`` and
        lists the candidate feature vectors of row ``i``. ``m_i >= 1``.
    labels:
        Integer class labels of shape ``(N,)``; labels are assumed to be
        ``0 .. n_labels-1`` (use :meth:`from_arrays` helpers upstream to
        encode arbitrary labels).

    Notes
    -----
    Instances are treated as immutable by the query engines; the cleaning
    code derives new datasets via :meth:`with_row_fixed` /
    :meth:`restrict_row` instead of mutating in place.
    """

    def __init__(self, candidate_sets: Sequence[np.ndarray], labels: Sequence[int]) -> None:
        if len(candidate_sets) == 0:
            raise ValueError("an incomplete dataset needs at least one row")
        labels_arr = np.asarray(labels, dtype=np.int64)
        if labels_arr.ndim != 1 or labels_arr.shape[0] != len(candidate_sets):
            raise ValueError(
                f"labels must be a vector of length {len(candidate_sets)}, "
                f"got shape {labels_arr.shape}"
            )
        if labels_arr.min() < 0:
            raise ValueError("labels must be non-negative integers")

        first = check_matrix(candidate_sets[0], "candidate_sets[0]")
        dim = first.shape[1]
        sets: list[np.ndarray] = []
        for i, cand in enumerate(candidate_sets):
            matrix = check_matrix(cand, f"candidate_sets[{i}]", n_cols=dim)
            if matrix.shape[0] < 1:
                raise ValueError(f"candidate_sets[{i}] must contain at least one candidate")
            sets.append(_frozen(matrix))
        self._init_validated(sets, _frozen(labels_arr), dim)

    def _init_validated(self, sets: list[np.ndarray], labels: np.ndarray, dim: int) -> None:
        self._candidate_sets = sets
        self._labels = labels
        self._dim = dim
        self._fingerprint: str | None = None
        self._digests: np.ndarray | None = None
        self._n_worlds: int | None = None
        self._layout: CandidateLayout | None = None
        # Set on a derived version: splice the parent's digests / layout.
        self._derive_digests: Callable[[], np.ndarray] | None = None
        self._derive_layout: Callable[[], CandidateLayout] | None = None

    def _derived(
        self,
        sets: list[np.ndarray],
        labels: np.ndarray,
        row: int,
        n_old: int,
        block: np.ndarray | None,
    ) -> "IncompleteDataset":
        """A new version in which rows ``row .. row + n_old - 1`` of this
        one are replaced by one row with candidates ``block`` (by no row
        when ``block`` is None).

        ``sets``/``labels`` are the new version's, already validated and
        read-only; re-running the public constructor would re-check, copy
        and freeze all ``N`` rows. What this version already knows carries
        over in O(Δ): its world count at once (one exact division and/or
        multiplication), its per-row digests and its layout on the new
        version's first use of them (see :meth:`fingerprint` and
        :meth:`candidate_layout`), so a version nobody fingerprints pays
        nothing for them. Only these artifacts are shared, never ``self``,
        so a chain of versions does not keep its ancestors alive.
        """
        dataset = IncompleteDataset.__new__(IncompleteDataset)
        dataset._init_validated(sets, labels, self._dim)
        if self._n_worlds is not None:
            n_worlds = self._n_worlds
            if n_old:
                n_worlds //= self._candidate_sets[row].shape[0]
            if block is not None:
                n_worlds *= block.shape[0]
            dataset._n_worlds = n_worlds
        digests, layout = self._digests, self._layout
        if digests is not None:
            dataset._derive_digests = lambda: _splice_digests(digests, row, n_old, labels, block)
        if layout is not None:
            dataset._derive_layout = lambda: _splice_layout(layout, row, n_old, block)
        return dataset

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Number of training examples ``N``."""
        return len(self._candidate_sets)

    @property
    def n_features(self) -> int:
        """Feature dimensionality ``d``."""
        return self._dim

    @property
    def labels(self) -> np.ndarray:
        """Read-only label vector of shape ``(N,)``."""
        return self._labels

    @property
    def n_labels(self) -> int:
        """Size of the label space ``|Y|`` (``max label + 1``)."""
        return int(self._labels.max()) + 1

    def candidates(self, row: int) -> np.ndarray:
        """The candidate set ``C_row`` as a read-only ``(m_row, d)`` array."""
        return self._candidate_sets[row]

    def candidate_counts(self) -> np.ndarray:
        """Vector of candidate-set sizes ``m_i`` for every row (a fresh copy)."""
        if self._layout is not None:
            return self._layout.counts.copy()
        return np.array([c.shape[0] for c in self._candidate_sets], dtype=np.int64)

    def label_of(self, row: int) -> int:
        """The (certain) label ``y_row``."""
        return int(self._labels[row])

    def is_certain(self, row: int) -> bool:
        """True iff row ``row`` has exactly one candidate."""
        return self._candidate_sets[row].shape[0] == 1

    def uncertain_rows(self) -> list[int]:
        """Indices of rows with more than one candidate (dirty rows)."""
        return np.flatnonzero(self.candidate_counts() > 1).tolist()

    def certain_rows(self) -> list[int]:
        """Indices of rows with exactly one candidate (clean rows)."""
        return np.flatnonzero(self.candidate_counts() == 1).tolist()

    @property
    def n_uncertain(self) -> int:
        """Number of dirty rows."""
        return int(np.count_nonzero(self.candidate_counts() > 1))

    def n_worlds(self) -> int:
        """Exact number of possible worlds ``|I_D| = prod_i m_i`` (big int).

        Computed once per version; a derived version divides and
        multiplies its parent's count by the changed row's ``m_i``."""
        if self._n_worlds is None:
            self._n_worlds = math.prod(self.candidate_counts().tolist())
        return self._n_worlds

    def fingerprint(self) -> str:
        """A content hash of the dataset (candidates + labels), hex-encoded.

        Two datasets with identical candidate sets and labels share a
        fingerprint; any change to a candidate value, a candidate-set size,
        a label or the row order produces a different one. It is the
        SHA-256 over ``N`` and the ordered per-row SHA-256 digests of
        (label, ``m_i``, candidate bytes). A version derived from a
        fingerprinted one (:meth:`restrict_row`, :meth:`with_row_fixed`,
        appends, deletes) splices its parent's row digests and hashes only
        the row it changes, so its fingerprint costs one row hash plus a
        hash over ``32 N`` bytes.
        Instances are immutable, so the hash is computed once and cached —
        the batch engine uses it to key its cross-query result cache (a
        :class:`repro.utils.lru.LRUCache`).
        """
        if self._fingerprint is None:
            if self._digests is None:
                derive = self._derive_digests
                self._digests = (
                    derive()
                    if derive is not None
                    else _row_digests(self._candidate_sets, self._labels)
                )
                self._derive_digests = None
            digest = hashlib.sha256(np.int64(self.n_rows).tobytes())
            digest.update(self._digests)
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def candidate_layout(self) -> CandidateLayout:
        """The pin-independent stacked layout of every candidate (memoized).

        Built on first use and kept for the lifetime of this instance, so
        every consumer of one dataset version — batch preparation, tiling,
        delta recounts, the gateway's scan merge — shares a single copy
        instead of re-stacking ``N`` candidate sets per query. The arrays
        are read-only. A version derived from one whose layout was built
        (:meth:`restrict_row`, :meth:`with_row_fixed`, appends, deletes)
        splices that layout on its own first call: a few O(P) vector
        copies, no per-row work, and nothing at derivation time. Pickles
        never carry the layout (see :meth:`__getstate__`). Two threads
        racing on the first call may both build it; the builds are
        identical, so either result is fine.
        """
        layout = self._layout
        if layout is None:
            derive = self._derive_layout
            if derive is not None:
                layout = derive()
            else:
                counts = self.candidate_counts()
                rows = np.repeat(np.arange(self.n_rows, dtype=np.int64), counts)
                cands = np.arange(rows.shape[0], dtype=np.int64)
                offsets = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts)])
                cands -= np.repeat(offsets[:-1], counts)
                stacked = np.concatenate(self._candidate_sets, axis=0)
                layout = CandidateLayout(
                    *map(_read_only, (stacked, rows, cands, counts, offsets))
                )
            self._layout = layout
            # The parent's layout is no longer needed: let it go.
            self._derive_layout = None
        return layout

    def __getstate__(self) -> dict:
        # The layout is a cache of the candidate sets: rebuilding it is
        # cheaper than shipping a second copy of every candidate to a
        # gateway executor or a worker process. A pending splice is a
        # closure, which pickle cannot carry; the copy rebuilds instead.
        state = self.__dict__.copy()
        state["_layout"] = state["_derive_digests"] = state["_derive_layout"] = None
        return state

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:
        return (
            f"IncompleteDataset(n_rows={self.n_rows}, n_features={self.n_features}, "
            f"n_labels={self.n_labels}, n_uncertain={self.n_uncertain})"
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_complete(cls, features: np.ndarray, labels: Sequence[int]) -> "IncompleteDataset":
        """Wrap a complete dataset: every row gets a singleton candidate set."""
        matrix = check_matrix(features, "features")
        return cls([matrix[i : i + 1] for i in range(matrix.shape[0])], labels)

    # ------------------------------------------------------------------
    # Derivation (used by cleaning)
    # ------------------------------------------------------------------
    def with_row_fixed(self, row: int, value: np.ndarray) -> "IncompleteDataset":
        """A copy of the dataset in which row ``row`` is certain with ``value``.

        ``value`` must be one of the row's candidates (the *valid dataset*
        assumption of §2: the true value is always in the candidate set).
        """
        row = range(self.n_rows)[row]  # a negative row counts from the end
        value = np.asarray(value, dtype=np.float64).reshape(-1)
        if value.shape[0] != self._dim:
            raise ValueError(f"value must have {self._dim} features, got {value.shape[0]}")
        if not any(np.array_equal(value, cand) for cand in self._candidate_sets[row]):
            raise ValueError(
                f"value is not among the {self._candidate_sets[row].shape[0]} "
                f"candidates of row {row} (the dataset would become invalid)"
            )
        sets = list(self._candidate_sets)
        sets[row] = _frozen(value.reshape(1, -1))
        return self._derived(sets, self._labels, row, 1, sets[row])

    def restrict_row(self, row: int, candidate_index: int) -> "IncompleteDataset":
        """A copy with row ``row`` restricted to its ``candidate_index``-th candidate."""
        if not 0 <= row < self.n_rows:
            raise IndexError(f"row {row} out of range for {self.n_rows} rows")
        cands = self._candidate_sets[row]
        if not 0 <= candidate_index < cands.shape[0]:
            raise IndexError(
                f"candidate_index {candidate_index} out of range for row {row} "
                f"with {cands.shape[0]} candidates"
            )
        sets = list(self._candidate_sets)
        sets[row] = cands[candidate_index : candidate_index + 1]
        return self._derived(sets, self._labels, row, 1, sets[row])

    def append_row(self, candidates: np.ndarray, label: int) -> "IncompleteDataset":
        """A copy with a new row appended (candidate set + certain label).

        The row lands at index ``n_rows``; existing indices are unchanged.
        Used by :class:`repro.core.deltas.RowAppend`.
        """
        matrix = check_matrix(candidates, "candidates", n_cols=self._dim)
        if matrix.shape[0] < 1:
            raise ValueError("an appended row needs at least one candidate")
        label = int(label)
        if label < 0:
            raise ValueError(f"labels must be non-negative integers, got {label}")
        sets = list(self._candidate_sets) + [_frozen(matrix)]
        labels = _frozen(np.append(self._labels, np.int64(label)))
        return self._derived(sets, labels, self.n_rows, 0, sets[-1])

    def delete_row(self, row: int) -> "IncompleteDataset":
        """A copy with row ``row`` removed (later rows shift down by one).

        Used by :class:`repro.core.deltas.RowDelete`.
        """
        if not 0 <= row < self.n_rows:
            raise IndexError(f"row {row} out of range for {self.n_rows} rows")
        if self.n_rows == 1:
            raise ValueError("cannot delete the last row of a dataset")
        sets = self._candidate_sets[:row] + self._candidate_sets[row + 1 :]
        return self._derived(sets, _frozen(np.delete(self._labels, row)), row, 1, None)

    def world(self, choice: Sequence[int]) -> np.ndarray:
        """Materialise the possible world selecting ``choice[i]`` from ``C_i``.

        Returns the ``(N, d)`` feature matrix of the world; labels are shared
        across worlds and available via :attr:`labels`.
        """
        if len(choice) != self.n_rows:
            raise ValueError(f"choice must have length {self.n_rows}, got {len(choice)}")
        rows = []
        for i, j in enumerate(choice):
            cands = self._candidate_sets[i]
            if not 0 <= j < cands.shape[0]:
                raise IndexError(f"choice[{i}]={j} out of range (row has {cands.shape[0]} candidates)")
            rows.append(cands[j])
        return np.stack(rows, axis=0)
