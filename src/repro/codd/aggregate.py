"""Exact certain/possible SUMMARIZE bounds over Codd tables, world-free.

The classical semantics is fixed by :func:`repro.codd.algebra.evaluate`:
per world, the aggregate's child evaluates to a *set* of tuples, which is
grouped and folded with :func:`~repro.codd.algebra.aggregate_column`.  The
naive oracle therefore needs no code here.  This module computes the same
certain/possible answer relations without enumerating worlds, via a
dynamic program over row-local completions of the flattened child
(:class:`~repro.codd.joins.FlatQuery`):

* One predicate pass over the child's stacked completion grid gives, for
  every base row, the distinct child-output tuples that pass the filter
  plus whether the row can *avoid* contributing (some completion fails,
  or lands in another group).  A child without a grid (above the
  stacking cap), or a filter whose vectorised pass raises a mixed-type
  ``TypeError``, enumerates each row's local completions instead.
* Rows are independent (every NULL variable lives in one row), so per
  group the set of achievable aggregate results is the product-closure of
  per-row choices — a set-of-states DP, capped by
  :data:`MAX_AGGREGATE_STATES`.
* A group is certainly present iff some row contributes to it under
  every completion; its tuple is certain iff additionally every reachable
  state finalizes to the same values.  Possible answers are all reachable
  finalized states of all groups.

**Exactness guards.**  Set semantics collapses equal child tuples *before*
grouping, so if two different base rows could ever produce the same child
tuple the per-row independence breaks; the preparation detects that (and
any state-cap overflow, non-finite float, or overflowing int-to-float
conversion) and *declines*, sending the planner to naive enumeration.
Integer sums use exact integer arithmetic: while every contribution is an
int of magnitude at most ``2**53`` (where ``float()`` is exact) the state
is that plain int.  Once a float or a larger int joins a group the sum is
tracked as an exact :class:`fractions.Fraction` over
``float()``-converted inputs, whose final ``float()`` equals the
correctly-rounded ``math.fsum`` the oracle computes — bit-identical, in
any accumulation order.

Each group folds its certain contributions (rows that always land in it,
with one possible tuple) before the uncertain ones.  Combining commutes,
so the answers are the same in any order; folding the certain ones first
keeps every intermediate state set as small as in any other order, so
the state cap never declines a group another order would accept.

The prepared answers live on the analysed
:class:`~repro.codd.joins.Composite`, so planning and both answer modes
pay for the DP once.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

import numpy as np

from repro.codd.algebra import AggregateSpec
from repro.codd.certain import _row_local_valuations
from repro.codd.joins import _Decline
from repro.codd.relation import Relation
from repro.codd.vectorized import StackedTable, predicate_mask

__all__ = [
    "MAX_AGGREGATE_STATES",
    "aggregate_answers",
    "prepare_aggregation",
    "summarize",
]

#: Cap on the per-group DP state set; past it the fast path declines and
#: the planner falls back to naive enumeration (itself world-capped).
MAX_AGGREGATE_STATES = 50_000


class _Absent:
    """Sentinel for 'no non-None contribution yet' (hashable singleton)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<absent>"


_ABSENT = _Absent()

#: Ints up to this magnitude convert to float exactly, so an all-int sum
#: of them needs no separate float-converted total.
_FLOAT_EXACT_INT = 2**53


# ----------------------------------------------------------------------
# Per-spec accumulators
# ----------------------------------------------------------------------
def _combine(func: str, acc: Any, value: Any) -> Any:
    if func == "count":
        return acc + (0 if value is None else 1)
    if value is None:
        return acc
    if func == "min":
        return value if acc is _ABSENT else min(acc, value)
    if func == "max":
        return value if acc is _ABSENT else max(acc, value)
    if func == "sum":
        # A sum state is a plain int while every contribution so far was
        # an int whose float() is exact; else (all_int, int_sum, conv),
        # with conv the exact sum of the float()-converted contributions.
        if (
            isinstance(value, int)
            and -_FLOAT_EXACT_INT <= value <= _FLOAT_EXACT_INT
            and not isinstance(acc, tuple)
        ):
            return int(value) if acc is _ABSENT else acc + int(value)
        if not isinstance(value, (int, float)):
            raise _Decline(f"sum over non-numeric value {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise _Decline("sum over a non-finite float")
        try:
            converted = Fraction(float(value))
        except OverflowError:
            raise _Decline("sum contribution overflows float conversion") from None
        if acc is _ABSENT:
            all_int, int_sum, conv = True, 0, Fraction(0)
        elif isinstance(acc, int):
            all_int, int_sum, conv = True, acc, Fraction(acc)
        else:
            all_int, int_sum, conv = acc
        conv += converted
        if not isinstance(value, int):
            return (False, int_sum, conv)
        int_sum += int(value)
        # Keep the state canonical: an all-int sum whose float() terms
        # are exact is the plain int, whichever way it was reached.
        if all_int and conv == int_sum:
            return int_sum
        return (all_int, int_sum, conv)
    raise ValueError(f"unknown aggregate function {func!r}")


def _finalize(func: str, acc: Any) -> Any:
    if func == "count":
        return acc
    if acc is _ABSENT:
        return None
    if func in ("min", "max") or isinstance(acc, int):
        return acc
    all_int, int_sum, conv = acc
    # Matches aggregate_column: exact integer sum while the group is all
    # ints, else the correctly-rounded float sum (fsum == float(Fraction)).
    return int_sum if all_int else float(conv)


def _initial(func: str) -> Any:
    return 0 if func == "count" else _ABSENT


# ----------------------------------------------------------------------
# Preparation: enumerate row options, run the DP, build both relations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _PreparedAggregation:
    certain: Relation
    possible: Relation


def _row_options(
    flat, stacked: StackedTable | None = None
) -> list[tuple[list[tuple[Any, ...]], bool]]:
    """Per base row: the distinct passing child-output tuples and whether
    the row can fail the filter.  Raises on cross-row tuple collisions.

    On the table's grid the filter runs once over every completion.  A
    vectorised pass evaluates branches a row's own short-circuit never
    reaches, so when it raises a ``TypeError`` the row loop decides, like
    the join prune; so does a table without a grid (above the stacking
    cap)."""
    out_idx = [flat.working.index(a) for a in flat.output]
    if stacked is not None:
        try:
            mask = (
                np.ones(stacked.total, dtype=bool)
                if flat.predicate is None
                else predicate_mask(flat.predicate, flat.working, stacked)
            )
        except TypeError:
            pass
        else:
            return _grid_row_options(stacked, mask, out_idx)
    owners: dict[tuple[Any, ...], int] = {}
    rows = []
    for r, row in enumerate(flat.table.rows):
        options: list[tuple[Any, ...]] = []
        seen: set[tuple[Any, ...]] = set()
        can_fail = False
        for completion in _row_local_valuations(row):
            if flat.predicate is not None and not flat.predicate.holds(
                flat.working, completion
            ):
                can_fail = True
                continue
            tup = tuple(completion[i] for i in out_idx)
            if tup not in seen:
                seen.add(tup)
                options.append(tup)
                owner = owners.setdefault(tup, r)
                if owner != r:
                    raise _Decline(
                        "two base rows can produce the same child tuple; set "
                        "semantics would couple them across worlds"
                    )
        rows.append((options, can_fail))
    return rows


def _grid_row_options(
    stacked: StackedTable, mask: np.ndarray, out_idx: list[int]
) -> list[tuple[list[tuple[Any, ...]], bool]]:
    """:func:`_row_options` read off one predicate mask over the grid.

    The passing completions' output tuples come from the object columns,
    so they hold the original values, in row then completion order."""
    n_rows = stacked.n_rows
    if n_rows == 0:
        return []
    can_fail = ~np.logical_and.reduceat(mask, stacked.offsets)
    passing = np.flatnonzero(mask)
    owners = np.repeat(np.arange(n_rows), stacked.counts)[passing].tolist()
    tuples = (
        list(zip(*(stacked.columns[i][passing] for i in out_idx)))
        if out_idx
        else [()] * len(passing)
    )
    owner_of = dict(zip(tuples, owners))
    if any(map(operator.ne, map(owner_of.__getitem__, tuples), owners)):
        raise _Decline(
            "two base rows can produce the same child tuple; set "
            "semantics would couple them across worlds"
        )
    # Each tuple has one owner, so the distinct tuples in first-seen order
    # (the dict's order) run row by row, each row's in its own order.
    distinct = list(owner_of)
    bounds = np.searchsorted(
        np.fromiter(owner_of.values(), np.int64, len(distinct)),
        np.arange(n_rows + 1),
    ).tolist()
    return [
        (distinct[start:stop], fail)
        for start, stop, fail in zip(bounds, bounds[1:], can_fail.tolist())
    ]


def prepare_aggregation(
    flat,
    group_by: tuple[str, ...],
    aggregates: tuple[AggregateSpec, ...],
    stacked: StackedTable | None = None,
) -> _PreparedAggregation:
    """Run the aggregation DP for ``flat``: both answer relations at once.

    ``stacked`` is the grid of ``flat.table``, if it has one.  The
    composite analysis calls it once per analysed query and keeps the
    result on its :class:`~repro.codd.joins.Composite`.  Raises
    :class:`repro.codd.joins._Decline` when the fast path would be
    inexact or unaffordable — callers treat that as "not supported".
    """
    try:
        rows = _row_options(flat, stacked)
    except TypeError:
        # Mixed-type comparison somewhere in the filter: enumeration order
        # determines which world trips it, so let naive raise canonically.
        raise _Decline("type error while enumerating row completions") from None
    key_idx = [flat.output.index(k) for k in group_by]
    value_idx = [
        None if spec.attribute is None else flat.output.index(spec.attribute)
        for spec in aggregates
    ]
    funcs = [spec.func for spec in aggregates]

    # Group the per-row options by group key.
    participants: dict[tuple[Any, ...], list[tuple[list[tuple[Any, ...]], bool]]] = {}
    certain_present: dict[tuple[Any, ...], bool] = {}
    if not group_by:
        participants[()] = []
    for options, can_fail in rows:
        by_key: dict[tuple[Any, ...], list[tuple[Any, ...]]] = {}
        for tup in options:
            by_key.setdefault(tuple(tup[i] for i in key_idx), []).append(tup)
        for group, group_options in by_key.items():
            avoidable = can_fail or len(by_key) > 1
            participants.setdefault(group, []).append((group_options, avoidable))
            if not avoidable:
                certain_present[group] = True

    initial = tuple(_initial(f) for f in funcs)
    out_schema = group_by + tuple(spec.alias for spec in aggregates)
    certain_rows: set[tuple[Any, ...]] = set()
    possible_rows: set[tuple[Any, ...]] = set()
    for group, members in participants.items():
        # Certain contributions first (a stable partition): each maps a
        # state to one state, so the state set stays as small as it can.
        members.sort(key=lambda member: member[1] or len(member[0]) > 1)
        # states: (present, accumulator tuple) reachable over this group's
        # worlds; rows are independent so choices multiply.
        states: set[tuple[bool, tuple[Any, ...]]] = {(False, initial)}
        for group_options, avoidable in members:
            next_states: set[tuple[bool, tuple[Any, ...]]] = set()
            for present, accs in states:
                if avoidable:
                    next_states.add((present, accs))
                for tup in group_options:
                    try:
                        combined = tuple(
                            _combine(
                                f, acc, True if idx is None else tup[idx]
                            )
                            for f, acc, idx in zip(funcs, accs, value_idx)
                        )
                    except TypeError:
                        # e.g. MIN over incomparable types; naive raises the
                        # canonical error in whichever world mixes them.
                        raise _Decline(
                            "type error while combining aggregate states"
                        ) from None
                    next_states.add((True, combined))
            if len(next_states) > MAX_AGGREGATE_STATES:
                raise _Decline(
                    f"aggregate DP exceeded {MAX_AGGREGATE_STATES} states"
                )
            states = next_states
        finalized = {
            group + tuple(_finalize(f, acc) for f, acc in zip(funcs, accs))
            for present, accs in states
            if present or not group_by
        }
        possible_rows |= finalized
        if len(finalized) == 1 and (not group_by or certain_present.get(group)):
            certain_rows |= finalized

    return _PreparedAggregation(
        certain=Relation(out_schema, certain_rows),
        possible=Relation(out_schema, possible_rows),
    )


def aggregate_answers(prepared: _PreparedAggregation, mode: str) -> Relation:
    """The certain or possible answer relation of a prepared aggregation."""
    return prepared.certain if mode == "certain" else prepared.possible


# ----------------------------------------------------------------------
# The user-facing bounds API
# ----------------------------------------------------------------------
def summarize(
    query,
    database,
    group_by: Sequence[str] = (),
    aggregates: Sequence[AggregateSpec] = (),
) -> dict[tuple[Any, ...], dict[str, Any]]:
    """SUMMARIZE-style bounds: per group, what is certain vs merely possible.

    Wraps ``query`` in an :class:`~repro.codd.algebra.Aggregate` and
    answers it in both modes through the engine, then reshapes the result
    per group key::

        {group_key: {"certain": row_or_None, "possible": [rows...]}}

    ``certain`` is the group's exact tuple when one exists in every world,
    else ``None`` (the group may be absent, or its values vary);
    ``possible`` lists every achievable tuple for the group.
    """
    from repro.codd.algebra import Aggregate
    from repro.codd.engine import answer_query

    wrapped = Aggregate(query, tuple(group_by), tuple(aggregates))
    n_keys = len(tuple(group_by))
    certain = answer_query(wrapped, database, mode="certain").relation
    possible = answer_query(wrapped, database, mode="possible").relation
    out: dict[tuple[Any, ...], dict[str, Any]] = {}
    for row in sorted(possible.rows, key=repr):
        entry = out.setdefault(row[:n_keys], {"certain": None, "possible": []})
        entry["possible"].append(row)
    for row in certain.rows:
        out[row[:n_keys]]["certain"] = row
    return out
