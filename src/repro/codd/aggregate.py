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
  :data:`MAX_AGGREGATE_STATES`.  The options are grouped on arrays; one
  DP loop serves two state algebras (below).
* A group is certainly present iff some row contributes to it under
  every completion; its tuple is certain iff additionally every reachable
  state finalizes to the same values.  Possible answers are all reachable
  finalized states of all groups.

**State algebras.**  The input picks one; no option does.  When every
aggregate is ``COUNT`` or ``SUM`` and every contributed value an int (or
bool) of magnitude at most ``2**53`` — the served ``GROUP BY`` read —
:class:`_IntegerStates` packs each present state into one Python int:
field ``j`` holds its value plus the group's bound on its magnitude, in
just enough bits, so adding a packed delta adds every field at once and a
row's transition is ``{s + d for s in states for d in deltas}``.  The
group's certain members are summed into its base state on arrays, and the
one absent state ``(False, initial)`` is a flag.  Every other input runs
:class:`_SetStates` over ``(present, accumulators)`` tuples folded with
:func:`_combine`.  The two reach the same states after every member (the
encoding is injective), so the cap declines on the same inputs.

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
pay for the DP once.  The certain relation is built with the DP; the
possible one finalizes every reachable state, which only a possible-mode
answer reads, so it is built from the kept accumulators on first use.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Any, NamedTuple

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
# Preparation: enumerate row options, group them, run the DP
# ----------------------------------------------------------------------
class _PreparedAggregation:
    """Both answer relations of an aggregation.  ``certain`` is built
    with the DP.  ``possible`` finalizes every reachable state of every
    group, which only a possible-mode answer reads, so it is built from
    the kept accumulators on first use."""

    def __init__(
        self,
        certain: Relation,
        schema: tuple[str, ...],
        funcs: list[str],
        kept: list[tuple[tuple[Any, ...], list[tuple[Any, ...]]]],
    ) -> None:
        self.certain = certain
        self._schema = schema
        self._funcs = funcs
        self._kept = kept
        self._possible: Relation | None = None

    @property
    def possible(self) -> Relation:
        if self._possible is None:
            self._possible = Relation(
                self._schema,
                {
                    group + tuple(map(_finalize, self._funcs, accs))
                    for group, accumulators in self._kept
                    for accs in accumulators
                },
            )
        return self._possible


class _OptionTable(NamedTuple):
    """Every base row's distinct passing child-output tuples, row by row:
    row ``r`` owns ``distinct[bounds[r]:bounds[r + 1]]``, in its own
    completion order, and can fail the filter iff ``can_fail[r]``."""

    distinct: list[tuple[Any, ...]]
    bounds: np.ndarray
    can_fail: np.ndarray


def _row_options(flat, stacked: StackedTable | None = None) -> _OptionTable:
    """The option table of ``flat``.  Raises on cross-row tuple collisions.

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
    distinct: list[tuple[Any, ...]] = []
    bounds = [0]
    can_fail = []
    for r, row in enumerate(flat.table.rows):
        seen: set[tuple[Any, ...]] = set()
        fails = False
        for completion in _row_local_valuations(row):
            if flat.predicate is not None and not flat.predicate.holds(
                flat.working, completion
            ):
                fails = True
                continue
            tup = tuple(completion[i] for i in out_idx)
            if tup not in seen:
                seen.add(tup)
                distinct.append(tup)
                owner = owners.setdefault(tup, r)
                if owner != r:
                    raise _Decline(
                        "two base rows can produce the same child tuple; set "
                        "semantics would couple them across worlds"
                    )
        bounds.append(len(distinct))
        can_fail.append(fails)
    return _OptionTable(
        distinct, np.array(bounds, dtype=np.int64), np.array(can_fail, dtype=bool)
    )


def _grid_row_options(
    stacked: StackedTable, mask: np.ndarray, out_idx: list[int]
) -> _OptionTable:
    """:func:`_row_options` read off one predicate mask over the grid.

    The passing completions' output tuples come from the object columns,
    so they hold the original values, in row then completion order."""
    n_rows = stacked.n_rows
    if n_rows == 0:
        return _OptionTable([], np.zeros(1, dtype=np.int64), np.zeros(0, dtype=bool))
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
    )
    return _OptionTable(distinct, bounds, can_fail)


@dataclass(frozen=True)
class _Groups:
    """An option table's options grouped by key.

    ``keys`` are the groups in first-seen order and ``gid`` each option's
    group.  A row is a *member* of every group its options land in, and
    can avoid it when it can fail the filter or lands in another group.
    A *certain* member (one option, unavoidable) adds that option in every
    world; ``certain`` marks those options.  ``uncertain[g]`` lists group
    ``g``'s other members in row order, as ``(option indices,
    avoidable)``; ``certain_present[g]`` is true iff some member of ``g``
    cannot avoid it."""

    keys: list[tuple[Any, ...]]
    gid: np.ndarray
    certain: np.ndarray
    n_certain: list[int]
    certain_present: list[bool]
    uncertain: list[list[tuple[list[int], bool]]]


def _group(table: _OptionTable, key_idx: list[int]) -> _Groups:
    """Group ``table``'s options by the columns ``key_idx`` (an empty key
    is the one global group, present even when no row passes)."""
    distinct, bounds, can_fail = table
    n_options = len(distinct)
    if key_idx:
        # One key column groups by its bare values (itemgetter returns a
        # tuple only for several), each group keeping its first-seen one.
        option_keys = list(map(operator.itemgetter(*key_idx), distinct))
        firsts = list(dict.fromkeys(option_keys))
        ids = dict(zip(firsts, range(len(firsts))))
        gid = np.fromiter(map(ids.__getitem__, option_keys), np.int64, n_options)
        keys = [(k,) for k in firsts] if len(key_idx) == 1 else firsts
    else:
        keys = [()]
        gid = np.zeros(n_options, dtype=np.int64)
    n_rows = len(can_fail)
    counts = np.diff(bounds)
    row = np.repeat(np.arange(n_rows), counts)
    split = np.zeros(n_rows, dtype=bool)
    split[row[gid != gid[bounds[row]]]] = True
    avoidable = (can_fail | split)[row]
    certain = ~avoidable & (counts == 1)[row]
    certain_present = np.zeros(len(keys), dtype=bool)
    certain_present[gid[~avoidable]] = True
    # The uncertain members: their options by (group, row), each member's
    # in its row's order (a stable sort).
    loose = np.flatnonzero(~certain)
    member = gid[loose] * n_rows + row[loose]
    order = np.argsort(member, kind="stable")
    options = loose[order].tolist()
    starts = np.flatnonzero(np.diff(member[order], prepend=-1))
    heads = loose[order[starts]]
    uncertain: list[list[tuple[list[int], bool]]] = [[] for _ in keys]
    for start, stop, g, can_avoid in zip(
        starts.tolist(),
        starts[1:].tolist() + [len(options)],
        gid[heads].tolist(),
        avoidable[heads].tolist(),
    ):
        uncertain[g].append((options[start:stop], can_avoid))
    return _Groups(
        keys=keys,
        gid=gid,
        certain=certain,
        n_certain=np.bincount(gid[certain], minlength=len(keys)).tolist(),
        certain_present=certain_present.tolist(),
        uncertain=uncertain,
    )


class _SetStates:
    """The general state algebra: a state is ``(present, accumulators)``,
    and a row's option is folded in with :func:`_combine`."""

    def __init__(
        self,
        table: _OptionTable,
        groups: _Groups,
        funcs: list[str],
        value_idx: list[int | None],
    ) -> None:
        self.distinct = table.distinct
        self.funcs = funcs
        self.value_idx = value_idx
        self.initial = tuple(map(_initial, funcs))
        certain = np.flatnonzero(groups.certain)
        by_group = certain[np.argsort(groups.gid[certain], kind="stable")].tolist()
        stops = np.cumsum(groups.n_certain).tolist()
        self.certain = [
            by_group[stop - n : stop] for stop, n in zip(stops, groups.n_certain)
        ]

    def start(self, g: int) -> set[tuple[bool, tuple[Any, ...]]]:
        states = {(False, self.initial)}
        for option in self.certain[g]:
            states = self.step(g, states, [option], False)
        return states

    def step(
        self,
        g: int,
        states: set[tuple[bool, tuple[Any, ...]]],
        options: list[int],
        avoidable: bool,
    ) -> set[tuple[bool, tuple[Any, ...]]]:
        next_states: set[tuple[bool, tuple[Any, ...]]] = set()
        tuples = [self.distinct[o] for o in options]
        for present, accs in states:
            if avoidable:
                next_states.add((present, accs))
            for tup in tuples:
                try:
                    combined = tuple(
                        _combine(f, acc, True if idx is None else tup[idx])
                        for f, acc, idx in zip(self.funcs, accs, self.value_idx)
                    )
                except TypeError:
                    # e.g. MIN over incomparable types; naive raises the
                    # canonical error in whichever world mixes them.
                    raise _Decline(
                        "type error while combining aggregate states"
                    ) from None
                next_states.add((True, combined))
        return next_states

    @staticmethod
    def count(states: set[tuple[bool, tuple[Any, ...]]]) -> int:
        return len(states)

    @staticmethod
    def accumulators(
        g: int, states: set[tuple[bool, tuple[Any, ...]]], with_absent: bool
    ) -> list[tuple[Any, ...]]:
        """The accumulators of the present states, and of the absent one
        too if ``with_absent``."""
        return [accs for present, accs in states if present or with_absent]


def _integer_contributions(
    distinct: list[tuple[Any, ...]],
    funcs: list[str],
    value_idx: list[int | None],
) -> np.ndarray | None:
    """What each option adds to each aggregate, as an ``(options, specs)``
    integer matrix, when every spec is ``COUNT`` or ``SUM`` and every
    contributed value an int (or bool) of magnitude at most ``2**53``,
    where a ``SUM`` state is a plain int; else ``None``."""
    if not set(funcs) <= {"count", "sum"}:
        return None
    sums: list[list[Any] | None] = []
    for func, idx in zip(funcs, value_idx):
        if idx is None:
            sums.append(None)
            continue
        values = list(map(operator.itemgetter(idx), distinct))
        if not all(map(isinstance, values, repeat(int))):
            return None
        if values and (
            min(values) < -_FLOAT_EXACT_INT or max(values) > _FLOAT_EXACT_INT
        ):
            return None
        # COUNT adds one per (non-None) value.
        sums.append(values if func == "sum" else None)
    # Every sum of contributions is bounded by the largest total magnitude.
    mass = max((sum(map(abs, v)) for v in sums if v is not None), default=0)
    matrix = np.ones(
        (len(distinct), len(funcs)), dtype=np.int64 if mass < 2**62 else object
    )
    for j, values in enumerate(sums):
        if values is not None:
            matrix[:, j] = values
    return matrix


class _IntegerStates:
    """COUNT/SUM over bounded ints: a present state is one packed int.

    Field ``j`` of a state is stored as ``value + bound_j`` in
    ``(2 * bound_j).bit_length()`` bits, where ``bound_j`` bounds
    ``|value|`` over every world of the group (its certain total plus
    every uncertain contribution's magnitude), so no field overflows into
    the next and adding a packed delta adds field by field.  The certain
    members fold into each group's base on arrays; the lone absent state
    ``(False, initial)`` is a flag beside the set of present states."""

    def __init__(
        self, contributions: np.ndarray, groups: _Groups, funcs: list[str]
    ) -> None:
        self.initial = tuple(map(_initial, funcs))
        certain, gid = groups.certain, groups.gid
        loose = ~certain
        base = np.zeros((len(groups.keys), len(funcs)), dtype=contributions.dtype)
        np.add.at(base, gid[certain], contributions[certain])
        uncertain = contributions[loose]
        bound = np.zeros_like(base)
        np.add.at(bound, gid[loose], np.abs(uncertain))
        bound += np.abs(base)
        self.fields: list[list[tuple[int, int, int]]] = []
        self.zero: list[int] = []
        self.base: list[int] = []
        scales = []
        widest = 0
        for group_base, group_bound in zip(base.tolist(), bound.tolist()):
            shift = zero = packed = 0
            fields, scale = [], []
            for value, b in zip(group_base, group_bound):
                width = (2 * b).bit_length()
                fields.append((shift, (1 << width) - 1, b))
                scale.append(1 << shift)
                zero += b << shift
                packed += (value + b) << shift
                shift += width
            self.fields.append(fields)
            self.zero.append(zero)
            self.base.append(packed)
            scales.append(scale)
            widest = max(widest, shift)
        # Pack the deltas in int64 while every packed value fits in it.
        dtype = np.int64 if widest <= 62 else object
        scale_of = np.array(scales, dtype=dtype).reshape(base.shape)
        delta = np.zeros(len(gid), dtype=dtype)
        delta[loose] = (uncertain.astype(dtype) * scale_of[gid[loose]]).sum(axis=1)
        self.delta = delta.tolist()
        self.n_certain = groups.n_certain

    def start(self, g: int) -> tuple[bool, set[int]]:
        if self.n_certain[g]:
            return False, {self.base[g]}
        return True, set()

    def step(
        self,
        g: int,
        states: tuple[bool, set[int]],
        options: list[int],
        avoidable: bool,
    ) -> tuple[bool, set[int]]:
        absent, present = states
        deltas = [self.delta[o] for o in options]
        next_states = {s + d for s in present for d in deltas}
        if absent:
            zero = self.zero[g]
            next_states.update([zero + d for d in deltas])
        if avoidable:
            next_states |= present
            return absent, next_states
        return False, next_states

    @staticmethod
    def count(states: tuple[bool, set[int]]) -> int:
        return len(states[1]) + states[0]

    def accumulators(
        self, g: int, states: tuple[bool, set[int]], with_absent: bool
    ) -> list[tuple[Any, ...]]:
        absent, present = states
        unpacked = list(
            zip(
                *[
                    [((state >> shift) & mask) - b for state in present]
                    for shift, mask, b in self.fields[g]
                ]
            )
        )
        if absent and with_absent:
            unpacked.append(self.initial)
        return unpacked


def prepare_aggregation(
    flat,
    group_by: tuple[str, ...],
    aggregates: tuple[AggregateSpec, ...],
    stacked: StackedTable | None = None,
) -> _PreparedAggregation:
    """Run the aggregation DP for ``flat``: its certain relation, and the
    accumulators its possible relation is finalized from on first use.

    ``stacked`` is the grid of ``flat.table``, if it has one.  The
    composite analysis calls it once per analysed query and keeps the
    result on its :class:`~repro.codd.joins.Composite`.  Raises
    :class:`repro.codd.joins._Decline` when the fast path would be
    inexact or unaffordable — callers treat that as "not supported".
    """
    try:
        table = _row_options(flat, stacked)
    except TypeError:
        # Mixed-type comparison somewhere in the filter: enumeration order
        # determines which world trips it, so let naive raise canonically.
        raise _Decline("type error while enumerating row completions") from None
    groups = _group(table, [flat.output.index(k) for k in group_by])
    value_idx = [
        None if spec.attribute is None else flat.output.index(spec.attribute)
        for spec in aggregates
    ]
    funcs = [spec.func for spec in aggregates]
    contributions = _integer_contributions(table.distinct, funcs, value_idx)
    algebra: _SetStates | _IntegerStates = (
        _SetStates(table, groups, funcs, value_idx)
        if contributions is None
        else _IntegerStates(contributions, groups, funcs)
    )

    certain_rows: set[tuple[Any, ...]] = set()
    kept = []
    for g, group in enumerate(groups.keys):
        # States reachable over this group's worlds; rows are independent,
        # so choices multiply.  Certain members fold first: each maps a
        # state to one state, so every state set stays as small as it can.
        states = algebra.start(g)
        if groups.n_certain[g]:
            # Each certain member leaves one state: one check covers them.
            _check_state_cap(algebra.count(states))
        for options, avoidable in groups.uncertain[g]:
            states = algebra.step(g, states, options, avoidable)
            _check_state_cap(algebra.count(states))
        # Without GROUP BY the one group exists in every world.
        accumulators = algebra.accumulators(g, states, with_absent=not group_by)
        kept.append((group, accumulators))
        if not group_by or groups.certain_present[g]:
            values = _only_answer(funcs, accumulators)
            if values is not None:
                certain_rows.add(group + values)
    out_schema = group_by + tuple(spec.alias for spec in aggregates)
    return _PreparedAggregation(
        Relation(out_schema, certain_rows), out_schema, funcs, kept
    )


def _only_answer(
    funcs: list[str], accumulators: list[tuple[Any, ...]]
) -> tuple[Any, ...] | None:
    """The values every accumulator tuple finalizes to, or ``None`` when
    they finalize to several (or there are none)."""
    only = None
    for accs in accumulators:
        values = tuple(map(_finalize, funcs, accs))
        if only is None:
            only = values
        elif values != only:
            return None
    return only


def _check_state_cap(n_states: int) -> None:
    if n_states > MAX_AGGREGATE_STATES:
        raise _Decline(f"aggregate DP exceeded {MAX_AGGREGATE_STATES} states")


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
