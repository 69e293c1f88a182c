"""Seeded random Codd-table cases shared by the differential harnesses.

Extracted from ``tests/codd/test_codd_differential.py`` so the
certain-answer harness and the update-sequence harness draw from one
generator: fuzzed schemas and column types (small ints, floats, strings,
ints beyond float64 exactness) with random NULL domains, plus random
select-project(-rename) queries, two-table join databases and SQL
``GROUP BY`` aggregates over a qualified join.
"""

from __future__ import annotations

import numpy as np

from repro.codd.algebra import (
    Aggregate,
    AggregateSpec,
    Attribute,
    Comparison,
    Conjunction,
    Disjunction,
    Join,
    Literal,
    Negation,
    Project,
    Rename,
    Scan,
    Select,
)
from repro.codd.codd_table import CoddTable, Null
from repro.codd.sql import parse_sql

__all__ = [
    "SEEDS",
    "TYPE_POOLS",
    "random_table",
    "random_comparison",
    "random_predicate",
    "random_case",
    "random_database_case",
    "random_join_case",
    "random_aggregate_case",
    "random_join_aggregate_case",
]

SEEDS = list(range(30))

#: Per-column value universes. Ordering comparisons only ever pair a column
#: with a literal (or column) of the same type class, mirroring what typed
#: SQL would allow; equality comparisons may cross classes.
TYPE_POOLS = {
    "int": [0, 1, 2, 3, 4],
    "float": [-1.25, 0.0, 0.5, 2.0, 3.75],
    "str": ["a", "b", "c", "d"],
    "bigint": [2**60, 2**60 + 1, 2**60 + 2, 5],
}


def random_table(
    rng: np.random.Generator, attrs: tuple[str, ...], types: list[str]
) -> CoddTable:
    n_rows = int(rng.integers(1, 5))
    rows = []
    for _ in range(n_rows):
        cells = []
        for col_type in types:
            pool = TYPE_POOLS[col_type]
            if rng.random() < 0.45:
                size = int(rng.integers(1, 4))
                domain = list(rng.choice(len(pool), size=size, replace=False))
                cells.append(Null([pool[i] for i in domain]))
            else:
                cells.append(pool[int(rng.integers(0, len(pool)))])
        rows.append(cells)
    return CoddTable(attrs, rows)


def random_comparison(
    rng: np.random.Generator, attrs: tuple[str, ...], types: list[str]
):
    i = int(rng.integers(0, len(attrs)))
    ops_ordered = ["==", "!=", "<", "<=", ">", ">="]
    same_type = [j for j in range(len(attrs)) if types[j] == types[i]]
    if rng.random() < 0.3 and len(same_type) > 1:
        j = int(rng.choice([j for j in same_type if j != i]))
        right: Attribute | Literal = Attribute(attrs[j])
    elif rng.random() < 0.15:
        # Cross-type literal: equality only (ordering would TypeError,
        # identically on every path, so nothing to differentiate).
        other = [t for t in TYPE_POOLS if t != types[i]]
        pool = TYPE_POOLS[str(rng.choice(other))]
        right = Literal(pool[int(rng.integers(0, len(pool)))])
        return Comparison(
            Attribute(attrs[i]), str(rng.choice(["==", "!="])), right
        )
    else:
        pool = TYPE_POOLS[types[i]]
        right = Literal(pool[int(rng.integers(0, len(pool)))])
    return Comparison(Attribute(attrs[i]), str(rng.choice(ops_ordered)), right)


def random_predicate(
    rng: np.random.Generator, attrs: tuple[str, ...], types: list[str], depth: int = 0
):
    roll = rng.random()
    if depth >= 2 or roll < 0.5:
        return random_comparison(rng, attrs, types)
    parts = [
        random_predicate(rng, attrs, types, depth + 1)
        for _ in range(int(rng.integers(2, 4)))
    ]
    if roll < 0.7:
        return Conjunction(*parts)
    if roll < 0.9:
        return Disjunction(*parts)
    return Negation(random_predicate(rng, attrs, types, depth + 1))


def random_case(seed: int):
    """One seeded random (query, table, name, description) case."""
    rng = np.random.default_rng(seed)
    arity = int(rng.integers(1, 4))
    attrs = tuple(f"c{i}" for i in range(arity))
    types = [str(rng.choice(list(TYPE_POOLS))) for _ in range(arity)]
    table = random_table(rng, attrs, types)
    name = str(rng.choice(["T", "person", "orders"]))

    schema = attrs
    query = Scan(name)
    if rng.random() < 0.3:
        renamed = tuple(f"r_{a}" for a in attrs)
        query = Rename(query, dict(zip(attrs, renamed)))
        schema = renamed
    if rng.random() < 0.8:
        query = Select(query, random_predicate(rng, schema, types))
    if rng.random() < 0.7:
        kept = sorted(
            rng.choice(len(schema), size=int(rng.integers(1, arity + 1)), replace=False)
        )
        query = Project(query, tuple(schema[i] for i in kept))
    description = f"seed={seed} types={types} n_rows={len(table)} name={name}"
    return query, table, name, description


def random_join_case(seed: int):
    """A two-table equi-join database shaped so the pair-table fast path
    engages on a healthy share of seeds.

    The ``dim`` side has unique complete keys; the ``fact`` side's keys are
    sometimes NULL with a domain holding at most one live ``dim`` key (the
    other candidates miss), so a NULL-bearing row rarely pairs twice — the
    exactness condition of the hash join.  Other seeds deliberately break
    it (wide NULL key domains, NULLs on both sides) to exercise the naive
    fallback through the same assertions.
    """
    rng = np.random.default_rng(5000 + seed)
    n_dim = int(rng.integers(2, 5))
    dim_rows = []
    for k in range(n_dim):
        payload: object = TYPE_POOLS["str"][int(rng.integers(0, 4))]
        if rng.random() < 0.25:
            payload = Null(["a", "b"])
        dim_rows.append((k, payload))
    dim = CoddTable(("key", "label"), dim_rows)

    n_fact = int(rng.integers(1, 5))
    fact_rows = []
    for i in range(n_fact):
        key: object = int(rng.integers(0, n_dim + 1))  # may dangle
        if rng.random() < 0.4:
            if rng.random() < 0.7:
                # One live candidate at most: {k, miss} — fast-path friendly.
                key = Null([int(rng.integers(0, n_dim)), 100 + i])
            else:
                # Two live candidates: forces the exactness decline.
                key = Null([0, 1])
        amount: object = TYPE_POOLS["int"][int(rng.integers(0, 5))]
        if rng.random() < 0.35:
            amount = Null([1, 2, 3])
        fact_rows.append((key, amount))
    fact = CoddTable(("key", "amount"), fact_rows)

    query = Join(Scan("fact"), Scan("dim"))
    if rng.random() < 0.6:
        query = Select(
            query, random_comparison(rng, ("amount",), ["int"])
        )
    if rng.random() < 0.5:
        query = Project(query, ("key", "label"))
    database = {"fact": fact, "dim": dim}
    return query, database, f"seed={seed} fact={n_fact} dim={n_dim}"


def random_aggregate_case(seed: int):
    """A GROUP BY / aggregate query over one table, sometimes filtered.

    Value pools are kept small so seeds split between fast-path exact DP
    runs and deliberate declines (two rows able to produce the same child
    tuple), both checked against the naive oracle.
    """
    rng = np.random.default_rng(7000 + seed)
    n_rows = int(rng.integers(1, 5))
    rows = []
    for _ in range(n_rows):
        group: object = int(rng.integers(0, 3))
        if rng.random() < 0.3:
            group = Null([0, 1])
        value: object = (
            TYPE_POOLS["float"][int(rng.integers(0, 5))]
            if rng.random() < 0.4
            else TYPE_POOLS["int"][int(rng.integers(0, 5))]
        )
        if rng.random() < 0.35:
            value = Null([1, 2.5])
        tag = TYPE_POOLS["str"][int(rng.integers(0, 4))]
        rows.append((group, value, tag))
    table = CoddTable(("g", "v", "tag"), rows)

    child = Scan("T")
    if rng.random() < 0.4:
        child = Select(child, random_comparison(rng, ("g",), ["int"]))
    funcs = ["count", "sum", "min", "max"]
    n_aggs = int(rng.integers(1, 3))
    picked = rng.choice(len(funcs), size=n_aggs, replace=False)
    specs = []
    for idx in picked:
        func = funcs[int(idx)]
        attribute = None if func == "count" and rng.random() < 0.5 else "v"
        specs.append(AggregateSpec(func, attribute, f"{func}_out"))
    group_by = ("g",) if rng.random() < 0.8 else ()
    query = Aggregate(child, group_by, tuple(specs))
    return query, {"T": table}, f"seed={seed} group_by={group_by} n_aggs={n_aggs}"


def random_database_case(seed: int):
    """A two-table database plus a filtered join query over it."""
    rng = np.random.default_rng(1000 + seed)
    left = random_table(rng, ("key", "a"), ["int", "int"])
    right = random_table(rng, ("key", "b"), ["int", "str"])
    query = Join(Scan("L"), Scan("R"))
    if rng.random() < 0.8:
        # Filter directly above one scan: exactly what pruning targets.
        query = Join(
            Select(Scan("L"), random_comparison(rng, ("key", "a"), ["int", "int"])),
            Scan("R"),
        )
    if rng.random() < 0.5:
        query = Select(
            query, random_comparison(rng, ("key", "a", "b"), ["int", "int", "str"])
        )
    if rng.random() < 0.7:
        query = Project(query, ("key",))
    database = {"L": left, "R": right}
    if rng.random() < 0.3:
        database["unused"] = random_table(rng, ("z",), ["int"])
    return query, database, f"seed={seed}"


#: Order amounts: small ints, floats, and ints beyond float64 exactness
#: (which can cancel), so a SUM crosses from exact-int to float-converted
#: arithmetic.
AMOUNTS = [0, 1, 3, 7, 2.5, -1.25, 2**60 + 1, 2**60 + 3, -(2**60)]

JOIN_AGGREGATE_SQL = (
    "SELECT o.cid, COUNT(*) AS n, SUM(o.amount) AS total "
    "FROM customers c JOIN orders o ON c.cid = o.cid "
    "WHERE c.region = '{region}' AND {order_filter} GROUP BY o.cid"
)


def random_join_aggregate_case(seed: int):
    """A ``GROUP BY`` with ``COUNT``/``SUM`` over a qualified
    ``JOIN ... ON``, filtered on each side: the served SQL read shape.

    ``customers`` has unique complete keys and sometimes a NULL region;
    ``orders`` has NULL amounts, and NULL keys whose domain holds at most
    one live customer on most seeds (the hash join's exactness condition)
    and two on a few (its decline).  Amounts mix ints, floats and ints
    above ``2**53``, so sums leave the exact-int state on some groups.
    """
    rng = np.random.default_rng(9000 + seed)
    n_customers = int(rng.integers(2, 5))
    regions = ["north", "south"]
    customers = CoddTable(
        ("cid", "region"),
        [
            (
                cid,
                Null(regions)
                if rng.random() < 0.25
                else regions[int(rng.integers(0, 2))],
            )
            for cid in range(n_customers)
        ],
    )

    def amount() -> object:
        return AMOUNTS[int(rng.integers(0, len(AMOUNTS)))]

    rows = []
    n_nulls = 0
    for oid in range(int(rng.integers(2, 7))):
        cid: object = int(rng.integers(0, n_customers + 1))  # may dangle
        value: object = amount()
        if n_nulls < 4 and rng.random() < 0.45:
            n_nulls += 1
            size = int(rng.integers(2, 4))
            picks = rng.choice(len(AMOUNTS), size=size, replace=False)
            value = Null([AMOUNTS[int(i)] for i in picks])
        if n_nulls < 4 and rng.random() < 0.2:
            n_nulls += 1
            # One live candidate mostly; two force the exactness decline.
            live = [0, 1] if rng.random() < 0.3 else [int(rng.integers(0, n_customers))]
            cid = Null(live + [100])
        rows.append((oid, cid, value))
    orders = CoddTable(("oid", "cid", "amount"), rows)

    if rng.random() < 0.5:
        order_filter = f"o.oid >= {int(rng.integers(0, 3))}"
    else:
        op, bound = rng.choice(["<", ">="]), int(rng.choice([1, 3, 7]))
        order_filter = f"o.amount {op} {bound}"
    sql = JOIN_AGGREGATE_SQL.format(
        region=regions[int(rng.integers(0, 2))], order_filter=order_filter
    )
    database = {"customers": customers, "orders": orders}
    schemas = {name: table.schema for name, table in database.items()}
    return parse_sql(sql, schemas=schemas), database, f"seed={seed} sql={sql!r}"
