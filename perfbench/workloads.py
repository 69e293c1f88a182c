"""The workloads: seeded inputs, fixed operation sequences, and the
in-process reference replay every served answer is checked against.

A workload is a recipe with four steps:

* ``build(seed, n)`` generates the inputs (datasets / Codd tables) and
  ``register`` hands them to a fresh :class:`~repro.service.DatasetRegistry`;
* ``plan(data, seed, n)`` fixes the whole operation sequence up front. Its
  first two operations are the untimed warm-up (one read, one
  write), the rest is the timed sequence;
* ``send(client, op)`` performs one operation over HTTP and returns the
  decoded response;
* ``check(data, ops, responses)`` replays the sequence through the
  library (planner, deltas, cleaning session, Codd engine) and returns one
  boolean per operation: did the served answer match bit for bit?

``n`` is the number of timed operations per class; every class gets
exactly that many samples, and every full chunk of ``CHUNK`` timed
operations holds the same number of each class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.cleaning.sequential import CleaningSession
from repro.codd.codd_table import CoddTable, Null
from repro.codd.engine import answer_query
from repro.codd.sql import parse_sql
from repro.core.batch_engine import PreparedBatch
from repro.core.deltas import CellRepair, DeltaMaintainedState, apply_delta_to_dataset
from repro.core.planner import ExecutionOptions, execute_query, make_query
from repro.data.task import build_cleaning_task

DATASET = "supreme"
K = 3
#: Timed operations per throughput chunk; see ``mixed_kinds``.
CHUNK = 20


@dataclass
class Op:
    cls: str
    args: dict = field(default_factory=dict)


def _build_recipe(seed: int, n_train: int, missing_rate: float, n_val: int) -> dict:
    task = build_cleaning_task(
        "supreme",
        n_train=n_train,
        n_val=n_val,
        n_test=2,
        missing_rate=missing_rate,
        k=K,
        seed=seed,
    )
    return {"dataset": task.incomplete, "val_X": task.val_X, "gt": task.gt_choice}


def _register_recipe(registry, data: dict) -> None:
    registry.register(DATASET, data["dataset"], k=K, val_X=data["val_X"])


def _dirty_rows(dataset) -> np.ndarray:
    return np.flatnonzero(dataset.candidate_counts() > 1)


def _reference_counts(dataset, points) -> list:
    query = make_query(dataset, np.asarray(points), kind="counts", k=K)
    # cache=False: the replay never reads a cache the served run filled.
    options = ExecutionOptions(cache=False)
    return execute_query(query, backend="batch", options=options).values


def mixed_kinds(n: int) -> list[str]:
    """``n`` reads and ``n`` writes in consecutive blocks of ``CHUNK``
    operations, each a burst of writes and then as many reads, so every
    full chunk of the timed sequence does the same mix of work.

    A write changes the dataset or table, so the first read after it may
    rebuild state keyed by content, such as the gateway's partitions. With
    writes in bursts one read in ``CHUNK // 2`` pays that, so the read
    median is the plain read.
    """
    kinds: list[str] = []
    while len(kinds) < 2 * n:
        half = min(CHUNK // 2, n - len(kinds) // 2)
        kinds += ["write"] * half + ["read"] * half
    return kinds


# ---------------------------------------------------------------------------
# point_stream / point_gateway
# ---------------------------------------------------------------------------


class PointStream:
    """Single-point Q2 counts, each run of reads after a burst of PATCH
    cell repairs."""

    name = "point_stream"
    read_shape = "point"
    executors = 0
    #: Share of reads that repeat one of the last few points read since
    #: the last write.
    repeat_share = 0.1
    repeat_window = 5

    def build(self, seed: int, n: int) -> dict:
        # 25% of at least 5n rows are dirty: the timed writes repair n of
        # them and leave the rest dirty, so reads never run on a fully
        # cleaned dataset.
        n_train = max(1000, int(np.ceil(n / 0.2)))
        # The validation set is the delta state a PATCH maintains. With 8
        # points about four in five repairs touch none of them, so the
        # median write is the plain repair and never sits on the edge
        # between repairs that recount and repairs that do not.
        return _build_recipe(seed, n_train, missing_rate=0.25, n_val=8)

    register = staticmethod(_register_recipe)

    def plan(self, data: dict, seed: int, n: int) -> list[Op]:
        rng = np.random.default_rng([seed, 1])
        dataset = data["dataset"]
        counts = dataset.candidate_counts()
        dirty = _dirty_rows(dataset)
        if len(dirty) < n:
            raise ValueError(f"need {n} dirty rows for the writes, have {len(dirty)}")
        clean_row = int(np.flatnonzero(counts == 1)[0])
        lo, hi = data["val_X"].min(axis=0), data["val_X"].max(axis=0)
        # Points read since the last write: a write purges the dataset's
        # cached answers, so only these can be served from the cache.
        recent: list[np.ndarray] = []

        def read() -> Op:
            if recent and rng.random() < self.repeat_share:
                window = recent[-self.repeat_window:]
                return Op("read", {"point": window[int(rng.integers(len(window)))]})
            recent.append(lo + (hi - lo) * rng.random(dataset.n_features))
            return Op("read", {"point": recent[-1]})

        def write() -> Op:
            recent.clear()
            return next(writes)

        writes = iter(
            Op("write", {"row": int(row), "candidate": int(rng.integers(counts[row]))})
            for row in rng.permutation(dirty)[:n]
        )
        # Warm-up: one read, and a repair of an already-clean row, which
        # builds the lazy delta-maintenance state without cleaning anything.
        ops = [read(), Op("write", {"row": clean_row, "candidate": 0})]
        ops += [read() if kind == "read" else write() for kind in mixed_kinds(n)]
        return ops

    def send(self, client, op: Op) -> dict:
        if op.cls == "read":
            return client.query(DATASET, point=op.args["point"])
        return client.repair_cell(DATASET, op.args["row"], op.args["candidate"])

    def check(self, data: dict, ops: list[Op], responses: list) -> list[bool]:
        ok = [False] * len(ops)
        dataset, version = data["dataset"], 1
        group: list[int] = []  # reads served at the current version

        def flush() -> None:
            if not group:
                return
            served = [responses[i] for i in group]
            points = np.vstack([ops[i].args["point"] for i in group])
            expected = _reference_counts(dataset, points)
            for i, response, value in zip(group, served, expected):
                ok[i] = (
                    response is not None
                    and response["version"] == version
                    and response["values"] == [value]
                )
            group.clear()

        for i, op in enumerate(ops):
            if op.cls == "read":
                group.append(i)
                continue
            flush()
            delta = CellRepair(op.args["row"], op.args["candidate"])
            dataset = apply_delta_to_dataset(dataset, delta)
            version += 1
            response = responses[i]
            ok[i] = (
                response is not None
                and response["version"] == version
                and response["fingerprint"] == dataset.fingerprint()
            )
        flush()
        return ok

    def regret_samples(self, data: dict, ops: list[Op]) -> list:
        """The first distinct single points, as the broker would plan them
        (the first one only warms up; see ``planner_regret``)."""
        points = {op.args["point"].tobytes(): op.args["point"] for op in ops if op.cls == "read"}
        return [
            (make_query(data["dataset"], point.reshape(1, -1), kind="counts", k=K),
             ExecutionOptions(cache=False))
            for point in list(points.values())[:9]
        ]


class PointGateway(PointStream):
    """``point_stream``'s sequence through a two-executor gateway."""

    name = "point_gateway"
    executors = 2


# ---------------------------------------------------------------------------
# clean_session
# ---------------------------------------------------------------------------


class CleanSession:
    """The CPClean loop: a clean step, then Q2 counts over the validation set."""

    name = "clean_session"
    read_shape = "matrix"
    executors = 0

    def build(self, seed: int, n: int) -> dict:
        # n timed steps plus the warm-up step each clean one dirty row.
        n_train = max(1000, int(np.ceil((n + 1) / 0.25)))
        return _build_recipe(seed, n_train, missing_rate=0.25, n_val=24)

    register = staticmethod(_register_recipe)

    def plan(self, data: dict, seed: int, n: int) -> list[Op]:
        rng = np.random.default_rng([seed, 2])
        dirty = _dirty_rows(data["dataset"])
        if len(dirty) < n + 1:
            raise ValueError(f"need {n + 1} dirty rows, have {len(dirty)}")
        ops: list[Op] = []
        for row in rng.permutation(dirty)[: n + 1]:
            ops.append(Op("write", {"row": int(row), "candidate": int(data["gt"][row])}))
            ops.append(Op("read"))
        return ops

    def send(self, client, op: Op) -> dict:
        if op.cls == "write":
            return client.clean_step(DATASET, op.args["row"], op.args["candidate"])
        return client.query(DATASET, points="validation", with_cleaned=True)

    def check(self, data: dict, ops: list[Op], responses: list) -> list[bool]:
        session = CleaningSession(data["dataset"], data["val_X"], k=K)
        # Counts under the session's pins equal counts on the dataset with
        # those rows repaired, which the delta engine maintains in O(delta):
        # the served planner answer is checked against a second engine.
        repaired = DeltaMaintainedState(data["dataset"], data["val_X"], k=K, prune=True)
        ok = []
        for op, response in zip(ops, responses):
            if op.cls == "write":
                session.clean_row(op.args["row"], op.args["candidate"])
                repaired.apply(CellRepair(op.args["row"], op.args["candidate"]))
                expected = session.checkpoint()
                ok.append(
                    response is not None
                    and all(response.get(key) == value for key, value in expected.items())
                )
            else:
                ok.append(response is not None and response["values"] == repaired.counts_all())
        return ok

    def regret_samples(self, data: dict, ops: list[Op]) -> list:
        """Validation-matrix queries at five points of the cleaning loop
        (the first one only warms up; see ``planner_regret``)."""
        steps = [op.args for op in ops if op.cls == "write"]
        prepared = PreparedBatch(data["dataset"], data["val_X"], k=K)
        samples = []
        for cut in range(0, len(steps), max(1, len(steps) // 5)):
            pins = {step["row"]: step["candidate"] for step in steps[: cut + 1]}
            query = make_query(data["dataset"], data["val_X"], kind="counts", k=K, pins=pins)
            samples.append((query, ExecutionOptions(cache=False, prepared=prepared)))
        return samples[:5]


# ---------------------------------------------------------------------------
# sql_mix
# ---------------------------------------------------------------------------

AMOUNT = 2  # column index of orders.amount


class SqlMix:
    """Certain answers to a join feeding a ``GROUP BY`` over Codd tables,
    with NULL-cell fixes.

    One read shape exercises the whole Codd stack: parse, optimizer
    (filter pushdown below the join), the pair-table hash join, and the
    aggregate DP for ``COUNT``/``SUM`` over the joined rows.
    """

    name = "sql_mix"
    read_shape = "join_group"
    executors = 0
    sql = (
        "SELECT o.cid, COUNT(*) AS n, SUM(o.amount) AS total "
        "FROM customers c JOIN orders o ON c.cid = o.cid "
        "WHERE c.region = '{region}' AND o.oid >= {t} GROUP BY o.cid"
    )
    regions = ("north", "south", "east", "west")
    n_customers = 100

    def build(self, seed: int, n: int) -> dict:
        rng = np.random.default_rng([seed, 3])
        n_orders = max(1000, 4 * (n + 1))
        n_null = n_orders // 4  # >= n + 1: every fix lands on its own NULL cell
        # Every region gets the same number of customers, so a read's cost
        # depends on its constants, not on how the seed split the regions.
        region_of = rng.permutation(np.arange(self.n_customers) % len(self.regions))
        customers = CoddTable(
            ("cid", "region"),
            [(cid, self.regions[int(region_of[cid])]) for cid in range(self.n_customers)],
        )
        null_rows = set(rng.choice(n_orders, size=n_null, replace=False).tolist())
        rows = []
        for oid in range(n_orders):
            cid = int(rng.integers(self.n_customers))
            if oid in null_rows:
                base = int(rng.integers(0, 120))
                amount: Any = Null([base, base + 30, base + 60])
            else:
                amount = int(rng.integers(0, 160))
            rows.append((oid, cid, amount))
        orders = CoddTable(("oid", "cid", "amount"), rows)
        return {"customers": customers, "orders": orders, "null_rows": sorted(null_rows)}

    def register(self, registry, data: dict) -> None:
        registry.register_codd_table("customers", data["customers"])
        registry.register_codd_table("orders", data["orders"])

    def plan(self, data: dict, seed: int, n: int) -> list[Op]:
        rng = np.random.default_rng([seed, 4])
        orders = data["orders"]
        fixes = iter(
            Op(
                "write",
                {
                    "row": int(row),
                    "value": orders.rows[row][AMOUNT].domain[int(rng.integers(3))],
                },
            )
            for row in rng.permutation(data["null_rows"])[: n + 1]
        )

        def read(t: int | None = None) -> Op:
            region = self.regions[int(rng.integers(len(self.regions)))]
            if t is None:
                t = int(rng.integers(0, len(orders) // 2))
            return Op("read", {"sql": self.sql.format(region=region, t=t)})

        # The warm-up read, timed in set-up, joins a fixed share of orders.
        ops = [read(t=len(orders) // 4), next(fixes)]
        ops += [read() if kind == "read" else next(fixes) for kind in mixed_kinds(n)]
        return ops

    def send(self, client, op: Op) -> dict:
        if op.cls == "read":
            return client.sql(op.args["sql"])
        return client.fix_cell("orders", op.args["row"], AMOUNT, op.args["value"])

    def check(self, data: dict, ops: list[Op], responses: list) -> list[bool]:
        database = {"customers": data["customers"], "orders": data["orders"]}
        schemas = {name: table.schema for name, table in database.items()}
        version = 1
        ok = []
        for op, response in zip(ops, responses):
            if op.cls == "write":
                database["orders"] = database["orders"].with_cell_fixed(
                    op.args["row"], AMOUNT, op.args["value"]
                )
                version += 1
                ok.append(
                    response is not None
                    and response["version"] == version
                    and response["fingerprint"] == database["orders"].fingerprint()
                )
            else:
                query = parse_sql(op.args["sql"], schemas=schemas)
                expected = answer_query(query, database, mode="certain").relation
                ok.append(
                    response is not None
                    and response["versions"]["orders"] == version
                    and response["results"]["certain"] == expected
                )
        return ok

    def regret_samples(self, data: dict, ops: list[Op]) -> list:
        return []  # no CP planner work on the SQL path


WORKLOADS = {
    w.name: w
    for w in (PointStream(), CleanSession(), SqlMix(), PointGateway())
}
