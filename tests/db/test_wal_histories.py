"""Generated WAL histories: every reader of the directory agrees with memory.

Hypothesis writes a random history into a durable database: autocommit
writes, committed and rolled-back transactions, and checkpoints under
``keep_checkpoints=1`` (so early segments get pruned), with a follower
replica shipping at random points. The history may end in the wreckage
a killed primary leaves (``simulate_wreck``). Then each way of reading
the directory back must rebuild exactly the rows the live database
holds:

* crash recovery, run on a copy of the directory;
* a replica joining from ``ReplicationCursor()``: the newest
  checkpoint, then the records past it;
* a replica shipped from segment 1, which walks the whole history
  still on disk;
* the follower, after one more ship.

Shipping again from any cursor a reader ended on returns nothing, and
each follower ship that stays in one segment parses exactly the bytes
it advances the cursor by, however long that segment already is.
Whenever the shipper reports the follower has no lag, the follower
already holds the live rows.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import (
    Column,
    ColumnType,
    Database,
    DurabilityConfig,
    Schema,
    eq,
    load_database,
    open_durable_database,
    replication,
)
from repro.db.replication import (
    ReplicationCursor,
    ShippedBatch,
    WalShipper,
    apply_records,
)
from repro.obs import MetricsRegistry

SCHEMA = Schema(
    name="items",
    columns=(
        Column("id", ColumnType.INT, nullable=False, auto_increment=True),
        Column("key", ColumnType.TEXT, nullable=False),
        Column("score", ColumnType.INT),
        Column("blob", ColumnType.BLOB),
    ),
    primary_key="id",
)

KEYS = ("alpha", "beta", "gamma")

WRITES = st.tuples(
    st.sampled_from(("insert", "update", "delete")),
    st.sampled_from(KEYS),
    st.integers(0, 5),
)
STEPS = st.one_of(
    st.tuples(st.just("write"), WRITES),
    st.tuples(st.just("commit"), st.lists(WRITES, min_size=1, max_size=4)),
    st.tuples(st.just("rollback"), st.lists(WRITES, min_size=1, max_size=4)),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("ship")),
)
# What a killed primary can leave behind, in the order kill_primary
# leaves it: a torn tail must stay the final segment's tail.
WRECKS = st.sampled_from([(), ("torn_tail",), ("mid_checkpoint", "torn_tail")])


class Abort(Exception):
    """Raised inside a transaction to roll it back."""


def write(database: Database, op: tuple[str, str, int]) -> None:
    kind, key, score = op
    table = database.table("items")
    if kind == "insert":
        table.insert({"key": key, "score": score, "blob": bytes(range(score))})
    elif kind == "update":
        table.update(eq("key", key), {"score": score})
    else:
        table.delete(eq("key", key))


def rows(database: Database) -> dict[str, list[dict]]:
    """Every table's rows in primary-key order."""
    state = {}
    for name in database.table_names():
        table = database.table(name)
        pk = table.schema.primary_key
        state[name] = sorted(table.select(), key=lambda row: row[pk])
    return state


def follow(
    batch: ShippedBatch, database: Database
) -> tuple[Database, ReplicationCursor]:
    """One replica sync: rebuild from a shipped snapshot, then apply."""
    if batch.snapshot is not None:
        database = load_database(batch.snapshot, metrics=MetricsRegistry())
    apply_records(database, batch.records)
    return database, batch.cursor


def counted_ship(
    shipper: WalShipper, cursor: ReplicationCursor
) -> tuple[ShippedBatch, int]:
    """Ship from ``cursor``; also returns the WAL bytes the ship parsed."""
    parsed = []
    original = replication.read_wal_file

    def counting(*args, **kwargs):
        result = original(*args, **kwargs)
        parsed.append(result[1])
        return result

    with mock.patch.object(replication, "read_wal_file", counting):
        batch = shipper.ship(cursor)
    return batch, sum(parsed)


def fresh() -> Database:
    return Database(name="replica", metrics=MetricsRegistry())


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(STEPS, max_size=24),
    checkpoint_every=st.sampled_from([0, 3]),
    wreck=WRECKS,
)
def test_recovery_and_replicas_rebuild_the_live_rows(steps, checkpoint_every, wreck):
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch) / "primary"
        live, _ = open_durable_database(
            DurabilityConfig(
                directory=directory,
                fsync=False,
                checkpoint_every_records=checkpoint_every,
                keep_checkpoints=1,
            ),
            metrics=MetricsRegistry(),
        )
        try:
            live.create_table(SCHEMA)
            shipper = WalShipper(directory)
            follower, follower_cursor = fresh(), ReplicationCursor()
            for step in steps:
                if step[0] == "write":
                    write(live, step[1])
                elif step[0] == "commit":
                    with live.transaction():
                        for op in step[1]:
                            write(live, op)
                elif step[0] == "rollback":
                    try:
                        with live.transaction():
                            for op in step[1]:
                                write(live, op)
                            raise Abort
                    except Abort:
                        pass
                elif step[0] == "checkpoint":
                    live.durability.checkpoint()
                else:
                    if shipper.pending(follower_cursor) == 0:
                        assert rows(follower) == rows(live)
                    batch, parsed = counted_ship(shipper, follower_cursor)
                    if (
                        batch.snapshot is None
                        and batch.cursor.seq == follower_cursor.seq
                    ):
                        advance = batch.cursor.offset - follower_cursor.offset
                        assert parsed == advance
                    follower, follower_cursor = follow(batch, follower)
            for kind in wreck:
                live.durability.simulate_wreck(kind)
            expected = rows(live)

            copy = Path(scratch) / "copy"
            shutil.copytree(directory, copy)
            recovered, _ = open_durable_database(
                DurabilityConfig(directory=copy, fsync=False),
                metrics=MetricsRegistry(),
            )
            recovered.durability.close()
            assert rows(recovered) == expected

            for database, cursor in (
                (fresh(), ReplicationCursor()),
                (fresh(), ReplicationCursor(seq=1)),
                (follower, follower_cursor),
            ):
                replica, end = follow(shipper.ship(cursor), database)
                assert rows(replica) == expected
                assert shipper.ship(end).records == []
        finally:
            live.durability.close()
