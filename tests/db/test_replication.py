"""Tests for repro.db.replication: WAL shipping for read-replicas."""

import pytest

import repro.db.replication as replication_module
from repro.common.errors import DatabaseError, RecoveryError
from repro.db import (
    Column,
    ColumnType,
    Database,
    DurabilityConfig,
    Schema,
    load_database,
)
from repro.db.replication import ReplicationCursor, WalShipper, apply_records
from repro.db.wal import attach_durability, open_durable_database
from repro.obs import MetricsRegistry


def boot(tmp_path, **config_kwargs):
    db, report = open_durable_database(
        DurabilityConfig(directory=tmp_path, fsync=False, **config_kwargs),
        metrics=MetricsRegistry(),
    )
    return db, report


USERS = Schema(
    name="users",
    columns=(
        Column("user_id", ColumnType.INT, nullable=False),
        Column("name", ColumnType.TEXT),
    ),
    primary_key="user_id",
)


def make_users(db, count, start=0):
    if not db.has_table("users"):
        db.create_table(USERS)
    for index in range(start, start + count):
        db.table("users").insert({"user_id": index, "name": f"user-{index}"})


def replica_of(batch, metrics=None):
    """Apply one shipped batch to a fresh (or bootstrapped) database."""
    if batch.snapshot is not None:
        database = load_database(batch.snapshot, metrics=metrics)
    else:
        database = Database(name="replica", metrics=metrics or MetricsRegistry())
    apply_records(database, batch.records)
    return database


class TestCursor:
    def test_defaults_point_at_start_of_history(self):
        # The join cursor sits before every segment.
        cursor = ReplicationCursor()
        assert (cursor.seq, cursor.offset) == (0, 0)

    @pytest.mark.parametrize("kwargs", [{"seq": -1}, {"offset": -1}])
    def test_invalid_cursor_rejected(self, kwargs):
        with pytest.raises(DatabaseError):
            ReplicationCursor(**kwargs)


class TestShipping:
    def test_full_history_rebuilds_identical_tables(self, tmp_path):
        db, _ = boot(tmp_path)
        make_users(db, 5)
        batch = WalShipper(tmp_path).ship(ReplicationCursor())
        replica = replica_of(batch)
        assert replica.table("users").select() == db.table("users").select()

    def test_incremental_ship_returns_only_new_records(self, tmp_path):
        db, _ = boot(tmp_path)
        make_users(db, 3)
        shipper = WalShipper(tmp_path)
        first = shipper.ship(ReplicationCursor())
        assert first.records  # DDL + three inserts
        # Nothing new: the advanced cursor ships an empty batch.
        again = shipper.ship(first.cursor)
        assert again.records == []
        assert again.cursor == first.cursor
        make_users(db, 2, start=3)
        delta = shipper.ship(first.cursor)
        assert len(delta.records) == 2
        assert all(record["op"] == "insert" for record in delta.records)

    def test_pending_counts_lag(self, tmp_path):
        db, _ = boot(tmp_path)
        make_users(db, 2)
        shipper = WalShipper(tmp_path)
        cursor = shipper.ship(ReplicationCursor()).cursor
        assert shipper.pending(cursor) == 0
        make_users(db, 4, start=2)
        assert shipper.pending(cursor) == 4
        db.durability.checkpoint()
        db.durability.checkpoint()  # prunes the segment `cursor` points at
        assert shipper.pending(cursor) == 1  # a due install counts one
        make_users(db, 2, start=6)
        assert shipper.pending(cursor) == 3
        db.durability.close()

    def test_transactions_ship_atomically(self, tmp_path):
        db, _ = boot(tmp_path)
        make_users(db, 1)
        shipper = WalShipper(tmp_path)
        cursor = shipper.ship(ReplicationCursor()).cursor
        with db.transaction():
            db.table("users").insert({"user_id": 10, "name": "a"})
            db.table("users").insert({"user_id": 11, "name": "b"})
        batch = shipper.ship(cursor)
        assert len(batch.records) == 2

    def test_uncommitted_tail_is_held_back(self, tmp_path):
        db, _ = boot(tmp_path)
        make_users(db, 1)
        shipper = WalShipper(tmp_path)
        cursor = shipper.ship(ReplicationCursor()).cursor
        db.durability.simulate_partial_transaction(
            [
                {
                    "op": "insert",
                    "table": "users",
                    "row": {"user_id": 99, "name": "ghost"},
                }
            ]
        )
        batch = shipper.ship(cursor)
        # The unacked transaction must never reach a replica.
        assert batch.records == []
        # The cursor stays on the transaction boundary so a later commit
        # marker would be picked up from the transaction's start.
        assert batch.cursor == cursor

    def test_empty_directory_ships_nothing(self, tmp_path):
        batch = WalShipper(tmp_path / "nope").ship(ReplicationCursor())
        assert batch.records == [] and batch.snapshot is None


class TestBootstrap:
    def test_pruned_history_bootstraps_from_checkpoint(self, tmp_path):
        db, _ = boot(tmp_path, checkpoint_every_records=3, keep_checkpoints=1)
        make_users(db, 10)  # auto-checkpoints prune early segments
        assert not (tmp_path / "wal-00000001.log").exists()
        batch = WalShipper(tmp_path).ship(ReplicationCursor())
        assert batch.snapshot is not None
        replica = replica_of(batch)
        assert replica.table("users").select() == db.table("users").select()

    def test_stale_cursor_follows_through_snapshot(self, tmp_path):
        db, _ = boot(tmp_path)
        make_users(db, 2)
        shipper = WalShipper(tmp_path)
        stale = shipper.ship(ReplicationCursor()).cursor
        db.durability.checkpoint()
        db.durability.checkpoint()  # prunes the segment `stale` points at
        make_users(db, 2, start=2)
        batch = shipper.ship(stale)
        assert batch.snapshot is not None
        replica = replica_of(batch)
        assert replica.table("users").select() == db.table("users").select()

    def test_unreachable_history_raises(self, tmp_path):
        db, _ = boot(tmp_path, keep_checkpoints=1)
        make_users(db, 2)
        db.durability.checkpoint()
        db.durability.checkpoint()  # history now starts past segment 1
        for checkpoint in tmp_path.glob("checkpoint-*.json"):
            checkpoint.unlink()
        with pytest.raises(RecoveryError, match="cannot catch up"):
            WalShipper(tmp_path).ship(ReplicationCursor())


class TestBootstrapCall:
    """Joining: ``ship(ReplicationCursor())`` installs the newest
    checkpoint and the records past it, or replays history from
    segment 1 when there is no checkpoint."""

    def test_no_checkpoint_starts_from_history(self, tmp_path):
        db, _ = boot(tmp_path)
        make_users(db, 3)
        batch = WalShipper(tmp_path).ship(ReplicationCursor())
        assert batch.snapshot is None
        assert batch.cursor.seq == 1
        replica = replica_of(batch)
        assert replica.table("users").select() == db.table("users").select()
        db.durability.close()

    def test_newest_checkpoint_plus_tail_matches_primary(self, tmp_path):
        db, _ = boot(tmp_path)
        make_users(db, 3)
        db.durability.checkpoint()
        make_users(db, 2, start=3)  # the tail past the checkpoint
        batch = WalShipper(tmp_path).ship(ReplicationCursor())
        assert batch.snapshot is not None
        assert batch.cursor.seq == 2
        assert len(batch.records) == 2
        assert load_database(batch.snapshot).table("users").count() == 3
        replica = replica_of(batch)
        assert replica.table("users").select() == db.table("users").select()
        db.durability.close()

    def test_join_installs_a_checkpoint_at_segment_one(self, tmp_path):
        """A directory whose history starts at checkpoint-1 (a database
        made durable in place on an empty directory): shipping from
        segment 1 alone would miss every row the checkpoint holds."""
        db = Database(name="attached", metrics=MetricsRegistry())
        make_users(db, 3)
        manager = attach_durability(db, tmp_path, fsync=False)
        assert (tmp_path / "checkpoint-00000001.json").exists()
        assert (tmp_path / "wal-00000001.log").exists()
        make_users(db, 1, start=3)
        shipper = WalShipper(tmp_path)
        batch = shipper.ship(ReplicationCursor())
        assert batch.snapshot is not None
        replica = replica_of(batch)
        assert replica.table("users").select() == db.table("users").select()
        # An idle replica never reinstalls its checkpoint.
        again = shipper.ship(batch.cursor)
        assert again.snapshot is None and again.records == []
        assert shipper.pending(batch.cursor) == 0
        manager.close()

    def test_unreadable_checkpoint_raises(self, tmp_path):
        db, _ = boot(tmp_path)
        make_users(db, 3)
        db.durability.checkpoint()
        db.durability.close()
        (tmp_path / "checkpoint-00000002.json").write_bytes(b"{broken")
        with pytest.raises(RecoveryError, match="unreadable"):
            WalShipper(tmp_path).ship(ReplicationCursor())


class TestShippingRaces:
    def test_vanished_segment_is_a_typed_error(self, tmp_path, monkeypatch):
        """A segment pruned between scan and read must surface as
        RecoveryError (which the pump retries), not a raw OSError."""
        db, _ = boot(tmp_path)
        make_users(db, 3)
        db.durability.close()

        def gone(path, base=0):
            raise FileNotFoundError(f"{path} pruned concurrently")

        monkeypatch.setattr(replication_module, "read_wal_file", gone)
        with pytest.raises(RecoveryError, match="unreadable"):
            WalShipper(tmp_path).ship(ReplicationCursor())


@pytest.fixture
def parsed_bytes(monkeypatch):
    """Bytes each ship parses: ``read_wal_file(...)[1]`` per segment read."""
    parsed = []
    original = replication_module.read_wal_file

    def counting(*args, **kwargs):
        result = original(*args, **kwargs)
        parsed.append(result[1])
        return result

    monkeypatch.setattr(replication_module, "read_wal_file", counting)
    return parsed


class TestShipParsesOnlyNewBytes:
    """A ship seeks to its cursor: what it parses follows new writes, not
    the length of the segment it reads."""

    def test_parsed_bytes_equal_the_cursor_advance(self, tmp_path, parsed_bytes):
        db, _ = boot(tmp_path)
        make_users(db, 1)
        shipper = WalShipper(tmp_path)
        cursor = shipper.ship(ReplicationCursor()).cursor
        written = 1
        for appended in (1, 10, 100, 1000):
            make_users(db, appended, start=written)
            written += appended
            parsed_bytes.clear()
            batch = shipper.ship(cursor)
            assert len(batch.records) == appended
            assert batch.cursor.seq == cursor.seq
            assert sum(parsed_bytes) == batch.cursor.offset - cursor.offset
            cursor = batch.cursor
        db.durability.close()

    def test_held_back_tail_is_parsed_from_the_cursor(self, tmp_path, parsed_bytes):
        db, _ = boot(tmp_path)
        make_users(db, 100)
        shipper = WalShipper(tmp_path)
        cursor = shipper.ship(ReplicationCursor()).cursor
        ghost = {"user_id": 999, "name": "ghost"}
        db.durability.simulate_partial_transaction(
            [{"op": "insert", "table": "users", "row": ghost}]
        )
        tail = (tmp_path / "wal-00000001.log").stat().st_size - cursor.offset
        parsed_bytes.clear()
        batch = shipper.ship(cursor)
        assert batch.records == [] and batch.cursor == cursor
        assert sum(parsed_bytes) == tail
        parsed_bytes.clear()
        assert shipper.pending(cursor) == 0
        assert sum(parsed_bytes) == tail
        db.durability.close()
