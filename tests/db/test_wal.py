"""Tests for the write-ahead log, checkpoints and crash recovery."""

import pytest

from repro.common.errors import (
    DatabaseError,
    RecoveryError,
    SimulatedCrashError,
)
from repro.db import (
    Column,
    ColumnType,
    Database,
    DurabilityConfig,
    Schema,
    attach_durability,
    eq,
    open_durable_database,
)
from repro.db.replication import ReplicationCursor, WalShipper, apply_records
from repro.db.wal import WalWriter, read_wal_file
from repro.obs import MetricsRegistry

SCHEMA = Schema(
    name="events",
    columns=(
        Column("id", ColumnType.INT, nullable=False, auto_increment=True),
        Column("label", ColumnType.TEXT),
        Column("blob", ColumnType.BLOB),
    ),
    primary_key="id",
)


def boot(tmp_path, **config_kwargs):
    db, report = open_durable_database(
        DurabilityConfig(directory=tmp_path, **config_kwargs)
    )
    if "events" not in db.table_names():
        db.create_table(SCHEMA)
    return db, report


def shutdown(db):
    """Simulated kill: close the WAL handle without any graceful flush."""
    db.durability.close()


class TestFraming:
    def test_records_roundtrip_through_frames(self, tmp_path):
        path = tmp_path / "wal-00000001.log"
        writer = WalWriter(path)
        records = [
            {"op": "insert", "table": "t", "row": {"id": 1, "label": "a"}},
            {"op": "delete", "table": "t", "pk": 1},
        ]
        for record in records:
            writer.append(record)
        writer.close()
        entries, clean_bytes, torn = read_wal_file(path)
        assert [record for record, _, _ in entries] == records
        assert clean_bytes == path.stat().st_size
        assert not torn

    def test_flipped_byte_stops_the_parse(self, tmp_path):
        path = tmp_path / "wal-00000001.log"
        writer = WalWriter(path)
        writer.append({"op": "insert", "table": "t", "row": {}})
        writer.append({"op": "delete", "table": "t", "pk": 1})
        writer.close()
        data = bytearray(path.read_bytes())
        data[-3] ^= 0xFF  # corrupt the second record's payload
        path.write_bytes(data)
        entries, _, torn = read_wal_file(path)
        assert len(entries) == 1  # CRC catches the flip
        assert torn

    def test_short_frame_is_torn(self, tmp_path):
        path = tmp_path / "wal-00000001.log"
        writer = WalWriter(path)
        writer.append({"op": "insert", "table": "t", "row": {}})
        writer.append_torn({"op": "insert", "table": "t", "row": {}})
        writer.close()
        entries, _, torn = read_wal_file(path)
        assert len(entries) == 1
        assert torn


class TestRecovery:
    def test_autocommit_writes_survive_reopen(self, tmp_path):
        db, _ = boot(tmp_path)
        db.table("events").insert({"label": "hello", "blob": b"\x00\xff"})
        shutdown(db)
        recovered, report = boot(tmp_path)
        assert recovered.table("events").select() == db.table("events").select()
        assert report.records_replayed >= 2  # create_table + insert
        assert report.clean_boot

    def test_committed_transaction_survives(self, tmp_path):
        db, _ = boot(tmp_path)
        with db.transaction():
            db.table("events").insert({"label": "a", "blob": None})
            db.table("events").insert({"label": "b", "blob": None})
        shutdown(db)
        recovered, _ = boot(tmp_path)
        assert recovered.table("events").count() == 2

    def test_rolled_back_transaction_leaves_no_trace(self, tmp_path):
        db, _ = boot(tmp_path)
        db.table("events").insert({"label": "keep", "blob": None})
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.table("events").insert({"label": "doomed", "blob": None})
                raise RuntimeError("abort")
        shutdown(db)
        recovered, _ = boot(tmp_path)
        labels = [row["label"] for row in recovered.table("events").select()]
        assert labels == ["keep"]

    def test_update_and_delete_replay(self, tmp_path):
        db, _ = boot(tmp_path)
        pk = db.table("events").insert({"label": "v1", "blob": None})
        db.table("events").insert({"label": "victim", "blob": None})
        db.table("events").update(eq("id", pk), {"label": "v2"})
        db.table("events").delete(eq("label", "victim"))
        shutdown(db)
        recovered, _ = boot(tmp_path)
        rows = recovered.table("events").select()
        assert len(rows) == 1
        assert rows[0]["label"] == "v2"

    def test_auto_counter_restored(self, tmp_path):
        db, _ = boot(tmp_path)
        db.table("events").insert({"label": "a", "blob": None})
        db.table("events").insert({"label": "b", "blob": None})
        db.table("events").delete(eq("label", "b"))  # frees id 2
        shutdown(db)
        recovered, _ = boot(tmp_path)
        assert recovered.table("events").insert({"label": "c"}) == 3

    def test_torn_tail_is_truncated_and_discarded(self, tmp_path):
        db, _ = boot(tmp_path)
        db.table("events").insert({"label": "acked", "blob": None})
        db.durability.simulate_torn_append(
            {"op": "insert", "table": "events", "row": {"id": 9, "label": "torn"}}
        )
        shutdown(db)
        recovered, report = boot(tmp_path)
        labels = [row["label"] for row in recovered.table("events").select()]
        assert labels == ["acked"]
        assert report.torn_tail_bytes_discarded > 0
        assert not report.clean_boot
        # The truncation is physical: a second reopen is clean.
        shutdown(recovered)
        _, second = boot(tmp_path)
        assert second.clean_boot

    def test_uncommitted_transaction_tail_is_discarded(self, tmp_path):
        db, _ = boot(tmp_path)
        db.table("events").insert({"label": "acked", "blob": None})
        db.durability.simulate_partial_transaction(
            [{"op": "insert", "table": "events", "row": {"id": 9, "label": "x"}}]
        )
        shutdown(db)
        recovered, report = boot(tmp_path)
        labels = [row["label"] for row in recovered.table("events").select()]
        assert labels == ["acked"]
        assert report.incomplete_transactions_discarded == 1
        # Later writes append cleanly after the truncation point.
        recovered.table("events").insert({"label": "later", "blob": None})
        shutdown(recovered)
        final, final_report = boot(tmp_path)
        assert final_report.clean_boot
        labels = [row["label"] for row in final.table("events").select()]
        assert labels == ["acked", "later"]

    def test_empty_directory_boots_fresh(self, tmp_path):
        db, report = boot(tmp_path)
        assert report.checkpoint_seq == 0
        assert report.records_replayed == 0
        assert db.table("events").count() == 0

    def test_closed_manager_rejects_writes(self, tmp_path):
        db, _ = boot(tmp_path)
        shutdown(db)
        with pytest.raises(DatabaseError, match="closed"):
            db.table("events").insert({"label": "late", "blob": None})


class TestCheckpoints:
    def test_checkpoint_then_recover_without_replaying_history(self, tmp_path):
        db, _ = boot(tmp_path)
        for index in range(5):
            db.table("events").insert({"label": f"row-{index}", "blob": None})
        db.durability.checkpoint()
        shutdown(db)
        recovered, report = boot(tmp_path)
        assert recovered.table("events").count() == 5
        assert report.checkpoint_seq == 2
        assert report.records_replayed == 0  # all state came from the snapshot

    def test_auto_checkpoint_and_pruning(self, tmp_path):
        db, _ = boot(tmp_path, checkpoint_every_records=3, keep_checkpoints=2)
        for index in range(12):
            db.table("events").insert({"label": f"row-{index}", "blob": None})
        shutdown(db)
        checkpoints = sorted(p.name for p in tmp_path.glob("checkpoint-*.json"))
        wals = sorted(p.name for p in tmp_path.glob("wal-*.log"))
        assert len(checkpoints) == 2  # older ones pruned
        # No WAL segment older than the oldest kept checkpoint survives.
        oldest_kept = int(checkpoints[0].split("-")[1].split(".")[0])
        assert all(
            int(name.split("-")[1].split(".")[0]) >= oldest_kept for name in wals
        )
        recovered, _ = boot(tmp_path)
        assert recovered.table("events").count() == 12

    def test_corrupt_latest_checkpoint_degrades_to_previous(self, tmp_path):
        db, _ = boot(tmp_path)
        db.table("events").insert({"label": "a", "blob": None})
        db.durability.checkpoint()
        db.table("events").insert({"label": "b", "blob": None})
        db.durability.checkpoint()
        db.table("events").insert({"label": "c", "blob": None})
        shutdown(db)
        newest = max(tmp_path.glob("checkpoint-*.json"))
        newest.write_text("{garbage")
        recovered, report = boot(tmp_path)
        assert report.corrupt_checkpoints_skipped == 1
        assert report.wal_files_replayed >= 2  # replays from the older snapshot
        labels = sorted(row["label"] for row in recovered.table("events").select())
        assert labels == ["a", "b", "c"]

    def test_all_checkpoints_corrupt_without_full_wal_raises(self, tmp_path):
        db, _ = boot(tmp_path, keep_checkpoints=1)
        db.table("events").insert({"label": "a", "blob": None})
        db.durability.checkpoint()
        db.durability.checkpoint()  # prunes wal-1: history now starts at 2
        shutdown(db)
        for checkpoint in tmp_path.glob("checkpoint-*.json"):
            checkpoint.write_text("{garbage")
        with pytest.raises(RecoveryError):
            boot(tmp_path)

    def test_missing_wal_segment_raises(self, tmp_path):
        db, _ = boot(tmp_path)
        db.table("events").insert({"label": "a", "blob": None})
        db.durability.checkpoint()
        db.table("events").insert({"label": "b", "blob": None})
        shutdown(db)
        # The checkpoint pruned wal-1; without checkpoint-2 the surviving
        # wal-2 no longer connects to the beginning of history.
        (tmp_path / "checkpoint-00000002.json").unlink()
        with pytest.raises(RecoveryError, match="gap|missing"):
            boot(tmp_path)

    def test_checkpoint_past_the_newest_segment_raises(self, tmp_path):
        db, _ = boot(tmp_path)
        db.table("events").insert({"label": "a", "blob": None})
        db.durability.checkpoint()
        db.table("events").insert({"label": "b", "blob": None})
        db.durability.checkpoint()
        shutdown(db)
        # Checkpoint 3 is the state at the start of wal-3. With wal-3 gone,
        # what was committed after it is unknown, and writes appended to
        # wal-2 would sit behind checkpoint 3 where no later boot replays
        # them.
        (tmp_path / "wal-00000003.log").unlink()
        with pytest.raises(RecoveryError, match="missing WAL segment 3"):
            boot(tmp_path)

    def test_checkpoint_during_transaction_is_refused(self, tmp_path):
        db, _ = boot(tmp_path)
        with db.transaction():
            db.table("events").insert({"label": "a", "blob": None})
            with pytest.raises(DatabaseError, match="transaction"):
                db.durability.checkpoint()


class TestCrashHooks:
    def test_crash_before_checkpoint_rename_keeps_old_state(self, tmp_path):
        db, _ = boot(tmp_path)
        db.table("events").insert({"label": "a", "blob": None})
        db.durability.arm("checkpoint.pre_replace")
        with pytest.raises(SimulatedCrashError):
            db.durability.checkpoint()
        shutdown(db)
        # The new checkpoint never landed; replay covers everything.
        recovered, report = boot(tmp_path)
        assert report.checkpoint_seq == 0
        labels = [row["label"] for row in recovered.table("events").select()]
        assert labels == ["a"]

    def test_crash_after_checkpoint_rename_uses_new_checkpoint(self, tmp_path):
        db, _ = boot(tmp_path)
        db.table("events").insert({"label": "a", "blob": None})
        db.durability.arm("checkpoint.post_replace")
        with pytest.raises(SimulatedCrashError):
            db.durability.checkpoint()
        shutdown(db)
        recovered, report = boot(tmp_path)
        assert report.checkpoint_seq == 2
        labels = [row["label"] for row in recovered.table("events").select()]
        assert labels == ["a"]

    def test_crash_before_sync_still_replays_the_write(self, tmp_path):
        # The writer is unbuffered, so the OS already has the frame; a
        # simulated in-process kill after append cannot take it back.
        db, _ = boot(tmp_path)
        db.table("events").insert({"label": "a", "blob": None})
        db.durability.arm("commit.pre_sync")
        with pytest.raises(SimulatedCrashError):
            db.table("events").insert({"label": "b", "blob": None})
        shutdown(db)
        recovered, _ = boot(tmp_path)
        labels = [row["label"] for row in recovered.table("events").select()]
        assert "a" in labels

    def test_hooks_are_one_shot(self, tmp_path):
        db, _ = boot(tmp_path)
        db.durability.arm("commit.pre_append")
        with pytest.raises(SimulatedCrashError):
            db.table("events").insert({"label": "a", "blob": None})
        db.table("events").insert({"label": "b", "blob": None})  # fires clean

    def test_disarm_removes_the_hook(self, tmp_path):
        db, _ = boot(tmp_path)
        db.durability.arm("commit.pre_append")
        db.durability.disarm("commit.pre_append")
        db.table("events").insert({"label": "a", "blob": None})


class TestMetrics:
    def test_wal_and_recovery_metrics_emitted(self, tmp_path):
        registry = MetricsRegistry()
        db, _ = open_durable_database(
            DurabilityConfig(directory=tmp_path), metrics=registry
        )
        db.create_table(SCHEMA)
        db.table("events").insert({"label": "a", "blob": None})
        db.durability.checkpoint()
        records = registry.counter("sor_db_wal_records_total", labels=("op",))
        assert records.value(op="insert") == 1
        assert records.value(op="create_table") == 1
        assert registry.counter("sor_db_wal_bytes").value() > 0
        assert registry.counter("sor_db_checkpoints_total").value() == 1
        shutdown(db)

        reopened_registry = MetricsRegistry()
        _, report = open_durable_database(
            DurabilityConfig(directory=tmp_path), metrics=reopened_registry
        )
        replayed = reopened_registry.counter("sor_db_recovery_replayed_records")
        assert replayed.value() == report.records_replayed


def _wreck_generation_one(tmp_path):
    """A killed primary's directory: 4 committed rows, then wreckage
    (an uncommitted transaction and a torn frame at the tail)."""
    db, _ = boot(tmp_path)
    table = db.table("events")
    for index in range(4):
        table.insert({"label": f"pre-{index}", "blob": None})
    manager = db.durability
    manager.simulate_partial_transaction(
        [{"op": "insert", "table": "events", "row": {"label": "doomed"}}]
    )
    manager.simulate_torn_append(
        {"op": "insert", "table": "events", "row": {"label": "torn"}}
    )
    manager.close()


def _replay_into_replica(tmp_path):
    """What failover does: rebuild a database purely from shipped WAL."""
    replica = Database(name="replica")
    batch = WalShipper(tmp_path).ship(ReplicationCursor())
    apply_records(replica, batch.records)
    return replica


class TestReattach:
    def test_attach_to_fresh_directory(self, tmp_path):
        database = Database(name="fresh")
        database.create_table(SCHEMA)
        database.table("events").insert({"label": "pre", "blob": None})
        manager = attach_durability(database, tmp_path, fsync=False)
        assert manager.seq == 1
        assert (tmp_path / "checkpoint-00000001.json").exists()
        assert (tmp_path / "wal-00000001.log").exists()
        database.table("events").insert({"label": "post", "blob": None})
        manager.close()
        reopened, report = open_durable_database(
            DurabilityConfig(directory=tmp_path)
        )
        labels = sorted(r["label"] for r in reopened.table("events").select())
        assert labels == ["post", "pre"]
        assert report.clean_boot and report.checkpoint_seq == 1
        shutdown(reopened)

    def test_attach_over_killed_generation(self, tmp_path):
        """The failover shape: replica replay of a wrecked directory,
        then attach — the inherited tail is sanitized, the state becomes
        checkpoint 2, and commits resume in generation 2."""
        _wreck_generation_one(tmp_path)
        replica = _replay_into_replica(tmp_path)
        assert len(replica.table("events").select()) == 4
        manager = attach_durability(replica, tmp_path, fsync=False)
        assert manager.seq == 2
        # The inherited segment was physically truncated to its
        # committed prefix: no torn bytes, no uncommitted transaction.
        entries, clean, torn = read_wal_file(tmp_path / "wal-00000001.log")
        assert not torn
        assert all(e[0].get("op") != "begin" for e in entries)
        replica.table("events").insert({"label": "gen2", "blob": None})
        manager.close()
        reopened, report = open_durable_database(
            DurabilityConfig(directory=tmp_path)
        )
        labels = sorted(r["label"] for r in reopened.table("events").select())
        assert labels == ["gen2", "pre-0", "pre-1", "pre-2", "pre-3"]
        assert report.clean_boot and report.checkpoint_seq == 2
        shutdown(reopened)

    def test_shipping_crosses_the_generation_boundary(self, tmp_path):
        """A replica whose cursor predates the re-attach keeps working:
        the sanitized old generation replays straight into the new one."""
        _wreck_generation_one(tmp_path)
        replica = _replay_into_replica(tmp_path)
        manager = attach_durability(replica, tmp_path, fsync=False)
        replica.table("events").insert({"label": "gen2", "blob": None})
        manager.close()
        follower = Database(name="follower")
        batch = WalShipper(tmp_path).ship(ReplicationCursor(seq=1))
        apply_records(follower, batch.records)
        labels = sorted(r["label"] for r in follower.table("events").select())
        assert labels == ["gen2", "pre-0", "pre-1", "pre-2", "pre-3"]
        assert batch.cursor.seq == 2

    def test_mixed_generation_recovery_with_torn_final_record(self, tmp_path):
        """Satellite: pre-kill segments + re-attach checkpoint +
        post-promotion segment whose final record is torn."""
        _wreck_generation_one(tmp_path)
        replica = _replay_into_replica(tmp_path)
        manager = attach_durability(replica, tmp_path, fsync=False)
        replica.table("events").insert({"label": "gen2", "blob": None})
        manager.simulate_torn_append(
            {"op": "insert", "table": "events", "row": {"label": "torn2"}}
        )
        manager.close()
        reopened, report = open_durable_database(
            DurabilityConfig(directory=tmp_path)
        )
        labels = sorted(r["label"] for r in reopened.table("events").select())
        assert labels == ["gen2", "pre-0", "pre-1", "pre-2", "pre-3"]
        assert report.checkpoint_seq == 2
        assert report.torn_tail_bytes_discarded > 0
        shutdown(reopened)

    def test_corrupt_reattach_checkpoint_degrades_to_previous_generation(
        self, tmp_path
    ):
        """Satellite: attach prunes nothing, so when its checkpoint is
        corrupt, recovery degrades to replaying the full pre-kill
        history plus the post-promotion segments."""
        _wreck_generation_one(tmp_path)
        replica = _replay_into_replica(tmp_path)
        manager = attach_durability(replica, tmp_path, fsync=False)
        replica.table("events").insert({"label": "gen2", "blob": None})
        manager.close()
        (tmp_path / "checkpoint-00000002.json").write_bytes(b"{not json")
        reopened, report = open_durable_database(
            DurabilityConfig(directory=tmp_path)
        )
        labels = sorted(r["label"] for r in reopened.table("events").select())
        assert labels == ["gen2", "pre-0", "pre-1", "pre-2", "pre-3"]
        assert report.corrupt_checkpoints_skipped == 1
        assert report.checkpoint_seq == 0  # full-history replay
        assert report.wal_files_replayed == 2
        shutdown(reopened)

    def test_attach_refuses_double_attach(self, tmp_path):
        db, _ = boot(tmp_path)
        with pytest.raises(DatabaseError, match="already has durability"):
            attach_durability(db, tmp_path)
        shutdown(db)

    def test_attach_refuses_mid_transaction(self, tmp_path):
        database = Database(name="txn")
        database.create_table(SCHEMA)
        with pytest.raises(DatabaseError, match="active transaction"):
            with database.transaction():
                database.table("events").insert({"label": "a", "blob": None})
                attach_durability(database, tmp_path)

    def test_attach_counts_reattach_metric(self, tmp_path):
        registry = MetricsRegistry()
        database = Database(name="m", metrics=registry)
        database.create_table(SCHEMA)
        manager = attach_durability(
            database, tmp_path, fsync=False, metrics=registry
        )
        assert registry.counter("sor_db_wal_reattach_total").value() == 1
        manager.close()


READERS = {
    "boot": lambda path: open_durable_database(DurabilityConfig(directory=path)),
    "reattach": lambda path: attach_durability(Database(name="promoted"), path),
    "ship": lambda path: WalShipper(path).ship(ReplicationCursor()),
}


class TestUnreadableHistory:
    """Every reader of the directory reports what it cannot read as
    RecoveryError, never as a raw OSError."""

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_directory_in_place_of_a_segment_is_a_recovery_error(
        self, tmp_path, reader
    ):
        db, _ = boot(tmp_path, fsync=False)
        db.table("events").insert({"label": "a", "blob": None})
        shutdown(db)
        (tmp_path / "wal-00000002.log").mkdir()
        with pytest.raises(RecoveryError, match="wal-00000002.log: unreadable"):
            READERS[reader](tmp_path)

    def test_undecodable_checkpoint_is_skipped_at_boot_and_typed_on_bootstrap(
        self, tmp_path
    ):
        db, _ = boot(tmp_path, fsync=False)
        db.table("events").insert({"label": "a", "blob": None})
        db.durability.checkpoint()
        db.table("events").insert({"label": "b", "blob": None})
        db.durability.checkpoint()
        shutdown(db)
        (tmp_path / "checkpoint-00000003.json").write_bytes(b"\xff\xfe not utf-8")
        with pytest.raises(RecoveryError, match="unreadable"):
            WalShipper(tmp_path).ship(ReplicationCursor())
        recovered, report = boot(tmp_path, fsync=False)
        assert report.corrupt_checkpoints_skipped == 1
        labels = sorted(row["label"] for row in recovered.table("events").select())
        assert labels == ["a", "b"]
        shutdown(recovered)


class TestDirectoryFsync:
    def _record_calls(self, monkeypatch):
        import repro.db.wal as wal_module

        calls = []
        monkeypatch.setattr(
            wal_module, "fsync_directory", lambda path: calls.append(path)
        )
        return calls

    def test_segment_and_checkpoint_creation_sync_the_directory(
        self, tmp_path, monkeypatch
    ):
        calls = self._record_calls(monkeypatch)
        db, _ = boot(tmp_path, fsync=True)
        assert len(calls) == 1  # the first segment's directory entry
        db.table("events").insert({"label": "a", "blob": None})
        db.durability.checkpoint()
        # + the new segment's creation, + the checkpoint os.replace
        assert len(calls) == 3
        shutdown(db)

    def test_reattach_syncs_the_directory(self, tmp_path, monkeypatch):
        calls = self._record_calls(monkeypatch)
        database = Database(name="d")
        database.create_table(SCHEMA)
        manager = attach_durability(database, tmp_path, fsync=True)
        # Segment creation and the checkpoint rename both hit the dirfd.
        assert len(calls) == 2
        manager.close()

    def test_fsync_off_never_touches_the_directory_fd(
        self, tmp_path, monkeypatch
    ):
        calls = self._record_calls(monkeypatch)
        db, _ = boot(tmp_path, fsync=False)
        db.table("events").insert({"label": "a", "blob": None})
        db.durability.checkpoint()
        shutdown(db)
        database = Database(name="d2")
        database.create_table(SCHEMA)
        attach_durability(database, tmp_path / "other", fsync=False).close()
        assert calls == []
