"""Data Processor robustness: malformed uploads must not poison the
pipeline, and a crash mid-blob must not duplicate readings."""

import math
import threading

import numpy as np
import pytest

from repro.common.clock import ManualClock
from repro.common.errors import SimulatedCrashError
from repro.common.geo import LatLon
from repro.core.features import FeaturePipeline, FeatureSpec, MeanExtractor
from repro.db import Database, DurabilityConfig, eq
from repro.net import Envelope, MessageType
from repro.net.transport import Network
from repro.obs import MetricsRegistry
from repro.server import SensingServer
from repro.server.app_manager import Application, ApplicationManager
from repro.server.data_processor import DataProcessor
from repro.server.participation import ParticipationManager
from repro.server.schemas import create_all_tables
from repro.server.user_manager import UserInfoManager

PLACE = LatLon(43.05, -76.15)


def application():
    return Application(
        app_id="app-1",
        creator="o",
        place_id="place-1",
        place_name="P",
        category="c",
        location=PLACE,
        script="return get_temperature_readings(1, 0)",
        pipeline=FeaturePipeline(
            [FeatureSpec("temperature", "temperature", MeanExtractor())]
        ),
        period_start=0.0,
        period_end=10_800.0,
    )


@pytest.fixture
def world(clock):
    database = Database()
    create_all_tables(database)
    users = UserInfoManager(database, clock)
    users.register("alice", "Alice", "tok-a")
    apps = ApplicationManager(database)
    apps.create(application())
    participation = ParticipationManager(database, users, apps, clock)
    clock.advance(10.0)
    task_id = participation.create_task(
        app_id="app-1", user_id="alice", token="tok-a",
        phone_host="phone-1", budget=3, times=[20.0, 30.0, 40.0],
    )
    processor = DataProcessor(database, apps, clock)
    return database, processor, task_id


def store_blob(database, body: bytes, task_id: str = "whatever"):
    database.table("raw_data").insert(
        {"task_id": task_id, "received_at": 0.0, "body": body, "processed": False}
    )


def good_envelope(task_id, bursts):
    return Envelope(
        MessageType.SENSED_DATA,
        "phone-1",
        "server",
        {"task_id": task_id, "bursts": bursts},
    ).to_bytes()


class TestRobustness:
    def test_garbage_blob_rejected_and_marked(self, world):
        database, processor, _ = world
        store_blob(database, b"\xde\xad\xbe\xef")
        assert processor.process_pending() == 0
        assert processor.blobs_rejected == 1
        assert all(row["processed"] for row in database.table("raw_data").select())

    def test_unknown_task_rejected(self, world):
        database, processor, _ = world
        store_blob(database, good_envelope("ghost-task", []))
        processor.process_pending()
        assert processor.blobs_rejected == 1
        assert database.table("readings").count() == 0

    def test_wrong_payload_shape_rejected(self, world):
        database, processor, task_id = world
        bad = Envelope(
            MessageType.SENSED_DATA, "p", "s", {"task_id": task_id, "bursts": "no"}
        ).to_bytes()
        store_blob(database, bad)
        processor.process_pending()
        assert processor.blobs_rejected == 1

    def test_non_dict_burst_rejected_atomically(self, world):
        database, processor, task_id = world
        bad = good_envelope(task_id, [{"sensor": "temperature", "t": 1.0,
                                       "dt": 0.0, "values": [70.0]}, "junk"])
        store_blob(database, bad)
        processor.process_pending()
        assert processor.blobs_rejected == 1
        # Atomicity: the valid first burst of the rejected payload must
        # not have leaked into the readings table.
        assert database.table("readings").count() == 0

    def test_bad_blob_does_not_block_good_ones(self, world):
        database, processor, task_id = world
        store_blob(database, b"garbage")
        store_blob(
            database,
            good_envelope(
                task_id,
                [{"sensor": "temperature", "t": 1.0, "dt": 0.0, "values": [70.0]}],
            ),
        )
        assert processor.process_pending() == 1
        assert processor.blobs_rejected == 1
        assert database.table("readings").count(eq("sensor", "temperature")) == 1

    def test_blob_of_an_unregistered_application_is_rejected_once(self, world):
        """An in-flight upload whose application left this server (shard
        rebalancing moves it) is rejected and marked, not left pending."""
        database, processor, task_id = world
        processor.apps.remove("app-1")
        store_blob(
            database,
            good_envelope(
                task_id,
                [{"sensor": "temperature", "t": 1.0, "dt": 0.0, "values": [70.0]}],
            ),
            task_id,
        )
        assert processor.process_pending() == 0
        assert processor.blobs_rejected == 1
        assert database.table("raw_data").count(eq("processed", False)) == 0
        assert processor.process_pending() == 0
        assert processor.blobs_rejected == 1
        assert database.table("readings").count() == 0

    def test_reprocessing_is_idempotent(self, world):
        database, processor, task_id = world
        store_blob(
            database,
            good_envelope(
                task_id,
                [{"sensor": "temperature", "t": 1.0, "dt": 0.0, "values": [70.0]}],
            ),
        )
        assert processor.process_pending() == 1
        assert processor.process_pending() == 0
        assert database.table("readings").count() == 1


def temperature(t, value=70.0):
    return {"sensor": "temperature", "t": t, "dt": 0.0, "values": [value]}


class TestRejectedBlobRollsBackWhole:
    def test_rejected_blob_leaves_no_reading_and_no_quarantine_row(
        self, world, clock
    ):
        database, processor, task_id = world
        registry = MetricsRegistry()
        processor = DataProcessor(database, processor.apps, clock, metrics=registry)
        store_blob(
            database,
            good_envelope(
                task_id,
                [temperature(1.0, math.nan), temperature(2.0), "junk"],
            ),
        )
        assert processor.process_pending() == 0
        assert processor.blobs_rejected == 1
        assert database.table("readings").count() == 0
        assert database.table("quarantine").count() == 0
        assert processor.readings_quarantined == 0
        counter = registry.counter(
            "sor_server_quarantined_readings_total", labels=("sensor", "reason")
        )
        assert list(counter.series()) == []
        assert database.table("raw_data").count(eq("processed", False)) == 0


def durable_server(directory):
    """A durable server on a network of its own (fsync off)."""
    return SensingServer(
        "server",
        Network(rng=np.random.default_rng(0)),
        ManualClock(start=10.0),
        metrics=MetricsRegistry(),
        durability=DurabilityConfig(directory=directory, fsync=False),
    )


def server_with_blob(directory, bursts=3):
    """A durable server holding one unprocessed blob of ``bursts`` bursts."""
    server = durable_server(directory)
    server.register_user("alice", "Alice", "tok-a")
    server.create_application(application())
    task_id = server.participation.create_task(
        app_id="app-1", user_id="alice", token="tok-a",
        phone_host="phone-1", budget=3, times=[20.0, 30.0, 40.0],
    )
    store_blob(
        server.database,
        good_envelope(task_id, [temperature(float(t)) for t in range(bursts)]),
        task_id,
    )
    return server


class TestOneTransactionPerBlob:
    def test_a_crash_mid_blob_does_not_duplicate_readings(
        self, tmp_path, monkeypatch
    ):
        server = server_with_blob(tmp_path)
        durability = server.database.durability
        readings = server.database.table("readings")
        insert = readings.insert
        inserted = []

        def insert_then_arm(row):
            inserted.append(insert(row))
            if len(inserted) == 2:  # the crash comes after the second reading
                durability.arm("commit.pre_append")
            return inserted[-1]

        monkeypatch.setattr(readings, "insert", insert_then_arm)
        with pytest.raises(SimulatedCrashError):
            server.process_data()
        durability.close()  # the process is dead
        recovered = durable_server(tmp_path)
        assert recovered.database.table("readings").count() == 0
        assert recovered.process_data() == 1
        assert recovered.database.table("readings").count() == 3
        assert recovered.process_data() == 0
        recovered.database.durability.close()

    def test_a_pass_holds_the_request_lock(self, tmp_path):
        """A pass takes the exclusive side of the request lock, so its
        transactions never meet a request's open one."""
        server = server_with_blob(tmp_path)
        readings = server.database.table("readings")
        with server._rwlock.read():  # a request in flight
            worker = threading.Thread(target=server.process_data)
            worker.start()
            worker.join(timeout=0.2)
            assert worker.is_alive()
            assert readings.count() == 0
        worker.join()
        assert readings.count() == 3
        server.database.durability.close()


class TestFeatureRows:
    def test_a_recompute_updates_each_row_in_place_without_a_select(
        self, tmp_path
    ):
        """The update finds the row; no select looks for it first."""
        server = server_with_blob(tmp_path)
        assert server.process_data() == 1
        features = server.database.table("feature_data")
        server.compute_all_features()
        first = features.select()
        assert len(first) == 1
        operations = server.metrics.get("sor_db_operations_total")
        selects = operations.value(db="server", table="feature_data", op="select")
        server.clock.advance(5.0)
        server.compute_all_features()
        assert (
            operations.value(db="server", table="feature_data", op="select")
            == selects
        )
        again = features.select()
        assert [row["feature_id"] for row in again] == [first[0]["feature_id"]]
        assert again[0]["computed_at"] == first[0]["computed_at"] + 5.0
        server.database.durability.close()
