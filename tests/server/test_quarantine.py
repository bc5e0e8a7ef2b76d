"""Range-checked ingestion: physically impossible readings are quarantined.

NaN, ±inf and wildly out-of-spec values must never reach the readings
table (a single NaN poisons every downstream mean), but they also must
not be silently dropped — each lands in the ``quarantine`` table with the
reason recorded, and ``sor_server_quarantined_readings_total`` counts it.
"""

import math

import pytest

from repro.common.geo import LatLon
from repro.core.features import FeaturePipeline, FeatureSpec, MeanExtractor
from repro.db import Database, eq
from repro.net import Envelope, MessageType
from repro.obs import MetricsRegistry
from repro.server.app_manager import Application, ApplicationManager
from repro.server.data_processor import DataProcessor
from repro.server.participation import ParticipationManager
from repro.server.schemas import create_all_tables
from repro.server.user_manager import UserInfoManager

PLACE = LatLon(43.05, -76.15)


@pytest.fixture
def world(clock):
    database = Database()
    create_all_tables(database)
    users = UserInfoManager(database, clock)
    users.register("alice", "Alice", "tok-a")
    apps = ApplicationManager(database)
    apps.create(
        Application(
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
    )
    participation = ParticipationManager(database, users, apps, clock)
    clock.advance(10.0)
    task_id = participation.create_task(
        app_id="app-1", user_id="alice", token="tok-a",
        phone_host="phone-1", budget=3, times=[20.0, 30.0, 40.0],
    )
    registry = MetricsRegistry()
    processor = DataProcessor(database, apps, clock, metrics=registry)
    return database, processor, task_id, registry


def store(database, task_id, bursts):
    body = Envelope(
        MessageType.SENSED_DATA,
        "phone-1",
        "server",
        {"task_id": task_id, "bursts": bursts},
    ).to_bytes()
    database.table("raw_data").insert(
        {"task_id": task_id, "received_at": 0.0, "body": body, "processed": False}
    )


def burst(sensor, values, t=1.0, dt=0.0):
    return {"sensor": sensor, "t": t, "dt": dt, "values": values}


class TestQuarantine:
    def test_nan_reading_is_quarantined_not_ingested(self, world):
        database, processor, task_id, registry = world
        store(database, task_id, [burst("temperature", [70.0, math.nan])])
        processor.process_pending()
        assert database.table("readings").count() == 0
        rows = database.table("quarantine").select()
        assert len(rows) == 1
        assert rows[0]["sensor"] == "temperature"
        assert rows[0]["reason"] == "not_finite"
        counter = registry.counter(
            "sor_server_quarantined_readings_total", labels=("sensor", "reason")
        )
        assert counter.value(sensor="temperature", reason="not_finite") == 1

    def test_infinity_is_quarantined(self, world):
        database, processor, task_id, _ = world
        store(database, task_id, [burst("microphone", [math.inf])])
        processor.process_pending()
        assert database.table("quarantine").count(eq("reason", "not_finite")) == 1

    def test_out_of_spec_temperature_is_quarantined(self, world):
        database, processor, task_id, _ = world
        store(database, task_id, [burst("temperature", [5000.0])])
        processor.process_pending()
        rows = database.table("quarantine").select()
        assert [row["reason"] for row in rows] == ["out_of_range"]
        assert rows[0]["payload"]["values"] == [5000.0]

    def test_impossible_gps_fix_is_quarantined(self, world):
        database, processor, task_id, _ = world
        store(database, task_id, [burst("gps", [[123.0, -76.0, 100.0]])])
        processor.process_pending()  # latitude 123° does not exist
        assert database.table("quarantine").count(eq("reason", "out_of_range")) == 1
        assert database.table("readings").count() == 0

    def test_bad_shape_is_quarantined(self, world):
        database, processor, task_id, _ = world
        store(database, task_id, [burst("temperature", [70.0, "warm"])])
        processor.process_pending()
        assert database.table("quarantine").count(eq("reason", "bad_shape")) == 1

    def test_good_bursts_in_same_upload_still_ingest(self, world):
        database, processor, task_id, _ = world
        store(
            database,
            task_id,
            [burst("temperature", [math.nan]), burst("temperature", [70.0])],
        )
        assert processor.process_pending() == 1
        assert database.table("readings").count() == 1
        assert database.table("quarantine").count() == 1
        assert processor.readings_quarantined == 1

    def test_in_range_values_are_untouched(self, world):
        database, processor, task_id, registry = world
        store(database, task_id, [burst("temperature", [68.5, 71.2])])
        processor.process_pending()
        assert database.table("readings").count() == 1
        assert database.table("quarantine").count() == 0
        counter = registry.counter(
            "sor_server_quarantined_readings_total", labels=("sensor", "reason")
        )
        assert list(counter.series()) == []
