"""Tests for the MobilePhone frontend against a live (test) server."""

import numpy as np
import pytest

from repro.barcode import PlacePayload, encode_place_barcode
from repro.common.clock import ManualClock
from repro.common.geo import LatLon, offset_latlon
from repro.core.features import FeaturePipeline, FeatureSpec, MeanExtractor
from repro.net import CloudMessenger, NetworkConditions
from repro.net.transport import Network
from repro.phone import MobilePhone
from repro.phone.task import TaskStatus
from repro.sensors import ScalarProvider, SensorKind, SensorSpec
from repro.server import SensingServer
from repro.server.app_manager import Application

PLACE = LatLon(43.05, -76.15)


@pytest.fixture
def world():
    clock = ManualClock(start=100.0)
    network = Network(
        conditions=NetworkConditions(drop_probability=0.0),
        rng=np.random.default_rng(0),
    )
    gcm = CloudMessenger()
    server = SensingServer("server", network, clock, gcm=gcm)
    server.register_user("alice", "Alice", "tok-a")
    server.create_application(
        Application(
            app_id="app-1",
            creator="owner",
            place_id="place-1",
            place_name="Place One",
            category="coffee_shop",
            location=PLACE,
            script="return get_temperature_readings(3, 1.0)",
            pipeline=FeaturePipeline(
                [FeatureSpec("temperature", "temperature", MeanExtractor())]
            ),
            period_start=0.0,
            period_end=10_800.0,
        )
    )
    phone = MobilePhone(
        user_id="alice", token="tok-a", network=network, clock=clock, gcm=gcm
    )
    phone.set_location_source(lambda t: PLACE)
    spec = SensorSpec("temperature", SensorKind.EXTERNAL, "F", freshness_s=0.0)
    phone.add_provider(
        ScalarProvider(spec, clock, np.random.default_rng(1), lambda t: 70.0)
    )
    barcode = encode_place_barcode(
        PlacePayload(
            place_id="place-1",
            name="Place One",
            category="coffee_shop",
            latitude=PLACE.latitude,
            longitude=PLACE.longitude,
            app_id="app-1",
            server_host="server",
        )
    )
    return clock, network, gcm, server, phone, barcode


class TestScan:
    def test_scan_creates_task_with_schedule(self, world):
        clock, _, _, _, phone, barcode = world
        task = phone.scan_barcode(barcode, budget=5)
        assert task is not None
        assert len(task.sensing_times) == 5
        assert all(t >= clock.now() for t in task.sensing_times)

    def test_rescan_returns_new_task(self, world):
        *_, phone, barcode = world
        first = phone.scan_barcode(barcode, budget=3)
        second = phone.scan_barcode(barcode, budget=3)
        assert first is not None and second is not None
        assert first.task_id != second.task_id

    def test_scan_far_away_rejected(self, world):
        *_, phone, barcode = world
        far = offset_latlon(PLACE, east_m=50_000.0, north_m=0.0)
        phone.set_location_source(lambda t: far)
        assert phone.scan_barcode(barcode, budget=3) is None

    def test_departure_time_limits_schedule(self, world):
        clock, *_, phone, barcode = world
        task = phone.scan_barcode(barcode, budget=50, departure_time=2_000.0)
        assert task is not None
        assert all(t <= 2_000.0 for t in task.sensing_times)


class TestSensingAndUpload:
    def run_to_completion(self, clock, phone, task):
        for sense_time in list(task.sensing_times):
            if sense_time > clock.now():
                clock.set(sense_time)
            phone.tick()
        clock.advance(1.0)
        phone.tick()

    def test_full_task_lifecycle(self, world):
        clock, _, _, server, phone, barcode = world
        task = phone.scan_barcode(barcode, budget=4)
        self.run_to_completion(clock, phone, task)
        assert task.status is TaskStatus.FINISHED
        assert len(task.bursts) == 4
        assert server.database.table("raw_data").count() == 1
        server.process_data()
        features = server.compute_all_features()
        assert features["place-1"]["temperature"] == pytest.approx(70.0, abs=1.0)

    def test_upload_happens_once(self, world):
        clock, network, _, server, phone, barcode = world
        task = phone.scan_barcode(barcode, budget=2)
        self.run_to_completion(clock, phone, task)
        phone.tick()
        phone.tick()
        assert server.database.table("raw_data").count() == 1

    def test_battery_drains_from_sensing_and_radio(self, world):
        clock, *_, phone, barcode = world
        task = phone.scan_barcode(barcode, budget=3)
        self.run_to_completion(clock, phone, task)
        drained = phone.battery.drained_by
        assert drained.get("sense:temperature", 0) > 0
        assert drained.get("radio:upload", 0) > 0

    def test_denied_sensor_fails_task_and_reports_error(self, world):
        clock, _, _, server, phone, barcode = world
        phone.preferences.deny("temperature")
        task = phone.scan_barcode(barcode, budget=2)
        self.run_to_completion(clock, phone, task)
        assert task.status is TaskStatus.ERROR
        assert "preferences" in task.error
        stored = server.participation.get_task(task.task_id)
        assert stored["status"] == "error"

    def test_dead_phone_stops_ticking(self, world):
        clock, *_, phone, barcode = world
        task = phone.scan_barcode(barcode, budget=2)
        phone.battery.drain(phone.battery.capacity_mj, reason="test")
        clock.set(task.sensing_times[0])
        assert phone.tick() == 0


class TestServerInitiated:
    def test_location_query_answered(self, world):
        _, _, _, server, phone, _ = world
        server._phone_hosts["tok-a"] = phone.host
        location = server.query_phone_location("tok-a")
        assert location is not None
        assert location.latitude == pytest.approx(PLACE.latitude)

    def test_http_ping_answered(self, world):
        _, _, _, server, phone, _ = world
        server._phone_hosts["tok-a"] = phone.host
        assert server.ping_phone("tok-a")

    def test_gcm_recovery_when_host_lost(self, world):
        """The paper's lost-phone path: stale HTTP host → GCM push →
        phone PONGs → server re-learns the host."""
        _, network, _, server, phone, _ = world
        server._phone_hosts["tok-a"] = "phone-old-address"  # stale
        assert server.ping_phone("tok-a")  # HTTP fails, GCM succeeds
        assert server._phone_hosts["tok-a"] == phone.host

    def test_server_pushes_schedule_to_phone(self, world):
        """The scheduler's distribution path: a phone that never got the
        PARTICIPATE reply still receives its schedule via server push."""
        clock, _, _, server, phone, _ = world
        server._phone_hosts["tok-a"] = phone.host
        # Server schedules and creates a task without the phone knowing.
        application = server.apps.get("app-1")
        schedule = server.scheduler.schedule_task(application, budget=3)
        task_id = server.participation.create_task(
            app_id="app-1", user_id="alice", token="tok-a",
            phone_host=phone.host, budget=3, times=schedule.times,
        )
        assert phone.task_manager.get(task_id) is None
        assert server.push_schedule(task_id)
        task = phone.task_manager.get(task_id)
        assert task is not None
        assert len(task.sensing_times) == 3
        # Pushing again is idempotent.
        assert server.push_schedule(task_id)
        assert len(phone.task_manager.all_tasks()) == 1

    def test_push_schedule_unknown_task(self, world):
        *_, server, _, _ = world
        assert not server.push_schedule("ghost-task")

    def test_preferences_pushed_to_server(self, world):
        _, _, _, server, phone, _ = world
        phone.preferences.deny("gps")
        assert phone.send_preferences("server")
        assert server.users.denied_sensors("alice") == ["gps"]


class TestMultiTaskSharing:
    def test_two_tasks_share_provider_buffer(self, world):
        """The paper's energy story: a provider's buffer serves multiple
        tasks, so concurrent acquisitions can reuse fresh readings."""
        clock, *_, phone, barcode = world
        # Make the provider's readings reusable for 60 s.
        provider = phone.provider_register.provider("temperature")
        object.__setattr__(provider.spec, "freshness_s", 60.0)
        first = phone.scan_barcode(barcode, budget=2)
        second = phone.scan_barcode(barcode, budget=2)
        assert first is not None and second is not None
        merged = sorted(set(first.sensing_times) | set(second.sensing_times))
        for sense_time in merged:
            if sense_time > clock.now():
                clock.set(sense_time)
            phone.tick()
        clock.advance(1.0)
        phone.tick()
        # Both tasks completed and the provider reused buffered readings
        # whenever two acquisitions landed within the freshness window.
        assert first.is_done and second.is_done
        assert provider.samples_taken > 0
