"""Tests for the SensingServer HTTP endpoint and visualization."""

import dataclasses

import numpy as np
import pytest

from repro.common.clock import ManualClock
from repro.common.errors import ConfigurationError
from repro.common.geo import LatLon
from repro.core.features import FeaturePipeline, FeatureSpec, MeanExtractor
from repro.db import DurabilityConfig
from repro.db.wal import read_wal_file
from repro.net import (
    CloudMessenger,
    Envelope,
    HttpRequest,
    MessageType,
    NetworkConditions,
)
from repro.net.transport import Network
from repro.server import SensingServer
from repro.server.app_manager import Application
from repro.server.visualization import bar_chart, feature_table, to_csv

PLACE = LatLon(43.05, -76.15)


def make_server(clock=None, drop=0.0, durability=None):
    clock = clock or ManualClock(start=10.0)
    network = Network(
        conditions=NetworkConditions(drop_probability=drop),
        rng=np.random.default_rng(0),
    )
    gcm = CloudMessenger()
    server = SensingServer(
        "server", network, clock, gcm=gcm, durability=durability
    )
    server.register_user("alice", "Alice", "tok-a")
    server.create_application(
        Application(
            app_id="app-1",
            creator="owner",
            place_id="place-1",
            place_name="Place One",
            category="coffee_shop",
            location=PLACE,
            script="return get_temperature_readings(2, 1.0)",
            pipeline=FeaturePipeline(
                [FeatureSpec("temperature", "temperature", MeanExtractor())]
            ),
            period_start=0.0,
            period_end=10_800.0,
        )
    )
    return server, network, clock, gcm


def post(network, envelope):
    response = network.send(
        HttpRequest("POST", "server", "/sor", envelope.to_bytes())
    )
    assert response.ok
    return Envelope.from_bytes(response.body)


def participate(network, *, budget=5, token="tok-a", user_id="alice"):
    return post(
        network,
        Envelope(
            MessageType.PARTICIPATE,
            sender="phone-1",
            recipient="server",
            payload={
                "user_id": user_id,
                "token": token,
                "app_id": "app-1",
                "place_id": "place-1",
                "latitude": PLACE.latitude,
                "longitude": PLACE.longitude,
                "budget": budget,
            },
        ),
    )


class TestParticipateEndpoint:
    def test_returns_schedule_with_script(self):
        _, network, *_ = make_server()
        reply = participate(network)
        assert reply.message_type is MessageType.SCHEDULE
        assert len(reply.payload["times"]) == 5
        assert "get_temperature_readings" in reply.payload["script"]
        # Task ids carry the server's host: the shard router routes
        # uploads by it.
        assert reply.payload["task_id"].startswith("server:task-")

    def test_rejects_bad_token(self):
        _, network, *_ = make_server()
        reply = participate(network, token="stolen")
        assert reply.message_type is MessageType.ERROR

    def test_rejects_malformed(self):
        _, network, *_ = make_server()
        reply = post(
            network,
            Envelope(MessageType.PARTICIPATE, "phone-1", "server", {"nope": 1}),
        )
        assert reply.message_type is MessageType.ERROR

    def test_non_finite_sigma_is_refused_before_any_participate(self):
        """An infinite σ would overflow the first PARTICIPATE's kernel."""
        server, *_ = make_server()
        with pytest.raises(ConfigurationError, match="coverage_sigma_s"):
            server.create_application(
                dataclasses.replace(
                    server.apps.get("app-1"),
                    app_id="app-2",
                    coverage_sigma_s=float("inf"),
                )
            )
        assert server.apps.get("app-2") is None

    def test_garbage_body_is_400(self):
        _, network, *_ = make_server()
        response = network.send(HttpRequest("POST", "server", "/sor", b"junk"))
        assert response.status == 400

    def test_unhandled_type_is_404(self):
        _, network, *_ = make_server()
        envelope = Envelope(MessageType.ACK, "phone-1", "server", {})
        response = network.send(
            HttpRequest("POST", "server", "/sor", envelope.to_bytes())
        )
        assert response.status == 404


def participate_leaving_at(departure_time):
    return Envelope(
        MessageType.PARTICIPATE,
        sender="phone-1",
        recipient="server",
        payload={
            "user_id": "alice",
            "token": "tok-a",
            "app_id": "app-1",
            "place_id": "place-1",
            "latitude": PLACE.latitude,
            "longitude": PLACE.longitude,
            "budget": 5,
            "departure_time": departure_time,
        },
    )


def wal_records(directory):
    return sum(
        len(read_wal_file(path)[0]) for path in directory.glob("wal-*.log")
    )


class TestParticipateDepartureTime:
    """A bad ``departure_time`` is refused at the boundary as an ERROR."""

    @pytest.mark.parametrize(
        ("departure_time", "reason"),
        [
            (float("nan"), "malformed participation request"),
            ("soon", "malformed participation request"),
            ([1.0], "malformed participation request"),
            (5.0, "departure before now"),
        ],
        ids=["nan", "string", "list", "past"],
    )
    def test_refused_with_no_task_row_and_no_wal_record(
        self, tmp_path, departure_time, reason
    ):
        server, network, *_ = make_server(
            durability=DurabilityConfig(directory=tmp_path, fsync=False)
        )
        records = wal_records(tmp_path)
        reply = post(network, participate_leaving_at(departure_time))
        assert reply.message_type is MessageType.ERROR
        assert reply.payload["reason"] == reason
        assert server.database.table("tasks").count() == 0
        assert wal_records(tmp_path) == records
        server.database.durability.close()

    def test_retried_refusal_replays_the_same_error(self):
        server, network, *_ = make_server()
        envelope = participate_leaving_at(5.0).with_idempotency_key("scan-1")
        first = post(network, envelope)
        second = post(network, envelope)
        assert first.message_type is MessageType.ERROR
        assert second.payload == first.payload
        assert server.database.table("tasks").count() == 0

    @pytest.mark.parametrize("departure_time", [None, float("inf"), 600.0])
    def test_absent_infinite_and_future_departures_schedule(
        self, departure_time
    ):
        _, network, *_ = make_server()
        reply = post(network, participate_leaving_at(departure_time))
        assert reply.message_type is MessageType.SCHEDULE
        assert reply.payload["times"]
        assert all(10.0 <= t <= 10_800.0 for t in reply.payload["times"])
        if departure_time == 600.0:
            assert all(t <= 600.0 for t in reply.payload["times"])


class TestDurableBoot:
    def test_a_server_adopts_every_application_it_recovers(self, tmp_path):
        """A database belongs to one server, whatever host name boots it."""
        config = DurabilityConfig(directory=tmp_path, fsync=False)
        server, network, clock, _ = make_server(durability=config)
        server.close()
        server.database.durability.close()
        rebooted = SensingServer("host-c", network, clock, durability=config)
        try:
            assert [app.app_id for app in rebooted.apps.all_apps()] == ["app-1"]
        finally:
            rebooted.database.durability.close()


class TestSensedDataEndpoint:
    def upload(self, network, task_id, *, status="finished", token="tok-a"):
        return post(
            network,
            Envelope(
                MessageType.SENSED_DATA,
                sender="phone-1",
                recipient="server",
                payload={
                    "task_id": task_id,
                    "token": token,
                    "status": status,
                    "error": "",
                    "bursts": [
                        {
                            "sensor": "temperature",
                            "t": 100.0,
                            "dt": 1.0,
                            "values": [70.0, 72.0],
                        }
                    ],
                },
            ),
        )

    def test_upload_stores_blob_and_acks(self):
        server, network, *_ = make_server()
        task_id = participate(network).payload["task_id"]
        reply = self.upload(network, task_id)
        assert reply.message_type is MessageType.ACK
        assert server.database.table("raw_data").count() == 1

    def test_processing_decodes_and_computes_features(self):
        server, network, *_ = make_server()
        task_id = participate(network).payload["task_id"]
        self.upload(network, task_id)
        assert server.process_data() == 1
        features = server.compute_all_features()
        assert features["place-1"]["temperature"] == pytest.approx(71.0)
        rows = server.database.table("feature_data").select()
        assert len(rows) == 1

    def test_recompute_updates_not_duplicates(self):
        server, network, *_ = make_server()
        task_id = participate(network).payload["task_id"]
        self.upload(network, task_id)
        server.process_data()
        server.compute_all_features()
        server.compute_all_features()
        assert server.database.table("feature_data").count() == 1

    def test_unknown_task_rejected(self):
        server, network, *_ = make_server()
        reply = self.upload(network, "task-999")
        assert reply.message_type is MessageType.ERROR

    def test_error_status_recorded(self):
        server, network, *_ = make_server()
        task_id = participate(network).payload["task_id"]
        self.upload(network, task_id, status="error")
        task = server.participation.get_task(task_id)
        assert task["status"] == "error"


class TestOtherEndpoints:
    def test_preferences(self):
        server, network, *_ = make_server()
        reply = post(
            network,
            Envelope(
                MessageType.PREFERENCES,
                "phone-1",
                "server",
                {"token": "tok-a", "denied": ["gps"]},
            ),
        )
        assert reply.message_type is MessageType.ACK
        assert server.users.denied_sensors("alice") == ["gps"]

    def test_pong_updates_host(self):
        server, network, *_ = make_server()
        post(
            network,
            Envelope(
                MessageType.PONG, "phone-9", "server",
                {"token": "tok-a", "host": "phone-9"},
            ),
        )
        assert server._phone_hosts["tok-a"] == "phone-9"

    def test_gcm_fallback_ping(self):
        server, network, clock, gcm = make_server()
        woken = []
        gcm.register_device("tok-a", woken.append)
        # Server has no HTTP host for the phone yet → must use GCM.
        assert server.ping_phone("tok-a")
        assert woken and woken[0]["action"] == "ping"

    def test_ping_unknown_phone_fails(self):
        server, *_ = make_server()
        assert not server.ping_phone("ghost-token")


class TestVisualization:
    DATA = {
        "Tim Hortons": {"temperature": 66.0, "noise": 58.0},
        "Starbucks": {"temperature": 75.0, "noise": 72.0},
    }

    def test_bar_chart(self):
        chart = bar_chart("Temperature", {"a": 1.0, "b": 2.0}, unit="F")
        assert "Temperature" in chart
        assert chart.count("\n") >= 3
        assert "2.000 F" in chart

    def test_bar_chart_empty_rejected(self):
        from repro.common.errors import ValidationError

        with pytest.raises(ValidationError):
            bar_chart("x", {})

    def test_feature_table_aligned(self):
        table = feature_table(self.DATA, ["temperature", "noise"])
        lines = table.splitlines()
        assert "temperature" in lines[0]
        assert any("Tim Hortons" in line for line in lines)

    def test_csv_export(self):
        csv = to_csv(self.DATA, ["temperature", "noise"])
        lines = csv.strip().splitlines()
        assert lines[0] == "place,temperature,noise"
        assert len(lines) == 3
        assert "66.0" in lines[1]
