"""Server-side idempotent delivery: replayed envelopes must not re-apply."""

import numpy as np
import pytest

from repro.common.clock import ManualClock
from repro.common.geo import LatLon
from repro.core.features import FeaturePipeline, FeatureSpec, MeanExtractor
from repro.db import DurabilityConfig, eq
from repro.net import Envelope, HttpRequest, MessageType
from repro.net.transport import Network
from repro.obs import MetricsRegistry
from repro.server import SensingServer
from repro.server.app_manager import Application
from tests.db.test_table import CountingRows

PLACE = LatLon(43.05, -76.15)


def boot(**server_kwargs):
    """A server named "server" on a network of its own."""
    network = Network(rng=np.random.default_rng(0))
    registry = MetricsRegistry()
    server = SensingServer(
        "server", network, ManualClock(start=10.0), metrics=registry,
        **server_kwargs,
    )
    return server, network, registry


def make_server(**server_kwargs):
    server, network, registry = boot(**server_kwargs)
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
    return server, network, registry


def post(network, envelope):
    response = network.send(
        HttpRequest("POST", "server", "/sor", envelope.to_bytes())
    )
    assert response.ok
    return Envelope.from_bytes(response.body)


def participate_envelope(key=None):
    envelope = Envelope(
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
        },
    )
    return envelope.with_idempotency_key(key)


def pong_envelope(key):
    return Envelope(
        MessageType.PONG,
        sender="phone-1",
        recipient="server",
        payload={"token": "tok-a"},
    ).with_idempotency_key(key)


def upload_envelope(task_id):
    return Envelope(
        MessageType.SENSED_DATA,
        sender="phone-1",
        recipient="server",
        payload={
            "task_id": task_id,
            "token": "tok-a",
            "status": "finished",
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
    ).with_idempotency_key()


class TestParticipateReplay:
    def test_replayed_participate_creates_one_task(self):
        server, network, registry = make_server()
        envelope = participate_envelope("scan-1")
        first = post(network, envelope)
        second = post(network, envelope)  # e.g. the first ACK leg was lost
        assert first.message_type is MessageType.SCHEDULE
        assert second.payload == first.payload  # same schedule replayed
        assert server.database.table("tasks").count() == 1
        duplicates = registry.counter(
            "sor_server_duplicate_envelopes_total", labels=("type",)
        )
        assert duplicates.value(type="participate") == 1

    def test_distinct_scan_nonces_create_distinct_tasks(self):
        """A deliberate re-scan uses a fresh nonce and must NOT dedupe,
        even though the payload content is identical."""
        server, network, _ = make_server()
        first = post(network, participate_envelope("scan-1"))
        second = post(network, participate_envelope("scan-2"))
        assert first.payload["task_id"] != second.payload["task_id"]
        assert server.database.table("tasks").count() == 2


class TestUploadReplay:
    def test_replayed_upload_ingests_one_row_and_acks_both(self):
        server, network, _ = make_server()
        task_id = post(network, participate_envelope("scan-1")).payload["task_id"]
        envelope = upload_envelope(task_id)
        first = post(network, envelope)
        second = post(network, envelope)
        assert first.message_type is MessageType.ACK
        assert second.message_type is MessageType.ACK  # phone still gets its ack
        assert server.database.table("raw_data").count() == 1

    def test_unstamped_envelopes_are_not_deduped(self):
        server, network, registry = make_server()
        task_id = post(network, participate_envelope("scan-1")).payload["task_id"]
        plain = Envelope(
            MessageType.SENSED_DATA,
            sender="phone-1",
            recipient="server",
            payload=upload_envelope(task_id).payload,
        )
        post(network, plain)
        post(network, plain)
        # No key → the server cannot tell a replay from a new upload.
        assert server.database.table("raw_data").count() == 2
        duplicates = registry.counter(
            "sor_server_duplicate_envelopes_total", labels=("type",)
        )
        assert duplicates.value(type="sensed_data") == 0


def stored_keys(server):
    return [row["key"] for row in server.database.table("idempotency").select()]


class TestTrim:
    """The idempotency table keeps the newest ``dedupe_capacity`` replies
    and trims the oldest inserted first."""

    def test_a_keyed_write_reads_only_the_rows_it_evicts(self):
        server, network, _ = make_server()  # the default capacity, 4,096
        table = server.database.table("idempotency")
        for index in range(4096 - len(table)):
            table.insert(
                {"key": f"old-{index}", "status": 200, "created_at": 0.0}
            )
        oldest = stored_keys(server)[:2]
        table._rows = CountingRows(table._rows)
        post(network, pong_envelope("new-1"))  # at capacity: evicts one
        assert table._rows.visited == 1
        assert len(table) == 4096
        assert table.get(oldest[0]) is None and table.get(oldest[1]) is not None
        table.delete(eq("key", oldest[1]))
        table._rows.visited = 0
        post(network, pong_envelope("new-2"))  # below capacity: no trim
        assert table._rows.visited == 0
        assert len(table) == 4096

    @pytest.mark.parametrize("checkpoint", [False, True], ids=["wal", "checkpoint"])
    def test_recovery_keeps_the_newest_keys_oldest_first(self, tmp_path, checkpoint):
        config = DurabilityConfig(directory=tmp_path, fsync=False)
        server, network, _ = make_server(durability=config, dedupe_capacity=4)
        for index in range(7):
            if checkpoint and index == 5:
                server.database.durability.checkpoint()
            post(network, pong_envelope(f"k{index}"))
        newest = ["k3", "k4", "k5", "k6"]
        assert stored_keys(server) == newest
        server.database.durability.close()  # a hard stop
        recovered, network, _ = boot(durability=config, dedupe_capacity=4)
        assert (recovered.recovery.checkpoint_seq > 0) is checkpoint
        assert stored_keys(recovered) == newest
        post(network, pong_envelope("k7"))
        assert stored_keys(recovered) == ["k4", "k5", "k6", "k7"]

    def test_a_retry_of_an_evicted_key_runs_its_handler_again(self):
        server, network, registry = make_server(dedupe_capacity=2)
        envelope = participate_envelope("scan-1")
        first = post(network, envelope)
        post(network, pong_envelope("k1"))
        post(network, pong_envelope("k2"))  # evicts scan-1
        assert "scan-1" not in stored_keys(server)
        again = post(network, envelope)
        assert again.message_type is MessageType.SCHEDULE
        assert again.payload["task_id"] != first.payload["task_id"]
        assert server.database.table("tasks").count() == 2
        duplicates = registry.counter(
            "sor_server_duplicate_envelopes_total", labels=("type",)
        )
        assert duplicates.value(type="participate") == 0
