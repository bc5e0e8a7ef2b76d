"""Each request writes each row it changes once, and a read writes
nothing: the WAL frames one request appends on a durable server.

* a keyed PARTICIPATE appends begin, one ``tasks`` insert (already
  ``running``, with the reply's times), one ``idempotency`` insert and
  commit;
* a keyed upload that reports ``status`` and ``executed`` updates its
  task row once, and the record carries only the cells it set;
* a keyed RANK_QUERY appends nothing, stores no reply, and a repeat is
  not counted as a duplicate.
"""

from __future__ import annotations

import pytest

from repro.db import DurabilityConfig
from repro.db.wal import read_wal_file
from repro.net import Envelope, HttpRequest, MessageType
from repro.server.ranker_service import bump_data_version
from tests.server.test_server_endpoint import PLACE, make_server


@pytest.fixture
def server(tmp_path):
    server, *_ = make_server(
        durability=DurabilityConfig(directory=tmp_path, fsync=False)
    )
    yield server
    server.database.durability.close()


def wal(server) -> list[dict]:
    """Every record in the server's WAL segments, oldest first."""
    segments = sorted(server.database.durability.directory.glob("wal-*.log"))
    return [record for path in segments for record, *_ in read_wal_file(path)[0]]


def appended_by(server, envelope: Envelope) -> tuple[Envelope, list[dict]]:
    """The reply to ``envelope`` and the WAL records it appended."""
    before = len(wal(server))
    response = server.network.send(
        HttpRequest("POST", "server", "/sor", envelope.to_bytes())
    )
    assert response.status == 200
    return Envelope.from_bytes(response.body), wal(server)[before:]


def participate() -> Envelope:
    return Envelope(
        MessageType.PARTICIPATE,
        sender="phone-1",
        recipient="server",
        payload={
            "user_id": "alice",
            "token": "tok-a",
            "app_id": "app-1",
            "latitude": PLACE.latitude,
            "longitude": PLACE.longitude,
            "budget": 5,
        },
    ).with_idempotency_key()


def shape(records: list[dict]) -> list[tuple[str, str | None]]:
    return [(record["op"], record.get("table")) for record in records]


def test_keyed_participate_inserts_its_task_once_already_running(server) -> None:
    reply, records = appended_by(server, participate())
    assert reply.message_type is MessageType.SCHEDULE
    assert shape(records) == [
        ("begin", None),
        ("insert", "tasks"),
        ("insert", "idempotency"),
        ("commit", None),
    ]
    task = records[1]["row"]
    assert task["task_id"] == reply.payload["task_id"]
    assert task["status"] == "running"
    assert task["schedule_times"] == reply.payload["times"]
    assert len(reply.payload["times"]) == 5


def test_keyed_upload_updates_its_task_once(server) -> None:
    scheduled, _ = appended_by(server, participate())
    upload = Envelope(
        MessageType.SENSED_DATA,
        sender="phone-1",
        recipient="server",
        payload={
            "task_id": scheduled.payload["task_id"],
            "token": "tok-a",
            "status": "finished",
            "executed": 3,
            "bursts": [],
        },
    ).with_idempotency_key()
    reply, records = appended_by(server, upload)
    assert reply.message_type is MessageType.ACK
    assert shape(records) == [
        ("begin", None),
        ("insert", "raw_data"),
        ("update", "tasks"),
        ("insert", "idempotency"),
        ("commit", None),
    ]
    update = records[2]
    assert update["pk"] == scheduled.payload["task_id"]
    # The cells the upload set, not the task's schedule, token or ids.
    assert update["row"] == {"status": "finished", "error": "", "budget": 2}
    stored = server.database.table("tasks").get(update["pk"])
    assert stored["schedule_times"] == scheduled.payload["times"]


def test_keyed_rank_query_writes_nothing(server) -> None:
    features = server.database.table("feature_data")
    for place_id, value in (("place-1", 70.0), ("place-2", 74.0)):
        features.insert(
            {
                "place_id": place_id,
                "category": "coffee_shop",
                "feature": "temperature",
                "value": value,
                "computed_at": 0.0,
            }
        )
    bump_data_version(server.database, "coffee_shop")
    query = Envelope(
        MessageType.RANK_QUERY,
        sender="client-1",
        recipient="server",
        payload={
            "category": "coffee_shop",
            "profiles": [
                {
                    "name": "warm",
                    "preferences": {
                        "temperature": {"preferred": "max", "weight": 1}
                    },
                }
            ],
        },
    ).with_idempotency_key()
    duplicates = server.metrics.counter(
        "sor_server_duplicate_envelopes_total", labels=("type",)
    )
    replayed = duplicates.value(type="rank_query")
    first, records = appended_by(server, query)
    assert first.message_type is MessageType.RANKING
    assert records == []
    again, records = appended_by(server, query)
    assert records == []
    assert again.payload == first.payload
    assert server.database.table("idempotency").count() == 0
    assert duplicates.value(type="rank_query") == replayed
