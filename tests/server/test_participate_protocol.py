"""PARTICIPATE's path: picks under the application's lock, outside the
server-wide write lock, and restored when the request does not commit.

* a participate on one application completes while another
  application's picks are held inside ``CoverageObjective.add``;
* concurrent replays of one keyed participate serialize on their
  application's lock: one pick set, one task row, identical replies;
* every refusal leaves the objective bitwise unchanged and appends no
  WAL record;
* an application removed, or a period that ends, between validation
  and commit gets an ERROR reply and a restored objective;
* unknown application ids create no lock entries;
* under a short switch interval, six applications driven by six
  threads get the schedules and objective states a sequential server
  gives them;
* a WAL failure at commit leaves no picks behind (:class:`TestNoCommit`,
  also run by CI's fault smoke).
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.common.clock import ManualClock
from repro.common.geo import LatLon
from repro.core.features import FeaturePipeline, FeatureSpec, MeanExtractor
from repro.db import DurabilityConfig
from repro.db.wal import read_wal_file
from repro.net import Envelope, HttpRequest, MessageType, NetworkConditions
from repro.net.transport import Network
from repro.obs import MetricsRegistry, NullTracer
from repro.server.app_manager import Application
from repro.server.concurrency import ConcurrencyConfig
from repro.server.server import SensingServer

HOST = "protocol-server"
PLACE = LatLon(43.0, -76.0)
APPS = ("app-a", "app-b")
WAIT_S = 10.0


def make_server(
    *,
    durability: DurabilityConfig | None = None,
    users: int = 16,
    apps: tuple[str, ...] = APPS,
) -> SensingServer:
    """Applications with schedule_heavy's shape: 4,000 instants over
    3 h at σ = 60 s, a window of 144 (one recompute block per band)."""
    metrics = MetricsRegistry()
    network = Network(
        conditions=NetworkConditions(base_latency_s=0.0, jitter_s=0.0),
        metrics=metrics,
    )
    server = SensingServer(
        HOST,
        network,
        ManualClock(10.0),
        metrics=metrics,
        tracer=NullTracer(),
        concurrency=ConcurrencyConfig(workers=8, queue_capacity=64),
        durability=durability,
    )
    for app_id in apps:
        server.create_application(
            Application(
                app_id=app_id,
                creator="tests",
                place_id=f"place-{app_id}",
                place_name=f"Place {app_id}",
                category="test",
                location=PLACE,
                script="local data = {}\nreturn data",
                pipeline=FeaturePipeline(
                    [FeatureSpec("noise", "microphone", MeanExtractor())]
                ),
                period_start=0.0,
                period_end=10_800.0,
                num_instants=4000,
            )
        )
    for index in range(users):
        server.register_user(f"u-{index}", f"User {index}", f"t-{index}")
    return server


def participate(
    index: int, app_id: str = "app-a", *, keyed: bool = True, **overrides
) -> Envelope:
    payload = {
        "app_id": app_id,
        "user_id": f"u-{index}",
        "token": f"t-{index}",
        "budget": 10,
        "latitude": PLACE.latitude,
        "longitude": PLACE.longitude,
    }
    payload.update(overrides)
    envelope = Envelope(
        message_type=MessageType.PARTICIPATE,
        sender=f"phone-{index}",
        recipient=HOST,
        payload={key: value for key, value in payload.items() if value is not None},
    )
    return envelope.with_idempotency_key() if keyed else envelope


def send(server: SensingServer, envelope: Envelope) -> bytes:
    response = server.network.send(
        HttpRequest("POST", HOST, "/sor", envelope.to_bytes())
    )
    assert response.status == 200
    return response.body


def post(server: SensingServer, envelope: Envelope) -> Envelope:
    return Envelope.from_bytes(send(server, envelope))


def objective_of(server: SensingServer, app_id: str = "app-a"):
    return server.scheduler.state_for(server.apps.get(app_id)).objective


def state(objective) -> tuple:
    """Everything a pick changes, copied."""
    return (
        np.asarray(objective.survival).copy(),
        objective._log_survival.copy(),
        objective.current_gains.copy(),
        objective.chosen,
    )


def assert_same_state(first: tuple, second: tuple) -> None:
    for left, right in zip(first[:3], second[:3]):
        assert np.array_equal(left, right)  # bitwise, no tolerance
    assert first[3] == second[3]


def wal_records(directory) -> int:
    return sum(len(read_wal_file(path)[0]) for path in directory.glob("wal-*.log"))


def hold_first_add(objective) -> tuple[threading.Event, threading.Event]:
    """Make the objective's next add wait; returns (entered, release)."""
    entered, release = threading.Event(), threading.Event()
    original = objective.add

    def held(instant_index: int) -> float:
        if not entered.is_set():
            entered.set()
            assert release.wait(WAIT_S)
        return original(instant_index)

    objective.add = held
    return entered, release


def run_in_thread(target) -> tuple[threading.Thread, list]:
    results: list = []
    thread = threading.Thread(target=lambda: results.append(target()))
    thread.start()
    return thread, results


# ----------------------------------------------------------------------
# concurrency
# ----------------------------------------------------------------------
def test_other_application_completes_while_picks_are_held() -> None:
    server = make_server()
    try:
        entered, release = hold_first_add(objective_of(server, "app-a"))
        held, held_result = run_in_thread(lambda: post(server, participate(0)))
        try:
            assert entered.wait(WAIT_S)
            other, other_result = run_in_thread(
                lambda: post(server, participate(1, "app-b"))
            )
            other.join(WAIT_S)
            assert not other.is_alive()  # finished while app-a's add waits
            assert held.is_alive()
            assert other_result[0].message_type is MessageType.SCHEDULE
        finally:
            release.set()
        held.join(WAIT_S)
        assert held_result[0].message_type is MessageType.SCHEDULE
        assert len(held_result[0].payload["times"]) == 10
    finally:
        server.close()


def test_concurrent_keyed_replays_make_one_set_of_picks() -> None:
    server = make_server()
    try:
        objective = objective_of(server)
        entered, release = hold_first_add(objective)
        envelope = participate(0)  # one content key
        threads = [
            run_in_thread(lambda: send(server, envelope)) for _ in range(8)
        ]
        try:
            assert entered.wait(WAIT_S)
        finally:
            release.set()
        for thread, _ in threads:
            thread.join(WAIT_S)
        bodies = [result[0] for _, result in threads]
        assert len(set(bodies)) == 1  # byte-identical replies
        reply = Envelope.from_bytes(bodies[0])
        assert reply.message_type is MessageType.SCHEDULE
        assert server.database.table("tasks").count() == 1
        assert len(objective.chosen) == len(reply.payload["times"]) == 10
        counter = server.metrics.counter
        assert counter("sor_scheduler_tasks_total").value() == 1
        duplicates = counter("sor_server_duplicate_envelopes_total", labels=("type",))
        assert duplicates.value(type="participate") == 7
    finally:
        server.close()


def test_threads_per_application_match_a_sequential_server() -> None:
    """Six applications, one driver thread each, more threads than
    cores: every reply and every objective equals a sequential run."""
    apps = tuple(f"app-{index}" for index in range(6))
    rounds = 6

    def drive(server: SensingServer, app_index: int) -> list[bytes]:
        bodies = []
        for step in range(rounds):
            envelope = participate(app_index * rounds + step, apps[app_index])
            bodies.append(send(server, envelope))
            assert send(server, envelope) == bodies[-1]  # a pull replays it
        return bodies

    sequential = make_server(users=len(apps) * rounds, apps=apps)
    concurrent = make_server(users=len(apps) * rounds, apps=apps)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        expected = [drive(sequential, index) for index in range(len(apps))]
        threads = [
            run_in_thread(lambda index=index: drive(concurrent, index))
            for index in range(len(apps))
        ]
        for thread, _ in threads:
            thread.join(WAIT_S * 3)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
        sequential.close()
        concurrent.close()
    for index, (_, result) in enumerate(threads):
        # Task ids follow the cross-application commit order; the
        # schedules must not depend on it.
        got = [Envelope.from_bytes(body).payload for body in result[0]]
        want = [Envelope.from_bytes(body).payload for body in expected[index]]
        assert [reply["times"] for reply in got] == [
            reply["times"] for reply in want
        ]
        assert_same_state(
            state(objective_of(concurrent, apps[index])),
            state(objective_of(sequential, apps[index])),
        )
    assert concurrent.database.table("tasks").count() == len(apps) * rounds


# ----------------------------------------------------------------------
# refusals and restores
# ----------------------------------------------------------------------
REFUSALS = {
    "malformed": (dict(budget=None), "malformed participation request"),
    "nan_departure": (
        dict(departure_time=float("nan")),
        "malformed participation request",
    ),
    "past_departure": (dict(departure_time=5.0), "departure before now"),
    "bad_token": (dict(token="t-wrong"), "unknown or mismatched user 'u-2'"),
    "wrong_location": (
        dict(latitude=44.0),
        "user 'u-2' is not at 'Place app-a'; participation rejected",
    ),
    "unknown_app": (dict(app_id="app-gone"), "unknown application 'app-gone'"),
    "zero_budget": (dict(budget=0), "sensing budget must be positive"),
    "negative_budget": (dict(budget=-3), "sensing budget must be positive"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal_leaves_objective_and_wal_untouched(tmp_path, case) -> None:
    server = make_server(durability=DurabilityConfig(directory=tmp_path, fsync=False))
    try:
        assert post(server, participate(1)).message_type is MessageType.SCHEDULE
        objective = objective_of(server)
        before = state(objective)
        records = wal_records(tmp_path)
        overrides, reason = REFUSALS[case]
        reply = post(server, participate(2, keyed=False, **overrides))
        assert reply.message_type is MessageType.ERROR
        assert reply.payload["reason"] == reason
        assert_same_state(state(objective), before)
        assert wal_records(tmp_path) == records
        assert server.database.table("tasks").count() == 1
    finally:
        server.close()
        server.database.durability.close()


def assert_refused_at_commit(disturb, reason: str) -> None:
    """``disturb(server)`` runs inside the picks of a participate that
    validation accepted: the commit refuses it with ``reason``, stores
    that reply and leaves the objective as it was."""
    server = make_server()
    try:
        assert post(server, participate(1)).message_type is MessageType.SCHEDULE
        objective = objective_of(server)
        before = state(objective)
        original = objective.add

        def disturb_then_add(instant_index: int) -> float:
            disturb(server)
            return original(instant_index)

        objective.add = disturb_then_add
        envelope = participate(2)
        reply = post(server, envelope)
        assert reply.message_type is MessageType.ERROR
        assert reply.payload["reason"] == reason
        objective.add = original
        assert_same_state(state(objective), before)
        assert server.database.table("tasks").count() == 1
        assert post(server, envelope).payload == reply.payload  # stored
    finally:
        server.close()


def test_application_removed_before_commit_is_refused_and_restored() -> None:
    # Rebalancing removes applications without the server's lock.
    assert_refused_at_commit(
        lambda server: server.apps.remove("app-a"), "unknown application 'app-a'"
    )


def test_period_ending_before_commit_is_refused_and_restored() -> None:
    assert_refused_at_commit(
        lambda server: server.clock.set(10_801.0),  # past period_end
        "participation outside the application's scheduling period",
    )


def test_unknown_application_ids_create_no_lock_entries() -> None:
    server = make_server()
    try:
        assert post(server, participate(1)).message_type is MessageType.SCHEDULE
        for envelope in (
            participate(2, "ghost-1"),
            participate(2, "ghost-2", keyed=False),
            participate(2, "ghost-3", budget=None),
        ):
            assert post(server, envelope).message_type is MessageType.ERROR
        assert set(server.scheduler._states) == {"app-a"}
    finally:
        server.close()


class TestNoCommit:
    """A participate whose transaction does not commit leaves no picks."""

    def test_wal_failure_restores_the_objective(self, tmp_path) -> None:
        failing = make_server(
            durability=DurabilityConfig(directory=tmp_path / "failing", fsync=False)
        )
        twin = make_server(
            durability=DurabilityConfig(directory=tmp_path / "twin", fsync=False)
        )
        try:
            for server in (failing, twin):
                assert post(server, participate(1)).message_type is MessageType.SCHEDULE
            objective = objective_of(failing)
            before = state(objective)

            def disk_full() -> None:
                raise OSError("no space left on device")

            failing.database.durability.arm("commit.pre_append", disk_full)
            with pytest.raises(OSError):
                send(failing, participate(2))
            assert failing.database.table("tasks").count() == 1
            assert_same_state(state(objective), before)
            # The next participant is scheduled as if the failed one
            # had never arrived.
            after_failure = post(failing, participate(3))
            never_failed = post(twin, participate(3))
            assert after_failure.payload["times"] == never_failed.payload["times"]
            assert_same_state(state(objective), state(objective_of(twin)))
        finally:
            for server in (failing, twin):
                server.close()
                server.database.durability.close()
