"""The concurrent request path: locks, admission gate, backpressure,
correctness.

The properties CI's load-smoke job depends on:

* no lost updates — N driver threads' writes all land, and the database
  counts match the acknowledgements the drivers received;
* task ids stay unique (and the underlying counter monotonic) under
  concurrent participation;
* concurrent replays of one idempotent envelope run the handler exactly
  once and every caller gets the identical stored reply;
* a full admission gate answers HTTP 503 with a typed BUSY envelope,
  and the resilient client turns that into backoff-and-retry;
* each admitted request runs on its caller's thread, so the server
  starts no thread and its spans nest under the caller's;
* a WAL written under concurrent load recovers cleanly;
* rank queries (shared lock) run concurrently with writers (exclusive
  lock) without torn reads or errors.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.common.clock import ManualClock
from repro.common.errors import ServerBusyError, TransportError, ValidationError
from repro.common.geo import LatLon
from repro.core.features import FeaturePipeline, FeatureSpec, MeanExtractor
from repro.db import DurabilityConfig
from repro.db.wal import open_durable_database
from repro.net import Envelope, HttpRequest, MessageType, NetworkConditions
from repro.net.resilience import BreakerPolicy, ResilientClient, RetryPolicy
from repro.net.transport import Network
from repro.obs import MetricsRegistry, NullTracer, Tracer
from repro.server.app_manager import Application
from repro.server.concurrency import (
    ConcurrencyConfig,
    ReadWriteLock,
    RequestExecutor,
)
from repro.server.server import SensingServer

HOST = "conc-server"
PLACE = LatLon(43.0, -76.0)


def make_server(
    *,
    concurrency: ConcurrencyConfig | None = None,
    io_delay_s: float = 0.0,
    users: int = 64,
    durability: DurabilityConfig | None = None,
    tracer: Tracer | None = None,
) -> SensingServer:
    metrics = MetricsRegistry()
    network = Network(
        conditions=NetworkConditions(base_latency_s=0.0, jitter_s=0.0),
        metrics=metrics,
    )
    server = SensingServer(
        HOST,
        network,
        ManualClock(0.0),
        metrics=metrics,
        tracer=tracer if tracer is not None else NullTracer(),
        concurrency=concurrency,
        io_delay_s=io_delay_s,
        durability=durability,
    )
    server.create_application(
        Application(
            app_id="app-1",
            creator="tests",
            place_id="place-1",
            place_name="Place 1",
            category="test",
            location=PLACE,
            script="local data = {}\nreturn data",
            pipeline=FeaturePipeline(
                [FeatureSpec("noise", "microphone", MeanExtractor())]
            ),
            period_start=0.0,
            period_end=3600.0,
            num_instants=60,
        )
    )
    for index in range(users):
        server.register_user(f"u-{index}", f"User {index}", f"t-{index}")
    return server


def participate_envelope(index: int, *, keyed: bool = True) -> Envelope:
    envelope = Envelope(
        message_type=MessageType.PARTICIPATE,
        sender=f"phone-{index}",
        recipient=HOST,
        payload={
            "app_id": "app-1",
            "user_id": f"u-{index}",
            "token": f"t-{index}",
            "budget": 5,
            "latitude": PLACE.latitude,
            "longitude": PLACE.longitude,
        },
    )
    return envelope.with_idempotency_key() if keyed else envelope


def post(server: SensingServer, envelope: Envelope) -> Envelope:
    response = server.network.send(
        HttpRequest("POST", HOST, "/sor", envelope.to_bytes())
    )
    assert response.status == 200
    return Envelope.from_bytes(response.body)


# ----------------------------------------------------------------------
# primitives
# ----------------------------------------------------------------------
class TestReadWriteLock:
    def test_readers_share(self) -> None:
        lock = ReadWriteLock()
        inside = threading.Barrier(3, timeout=5.0)

        def reader() -> None:
            with lock.read():
                inside.wait()  # all three must be inside at once

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5.0)
        assert not any(thread.is_alive() for thread in threads)

    def test_writer_excludes_everyone(self) -> None:
        lock = ReadWriteLock()
        log: list[str] = []
        entered = threading.Event()
        release = threading.Event()

        def writer() -> None:
            with lock.write():
                entered.set()
                release.wait(timeout=5.0)
                log.append("writer")

        def reader() -> None:
            entered.wait(timeout=5.0)
            with lock.read():
                log.append("reader")

        w = threading.Thread(target=writer)
        r = threading.Thread(target=reader)
        w.start()
        r.start()
        entered.wait(timeout=5.0)
        assert log == []  # reader is blocked behind the writer
        release.set()
        w.join(timeout=5.0)
        r.join(timeout=5.0)
        assert log == ["writer", "reader"]

    def test_waiting_writer_blocks_new_readers(self) -> None:
        lock = ReadWriteLock()
        order: list[str] = []
        reader_in = threading.Event()
        release_first = threading.Event()

        def first_reader() -> None:
            with lock.read():
                reader_in.set()
                release_first.wait(timeout=5.0)

        def writer() -> None:
            with lock.write():
                order.append("writer")

        def late_reader() -> None:
            with lock.read():
                order.append("late-reader")

        r1 = threading.Thread(target=first_reader)
        r1.start()
        reader_in.wait(timeout=5.0)
        w = threading.Thread(target=writer)
        w.start()
        time.sleep(0.05)  # let the writer queue up
        r2 = threading.Thread(target=late_reader)
        r2.start()
        time.sleep(0.05)
        # Writer preference: the late reader must not slip past the
        # waiting writer while the first reader still holds the lock.
        assert order == []
        release_first.set()
        for thread in (r1, w, r2):
            thread.join(timeout=5.0)
        assert order[0] == "writer"

    def test_config_validation(self) -> None:
        with pytest.raises(ValidationError):
            ConcurrencyConfig(workers=0)
        with pytest.raises(ValidationError):
            ConcurrencyConfig(queue_capacity=0)


class TestRequestExecutor:
    def test_runs_submitted_work(self) -> None:
        executor = RequestExecutor(ConcurrencyConfig(workers=4, queue_capacity=8))
        try:
            results = []
            for i in range(16):
                pending = executor.submit(lambda i=i: i * i)
                assert pending is not None
                # Wait each one out so the bounded queue never fills.
                results.append(pending.result(timeout=5.0))
            assert results == [i * i for i in range(16)]
        finally:
            executor.close()

    def test_relays_exceptions(self) -> None:
        executor = RequestExecutor(ConcurrencyConfig(workers=1, queue_capacity=4))
        try:
            def boom() -> None:
                raise RuntimeError("handler exploded")

            pending = executor.submit(boom)
            assert pending is not None
            with pytest.raises(RuntimeError, match="handler exploded"):
                pending.result(timeout=5.0)
        finally:
            executor.close()

    def test_rejects_when_queue_full(self, submit_from_thread) -> None:
        executor = RequestExecutor(ConcurrencyConfig(workers=1, queue_capacity=1))
        release = threading.Event()
        try:
            # Callers run their own requests, so helper threads hold the
            # slot and the waiting place.
            blocker = submit_from_thread(
                executor, lambda: release.wait(timeout=10.0)
            )
            assert blocker is not None
            queued = submit_from_thread(executor, lambda: "queued")
            assert queued is not None
            rejected = [executor.submit(lambda: None) for _ in range(4)]
            assert rejected == [None, None, None, None]
            release.set()
            assert queued.result(timeout=5.0) == "queued"
        finally:
            release.set()
            executor.close()

    def test_close_is_idempotent_and_rejects_afterwards(self) -> None:
        executor = RequestExecutor(ConcurrencyConfig(workers=2, queue_capacity=2))
        executor.close()
        executor.close()
        assert executor.submit(lambda: 1) is None

    def test_bounds_hold_under_threads(self) -> None:
        workers, capacity, extra = 3, 4, 5
        executor = RequestExecutor(
            ConcurrencyConfig(workers=workers, queue_capacity=capacity)
        )
        release = threading.Event()
        lock = threading.Lock()
        running = peak = finished = 0
        outcomes: list = []
        finished_at_close: list[int] = []

        def hold() -> str:
            nonlocal running, peak, finished
            with lock:
                running += 1
                peak = max(peak, running)
            release.wait(timeout=10.0)
            with lock:
                running -= 1
                finished += 1
            return "held"

        start = threading.Barrier(workers + capacity + extra, timeout=5.0)

        def call() -> None:
            start.wait()
            outcome = executor.submit(hold)
            with lock:
                outcomes.append(outcome)

        def close() -> None:
            executor.close()
            finished_at_close.append(finished)

        callers = [
            threading.Thread(target=call) for _ in range(workers + capacity + extra)
        ]
        closer = threading.Thread(target=close)
        for caller in callers:
            caller.start()
        try:
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and not (
                len(outcomes) == extra
                and running == workers
                and executor.queue_depth() == capacity
            ):
                time.sleep(0.001)
            # Only the refused callers have returned; the rest run or wait.
            assert outcomes == [None] * extra
            assert running == workers
            assert executor.queue_depth() == capacity
            closer.start()
            closer.join(timeout=0.1)
            assert closer.is_alive()  # the admitted callers hold it open
            release.set()
            closer.join(timeout=5.0)
            assert not closer.is_alive()
        finally:
            release.set()
            for caller in callers:
                caller.join(timeout=5.0)
        assert finished_at_close == [workers + capacity]
        assert peak == workers
        admitted = [outcome for outcome in outcomes if outcome is not None]
        assert [outcome.result() for outcome in admitted] == ["held"] * (
            workers + capacity
        )
        assert executor.submit(lambda: 1) is None

    def test_bounds_hold_under_contention(self) -> None:
        executor = RequestExecutor(ConcurrencyConfig(workers=2, queue_capacity=3))
        lock = threading.Lock()
        running = peak = 0
        served: list[int] = []
        refused: list[int] = []

        def work(index: int) -> int:
            nonlocal running, peak
            with lock:
                running += 1
                peak = max(peak, running)
            time.sleep(0)  # hand the GIL to another caller mid-request
            with lock:
                running -= 1
            return index

        def caller(first: int) -> None:
            for index in range(first, first + 100):
                outcome = executor.submit(lambda index=index: work(index))
                if outcome is None:
                    refused.append(index)
                else:
                    served.append(outcome.result())

        callers = [threading.Thread(target=caller, args=(100 * n,)) for n in range(8)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in callers)
        assert peak <= 2
        assert sorted(served + refused) == list(range(800))
        # A lost update to the gate's counts would leave it looking busy.
        assert executor.queue_depth() == 0
        closer = threading.Thread(target=executor.close)
        closer.start()
        closer.join(timeout=5.0)
        assert not closer.is_alive()


# ----------------------------------------------------------------------
# server behaviour under concurrent traffic
# ----------------------------------------------------------------------
def test_concurrent_server_starts_no_thread() -> None:
    before = set(threading.enumerate())
    server = make_server(concurrency=ConcurrencyConfig(), users=1)
    try:
        assert set(threading.enumerate()) - before == set()
    finally:
        server.close()


def test_admitted_handler_runs_on_the_calling_thread() -> None:
    server = make_server(
        concurrency=ConcurrencyConfig(workers=2, queue_capacity=2), users=2
    )
    dispatch = server._dispatch
    handlers: list[int] = []
    callers: list[int] = []

    def recording(request: HttpRequest):
        handlers.append(threading.get_ident())
        return dispatch(request)

    def call(index: int) -> None:
        callers.append(threading.get_ident())
        post(server, participate_envelope(index))

    server._dispatch = recording  # type: ignore[method-assign]
    try:
        call(0)
        helper = threading.Thread(target=call, args=(1,))
        helper.start()
        helper.join(timeout=5.0)
        assert len(set(callers)) == 2
        assert handlers == callers
    finally:
        server.close()


def test_server_span_parents_to_the_client_span() -> None:
    tracer = Tracer()
    server = make_server(concurrency=ConcurrencyConfig(), users=1, tracer=tracer)
    try:
        client = ResilientClient(
            server.network, metrics=MetricsRegistry(), tracer=tracer
        )
        client.send(
            HttpRequest("POST", HOST, "/sor", participate_envelope(0).to_bytes())
        )
        spans = {record.name: record for record in tracer.finished()}
        send = spans["net.resilient_send"]
        assert spans["server.handle_request"].parent_id == send.span_id
    finally:
        server.close()


def test_no_lost_updates_and_unique_task_ids() -> None:
    phones = 48
    clients = 6
    server = make_server(
        concurrency=ConcurrencyConfig(workers=6, queue_capacity=64), users=phones
    )
    try:
        acked: list[str] = []
        lock = threading.Lock()

        def drive(client_index: int) -> None:
            for index in range(client_index, phones, clients):
                schedule = post(server, participate_envelope(index))
                assert schedule.message_type is MessageType.SCHEDULE
                task_id = schedule.payload["task_id"]
                upload = Envelope(
                    message_type=MessageType.SENSED_DATA,
                    sender=f"phone-{index}",
                    recipient=HOST,
                    payload={
                        "task_id": task_id,
                        "token": f"t-{index}",
                        "status": "finished",
                        "executed": 1,
                    },
                ).with_idempotency_key()
                ack = post(server, upload)
                assert ack.message_type is MessageType.ACK
                with lock:
                    acked.append(task_id)

        threads = [
            threading.Thread(target=drive, args=(c,)) for c in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)

        # Every acknowledged write is in the database, nothing was lost.
        assert len(acked) == phones
        assert len(set(acked)) == phones  # task ids unique
        assert server.database.table("tasks").count() == phones
        assert server.database.table("raw_data").count() == phones
        # Ids carry a monotonic counter suffix: all distinct ordinals.
        ordinals = sorted(int(task.rsplit("-", 1)[1]) for task in acked)
        assert ordinals == list(range(ordinals[0], ordinals[0] + phones))
    finally:
        server.close()


def test_concurrent_idempotent_replays_run_handler_once() -> None:
    server = make_server(
        concurrency=ConcurrencyConfig(workers=8, queue_capacity=64), users=1
    )
    try:
        envelope = participate_envelope(0)  # one content key, many senders
        replies: list[bytes] = []
        lock = threading.Lock()
        barrier = threading.Barrier(8, timeout=5.0)

        def replay() -> None:
            barrier.wait()
            response = server.network.send(
                HttpRequest("POST", HOST, "/sor", envelope.to_bytes())
            )
            with lock:
                replies.append(response.body)

        threads = [threading.Thread(target=replay) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)

        assert len(replies) == 8
        assert len(set(replies)) == 1  # identical stored reply for everyone
        assert server.database.table("tasks").count() == 1  # handler ran once
        duplicates = server.metrics.counter(
            "sor_server_duplicate_envelopes_total", labels=("type",)
        )
        assert duplicates.value(type="participate") == 7
    finally:
        server.close()


def test_full_admission_queue_answers_busy_envelope(submit_from_thread) -> None:
    server = make_server(
        concurrency=ConcurrencyConfig(workers=1, queue_capacity=1),
        users=8,
    )
    try:
        executor = server._executor
        assert executor is not None
        # Deterministically saturate the gate from helper threads: one
        # caller holds the only slot on a blocker, a second waits in
        # the single queue place.
        release = threading.Event()
        hold = submit_from_thread(executor, lambda: release.wait(timeout=10.0))
        assert hold is not None
        fill = submit_from_thread(executor, lambda: None)
        assert fill is not None

        response = server.network.send(
            HttpRequest("POST", HOST, "/sor", participate_envelope(0).to_bytes())
        )
        assert response.status == 503
        assert response.headers["Retry-After"] == "0.05"
        envelope = Envelope.from_bytes(response.body)
        assert envelope.message_type is MessageType.BUSY
        assert envelope.payload["retry_after_s"] == pytest.approx(0.05)
        assert (
            server.metrics.counter("sor_server_busy_rejections_total").value()
            == 1
        )

        # Drain the gate: the same request is now admitted and succeeds.
        release.set()
        fill.result(timeout=5.0)
        ok = server.network.send(
            HttpRequest("POST", HOST, "/sor", participate_envelope(0).to_bytes())
        )
        assert ok.status == 200
        reply = Envelope.from_bytes(ok.body)
        assert reply.message_type is MessageType.SCHEDULE
    finally:
        server.close()


def test_resilient_client_retries_busy_to_success() -> None:
    server = make_server(
        concurrency=ConcurrencyConfig(workers=1, queue_capacity=1),
        io_delay_s=0.02,
        users=12,
    )
    try:
        client = ResilientClient(
            server.network,
            policy=RetryPolicy(
                max_attempts=64, base_backoff_s=0.005, max_backoff_s=0.05
            ),
            breaker_policy=BreakerPolicy(
                failure_threshold=10_000, recovery_timeout_s=0.001
            ),
            sleep=time.sleep,
            metrics=MetricsRegistry(),
            tracer=NullTracer(),
        )
        results: list[MessageType] = []
        lock = threading.Lock()

        def send(index: int) -> None:
            response = client.send(
                HttpRequest(
                    "POST", HOST, "/sor", participate_envelope(index).to_bytes()
                )
            )
            with lock:
                results.append(Envelope.from_bytes(response.body).message_type)

        threads = [threading.Thread(target=send, args=(i,)) for i in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)

        # Backpressure never surfaced to the caller: retries absorbed it.
        assert results == [MessageType.SCHEDULE] * 12
        assert server.database.table("tasks").count() == 12
    finally:
        server.close()


def test_plain_send_surfaces_busy_as_error(submit_from_thread) -> None:
    """Without the resilient wrapper a 503 is the caller's problem."""
    server = make_server(
        concurrency=ConcurrencyConfig(workers=1, queue_capacity=1),
        io_delay_s=0.05,
        users=4,
    )
    try:
        client = ResilientClient(
            server.network,
            policy=RetryPolicy(max_attempts=1),
            metrics=MetricsRegistry(),
            tracer=NullTracer(),
        )
        hold = submit_from_thread(server._executor, lambda: time.sleep(0.3))
        assert hold is not None
        fill = submit_from_thread(server._executor, lambda: None)
        assert fill is not None
        with pytest.raises(TransportError, match="at capacity") as excinfo:
            client.send(
                HttpRequest(
                    "POST", HOST, "/sor", participate_envelope(0).to_bytes()
                )
            )
        assert isinstance(excinfo.value.__cause__, ServerBusyError)
    finally:
        server.close()


def test_rank_queries_run_concurrently_with_writes() -> None:
    server = make_server(
        concurrency=ConcurrencyConfig(workers=8, queue_capacity=64), users=32
    )
    try:
        # Ranking needs at least two places with data in the category.
        for place_index, place_id in enumerate(("place-1", "place-2")):
            for feature_index, feature in enumerate(("noise", "wifi")):
                server.database.table("feature_data").insert(
                    {
                        "place_id": place_id,
                        "category": "test",
                        "feature": feature,
                        "value": 10.0 + 5.0 * place_index + feature_index,
                        "computed_at": 0.0,
                    }
                )
        rank_envelope = Envelope(
            message_type=MessageType.RANK_QUERY,
            sender="reader",
            recipient=HOST,
            payload={
                "category": "test",
                "profiles": [
                    {
                        "name": "p",
                        "preferences": {
                            "noise": {"preferred": "min", "weight": 3}
                        },
                    }
                ],
            },
        )
        outcomes: list[MessageType] = []
        lock = threading.Lock()

        def write(index: int) -> None:
            reply = post(server, participate_envelope(index))
            with lock:
                outcomes.append(reply.message_type)

        def read() -> None:
            for _ in range(8):
                reply = post(server, rank_envelope)
                with lock:
                    outcomes.append(reply.message_type)

        threads = [
            threading.Thread(target=write, args=(i,)) for i in range(32)
        ] + [threading.Thread(target=read) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)

        assert outcomes.count(MessageType.SCHEDULE) == 32
        assert outcomes.count(MessageType.RANKING) == 32
        assert MessageType.ERROR not in outcomes
    finally:
        server.close()


def test_wal_recovers_cleanly_after_concurrent_load(tmp_path) -> None:
    phones = 24
    server = make_server(
        concurrency=ConcurrencyConfig(workers=6, queue_capacity=64),
        users=phones,
        durability=DurabilityConfig(directory=tmp_path, fsync=False),
    )
    try:
        def drive(client_index: int) -> None:
            for index in range(client_index, phones, 4):
                schedule = post(server, participate_envelope(index))
                assert schedule.message_type is MessageType.SCHEDULE
                upload = Envelope(
                    message_type=MessageType.SENSED_DATA,
                    sender=f"phone-{index}",
                    recipient=HOST,
                    payload={
                        "task_id": schedule.payload["task_id"],
                        "token": f"t-{index}",
                        "status": "finished",
                        "executed": 1,
                    },
                ).with_idempotency_key()
                assert post(server, upload).message_type is MessageType.ACK

        threads = [threading.Thread(target=drive, args=(c,)) for c in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        server.close()

    # Hard stop (no graceful flush beyond what reached the OS), then
    # recover from disk into a fresh database.
    assert server.database.durability is not None
    server.database.durability.close()
    recovered, report = open_durable_database(
        DurabilityConfig(directory=tmp_path, fsync=False),
        name="recovered",
        metrics=MetricsRegistry(),
    )
    assert report.records_replayed > 0
    assert recovered.table("tasks").count() == phones
    assert recovered.table("raw_data").count() == phones
    live = server.database.table("tasks").select()
    back = recovered.table("tasks").select()
    assert sorted(row["task_id"] for row in back) == sorted(
        row["task_id"] for row in live
    )


def test_sequential_server_still_works_without_pool() -> None:
    """concurrency=None keeps the old inline single-threaded behaviour."""
    server = make_server(users=2)
    try:
        assert server._executor is None
        schedule = post(server, participate_envelope(0))
        assert schedule.message_type is MessageType.SCHEDULE
        assert server.database.table("tasks").count() == 1
    finally:
        server.close()  # no-op without a pool
