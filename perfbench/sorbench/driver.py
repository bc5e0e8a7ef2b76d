"""The closed-loop phone driver.

Each driver thread is one phone-side ``ResilientClient`` walking its
share of the plan in arrival order, sending the next request as soon as
the previous reply is decoded. A request's latency runs from building
the envelope (idempotency key included) to the decoded reply, retries
included. Replies are kept for the output checks, which run after the
timed window.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.common.errors import CodecError, TransportError
from repro.net import Envelope, MessageType
from repro.net.http import HttpRequest

from sorbench.tracing import SpanRecorder
from sorbench.workloads import Deployment, Item, PhoneSession, Plan, RankRequest, driver_client

KINDS = ("participate", "pull", "upload", "rank_query")


@dataclass
class DriverLog:
    """One driver's requests, failures and the replies to check."""

    latencies_ns: dict[str, list[int]] = field(
        default_factory=lambda: {kind: [] for kind in KINDS}
    )
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    sessions: int = 0
    completed: int = 0
    #: (session, schedule reply payload)
    schedules: list[tuple[PhoneSession, dict[str, Any]]] = field(default_factory=list)
    #: (rank request, ranking reply payload)
    rankings: list[tuple[RankRequest, dict[str, Any]]] = field(default_factory=list)

    def merge(self, other: "DriverLog") -> None:
        for kind, values in other.latencies_ns.items():
            self.latencies_ns[kind].extend(values)
        self.attempted += other.attempted
        self.failures.extend(other.failures)
        self.sessions += other.sessions
        self.completed += other.completed
        self.schedules.extend(other.schedules)
        self.rankings.extend(other.rankings)


class _Failed(Exception):
    """A request failed; the session is abandoned."""


class Driver:
    """One closed-loop phone driver thread's work."""

    def __init__(
        self,
        index: int,
        deployment: Deployment,
        seed: int,
        recorder: SpanRecorder | None,
    ) -> None:
        self.index = index
        self.host = deployment.host
        self.client = driver_client(deployment.network, seed, index, deployment.metrics)
        self.pump = deployment.pump
        self.recorder = recorder
        self.log = DriverLog()
        self._sequence = 0

    def run(self, items: list[Item]) -> None:
        for item in items:
            self.log.sessions += 1
            try:
                if isinstance(item, PhoneSession):
                    self._phone(item)
                else:
                    self._rank(item)
            except _Failed as failure:
                self.log.failures.append(str(failure))
                continue
            self.log.completed += 1

    # -- one request ----------------------------------------------------
    def _post(self, kind: str, build: Any, expect: MessageType) -> tuple[Envelope, bytes]:
        self.log.attempted += 1
        self._sequence += 1
        scope = (
            self.recorder.request(f"{self.index}-{self._sequence}", kind)
            if self.recorder is not None
            else None
        )
        start = time.perf_counter_ns()
        try:
            if scope is not None:
                scope.__enter__()
            try:
                envelope = build()
                response = self.client.send(
                    HttpRequest("POST", self.host, "/sor", envelope.to_bytes())
                )
                reply = Envelope.from_bytes(response.body) if response.status == 200 else None
            finally:
                if scope is not None:
                    scope.__exit__(None, None, None)
        except (TransportError, CodecError) as exc:
            raise _Failed(f"{kind}: {type(exc).__name__}: {exc}") from exc
        self.log.latencies_ns[kind].append(time.perf_counter_ns() - start)
        if self.pump is not None:
            self.pump.answered()
        if reply is None:
            raise _Failed(f"{kind}: HTTP {response.status}")
        if reply.message_type is not expect:
            raise _Failed(f"{kind}: {reply.message_type.value} reply {reply.payload}")
        return reply, response.body

    # -- sessions -------------------------------------------------------
    def _phone(self, phone: PhoneSession) -> None:
        sender = f"phone-{phone.index}"

        def participate() -> Envelope:
            return Envelope(
                message_type=MessageType.PARTICIPATE,
                sender=sender,
                recipient=self.host,
                payload={
                    "app_id": phone.app_id,
                    "user_id": phone.user_id,
                    "token": phone.token,
                    "budget": phone.budget,
                    "latitude": phone.latitude,
                    "longitude": phone.longitude,
                    "departure_time": phone.departure_time,
                },
            ).with_idempotency_key()

        schedule, body = self._post("participate", participate, MessageType.SCHEDULE)
        self.log.schedules.append((phone, schedule.payload))
        task_id = schedule.payload["task_id"]
        if phone.pull:
            # A schedule pull replays the participate verbatim; the
            # idempotency layer must serve the identical stored reply.
            _pulled, pulled_body = self._post("pull", participate, MessageType.SCHEDULE)
            if pulled_body != body:
                raise _Failed("pull: replay differs from the original reply")

        def upload() -> Envelope:
            return Envelope(
                message_type=MessageType.SENSED_DATA,
                sender=sender,
                recipient=self.host,
                payload={
                    "task_id": task_id,
                    "token": phone.token,
                    "status": "finished",
                    "executed": phone.executed,
                    "readings": [phone.index, phone.executed],
                },
            ).with_idempotency_key()

        self._post("upload", upload, MessageType.ACK)
        if phone.rank is not None:
            self._rank(phone.rank, sender)

    def _rank(self, query: RankRequest, sender: str | None = None) -> None:
        def rank_query() -> Envelope:
            return Envelope(
                message_type=MessageType.RANK_QUERY,
                sender=sender or f"viewer-{self.index}",
                recipient=self.host,
                payload={"category": query.category, "profiles": [query.profile]},
            )

        reply, _body = self._post("rank_query", rank_query, MessageType.RANKING)
        self.log.rankings.append((query, reply.payload))


@dataclass
class Timed:
    """One round's timed phase."""

    log: DriverLog
    wall_s: float
    cpu_s: float


def drive(
    plan: Plan,
    deployment: Deployment,
    drivers: int,
    recorder: SpanRecorder | None = None,
) -> Timed:
    """Run the plan through ``drivers`` closed-loop driver threads."""
    shares = plan.split(drivers)
    workers = [Driver(index, deployment, plan.seed, recorder) for index in range(drivers)]
    errors: list[BaseException] = []

    def run(worker: Driver, items: list[Item]) -> None:
        try:
            worker.run(items)
        except BaseException as exc:  # noqa: BLE001 - re-raised after join
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(worker, share), name=f"bench-driver-{index}")
        for index, (worker, share) in enumerate(zip(workers, shares))
    ]
    cpu_start = time.process_time()
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if deployment.pump is not None and not errors:
        # The round's replication passes belong to its timed window.
        deployment.pump.drain()
    wall = time.perf_counter() - started
    cpu = time.process_time() - cpu_start
    if errors:
        raise errors[0]
    log = DriverLog()
    for worker in workers:
        log.merge(worker.log)
    return Timed(log, wall, cpu)
