"""The Sensing Server HTTP endpoint.

The server-side Message Handler "communicates with the mobile frontend
using HTTP and dispatches incoming messages to different components.
Note that if it detects that the received message includes sensed data,
it will directly store the binary message body into the database, which
will be processed later by the Data Processor."
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple

from repro.common.clock import Clock
from repro.common.errors import (
    CodecError,
    ConfigurationError,
    ParticipationError,
    TransportError,
)
from repro.common.geo import LatLon
from repro.db import Database, DurabilityConfig, RecoveryReport, eq
from repro.db.wal import open_durable_database
from repro.net import (
    CloudMessenger,
    Envelope,
    HttpRequest,
    HttpResponse,
    MessageType,
)
from repro.net.http import busy_response, metrics_response
from repro.net.resilience import ResilientClient
from repro.net.transport import Network
from repro.obs import MetricsRegistry, Tracer, get_metrics, get_tracer
from repro.server.app_manager import Application, ApplicationManager
from repro.server.concurrency import (
    ConcurrencyConfig,
    ReadWriteLock,
    RequestExecutor,
)
from repro.server.data_processor import DataProcessor
from repro.server.participation import ParticipationManager, ParticipationStatus
from repro.server.ranker_service import (
    PersonalizableRanker,
    RankingCache,
    rank_query_reply,
)
from repro.server.schemas import create_all_tables
from repro.server.scheduler_service import SensingSchedulerService, TaskSchedule
from repro.server.user_manager import UserInfoManager


class _Participation(NamedTuple):
    """A well-formed PARTICIPATE payload."""

    app_id: str
    user_id: str
    token: str
    budget: int
    location: LatLon
    #: None means "until the period ends"; inf says the same.
    departure_time: float | None


def _parse_participation(payload: dict) -> _Participation | None:
    """The parsed PARTICIPATE payload, or None when it is malformed."""
    try:
        app_id = str(payload["app_id"])
        user_id = str(payload["user_id"])
        token = str(payload["token"])
        budget = int(payload["budget"])
        location = LatLon(
            latitude=float(payload["latitude"]),
            longitude=float(payload["longitude"]),
        )
        departure_time = payload.get("departure_time")
        if departure_time is not None:
            departure_time = float(departure_time)
            if math.isnan(departure_time):
                raise ValueError("departure_time is NaN")
    except (KeyError, TypeError, ValueError):
        return None
    return _Participation(app_id, user_id, token, budget, location, departure_time)


class SensingServer:
    """One sensing server: endpoint + all backend components."""

    def __init__(
        self,
        host: str,
        network: Network,
        clock: Clock,
        *,
        gcm: CloudMessenger | None = None,
        database: Database | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        client: ResilientClient | None = None,
        dedupe_capacity: int = 4096,
        ranking_cache: bool = True,
        durability: DurabilityConfig | None = None,
        concurrency: ConcurrencyConfig | None = None,
        io_delay_s: float = 0.0,
    ) -> None:
        self.host = host
        self.network = network
        self.clock = clock
        self.gcm = gcm
        self.client = client
        # Simulated per-request I/O (socket read/write, WAL fsync): a
        # real wall-clock sleep taken *outside* any lock, so concurrent
        # callers overlap it while a single-threaded server serializes it.
        if io_delay_s < 0:
            raise ConfigurationError("io_delay_s must be non-negative")
        self.io_delay_s = io_delay_s
        # Readers–writer lock over all request handling: rank queries
        # share it, every mutating handler holds it exclusively, which
        # keeps the WAL-feeding commit path single-writer.
        self._rwlock = ReadWriteLock()
        self._executor = (
            RequestExecutor(concurrency) if concurrency is not None else None
        )
        # Served replies are deduped through the durable `idempotency`
        # table (see _stored_response), bounded to this many entries and
        # trimmed first in, first out (see _store_response).
        self._dedupe_capacity = dedupe_capacity
        self.metrics = metrics if metrics is not None else get_metrics()
        self.tracer = tracer if tracer is not None else get_tracer()
        self.recovery: RecoveryReport | None = None
        if durability is not None:
            if database is not None:
                raise ConfigurationError(
                    "pass either database= or durability=, not both"
                )
            self.database, self.recovery = open_durable_database(
                durability, name=host, metrics=self.metrics
            )
        else:
            self.database = (
                database
                if database is not None
                else Database(name=host, metrics=self.metrics)
            )
        create_all_tables(self.database)
        self.users = UserInfoManager(self.database, clock)
        self.apps = ApplicationManager(self.database)
        self.participation = ParticipationManager(
            self.database, self.users, self.apps, clock, id_prefix=f"{host}:"
        )
        self.scheduler = SensingSchedulerService(
            self.participation, clock, metrics=self.metrics, tracer=self.tracer
        )
        # Rebuild in-memory coverage state from the persisted schedules
        # of whatever applications survived on disk (no-op on a fresh
        # database).
        for application in self.apps.all_apps():
            self.scheduler.rehydrate(application)
        self.data_processor = DataProcessor(
            self.database, self.apps, clock, metrics=self.metrics
        )
        # ``ranking_cache=False`` is the ablation switch: the ranker then
        # runs the full Algorithm 2 pipeline on every request.
        self.ranking_cache = (
            RankingCache(metrics=self.metrics)
            if ranking_cache
            else None
        )
        self.ranker = PersonalizableRanker(
            self.database,
            cache=self.ranking_cache,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        self._phone_hosts: dict[str, str] = {}  # token → host
        self._m_requests = self.metrics.counter(
            "sor_server_requests_total",
            "HTTP requests handled, by message type and response status",
            labels=("type", "status"),
        )
        self._m_request_timer = self.metrics.timer(
            "sor_server_request_seconds",
            "handle_request latency in clock seconds",
        )
        self._m_sensed = self.metrics.counter(
            "sor_server_sensed_envelopes_total",
            "sensed-data envelopes stored for later processing",
        )
        self._m_ping = self.metrics.counter(
            "sor_server_ping_total",
            "phone ping attempts by outcome (http/gcm/failed)",
            labels=("outcome",),
        )
        self._m_push = self.metrics.counter(
            "sor_server_push_total",
            "schedule push attempts by outcome",
            labels=("outcome",),
        )
        self._m_duplicates = self.metrics.counter(
            "sor_server_duplicate_envelopes_total",
            "replayed envelopes served from the idempotency cache",
            labels=("type",),
        )
        self._m_busy = self.metrics.counter(
            "sor_server_busy_rejections_total",
            "requests refused at admission because the queue was full",
        )
        self._m_queue_depth = self.metrics.gauge(
            "sor_server_admission_queue_depth",
            "admitted requests waiting for a slot, sampled as each one starts",
        )
        network.register(host, self)

    def _transport_send(self, request: HttpRequest) -> HttpResponse:
        """Outbound send, through the resilient client when attached."""
        if self.client is not None:
            return self.client.send(request)
        return self.network.send(request)

    # ------------------------------------------------------------------
    # administration
    # ------------------------------------------------------------------
    def register_user(self, user_id: str, name: str, token: str) -> None:
        """Register a mobile user (User Info Manager record)."""
        self.users.register(user_id, name, token)

    def create_application(self, application: Application) -> None:
        """Register a sensing application for a target place."""
        self.apps.create(application)

    # ------------------------------------------------------------------
    # endpoint
    # ------------------------------------------------------------------
    def handle_request(self, request: HttpRequest) -> HttpResponse:
        """Serve one HTTP request (the server-side Message Handler).

        Every request runs on the caller's thread. With ``concurrency=``
        set it first passes the admission gate, which may hold it until
        a slot is free; when the gate is full the server answers
        immediately with HTTP 503 carrying a :data:`MessageType.BUSY`
        envelope — the backpressure signal the resilient client retries
        with jittered backoff. ``GET /metrics`` bypasses the gate:
        observability must stay readable while it is saturated.
        """
        if request.method == "GET" and request.path == "/metrics":
            return metrics_response(self.metrics)
        if self._executor is None:
            return self._handle_one(request)
        outcome = self._executor.submit(lambda: self._handle_one(request))
        if outcome is None:
            self._m_busy.inc()
            self._m_requests.inc(type="busy", status="503")
            return busy_response(self.host)
        return outcome.result()

    def _handle_one(self, request: HttpRequest) -> HttpResponse:
        """Handle one admitted request on the caller's thread."""
        if self._executor is not None:
            self._m_queue_depth.set(self._executor.queue_depth())
        # The request's socket/disk time, outside every lock so concurrent
        # callers overlap it. Even at 0 the sleep releases the GIL once per
        # request, which keeps WAL writers out of a GIL convoy (CONCURRENCY.md).
        time.sleep(self.io_delay_s)
        with self.tracer.span("server.handle_request", host=self.host) as span:
            with self._m_request_timer.time():
                response, message_type = self._dispatch(request)
            span.set_attribute("type", message_type)
            span.set_attribute("status", response.status)
        self._m_requests.inc(type=message_type, status=str(response.status))
        return response

    def close(self) -> None:
        """Close the admission gate and wait for the requests it admitted
        (idempotent; no-op without one)."""
        if self._executor is not None:
            self._executor.close()

    def _dispatch(self, request: HttpRequest) -> tuple[HttpResponse, str]:
        """Decode and route one envelope; returns (response, type label).

        Three paths through the readers–writer lock:

        * RANK_QUERY, with or without an idempotency key, is a pure read
          — it runs under the shared side, with no transaction and no
          stored reply, so any number of rank queries proceed together
          (and concurrently with nothing else). A retried one runs
          again; its reply carries the ``data_version`` it was computed
          at.
        * PARTICIPATE validates under the shared side, makes its picks
          under only its application's lock and commits under the
          exclusive side (:meth:`_participate`).
        * Everything else that can mutate runs under the exclusive side,
          one writer at a time, so in-memory apply order and WAL append
          order always agree. The idempotency-dedupe check happens
          *inside* the write lock: two concurrent replays of the same
          envelope serialize there, the first runs the handler, the
          second replays its stored reply.

        Writes carrying an already-seen idempotency key replay the
        response served the first time without re-running the handler:
        a retried PARTICIPATE cannot register a second task and a
        retried SENSED_DATA upload cannot double-ingest readings, even
        when only the original response leg was lost. The served-reply
        record lives in the durable ``idempotency`` table and is written
        in the same transaction as the handler's effects, so a crash
        leaves either both or neither — a retry after recovery can never
        re-run a handler whose reply was acknowledged, nor replay a
        reply whose effects were lost.
        """
        try:
            envelope = Envelope.from_bytes(request.body)
        except CodecError:
            return HttpResponse(status=400), "undecodable"
        message_type = envelope.message_type.value
        if envelope.message_type is MessageType.RANK_QUERY:
            with self._rwlock.read():
                reply = self._on_rank_query(envelope)
            return HttpResponse(status=200, body=reply.to_bytes()), message_type
        if envelope.message_type is MessageType.PARTICIPATE:
            return self._participate(envelope), message_type
        handlers = {
            MessageType.SENSED_DATA: lambda env: self._on_sensed_data(
                env, request.body
            ),
            MessageType.PREFERENCES: self._on_preferences,
            MessageType.PONG: self._on_pong,
            MessageType.LOCATION_REPORT: self._on_location_report,
        }
        handler = handlers.get(envelope.message_type)
        if handler is None:
            return HttpResponse(status=404), message_type
        key = envelope.idempotency_key
        with self._rwlock.write():
            cached = self._replay(key, message_type)
            if cached is not None:
                return cached, message_type
            with self.database.transaction():
                reply = handler(envelope)
                response = HttpResponse(status=200, body=reply.to_bytes())
                if key is not None:
                    self._store_response(key, response)
        return response, message_type

    def _participate(self, envelope: Envelope) -> HttpResponse:
        """Serve one PARTICIPATE, making its picks outside the write lock.

        Lock order is the application's lock, then the readers–writer
        lock; no other path takes an application lock.

        1. Hold the application's lock (one per application this server
           holds; an unknown application id takes none).
        2. Under the shared side, replay the reply stored under the
           envelope's key, or validate the request, once. A refusal
           makes no picks; its ERROR reply is stored in step 4.
        3. Holding no server-wide lock, make the picks, so requests of
           other applications run meanwhile.
        4. Under the exclusive side and one transaction, re-check the
           key and what can change after step 2 (the application and
           the period; see :meth:`ParticipationManager.recheck`), insert
           the task already RUNNING with its times, and store the reply:
           one ``tasks`` and one ``idempotency`` record.
        5. If the transaction does not commit a SCHEDULE reply (a
           refusal found only now, an exception, a WAL failure), the
           picks are restored before the application's lock is released.

        Replays of one keyed envelope name one application, so they
        serialize on its lock, and each application's picks are made in
        the order its tasks commit.
        """
        key = envelope.idempotency_key
        request = _parse_participation(envelope.payload)
        application = self.apps.get(request.app_id) if request is not None else None
        with self.scheduler.lock_for(application):
            with self._rwlock.read():
                cached = self._replay(key, MessageType.PARTICIPATE.value)
                if cached is not None:
                    return cached
                reply = self._participation_refusal(envelope, request, application)
            schedule = None
            if reply is None:
                schedule = self.scheduler.schedule_task(
                    application,
                    budget=request.budget,
                    departure_time=request.departure_time,
                )
            scheduled = False
            try:
                with self._rwlock.write():
                    cached = self._replay(key, MessageType.PARTICIPATE.value)
                    if cached is not None:
                        return cached
                    with self.database.transaction():
                        if reply is None:
                            reply = self._commit_participation(
                                envelope, request, application, schedule
                            )
                        response = HttpResponse(status=200, body=reply.to_bytes())
                        if key is not None:
                            self._store_response(key, response)
                    scheduled = reply.message_type is MessageType.SCHEDULE
            finally:
                if schedule is not None and not scheduled:
                    schedule.undo.restore()
            if scheduled:
                self.scheduler.count(schedule)
        return response

    def _replay(self, key: str | None, message_type: str) -> HttpResponse | None:
        """The reply stored under ``key``, counted as a duplicate, or None."""
        cached = self._stored_response(key) if key is not None else None
        if cached is not None:
            self._m_duplicates.inc(type=message_type)
        return cached

    def _stored_response(self, key: str) -> HttpResponse | None:
        row = self.database.table("idempotency").get(key)
        if row is None:
            return None
        return HttpResponse(status=row["status"], body=row["body"])

    def _store_response(self, key: str, response: HttpResponse) -> None:
        table = self.database.table("idempotency")
        table.insert(
            {
                "key": key,
                "status": response.status,
                "body": response.body,
                "created_at": self.clock.now(),
            }
        )
        # First in, first out: a select with no where reads the oldest
        # rows first (see Table), so the trim reads only what it evicts.
        overflow = table.count() - self._dedupe_capacity
        if overflow > 0:
            for row in table.select(limit=overflow):
                table.delete(eq("key", row["key"]))

    # ------------------------------------------------------------------
    # message handlers
    # ------------------------------------------------------------------
    def _participation_refusal(
        self,
        envelope: Envelope,
        request: _Participation | None,
        application: Application | None,
    ) -> Envelope | None:
        """The ERROR reply a PARTICIPATE gets before any pick, or None."""
        if request is None:
            return envelope.reply(
                MessageType.ERROR, {"reason": "malformed participation request"}
            )
        departure_time = request.departure_time
        if departure_time is not None and departure_time < self.clock.now():
            return envelope.reply(
                MessageType.ERROR, {"reason": "departure before now"}
            )
        try:
            self.participation.validate(
                application,
                app_id=request.app_id,
                user_id=request.user_id,
                token=request.token,
                location=request.location,
                budget=request.budget,
            )
        except ParticipationError as exc:
            return envelope.reply(MessageType.ERROR, {"reason": str(exc)})
        return None

    def _commit_participation(
        self,
        envelope: Envelope,
        request: _Participation,
        application: Application,
        schedule: TaskSchedule,
    ) -> Envelope:
        """Insert the task with its schedule (inside the commit's
        transaction); an ERROR reply when the re-check refuses it now."""
        try:
            self.participation.recheck(request.app_id)
        except ParticipationError as exc:
            return envelope.reply(MessageType.ERROR, {"reason": str(exc)})
        task_id = self.participation.create_task(
            app_id=request.app_id,
            user_id=request.user_id,
            token=request.token,
            phone_host=envelope.sender,
            budget=request.budget,
            times=schedule.times,
        )
        self._phone_hosts[request.token] = envelope.sender
        return envelope.reply(
            MessageType.SCHEDULE,
            {
                "task_id": task_id,
                "app_id": request.app_id,
                "script": application.script,
                "times": schedule.times,
            },
        )

    def _on_sensed_data(self, envelope: Envelope, raw_body: bytes) -> Envelope:
        payload = envelope.payload
        task_id = payload.get("task_id")
        if not isinstance(task_id, str):
            return envelope.reply(MessageType.ERROR, {"reason": "missing task_id"})
        task = self.participation.get_task(task_id)
        if task is None or task["token"] != payload.get("token"):
            return envelope.reply(MessageType.ERROR, {"reason": "unknown task"})
        # Rebalancing may have moved the task's application to another
        # shard; a blob stored here could then never become readings.
        if self.apps.get(task["app_id"]) is None:
            return envelope.reply(
                MessageType.ERROR, {"reason": "unknown application"}
            )
        # The paper's behaviour: store the binary body now, decode later.
        self.database.table("raw_data").insert(
            {
                "task_id": task_id,
                "received_at": self.clock.now(),
                "body": raw_body,
                "processed": False,
            }
        )
        self._m_sensed.inc()
        # One update of the task row, with whatever the upload reports.
        changes: dict = {}
        status = payload.get("status")
        if status == "error":
            changes["status"] = ParticipationStatus.ERROR.value
            changes["error"] = str(payload.get("error", ""))
        elif status == "finished":
            changes["status"] = ParticipationStatus.FINISHED.value
            changes["error"] = ""
        # The paper: the sensing budget "is updated at runtime" — record
        # how much of it the phone actually consumed.
        executed = payload.get("executed")
        if isinstance(executed, int) and executed >= 0:
            changes["budget"] = max(0, task["budget"] - executed)
        if changes:
            self.database.table("tasks").update(eq("task_id", task_id), changes)
        return envelope.reply(MessageType.ACK, {"task_id": task_id})

    def _on_preferences(self, envelope: Envelope) -> Envelope:
        token = envelope.payload.get("token")
        denied = envelope.payload.get("denied", [])
        if not isinstance(token, str) or not isinstance(denied, list):
            return envelope.reply(MessageType.ERROR, {"reason": "malformed"})
        if not self.users.update_preferences(token, [str(item) for item in denied]):
            return envelope.reply(MessageType.ERROR, {"reason": "unknown token"})
        return envelope.reply(MessageType.ACK)

    def _on_pong(self, envelope: Envelope) -> Envelope:
        token = envelope.payload.get("token")
        if isinstance(token, str):
            self._phone_hosts[token] = envelope.payload.get(
                "host", envelope.sender
            )
        return envelope.reply(MessageType.ACK)

    def _on_location_report(self, envelope: Envelope) -> Envelope:
        payload = envelope.payload
        token = payload.get("token")
        try:
            location = LatLon(
                latitude=float(payload["latitude"]),
                longitude=float(payload["longitude"]),
            )
        except (KeyError, TypeError, ValueError):
            return envelope.reply(MessageType.ERROR, {"reason": "malformed"})
        finished = (
            self.participation.handle_location_report(token, location)
            if isinstance(token, str)
            else []
        )
        return envelope.reply(MessageType.ACK, {"finished_tasks": finished})

    def _on_rank_query(self, envelope: Envelope) -> Envelope:
        """Serve Algorithm 2 for one or many profiles of one category."""
        return rank_query_reply(self.ranker, envelope)

    # ------------------------------------------------------------------
    # outbound
    # ------------------------------------------------------------------
    def ping_phone(self, token: str) -> bool:
        """Reach a phone we lost track of.

        Try HTTP first; if the phone's host is unknown or unreachable,
        fall back to a GCM push asking the device to ping us — the
        paper's recovery path.
        """
        host = self._phone_hosts.get(token)
        if host is not None:
            envelope = Envelope(
                message_type=MessageType.PING,
                sender=self.host,
                recipient=host,
                payload={},
            )
            envelope = envelope.with_idempotency_key()
            try:
                response = self._transport_send(
                    HttpRequest("POST", host, "/sor", envelope.to_bytes())
                )
                if response.ok:
                    self._m_ping.inc(outcome="http")
                    return True
            except TransportError:
                pass
        if self.gcm is not None and self.gcm.is_registered(token):
            push_payload = {"action": "ping", "server": self.host}
            try:
                if self.client is not None:
                    self.client.call(
                        f"gcm:{token}",
                        lambda: self.gcm.push(token, push_payload),
                    )
                else:
                    self.gcm.push(token, push_payload)
                self._m_ping.inc(outcome="gcm")
                return True
            except TransportError:
                self._m_ping.inc(outcome="failed")
                return False
        self._m_ping.inc(outcome="failed")
        return False

    def push_schedule(self, task_id: str) -> bool:
        """Proactively (re)send a task's schedule and script to its phone.

        The paper's Sensing Scheduler "will also distribute the
        calculated schedules along with the corresponding Lua scripts to
        participating mobile phones" — this is that distribution path,
        used when a phone lost the original reply or the server
        recomputed. Returns True when the phone acknowledged.
        """
        task = self.participation.get_task(task_id)
        if task is None:
            self._m_push.inc(outcome="unknown_task")
            return False
        application = self.apps.get(task["app_id"])
        if application is None:
            self._m_push.inc(outcome="unknown_app")
            return False
        host = self._phone_hosts.get(task["token"], task["phone_host"])
        envelope = Envelope(
            message_type=MessageType.SCHEDULE,
            sender=self.host,
            recipient=host,
            payload={
                "task_id": task_id,
                "app_id": task["app_id"],
                "script": application.script,
                "times": list(task["schedule_times"]),
            },
        )
        envelope = envelope.with_idempotency_key()
        try:
            response = self._transport_send(
                HttpRequest("POST", host, "/sor", envelope.to_bytes())
            )
        except TransportError:
            self._m_push.inc(outcome="transport_error")
            return False
        if not response.ok or not response.body:
            self._m_push.inc(outcome="rejected")
            return False
        try:
            reply = Envelope.from_bytes(response.body)
        except CodecError:
            self._m_push.inc(outcome="undecodable_reply")
            return False
        acked = reply.message_type is MessageType.ACK
        self._m_push.inc(outcome="ok" if acked else "rejected")
        return acked

    def query_phone_location(self, token: str) -> LatLon | None:
        """Ask a phone where it is (used by the participation tracker)."""
        host = self._phone_hosts.get(token)
        if host is None:
            return None
        envelope = Envelope(
            message_type=MessageType.LOCATION_QUERY,
            sender=self.host,
            recipient=host,
            payload={},
        )
        try:
            response = self._transport_send(
                HttpRequest("POST", host, "/sor", envelope.to_bytes())
            )
        except TransportError:
            return None
        if not response.ok or not response.body:
            return None
        try:
            reply = Envelope.from_bytes(response.body)
            return LatLon(
                latitude=float(reply.payload["latitude"]),
                longitude=float(reply.payload["longitude"]),
            )
        except (CodecError, KeyError, TypeError, ValueError):
            return None

    # ------------------------------------------------------------------
    # processing and queries
    # ------------------------------------------------------------------
    def process_data(self) -> int:
        """Run one Data Processor pass; returns decoded blob count.

        The pass holds the exclusive side of the request lock, so its
        per-blob transactions never meet a request's open transaction.
        """
        with self._rwlock.write():
            return self.data_processor.process_pending()

    def feature_charts(self, category: str) -> str:
        """Text figures for a category's feature data (the paper's
        Visualization module output)."""
        from repro.server.visualization import bar_chart, feature_table

        values = self.ranker.feature_values(category)
        if not values:
            return f"(no feature data for category {category!r})"
        feature_names = sorted({f for fs in values.values() for f in fs})
        sections = [feature_table(values, feature_names)]
        for feature in feature_names:
            sections.append("")
            sections.append(
                bar_chart(
                    feature,
                    {
                        place: features[feature]
                        for place, features in values.items()
                        if feature in features
                    },
                )
            )
        return "\n".join(sections)

    def compute_all_features(self) -> dict[str, dict[str, float]]:
        """Compute features for every application with data.

        Each application's pass holds the exclusive side of the request
        lock, so no rank query reads its category between the first
        feature row written and the version bump that commits with the
        rows.
        """
        results: dict[str, dict[str, float]] = {}
        for application in self.apps.all_apps():
            with self._rwlock.write():
                has_data = (
                    self.database.table("readings").count(
                        eq("place_id", application.place_id)
                    )
                    > 0
                )
                if has_data:
                    results[application.place_id] = (
                        self.data_processor.compute_features(application.app_id)
                    )
        return results
