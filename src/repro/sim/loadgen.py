"""A deterministic closed-loop load generator for the sensing server.

``repro loadgen`` drives an **in-process** :class:`SensingServer` with
the protocol mix a real deployment sees — participation requests,
sensed-data uploads, schedule pulls (idempotent participate replays) and
rank queries — for a population of phones drawn from the arrival models
in :mod:`repro.sim.arrivals`. The workload is fully determined by the
seed: phone identities, arrival order, app assignment, upload sizes and
the query mix never change between runs, so a load run is reproducible
and its *correctness* counters (sessions completed, replies matched,
errors) can be asserted in CI. Wall-clock numbers — sustained request
rate, p50/p99 handler latency out of the server's own
``sor_server_request_seconds`` histogram — vary with the machine, which
is what the benchmark gate thresholds are for.

The generator is *closed-loop*: ``spec.clients`` driver threads each
walk their share of the phone population in arrival order, sending the
next request as soon as the previous reply lands. Arrival timestamps
order the population and provide departure times; they are not slept
on — the point is to saturate the server, not to replay a timeline.

Two modes make the concurrency win measurable:

* ``concurrent`` — the server admits the driver threads' requests
  through its admission gate and runs each on its driver's thread
  (busy rejections are retried by the drivers' resilient clients,
  exactly like real phones);
* ``sequential`` — no gate, one driver thread: the pre-concurrency
  server, as a baseline.

With a non-zero ``io_delay_s`` (each request's simulated socket/disk
time) concurrent requests overlap the waiting that a single-threaded
server serializes; :func:`run_comparison` reports the speedup.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro.common.clock import ManualClock
from repro.common.errors import TransportError, ValidationError
from repro.common.geo import LatLon
from repro.core.features import FeaturePipeline, FeatureSpec, MeanExtractor
from repro.net import Envelope, MessageType, NetworkConditions
from repro.net.http import HttpRequest
from repro.net.resilience import BreakerPolicy, ResilientClient, RetryPolicy
from repro.net.transport import Network
from repro.obs import MetricsRegistry, NullTracer
from repro.server.app_manager import Application
from repro.server.concurrency import ConcurrencyConfig
from repro.server.server import SensingServer
from repro.server.sharding import ShardCluster
from repro.sim.arrivals import fixed_count_arrivals

SERVER_HOST = "loadgen-server"
CATEGORY = "loadgen"
FEATURES = ("noise_db", "wifi_mbps", "occupancy")
PERIOD_S = 10800.0  # the paper's 3-hour sensing period
PULL_EVERY = 4  # every Nth phone replays its participate

#: Rank-query profiles phones rotate through (payload-dict form).
PROFILES: tuple[dict[str, Any], ...] = (
    {
        "name": "quiet",
        "preferences": {
            "noise_db": {"preferred": "min", "weight": 5},
            "wifi_mbps": {"preferred": "max", "weight": 2},
        },
    },
    {
        "name": "connected",
        "preferences": {
            "wifi_mbps": {"preferred": "max", "weight": 5},
            "occupancy": {"preferred": "min", "weight": 1},
        },
    },
    {
        "name": "balanced",
        "preferences": {
            "noise_db": {"preferred": 45.0, "weight": 3},
            "wifi_mbps": {"preferred": "max", "weight": 3},
            "occupancy": {"preferred": "min", "weight": 3},
        },
    },
)


@dataclass(frozen=True)
class LoadgenSpec:
    """Everything that determines a load run (the workload part exactly)."""

    phones: int = 1000
    seed: int = 0
    mode: str = "concurrent"  # or "sequential"
    clients: int = 8  # driver threads (forced to 1 in sequential mode)
    workers: int = 8  # requests the server runs at once (concurrent mode)
    queue_capacity: int = 64
    io_delay_s: float = 0.0  # simulated per-request socket/disk seconds
    budget: int = 5
    places: int = 8
    num_instants: int = 120
    rank_every: int = 16  # every Nth phone sends a rank query
    # Sharded deployment: with shards > 1 the drivers talk to a
    # ShardCluster's consistent-hash router instead of one server.
    # ``categories`` partitions the places into that many rankable
    # categories, pinned round-robin across the shards.
    shards: int = 1
    replicas: int = 1  # read-replicas per shard (sharded runs only)
    categories: int = 1

    def __post_init__(self) -> None:
        if self.phones < 1:
            raise ValidationError("phones must be at least 1")
        if self.mode not in ("concurrent", "sequential"):
            raise ValidationError("mode must be 'concurrent' or 'sequential'")
        if self.clients < 1 or self.workers < 1 or self.queue_capacity < 1:
            raise ValidationError("clients/workers/queue_capacity must be >= 1")
        if self.io_delay_s < 0:
            raise ValidationError("io_delay_s must be non-negative")
        if self.places < 1:
            raise ValidationError("places must be at least 1")
        if self.rank_every < 1:
            raise ValidationError("rank_every must be >= 1")
        if self.shards < 1:
            raise ValidationError("shards must be at least 1")
        if self.replicas < 0:
            raise ValidationError("replicas must be >= 0")
        if self.categories < 1:
            raise ValidationError("categories must be at least 1")
        if self.places % self.categories != 0:
            raise ValidationError("places must be a multiple of categories")
        if self.categories > 1 and self.places // self.categories < 2:
            raise ValidationError(
                "each category needs at least two places to rank"
            )

    @property
    def effective_clients(self) -> int:
        return 1 if self.mode == "sequential" else self.clients


@dataclass
class LoadgenReport:
    """What one load run produced; counters are seed-deterministic,
    timings are wall-clock."""

    spec: LoadgenSpec
    workload_digest: str
    requests_ok: int = 0
    requests_by_type: dict[str, int] = field(default_factory=dict)
    sessions_completed: int = 0
    error_replies: int = 0
    replay_mismatches: int = 0
    busy_rejections: int = 0
    retries: int = 0
    duration_s: float = 0.0
    requests_per_s: float = 0.0
    p50_ms: float = 0.0
    p99_ms: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        """A JSON-friendly dump (the CLI's ``--format json``)."""
        payload = dict(vars(self))
        payload["spec"] = dict(vars(self.spec))
        return payload


# ----------------------------------------------------------------------
# deterministic workload
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _PhoneScript:
    """One phone's precomputed session (everything but the task id)."""

    index: int
    user_id: str
    token: str
    app_id: str
    location: LatLon
    departure_time: float
    executed: int
    pull: bool
    rank_profile: int  # -1 = no rank query


def _place_location(place_index: int) -> LatLon:
    return LatLon(43.0 + 0.001 * place_index, -76.0)


def _place_category(spec: LoadgenSpec, place_index: int) -> str:
    """The category place ``place_index`` ranks in.

    With one category this is the historical ``loadgen`` name, so
    single-category workloads stay byte-identical to earlier releases.
    """
    if spec.categories == 1:
        return CATEGORY
    return f"{CATEGORY}-{place_index % spec.categories}"


def build_workload(spec: LoadgenSpec) -> list[_PhoneScript]:
    """The full phone population, in arrival order, from the seed alone."""
    rng = np.random.default_rng(spec.seed)
    users = fixed_count_arrivals(
        spec.phones, PERIOD_S, spec.budget, rng, id_prefix="lg"
    )
    executed = rng.integers(0, spec.budget + 1, size=spec.phones)
    scripts = []
    for index, user in enumerate(users):
        place_index = index % spec.places
        scripts.append(
            _PhoneScript(
                index=index,
                user_id=f"u-{index}",
                token=f"t-{index}",
                app_id=f"app-place-{place_index}",
                location=_place_location(place_index),
                departure_time=user.departure,
                executed=int(executed[index]),
                pull=index % PULL_EVERY == 0,
                rank_profile=(
                    (index // spec.rank_every) % len(PROFILES)
                    if index % spec.rank_every == 0
                    else -1
                ),
            )
        )
    return scripts


def workload_digest(spec: LoadgenSpec, scripts: list[_PhoneScript]) -> str:
    """A stable hash of the workload — equal seeds must produce equal
    digests, which the determinism test (and CI) asserts."""
    canonical = json.dumps(
        {
            "spec": {
                key: value
                for key, value in vars(spec).items()
                # Execution shape doesn't change what is sent.
                if key not in ("mode", "clients", "workers", "queue_capacity",
                               "io_delay_s", "shards", "replicas")
            },
            "phones": [
                [
                    s.index, s.user_id, s.token, s.app_id,
                    round(s.departure_time, 6), s.executed, s.pull,
                    s.rank_profile,
                ]
                for s in scripts
            ],
        },
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def _loadgen_application(spec: LoadgenSpec, place_index: int) -> Application:
    return Application(
        app_id=f"app-place-{place_index}",
        creator="loadgen",
        place_id=f"place-{place_index}",
        place_name=f"Place {place_index}",
        category=_place_category(spec, place_index),
        location=_place_location(place_index),
        script="local data = {}\nreturn data",
        pipeline=FeaturePipeline(
            [
                FeatureSpec(feature, "microphone", MeanExtractor())
                for feature in FEATURES
            ]
        ),
        period_start=0.0,
        period_end=PERIOD_S,
        num_instants=spec.num_instants,
    )


def _seed_features(spec: LoadgenSpec, server: SensingServer, place_index: int) -> None:
    # Seed feature data so rank queries exercise the full Algorithm 2
    # path (and the versioned ranking cache) instead of erroring out.
    for feature_index, feature in enumerate(FEATURES):
        server.database.table("feature_data").insert(
            {
                "place_id": f"place-{place_index}",
                "category": _place_category(spec, place_index),
                "feature": feature,
                "value": float(10.0 + 7.0 * place_index + 3.0 * feature_index),
                "computed_at": 0.0,
            }
        )


def _make_network(
    spec: LoadgenSpec,
    metrics: MetricsRegistry,
    conditions: NetworkConditions | None = None,
) -> Network:
    return Network(
        conditions=conditions
        or NetworkConditions(base_latency_s=0.0, jitter_s=0.0),
        rng=np.random.default_rng(spec.seed + 1),
        metrics=metrics,
    )


def _build_server(spec: LoadgenSpec, metrics: MetricsRegistry) -> SensingServer:
    network = _make_network(spec, metrics)
    concurrency = (
        ConcurrencyConfig(
            workers=spec.workers, queue_capacity=spec.queue_capacity
        )
        if spec.mode == "concurrent"
        else None
    )
    server = SensingServer(
        SERVER_HOST,
        network,
        ManualClock(0.0),  # simulated time: the period is [0, PERIOD_S]
        metrics=metrics,
        tracer=NullTracer(),
        # Generous: every keyed envelope of the run fits, so the
        # first-in first-out trim never evicts a reply a pull replays.
        dedupe_capacity=3 * spec.phones + 64,
        concurrency=concurrency,
        io_delay_s=spec.io_delay_s,
    )
    for place_index in range(spec.places):
        server.create_application(_loadgen_application(spec, place_index))
        _seed_features(spec, server, place_index)
    return server


def _start_cluster(
    spec: LoadgenSpec,
    scripts: list[_PhoneScript],
    metrics: MetricsRegistry,
    base_dir: str,
    conditions: NetworkConditions | None = None,
) -> ShardCluster:
    """A sharded deployment, seeded and replicating, ready for traffic.

    Categories are pinned round-robin across the shards (directory
    placement), so the offered load splits evenly and the 1→N scaling
    the bench gates on measures shard capacity, not ring luck.
    ``conditions`` impairs every network leg (the fault harness makes
    it lossy); by default the links are perfect.
    """
    network = _make_network(spec, metrics, conditions)
    concurrency = (
        ConcurrencyConfig(
            workers=spec.workers, queue_capacity=spec.queue_capacity
        )
        if spec.mode == "concurrent"
        else None
    )
    cluster = ShardCluster(
        network,
        ManualClock(0.0),
        base_dir,
        num_shards=spec.shards,
        replicas_per_shard=spec.replicas,
        metrics=metrics,
        tracer=NullTracer(),
        concurrency=concurrency,
        replica_concurrency=concurrency,
        io_delay_s=spec.io_delay_s,
        fsync=False,
        router_client=ResilientClient(
            network,
            policy=RetryPolicy(
                max_attempts=8,
                base_backoff_s=0.001,
                max_backoff_s=0.02,
                deadline_s=60.0,
            ),
            breaker_policy=BreakerPolicy(
                failure_threshold=64, recovery_timeout_s=0.05
            ),
            rng=np.random.default_rng(spec.seed + 3),
            sleep=time.sleep,
            metrics=metrics,
            tracer=NullTracer(),
        ),
    )
    for place_index in range(spec.places):
        category_index = place_index % spec.categories
        primary = cluster.create_application(
            _loadgen_application(spec, place_index),
            pin_to=f"shard-{category_index % spec.shards}",
        )
        _seed_features(spec, primary, place_index)
    for script in scripts:
        cluster.register_user(script.user_id, script.user_id.title(), script.token)
    # Ship the seeded applications/features before taking traffic so
    # an early rank query never finds a replica without its category.
    cluster.sync_replicas()
    cluster.start_replication()
    return cluster


class _Counts:
    """One driver thread's tallies, merged after the join.

    ``acked_schedules`` / ``acked_uploads`` record the task id of every
    positive reply the "phone" saw — the ledger the fleet fault run
    audits against the surviving primaries' tables.
    """

    __slots__ = (
        "ok", "by_type", "sessions", "errors", "mismatches",
        "acked_schedules", "acked_uploads",
    )

    def __init__(self) -> None:
        self.ok = 0
        self.by_type: dict[str, int] = {}
        self.sessions = 0
        self.errors = 0
        self.mismatches = 0
        self.acked_schedules: list[str] = []
        self.acked_uploads: list[str] = []

    def count(self, kind: str, reply: Envelope) -> None:
        self.ok += 1
        self.by_type[kind] = self.by_type.get(kind, 0) + 1
        if reply.message_type is MessageType.ERROR:
            self.errors += 1


def _run_session(
    script: _PhoneScript,
    client: ResilientClient,
    counts: _Counts,
    spec: LoadgenSpec,
    host: str = SERVER_HOST,
) -> None:
    """Drive one phone's closed-loop session end to end."""

    def post(envelope: Envelope) -> Envelope:
        response = client.send(
            HttpRequest("POST", host, "/sor", envelope.to_bytes())
        )
        return Envelope.from_bytes(response.body)

    sender = f"phone-{script.index}"
    participate = Envelope(
        message_type=MessageType.PARTICIPATE,
        sender=sender,
        recipient=host,
        payload={
            "app_id": script.app_id,
            "user_id": script.user_id,
            "token": script.token,
            "budget": spec.budget,
            "latitude": script.location.latitude,
            "longitude": script.location.longitude,
            "departure_time": script.departure_time,
        },
    ).with_idempotency_key()
    schedule = post(participate)
    counts.count("participate", schedule)
    if schedule.message_type is not MessageType.SCHEDULE:
        return  # error reply already tallied; session abandoned
    task_id = schedule.payload["task_id"]
    counts.acked_schedules.append(task_id)
    if script.pull:
        # A schedule pull is a verbatim replay of the participate: the
        # idempotency layer must serve the *identical* stored reply.
        pulled = post(participate)
        counts.count("pull", pulled)
        if pulled.to_bytes() != schedule.to_bytes():
            counts.mismatches += 1
    upload = Envelope(
        message_type=MessageType.SENSED_DATA,
        sender=sender,
        recipient=host,
        payload={
            "task_id": task_id,
            "token": script.token,
            "status": "finished",
            "executed": script.executed,
            "readings": [script.index, script.executed],
        },
    ).with_idempotency_key()
    ack = post(upload)
    counts.count("upload", ack)
    if ack.message_type is not MessageType.ACK:
        return
    counts.acked_uploads.append(task_id)
    if script.rank_profile >= 0:
        rank = post(
            Envelope(
                message_type=MessageType.RANK_QUERY,
                sender=sender,
                recipient=host,
                payload={
                    "category": _place_category(
                        spec, script.index % spec.places
                    ),
                    "profiles": [PROFILES[script.rank_profile]],
                },
            )
        )
        counts.count("rank_query", rank)
        if rank.message_type is not MessageType.RANKING:
            return
    counts.sessions += 1


class _Drivers:
    """The closed-loop driver threads and their per-thread tallies.

    Each of ``spec.effective_clients`` drivers walks its share of the
    scripts through its own patient resilient client. A driver whose
    retries run out records the error instead of hanging the run;
    :meth:`raise_failures` surfaces it after the join.
    """

    def __init__(
        self,
        spec: LoadgenSpec,
        scripts: list[_PhoneScript],
        network: Network,
        host: str,
        metrics: MetricsRegistry,
    ) -> None:
        self._spec = spec
        self._scripts = scripts
        self._host = host
        num_clients = spec.effective_clients
        self._clients = [
            ResilientClient(
                network,
                # Patient on purpose: a saturated admission queue (or a
                # lossy link, or a failover window) rejects many
                # attempts, and the drivers must ride that out rather
                # than abandon the run.
                policy=RetryPolicy(
                    max_attempts=64,
                    base_backoff_s=0.002,
                    max_backoff_s=0.05,
                    deadline_s=600.0,
                ),
                breaker_policy=BreakerPolicy(
                    failure_threshold=1_000_000, recovery_timeout_s=0.001
                ),
                rng=np.random.default_rng((spec.seed, 2, stream)),
                sleep=time.sleep,
                metrics=metrics,
                tracer=NullTracer(),
            )
            for stream in range(num_clients)
        ]
        self.counts = [_Counts() for _ in range(num_clients)]
        self.failures: list[BaseException] = []
        self._threads = [
            threading.Thread(target=self._drive, args=(i,), name=f"lg-client-{i}")
            for i in range(num_clients)
        ]

    def _drive(self, client_index: int) -> None:
        num_clients = len(self._clients)
        try:
            for script in self._scripts[client_index::num_clients]:
                _run_session(
                    script,
                    self._clients[client_index],
                    self.counts[client_index],
                    self._spec,
                    host=self._host,
                )
        except TransportError as exc:  # retries exhausted: report, don't hang
            self.failures.append(exc)

    def start(self) -> None:
        for thread in self._threads:
            thread.start()

    def alive(self) -> bool:
        return any(thread.is_alive() for thread in self._threads)

    def join(self) -> None:
        for thread in self._threads:
            thread.join()

    def run(self) -> None:
        """Drive every session to completion (inline with one client)."""
        if len(self._threads) == 1:
            self._drive(0)
        else:
            self.start()
            self.join()

    def acked_schedules(self) -> int:
        return sum(len(counts.acked_schedules) for counts in self.counts)

    def raise_failures(self) -> None:
        if self.failures:
            raise TransportError(
                f"{len(self.failures)} driver thread(s) exhausted retries: "
                f"{self.failures[0]}"
            )


def run_loadgen(spec: LoadgenSpec) -> LoadgenReport:
    """Run one load generation pass and report counters + wall-clock."""
    metrics = MetricsRegistry()
    scripts = build_workload(spec)
    report = LoadgenReport(
        spec=spec, workload_digest=workload_digest(spec, scripts)
    )
    server: SensingServer | None = None
    cluster: ShardCluster | None = None
    tmp: tempfile.TemporaryDirectory | None = None
    if spec.shards > 1:
        tmp = tempfile.TemporaryDirectory(prefix="sor-loadgen-shards-")
        cluster = _start_cluster(spec, scripts, metrics, tmp.name)
        network = cluster.network
        target_host = cluster.router_host
    else:
        server = _build_server(spec, metrics)
        network = server.network
        target_host = SERVER_HOST
        for script in scripts:
            server.register_user(
                script.user_id, script.user_id.title(), script.token
            )

    drivers = _Drivers(spec, scripts, network, target_host, metrics)
    started = time.perf_counter()
    drivers.run()
    report.duration_s = max(time.perf_counter() - started, 1e-9)
    if cluster is not None:
        cluster.stop_replication()
        cluster.sync_replicas()  # drain replica lag before teardown
        cluster.close()
        assert tmp is not None
        tmp.cleanup()
    elif server is not None:
        server.close()

    drivers.raise_failures()
    for counts in drivers.counts:
        report.requests_ok += counts.ok
        report.sessions_completed += counts.sessions
        report.error_replies += counts.errors
        report.replay_mismatches += counts.mismatches
        for kind, value in counts.by_type.items():
            report.requests_by_type[kind] = (
                report.requests_by_type.get(kind, 0) + value
            )
    report.requests_per_s = report.requests_ok / report.duration_s
    histogram = metrics.get("sor_server_request_seconds")
    if histogram is not None:
        report.p50_ms = 1000.0 * histogram.quantile(0.50)  # type: ignore[union-attr]
        report.p99_ms = 1000.0 * histogram.quantile(0.99)  # type: ignore[union-attr]
    busy = metrics.get("sor_server_busy_rejections_total")
    if busy is not None:
        report.busy_rejections = int(busy.value())  # type: ignore[union-attr]
    retries = metrics.get("sor_net_retries_total")
    if retries is not None:
        report.retries = int(retries.value(host=target_host))  # type: ignore[union-attr]
    return report


def run_comparison(spec: LoadgenSpec) -> tuple[LoadgenReport, LoadgenReport, float]:
    """Run ``spec`` concurrent and sequential; return both + the speedup.

    The speedup is sustained req/s concurrent over sequential. It only
    means something with ``io_delay_s > 0``: concurrency's win is
    overlapping per-request I/O waits, which a zero-I/O workload does
    not have (the GIL serializes pure computation either way).
    """
    concurrent = run_loadgen(replace(spec, mode="concurrent"))
    sequential = run_loadgen(replace(spec, mode="sequential"))
    speedup = concurrent.requests_per_s / max(sequential.requests_per_s, 1e-9)
    return concurrent, sequential, speedup


def format_report(report: LoadgenReport) -> str:
    """The CLI's human-readable rendering of one run."""
    spec = report.spec
    by_type = ", ".join(
        f"{kind}={count}"
        for kind, count in sorted(report.requests_by_type.items())
    )
    lines = [
        f"loadgen — {spec.phones} phones, mode={spec.mode} "
        f"(clients={spec.effective_clients}, workers={spec.workers}, "
        f"queue={spec.queue_capacity}, io_delay={spec.io_delay_s * 1000:g}ms, "
        f"seed={spec.seed})",
        f"workload digest     : {report.workload_digest}",
        f"requests ok         : {report.requests_ok} ({by_type})",
        f"sessions completed  : {report.sessions_completed}/{spec.phones}",
        f"error replies       : {report.error_replies}"
        f" (replay mismatches {report.replay_mismatches})",
        f"busy rejections     : {report.busy_rejections}"
        f" (client retries {report.retries})",
        f"duration            : {report.duration_s:.3f}s",
        f"sustained rate      : {report.requests_per_s:,.0f} req/s",
        f"handler latency     : p50 {report.p50_ms:.3f}ms, "
        f"p99 {report.p99_ms:.3f}ms",
    ]
    return "\n".join(lines)
