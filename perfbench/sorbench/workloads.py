"""The benchmark's three workloads: seeded request plans and deployments.

A :class:`Plan` is everything the phones will send, derived from the
seed alone; a deployment is the in-process ``SensingServer`` or
``ShardCluster`` it is sent to. Each timed round builds a fresh
deployment and replays the same plan, so every round (and every run
with the same seed) schedules exactly the same instants.

All deployments share one load model: zero simulated latency and
``io_delay_s`` 0, a fixed ``ManualClock``, the default
``ConcurrencyConfig()`` pools, and a WAL on every primary with fsync off
and no automatic checkpoints. A cluster's replicas are pumped once per
:data:`SHIP_EVERY` answered requests (:class:`ReplicationPump`).
"""

from __future__ import annotations

import hashlib
import json
import shutil
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.common.clock import ManualClock
from repro.common.geo import LatLon
from repro.core.features import FeaturePipeline, FeatureSpec, MeanExtractor
from repro.db import DurabilityConfig
from repro.net import NetworkConditions
from repro.net.resilience import BreakerPolicy, ResilientClient, RetryPolicy
from repro.net.transport import Network
from repro.obs import MetricsRegistry, NullTracer
from repro.server.app_manager import Application
from repro.server.concurrency import ConcurrencyConfig
from repro.server.server import SensingServer
from repro.server.sharding import ShardCluster
from repro.sim.loadgen import PROFILES, LoadgenSpec, build_workload

PERIOD_S = 10800.0  # the paper's 3-hour sensing period
SERVER_HOST = "bench-server"

#: Seeded feature ranges; continuous draws keep individual rankings tie-free.
FEATURE_RANGES = {
    "noise_db": (35.0, 85.0),
    "occupancy": (0.0, 1.0),
    "wifi_mbps": (1.0, 100.0),
}
FEATURES = tuple(FEATURE_RANGES)


@dataclass(frozen=True)
class AppSpec:
    """One sensing application (one place)."""

    index: int
    place_id: str
    category: str
    latitude: float
    longitude: float
    num_instants: int

    @property
    def app_id(self) -> str:
        return f"app-{self.place_id}"


@dataclass(frozen=True)
class RankRequest:
    """A keyless rank query for one profile of one category."""

    key: int
    category: str
    category_index: int
    profile: dict[str, Any]


@dataclass(frozen=True)
class PhoneSession:
    """One phone: participate, maybe replay it, upload, maybe rank."""

    index: int
    user_id: str
    token: str
    app_index: int
    app_id: str
    latitude: float
    longitude: float
    departure_time: float
    executed: int
    budget: int
    pull: bool
    rank: RankRequest | None = None

    @property
    def requests(self) -> int:
        return 2 + self.pull + (self.rank is not None)


Item = PhoneSession | RankRequest


@dataclass
class Plan:
    """Everything one round sends, in global arrival order."""

    workload: str
    seed: int
    apps: list[AppSpec]
    #: category -> place id -> feature -> value
    features: dict[str, dict[str, dict[str, float]]]
    items: list[Item]
    period_s: float = PERIOD_S
    shards: int = 1

    @property
    def phones(self) -> list[PhoneSession]:
        return [item for item in self.items if isinstance(item, PhoneSession)]

    @property
    def requests(self) -> int:
        return sum(
            item.requests if isinstance(item, PhoneSession) else 1
            for item in self.items
        )

    def split(self, drivers: int) -> list[list[Item]]:
        """Items per driver, split by application (rank queries by category).

        Every application's phones go to one driver in arrival order, so
        its online schedules never depend on how the drivers interleave.
        """
        shares: list[list[Item]] = [[] for _ in range(drivers)]
        for item in self.items:
            if isinstance(item, PhoneSession):
                shares[item.app_index % drivers].append(item)
            else:
                shares[item.category_index % drivers].append(item)
        return shares

    def digest(self) -> str:
        """A stable hash of the plan; equal seeds give equal digests."""
        canonical = json.dumps(
            {
                "workload": self.workload,
                "apps": [asdict(app) for app in self.apps],
                "features": self.features,
                "items": [
                    [type(item).__name__, asdict(item)] for item in self.items
                ],
            },
            sort_keys=True,
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


#: Answered requests per replication pump pass on a cluster.
SHIP_EVERY = 16


class ReplicationPump:
    """Replication pumped on a background thread, paced by requests.

    ``ShardCluster.start_replication`` pumps on a timer, and every pass
    re-reads the growing WAL segment, so a round that runs slower on a
    shared host also pumps more often, each pass costing more: the
    timer turns host noise into program work. This pump runs one pass
    per ``every`` answered requests instead, so a round always does the
    same replication work, still on its own thread.
    """

    def __init__(self, sync: Callable[[], int], every: int) -> None:
        self._sync = sync
        self._every = every
        self._answered = 0
        self._due = 0
        self._stopped = False
        self._error: BaseException | None = None
        self._condition = threading.Condition()
        self._thread = threading.Thread(
            target=self._run, name="bench-replication", daemon=True
        )
        self._thread.start()

    def answered(self) -> None:
        """Count one answered request; every ``every``-th makes a pass due."""
        with self._condition:
            self._answered += 1
            if self._answered % self._every == 0:
                self._due += 1
                self._condition.notify_all()

    def drain(self) -> None:
        """Wait until every due pass has run; re-raise a pass's failure."""
        with self._condition:
            while self._due and self._error is None:
                self._condition.wait()
        if self._error is not None:
            raise self._error

    def stop(self) -> None:
        """Stop the pump thread and wait for it to end."""
        with self._condition:
            self._stopped = True
            self._condition.notify_all()
        self._thread.join()

    def _run(self) -> None:
        while True:
            with self._condition:
                while not self._due and not self._stopped:
                    self._condition.wait()
                if self._stopped:
                    return
            try:
                self._sync()
            except BaseException as exc:  # noqa: BLE001 - re-raised by drain
                with self._condition:
                    self._error = exc
                    self._condition.notify_all()
                return
            with self._condition:
                self._due -= 1
                self._condition.notify_all()


@dataclass
class Deployment:
    """A built server or cluster the drivers talk to."""

    host: str
    network: Network
    metrics: MetricsRegistry
    directory: Path
    coverage: Callable[[], float]
    close: Callable[[], None]
    servers: list[SensingServer] = field(default_factory=list)
    pump: ReplicationPump | None = None

    def disk_bytes(self) -> int:
        """Bytes in the primaries' durability directories."""
        return sum(
            path.stat().st_size
            for path in self.directory.rglob("*")
            if path.is_file()
        )


# ----------------------------------------------------------------------
# plans
# ----------------------------------------------------------------------
def _seed_features(
    rng: np.random.Generator, places: list[tuple[str, str]]
) -> dict[str, dict[str, dict[str, float]]]:
    features: dict[str, dict[str, dict[str, float]]] = {}
    for place_id, category in places:
        features.setdefault(category, {})[place_id] = {
            feature: float(rng.uniform(low, high))
            for feature, (low, high) in FEATURE_RANGES.items()
        }
    return features


def _sessions(
    spec: LoadgenSpec,
    apps: list[AppSpec],
    *,
    pulls: bool,
    rank: Callable[[Any, AppSpec], RankRequest | None],
) -> list[PhoneSession]:
    """Phone sessions from ``repro.sim.loadgen.build_workload``'s scripts."""
    sessions = []
    for script in build_workload(spec):
        app = apps[script.index % len(apps)]
        sessions.append(
            PhoneSession(
                index=script.index,
                user_id=script.user_id,
                token=script.token,
                app_index=app.index,
                app_id=app.app_id,
                latitude=app.latitude,
                longitude=app.longitude,
                departure_time=float(script.departure_time),
                executed=script.executed,
                budget=spec.budget,
                pull=pulls and script.pull,
                rank=rank(script, app),
            )
        )
    return sessions


def _apps(count: int, categories: int, num_instants: int) -> list[AppSpec]:
    return [
        AppSpec(
            index=index,
            place_id=f"place-{index}",
            category=f"cat-{index % categories}",
            latitude=43.0 + 0.001 * index,
            longitude=-76.0,
            num_instants=num_instants,
        )
        for index in range(count)
    ]


def plan_schedule_heavy(seed: int, phones: int) -> Plan:
    """8 apps with a 4000-instant horizon, budget 10; no rank queries."""
    apps = _apps(8, 8, 4000)
    spec = LoadgenSpec(
        phones=phones, seed=seed, budget=10, places=8, num_instants=4000
    )
    items = _sessions(spec, apps, pulls=True, rank=lambda script, app: None)
    return Plan("schedule_heavy", seed, apps, {}, list(items))


#: rank_heavy's key space: categories x profiles per category.
RANK_CATEGORIES = 4
RANK_PLACES = 32
RANK_PROFILES = 500
ZIPF_S = 1.0


def rank_profiles(seed: int) -> list[dict[str, Any]]:
    """``RANK_PROFILES`` distinct profiles in wire form, from the seed.

    Each feature is left out or preferred at its max or min with weight
    1–5; the combinations are distinct, so so are the cache keys.
    """
    options: list[tuple[str, int] | None] = [None] + [
        (preferred, weight) for preferred in ("max", "min") for weight in range(1, 6)
    ]
    lattice = []
    for a in options:
        for b in options:
            for c in options:
                if a or b or c:
                    lattice.append((a, b, c))
    rng = np.random.default_rng((seed, 7))
    chosen = rng.permutation(len(lattice))[:RANK_PROFILES]
    profiles = []
    for number, lattice_index in enumerate(chosen):
        preferences = {
            feature: {"preferred": option[0], "weight": option[1]}
            for feature, option in zip(FEATURES, lattice[lattice_index])
            if option is not None
        }
        profiles.append({"name": f"p{number}", "preferences": preferences})
    return profiles


def plan_rank_heavy(seed: int, queries: int, phones: int) -> Plan:
    """4 x 32 places; Zipf-keyed rank queries plus a few writing phones."""
    rng = np.random.default_rng((seed, 5))
    places = [
        (f"place-{category}-{slot}", f"cat-{category}")
        for category in range(RANK_CATEGORIES)
        for slot in range(RANK_PLACES)
    ]
    features = _seed_features(rng, places)
    apps = [
        AppSpec(
            index=category,
            place_id=f"place-{category}-0",
            category=f"cat-{category}",
            latitude=43.0 + 0.001 * category,
            longitude=-76.0,
            num_instants=120,
        )
        for category in range(RANK_CATEGORIES)
    ]
    profiles = rank_profiles(seed)
    keys = RANK_CATEGORIES * RANK_PROFILES
    weights = 1.0 / np.arange(1, keys + 1) ** ZIPF_S
    order = rng.permutation(keys)  # which key has popularity rank r
    # Stratified Zipf draws: one uniform per 1/queries stratum of the
    # CDF, shuffled. Every seed then sends nearly the same popularity
    # mix, so runs differ in which keys are hot, not in how many.
    cdf = np.cumsum(weights / weights.sum())
    strata = (np.arange(queries) + rng.uniform(size=queries)) / queries
    ranks = rng.permutation(np.minimum(np.searchsorted(cdf, strata), keys - 1))
    queries_list = []
    for rank in ranks:
        key = int(order[rank])
        category_index = key % RANK_CATEGORIES
        queries_list.append(
            RankRequest(
                key=key,
                category=f"cat-{category_index}",
                category_index=category_index,
                profile=profiles[key // RANK_CATEGORIES],
            )
        )
    spec = LoadgenSpec(phones=phones, seed=seed, places=RANK_CATEGORIES)
    sessions = _sessions(spec, apps, pulls=False, rank=lambda script, app: None)
    items: list[Item] = []
    gap = len(queries_list) // max(1, len(sessions))
    stream = iter(queries_list)
    for session in sessions:
        items.extend(next(stream) for _ in range(gap))
        items.append(session)
    items.extend(stream)
    return Plan("rank_heavy", seed, apps, features, items)


def plan_sharded_mix(seed: int, phones: int) -> Plan:
    """The loadgen mix over 8 places in 2 categories, one per shard."""
    apps = _apps(8, 2, 120)
    rng = np.random.default_rng((seed, 5))
    features = _seed_features(rng, [(app.place_id, app.category) for app in apps])
    spec = LoadgenSpec(
        phones=phones, seed=seed, places=8, categories=2, shards=2, replicas=1
    )

    def rank(script: Any, app: AppSpec) -> RankRequest | None:
        if script.rank_profile < 0:
            return None
        return RankRequest(
            key=script.rank_profile,
            category=app.category,
            category_index=app.index % 2,
            profile=PROFILES[script.rank_profile],
        )

    items = _sessions(spec, apps, pulls=True, rank=rank)
    return Plan("sharded_mix", seed, apps, features, list(items), shards=2)


# ----------------------------------------------------------------------
# deployments
# ----------------------------------------------------------------------
def _application(app: AppSpec) -> Application:
    return Application(
        app_id=app.app_id,
        creator="perfbench",
        place_id=app.place_id,
        place_name=app.place_id,
        category=app.category,
        location=LatLon(app.latitude, app.longitude),
        script="local data = {}\nreturn data",
        pipeline=FeaturePipeline(
            [FeatureSpec(feature, "microphone", MeanExtractor()) for feature in FEATURES]
        ),
        period_start=0.0,
        period_end=PERIOD_S,
        num_instants=app.num_instants,
    )


def _insert_features(server: SensingServer, category: str, places: dict) -> None:
    table = server.database.table("feature_data")
    for place_id, values in places.items():
        for feature, value in values.items():
            table.insert(
                {
                    "place_id": place_id,
                    "category": category,
                    "feature": feature,
                    "value": value,
                    "computed_at": 0.0,
                }
            )


def _network(seed: int, metrics: MetricsRegistry) -> Network:
    return Network(
        conditions=NetworkConditions(base_latency_s=0.0, jitter_s=0.0),
        rng=np.random.default_rng(seed + 1),
        metrics=metrics,
    )


def deploy(plan: Plan, directory: Path) -> Deployment:
    """Build the plan's server or cluster under ``directory``."""
    metrics = MetricsRegistry()
    network = _network(plan.seed, metrics)
    phones = plan.phones
    if plan.shards > 1:
        return _deploy_cluster(plan, directory, metrics, network, phones)
    server = SensingServer(
        SERVER_HOST,
        network,
        ManualClock(0.0),
        metrics=metrics,
        tracer=NullTracer(),
        # Every keyed envelope of a round fits, so the FIFO trim of the
        # idempotency table never runs (as in repro loadgen).
        dedupe_capacity=3 * len(phones) + 64,
        durability=DurabilityConfig(directory=directory, fsync=False),
        concurrency=ConcurrencyConfig(),
    )
    for app in plan.apps:
        server.create_application(_application(app))
    for category, places in plan.features.items():
        _insert_features(server, category, places)
    for phone in phones:
        server.register_user(phone.user_id, phone.user_id.title(), phone.token)

    def coverage() -> float:
        return float(
            np.mean(
                [
                    server.scheduler.coverage_for(server.apps.get(app.app_id))
                    for app in plan.apps
                ]
            )
        )

    def close() -> None:
        server.close()
        if server.database.durability is not None:
            server.database.durability.close()

    return Deployment(
        SERVER_HOST, network, metrics, directory, coverage, close, [server]
    )


def _deploy_cluster(
    plan: Plan,
    directory: Path,
    metrics: MetricsRegistry,
    network: Network,
    phones: list[PhoneSession],
) -> Deployment:
    cluster = ShardCluster(
        network,
        ManualClock(0.0),
        directory,
        num_shards=plan.shards,
        replicas_per_shard=1,
        metrics=metrics,
        tracer=NullTracer(),
        concurrency=ConcurrencyConfig(),
        replica_concurrency=ConcurrencyConfig(),
        fsync=False,
        router_client=ResilientClient(
            network,
            policy=RetryPolicy(
                max_attempts=8, base_backoff_s=0.001, max_backoff_s=0.02, deadline_s=60.0
            ),
            breaker_policy=BreakerPolicy(failure_threshold=64, recovery_timeout_s=0.05),
            rng=np.random.default_rng(plan.seed + 3),
            sleep=time.sleep,
            metrics=metrics,
            tracer=NullTracer(),
        ),
    )
    categories = sorted({app.category for app in plan.apps})
    for app in plan.apps:
        shard = categories.index(app.category) % plan.shards
        cluster.create_application(_application(app), pin_to=f"shard-{shard}")
    for category, places in plan.features.items():
        _insert_features(cluster.primary_for_category(category), category, places)
    for phone in phones:
        cluster.register_user(phone.user_id, phone.user_id.title(), phone.token)
    # Ship the seeded state before traffic, so no early rank query finds
    # a replica without its category; then pump as the requests arrive.
    cluster.sync_replicas()
    pump = ReplicationPump(cluster.sync_replicas, SHIP_EVERY)

    def coverage() -> float:
        values = []
        for app in plan.apps:
            primary = cluster.primary_for_category(app.category)
            values.append(primary.scheduler.coverage_for(primary.apps.get(app.app_id)))
        return float(np.mean(values))

    def close() -> None:
        pump.stop()
        cluster.close()

    servers = [shard.primary for shard in cluster.shards.values()]
    return Deployment(
        cluster.router_host, network, metrics, directory, coverage, close, servers, pump
    )


def driver_client(network: Network, seed: int, stream: int, metrics: MetricsRegistry) -> ResilientClient:
    """A phone-side resilient client with repro loadgen's patient policy."""
    return ResilientClient(
        network,
        policy=RetryPolicy(
            max_attempts=64, base_backoff_s=0.002, max_backoff_s=0.05, deadline_s=600.0
        ),
        breaker_policy=BreakerPolicy(failure_threshold=1_000_000, recovery_timeout_s=0.001),
        rng=np.random.default_rng((seed, 2, stream)),
        sleep=time.sleep,
        metrics=metrics,
        tracer=NullTracer(),
    )


def remove_tree(directory: Path) -> None:
    """Delete a round's durability directory."""
    shutil.rmtree(directory, ignore_errors=True)


#: Workload name -> the plan one round of it sends, from the seed. Why
#: each exists is recorded in ``perfbench/rationale.json``.
WORKLOADS: dict[str, Callable[[int], Plan]] = {
    "schedule_heavy": lambda seed: plan_schedule_heavy(seed, phones=64),
    "rank_heavy": lambda seed: plan_rank_heavy(seed, queries=1080, phones=60),
    "sharded_mix": lambda seed: plan_sharded_mix(seed, phones=120),
}
