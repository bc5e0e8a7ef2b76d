"""Sharded sensing-server fleet: primaries, WAL-fed read-replicas, failover.

The SOR paper deploys "one or multiple sensing servers"; this module
makes *multiple* real. A :class:`ShardCluster` runs N shards, each one:

* a **primary** — an ordinary durable
  :class:`~repro.server.server.SensingServer` whose WAL directory
  doubles as its replication log;
* zero or more **read-replicas** (:class:`ShardReplica`) — each with
  its *own* :class:`~repro.db.database.Database` rebuilt purely from
  what the primary's directory ships. Every replica joins the same way,
  shipping from the join cursor: it installs the newest checkpoint, or
  replays the log from segment 1 when there is none (the log starts
  with the ``create_table`` DDL). Replicas serve ``RANK_QUERY`` traffic
  from their own :class:`~repro.server.ranker_service.RankingCache`.

Reads are **bounded-stale**: a replica lags its primary by whatever is
not yet shipped, but the per-category ``data_version`` rides the same
log, so every RANKING reply carries the exact version it was computed
against — staleness is observable, never silent.

Failover: killing a primary (`kill -9` semantics — handles closed, no
flush) loses nothing that was acked, because acked means "commit record
on disk". :meth:`ShardCluster.promote` has the surviving replica do one
final catch-up read of the dead primary's directory (file-level
shipping needs no cooperating process), refuses if the replica is still
behind the log after that, then **re-attaches durability**
(:func:`~repro.db.wal.attach_durability`: the replica's state becomes a
fresh checkpoint and the next WAL generation opens in the same
directory) before wrapping the database in a fresh ``SensingServer``
under the *same host name* — task-id prefixes and idempotent replies
line up, and the promoted primary commits durably, so it survives
being killed again. Promotion then
**re-seeds** the shard (:meth:`ShardCluster.reseed`): a replacement
replica joins like every replica, which installs the promotion
checkpoint, and rejoins the router's replica set, restoring read
fan-out and the next failover's candidate pool.

Rebalancing: adding a shard re-rings the category space;
:meth:`ShardCluster.rebalance` moves each reassigned category's
applications, ``feature_data`` rows and ``ranking_versions`` row to the
new owner (version numbers are preserved so replica caches can never
serve a stale ranking as fresh). Task-id prefix routing still sends an
in-flight task's upload to the old shard, which no longer holds the
application and answers it with ERROR instead of acking a blob that
could never become readings.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.common.clock import Clock
from repro.common.errors import (
    CodecError,
    ConfigurationError,
    DatabaseError,
)
from repro.db import Database, DurabilityConfig, eq, load_database
from repro.db.replication import ReplicationCursor, WalShipper, apply_records
from repro.db.wal import attach_durability
from repro.net.http import HttpRequest, HttpResponse, busy_response, metrics_response
from repro.net.messages import Envelope, MessageType
from repro.net.resilience import ResilientClient
from repro.net.router import RoutingTable, ShardInfo, ShardRouter
from repro.net.transport import Network
from repro.obs import MetricsRegistry, Tracer, get_metrics, get_tracer
from repro.server.app_manager import Application
from repro.server.concurrency import (
    ConcurrencyConfig,
    ReadWriteLock,
    RequestExecutor,
)
from repro.server.ranker_service import (
    PersonalizableRanker,
    RankingCache,
    bump_data_version,
    rank_query_reply,
)
from repro.server.server import SensingServer

#: Seconds between the background replication pump's passes.
REPLICATION_INTERVAL_S = 0.01


class ShardReplica:
    """A read-replica: follows one primary's WAL, serves rank queries.

    The replica owns an independent database built exclusively from
    what its primary's directory ships, so it shares no mutable state
    with its primary — killing the primary cannot corrupt a replica
    mid-read. Its constructor's first ``sync()`` is its join: it ships
    from the default :class:`~repro.db.replication.ReplicationCursor`.
    ``sync()`` (the apply loop) takes the exclusive side of a
    readers–writer lock; rank queries take the shared side, so queries
    never observe a half-applied batch.
    """

    def __init__(
        self,
        host: str,
        network: Network,
        directory: str | Path,
        clock: Clock,
        *,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        concurrency: ConcurrencyConfig | None = None,
        io_delay_s: float = 0.0,
    ) -> None:
        self.host = host
        self.network = network
        self.directory = Path(directory)
        self.clock = clock
        self.metrics = metrics if metrics is not None else get_metrics()
        self.tracer = tracer if tracer is not None else get_tracer()
        if io_delay_s < 0:
            raise ConfigurationError("io_delay_s must be non-negative")
        self.io_delay_s = io_delay_s
        self._shipper = WalShipper(self.directory)
        self._cursor = ReplicationCursor()
        self._rwlock = ReadWriteLock()
        # Serializes whole sync() passes: the background pump and a
        # promotion's final catch-up must never ship from the same
        # cursor concurrently (double-apply).
        self._sync_mutex = threading.Lock()
        self._closed = False
        self.database = Database(name=host, metrics=self.metrics)
        self._build_ranker()
        self._executor = (
            RequestExecutor(concurrency) if concurrency is not None else None
        )
        self._last_sync = clock.now()
        self._m_requests = self.metrics.counter(
            "sor_shard_replica_requests_total",
            "requests served by read-replicas, by replica and status",
            labels=("replica", "status"),
        )
        self._m_request_children: dict[str, Any] = {}
        self._m_applied = self.metrics.counter(
            "sor_shard_replica_applied_records_total",
            "WAL records applied by replicas",
            labels=("replica",),
        )
        self._m_bootstraps = self.metrics.counter(
            "sor_shard_replica_bootstraps_total",
            "replica databases rebuilt from a shipped checkpoint",
            labels=("replica",),
        )
        self._m_lag_records = self.metrics.gauge(
            "sor_shard_replica_lag_records",
            "committed primary records not yet applied, plus one for a "
            "due checkpoint install, sampled at the start of each sync",
            labels=("replica",),
        )
        self._m_lag_seconds = self.metrics.gauge(
            "sor_shard_replica_lag_seconds",
            "clock seconds since the replica last synced its primary",
            labels=("replica",),
        )
        # Join before taking traffic: the primary's directory already
        # holds the schema, so a freshly-built replica must never serve
        # a query against an empty, table-less database.
        self.bootstrap_records = self.sync()
        network.register(host, self)

    def _build_ranker(self) -> None:
        self.ranking_cache = RankingCache(metrics=self.metrics)
        self.ranker = PersonalizableRanker(
            self.database,
            cache=self.ranking_cache,
            metrics=self.metrics,
            tracer=self.tracer,
        )

    # -- replication ---------------------------------------------------
    def pending(self) -> int:
        """How far this replica lags: committed records not yet applied,
        plus one when a checkpoint install is due."""
        if self._closed:
            return 0
        return self._shipper.pending(self._cursor)

    def sync(self) -> int:
        """Apply everything the primary has committed; returns the lag
        this pass caught up on, the count :meth:`pending` reported: the
        records applied, plus one when it installed a checkpoint.

        Sets ``sor_shard_replica_lag_records`` to that lag, so it reads
        0 only once a pass finds nothing new.

        File-level: works identically whether the primary is alive or
        already killed, which is what promotion's final catch-up needs.
        No-op once closed, so a background pump tick can never mutate a
        database that promotion has already snapshotted.
        """
        with self._sync_mutex:
            if self._closed:
                return 0
            return self._sync_locked()

    def _sync_locked(self) -> int:
        batch = self._shipper.ship(self._cursor)
        self._m_lag_records.set(batch.lag, replica=self.host)
        with self._rwlock.write():
            if batch.snapshot is not None:
                self.database = load_database(batch.snapshot, metrics=self.metrics)
                self._build_ranker()
                self._m_bootstraps.inc(replica=self.host)
            if batch.records:
                apply_records(self.database, batch.records, source=self.host)
            self._cursor = batch.cursor
        now = self.clock.now()
        self._m_lag_seconds.set(max(0.0, now - self._last_sync), replica=self.host)
        self._last_sync = now
        if batch.records:
            self._m_applied.inc(len(batch.records), replica=self.host)
        return batch.lag

    # -- endpoint ------------------------------------------------------
    def handle_request(self, request: HttpRequest) -> HttpResponse:
        """Serve one request (RANK_QUERY only; replicas are read-only).

        ``GET /metrics`` bypasses the admission gate and is not counted
        as a request, as on the server and the router.
        """
        if request.method == "GET" and request.path == "/metrics":
            return metrics_response(self.metrics)
        if self._executor is None:
            return self._handle_one(request)
        outcome = self._executor.submit(lambda: self._handle_one(request))
        if outcome is None:
            self._count_request("503")
            return busy_response(self.host)
        return outcome.result()

    def _handle_one(self, request: HttpRequest) -> HttpResponse:
        time.sleep(self.io_delay_s)  # even at 0: one GIL release per request
        try:
            envelope = Envelope.from_bytes(request.body)
        except CodecError:
            self._count_request("400")
            return HttpResponse(status=400)
        if envelope.message_type is not MessageType.RANK_QUERY:
            self._count_request("405")
            return HttpResponse(status=405)
        try:
            with self._rwlock.read():
                reply = rank_query_reply(self.ranker, envelope)
        except DatabaseError:
            # Not caught up enough to serve (e.g. the category's tables
            # have not been shipped yet): let the router fail over.
            self._count_request("503")
            return busy_response(self.host)
        self._count_request("200")
        return HttpResponse(status=200, body=reply.to_bytes())

    def _count_request(self, status: str) -> None:
        """Count one request on its labeled child, bound on first use."""
        child = self._m_request_children.get(status)
        if child is None:
            child = self._m_requests.labels(replica=self.host, status=status)
            self._m_request_children[status] = child
        child.inc()

    def close(self) -> None:
        """Unhook from the network and close the admission gate, waiting
        for the requests it admitted (idempotent).

        Waits for any in-flight ``sync()`` pass to finish, so after
        ``close()`` returns the database is frozen — safe to hand to a
        promotion's :func:`~repro.db.wal.attach_durability` snapshot.
        """
        with self._sync_mutex:
            self._closed = True
        if self.network.is_registered(self.host):
            self.network.unregister(self.host)
        if self._executor is not None:
            self._executor.close()


@dataclass
class Shard:
    """One shard's runtime pieces."""

    shard_id: str
    directory: Path
    primary: SensingServer
    replicas: list[ShardReplica] = field(default_factory=list)
    # Monotonic replica-host allocator: a re-seeded replacement must
    # never reuse a dead replica's host name (stale circuit-breaker
    # state and old idempotent replies key on the host).
    next_replica_index: int = 0


class ShardCluster:
    """N sharded sensing servers behind one consistent-hash router.

    The cluster is the control plane: it builds shards, keeps the
    router's :class:`~repro.net.router.RoutingTable` in sync with
    membership, pumps replication, and runs failover promotion and
    rebalancing. The data plane is unchanged — phones talk to
    ``cluster.router_host`` with the ordinary envelope protocol.
    """

    ROUTER_HOST = "shard-router"

    def __init__(
        self,
        network: Network,
        clock: Clock,
        base_dir: str | Path,
        *,
        num_shards: int = 2,
        replicas_per_shard: int = 1,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        concurrency: ConcurrencyConfig | None = None,
        replica_concurrency: ConcurrencyConfig | None = None,
        io_delay_s: float = 0.0,
        fsync: bool = False,
        router_client: ResilientClient | None = None,
    ) -> None:
        if num_shards < 1:
            raise ConfigurationError("num_shards must be at least 1")
        if replicas_per_shard < 0:
            raise ConfigurationError("replicas_per_shard must be >= 0")
        self.network = network
        self.clock = clock
        self.base_dir = Path(base_dir)
        self.metrics = metrics if metrics is not None else get_metrics()
        self.tracer = tracer if tracer is not None else get_tracer()
        self.concurrency = concurrency
        self.replica_concurrency = replica_concurrency
        self.io_delay_s = io_delay_s
        self.fsync = fsync
        self.replicas_per_shard = replicas_per_shard
        self.shards: dict[str, Shard] = {}
        self._pipelines: dict[str, Application] = {}
        self._users: list[tuple[str, str, str]] = []
        self._repl_thread: threading.Thread | None = None
        self._repl_stop = threading.Event()
        self._lock = threading.Lock()
        self._m_failovers = self.metrics.counter(
            "sor_shard_failovers_total",
            "replica promotions after a primary death",
        )
        self._m_reseeds = self.metrics.counter(
            "sor_shard_reseeds_total",
            "replacement replicas spawned after promotions, by shard",
            labels=("shard",),
        )
        self._m_reseed_lag = self.metrics.gauge(
            "sor_shard_reseed_lag_records",
            "lag the latest re-seeded replica's join caught up on before "
            "taking traffic: records applied, plus one for the installed "
            "checkpoint",
            labels=("shard",),
        )
        self._m_reseed_seconds = self.metrics.histogram(
            "sor_shard_reseed_seconds",
            "wall time to build, bootstrap and register a replacement replica",
            buckets=(0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0),
        )
        self._m_catchup = self.metrics.counter(
            "sor_shard_promote_catchup_records_total",
            "lag promotion's final file-level catch-up caught up on, by "
            "shard: records applied, plus one per installed checkpoint",
            labels=("shard",),
        )
        self._m_moves = self.metrics.counter(
            "sor_shard_rebalance_moves_total",
            "ownership moves during rebalancing, by kind",
            labels=("kind",),
        )
        self.table = RoutingTable()
        for index in range(num_shards):
            self._build_shard(f"shard-{index}")
        self.router = ShardRouter(
            self.ROUTER_HOST,
            network,
            self.table,
            client=router_client,
            metrics=self.metrics,
            tracer=self.tracer,
        )

    @property
    def router_host(self) -> str:
        return self.ROUTER_HOST

    # -- membership ----------------------------------------------------
    def _build_shard(self, shard_id: str) -> Shard:
        directory = self.base_dir / shard_id
        primary = SensingServer(
            shard_id,
            self.network,
            self.clock,
            metrics=self.metrics,
            tracer=self.tracer,
            durability=DurabilityConfig(directory=directory, fsync=self.fsync),
            concurrency=self.concurrency,
            io_delay_s=self.io_delay_s,
        )
        shard = Shard(shard_id=shard_id, directory=directory, primary=primary)
        for _ in range(self.replicas_per_shard):
            shard.replicas.append(self._build_replica(shard))
        self.shards[shard_id] = shard
        self.table.add_shard(
            ShardInfo(
                shard_id=shard_id,
                primary=shard_id,
                replicas=tuple(replica.host for replica in shard.replicas),
            )
        )
        return shard

    def _build_replica(self, shard: Shard) -> ShardReplica:
        index = shard.next_replica_index
        shard.next_replica_index += 1
        return ShardReplica(
            f"{shard.shard_id}-r{index}",
            self.network,
            shard.directory,
            self.clock,
            metrics=self.metrics,
            tracer=self.tracer,
            concurrency=self.replica_concurrency,
            io_delay_s=self.io_delay_s,
        )

    def add_shard(self) -> Shard:
        """Grow the fleet by one shard and rebalance category ownership."""
        with self._lock:
            shard_id = f"shard-{len(self.shards)}"
            shard = self._build_shard(shard_id)
            for user_id, name, token in self._users:
                shard.primary.register_user(user_id, name, token)
        self.rebalance()
        return shard

    # -- data-plane administration --------------------------------------
    def register_user(self, user_id: str, name: str, token: str) -> None:
        """Register a user on every shard (user state is replicated)."""
        with self._lock:
            self._users.append((user_id, name, token))
            for shard in self.shards.values():
                shard.primary.register_user(user_id, name, token)

    def create_application(
        self, application: Application, *, pin_to: str | None = None
    ) -> SensingServer:
        """Place an application on the shard owning its category.

        ``pin_to`` pins the category to an explicit shard (directory
        placement) instead of the hash ring — the way an operator
        pre-splits a workload whose category population is known.
        """
        if pin_to is not None:
            self.table.pin_category(application.category, pin_to)
        owner = self.table.category_owner(application.category)
        shard = self.shards[owner]
        shard.primary.create_application(application)
        self.table.learn_app(application.app_id, application.category)
        self._pipelines[application.app_id] = application
        return shard.primary

    def primary_for_category(self, category: str) -> SensingServer:
        """The primary currently owning ``category``."""
        return self.shards[self.table.category_owner(category)].primary

    # -- replication ---------------------------------------------------
    def sync_replicas(self) -> int:
        """One replication pump over every live replica; returns the
        total lag the passes caught up on (see :meth:`ShardReplica.sync`).

        Iterates over list copies: promotion and re-seeding mutate the
        replica lists from other threads while the pump runs, and a
        just-closed replica's ``sync()`` is a safe no-op.
        """
        caught_up = 0
        for shard in list(self.shards.values()):
            for replica in list(shard.replicas):
                caught_up += replica.sync()
        return caught_up

    def replica_lag_records(self) -> int:
        """Fleet-wide lag: every live replica's :meth:`ShardReplica.pending`."""
        return sum(
            replica.pending()
            for shard in list(self.shards.values())
            for replica in list(shard.replicas)
        )

    def start_replication(self) -> None:
        """Pump replication every :data:`REPLICATION_INTERVAL_S` on a
        background thread until stopped."""
        if self._repl_thread is not None:
            return
        self._repl_stop.clear()

        def pump() -> None:
            while not self._repl_stop.wait(REPLICATION_INTERVAL_S):
                try:
                    self.sync_replicas()
                except Exception:  # noqa: BLE001 - a dying primary mid-kill
                    continue  # is expected during chaos; next tick retries

        self._repl_thread = threading.Thread(
            target=pump, name="wal-shipping", daemon=True
        )
        self._repl_thread.start()

    def stop_replication(self) -> None:
        """Stop the background replication pump (idempotent)."""
        if self._repl_thread is None:
            return
        self._repl_stop.set()
        self._repl_thread.join()
        self._repl_thread = None

    # -- failover ------------------------------------------------------
    def kill_primary(self, shard_id: str, *, wreck: bool = False) -> None:
        """Hard-kill a shard's primary (``kill -9`` semantics).

        The server is unregistered first and then drained
        (``server.close()`` waits for every request its gate admitted),
        so every request that was acked has its commit record on disk
        before the durability handles close — exactly the kill -9
        contract.

        ``wreck=True`` leaves the nastiest crash-consistent directory a
        real kill can: the process dies *inside checkpoint compaction*
        and the new live segment ends in an uncommitted transaction
        plus a torn frame (``mid_checkpoint`` then ``torn_tail``, via
        :meth:`~repro.db.wal.DurabilityManager.simulate_wreck`).
        """
        shard = self.shards[shard_id]
        server = shard.primary
        manager = server.database.durability
        if self.network.is_registered(server.host):
            self.network.unregister(server.host)
        server.close()
        if manager is None:
            return
        if wreck and not manager.closed:
            manager.simulate_wreck("mid_checkpoint")
            manager.simulate_wreck("torn_tail")
        manager.close()

    def promote(self, shard_id: str, *, reseed: bool = True) -> SensingServer:
        """Promote the shard's first replica to durable primary after the
        primary's death.

        The replica does one final catch-up read from the dead
        primary's surviving directory (acked == committed to WAL, so
        nothing acked can be missing) and promotion *refuses* if the
        replica is still behind the log after it — promoting a laggy
        replica would silently shadow acked data. Durability is then
        re-attached (:func:`~repro.db.wal.attach_durability`): the
        replica's state becomes a fresh checkpoint in the same
        directory and the next WAL generation opens, so the promoted
        ``SensingServer`` — registered under the *same host name*, with
        task-id prefixes and idempotent replies still valid — commits
        durably and survives being killed again. Unless
        ``reseed=False``, a replacement replica is spawned from
        that checkpoint before returning.
        """
        shard = self.shards[shard_id]
        if self.network.is_registered(shard.primary.host):
            raise ConfigurationError(
                f"primary {shard.primary.host!r} is still registered; "
                "kill it before promoting"
            )
        if not shard.replicas:
            raise ConfigurationError(f"shard {shard_id!r} has no replica to promote")
        replica = shard.replicas[0]
        caught_up = replica.sync()  # final catch-up from the surviving log
        behind = replica.pending()
        if behind:
            raise ConfigurationError(
                f"replica {replica.host!r} is still {behind} committed "
                "records behind its primary's log after the final "
                "catch-up; refusing to promote a laggy replica"
            )
        self._m_catchup.inc(caught_up, shard=shard_id)
        replica.close()  # freezes the database: no pump tick can touch it now
        shard.replicas.remove(replica)
        self.table.set_replicas(
            shard_id, tuple(item.host for item in shard.replicas)
        )
        attach_durability(
            replica.database,
            shard.directory,
            fsync=self.fsync,
            metrics=self.metrics,
        )
        promoted = SensingServer(
            shard_id,
            self.network,
            self.clock,
            metrics=self.metrics,
            tracer=self.tracer,
            database=replica.database,
            concurrency=self.concurrency,
            io_delay_s=self.io_delay_s,
        )
        for application in self._pipelines.values():
            if promoted.apps.get(application.app_id) is not None:
                promoted.apps.attach_pipeline(
                    application.app_id, application.pipeline
                )
        shard.primary = promoted
        self._m_failovers.inc()
        if reseed:
            self.reseed(shard_id)
        return promoted

    def reseed(self, shard_id: str) -> ShardReplica:
        """Spawn a replacement replica from the newest checkpoint.

        The replica joins like every replica — its first ship installs
        the newest checkpoint (the promotion's) and the records past
        it — and registers with the network before this method
        re-points the router's replica set, so the first routed read
        already finds a caught-up endpoint. Safe to run while traffic
        is flowing; the background pump picks the newcomer up on its
        next tick.
        """
        shard = self.shards[shard_id]
        started = time.perf_counter()
        replica = self._build_replica(shard)
        shard.replicas.append(replica)
        self.table.set_replicas(
            shard_id, tuple(item.host for item in shard.replicas)
        )
        self._m_reseeds.inc(shard=shard_id)
        self._m_reseed_lag.set(replica.bootstrap_records, shard=shard_id)
        self._m_reseed_seconds.observe(time.perf_counter() - started)
        return replica

    # -- rebalancing ---------------------------------------------------
    def rebalance(self) -> int:
        """Move categories to their ring owners; returns the move count.

        For every application whose category now hashes to a different
        shard: the application row (and in-memory registration), the
        category's ``feature_data`` rows and its ``ranking_versions``
        row move to the new owner. Version numbers are preserved so a
        replica cache entry keyed on an old version can never be served
        as current; the source bumps its version as it deletes the rows,
        so it stops serving rankings of them. Uploads of tasks issued
        before the move still route to the old shard by task-id prefix,
        and it answers them with ERROR (see ``SensingServer``).
        """
        moves = 0
        with self._lock:
            for shard in list(self.shards.values()):
                source = shard.primary
                for application in list(source.apps.all_apps()):
                    owner_id = self.table.category_owner(application.category)
                    if owner_id == shard.shard_id:
                        continue
                    target = self.shards[owner_id].primary
                    self._move_application(source, target, application)
                    moves += 1
        return moves

    def _move_application(
        self,
        source: SensingServer,
        target: SensingServer,
        application: Application,
    ) -> None:
        registered = self._pipelines.get(application.app_id, application)
        removed = source.apps.remove(application.app_id)
        if removed is None:
            return
        self._m_moves.inc(kind="application")
        with target.database.transaction():
            target.create_application(registered)
            feature_table = source.database.table("feature_data")
            rows = feature_table.select(eq("category", application.category))
            target_features = target.database.table("feature_data")
            for row in rows:
                moved = dict(row)
                moved.pop("feature_id", None)
                target_features.insert(moved)
                self._m_moves.inc(kind="feature_row")
            versions = source.database.table("ranking_versions")
            version_row = versions.get(application.category)
            if version_row is not None:
                target_versions = target.database.table("ranking_versions")
                existing = target_versions.get(application.category)
                version = int(version_row["data_version"])
                if existing is None:
                    target_versions.insert(
                        {
                            "category": application.category,
                            "data_version": version,
                        }
                    )
                else:
                    target_versions.update(
                        eq("category", application.category),
                        {
                            "data_version": max(
                                version, int(existing["data_version"])
                            )
                        },
                    )
                self._m_moves.inc(kind="version")
        with source.database.transaction():
            feature_table = source.database.table("feature_data")
            # Rows gone means a new version: the old primary and its
            # replicas must stop serving rankings of what they no
            # longer hold.
            if feature_table.delete(eq("category", application.category)):
                bump_data_version(source.database, application.category)

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Tear the whole fleet down (idempotent)."""
        self.stop_replication()
        if self.network.is_registered(self.ROUTER_HOST):
            self.network.unregister(self.ROUTER_HOST)
        for shard in self.shards.values():
            for replica in shard.replicas:
                replica.close()
            server = shard.primary
            if self.network.is_registered(server.host):
                self.network.unregister(server.host)
            server.close()
            if server.database.durability is not None:
                server.database.durability.close()
