"""One fault harness: lossy links, server kills and shard failovers.

SOR moves every schedule and reading over a lossy cellular link into a
server-side store, so the promise that matters is *no acked write is
lost or applied twice*. Two drivers attack it, one per stack:

* :func:`run_field_faults` runs the simulated-phone field test (barcode
  scan → PARTICIPATE → schedule → sense → upload) on one
  :class:`~repro.server.system.SORSystem`. ``kills`` seeded server kills
  land mid-window, nastiest first: ``torn_tail`` (dies inside
  ``write(2)``), ``mid_checkpoint`` (dies between the checkpoint temp
  write and its rename), then ``plain`` (only ``plain`` without
  durability). After each kill the server restarts from disk.
* :func:`run_fleet_faults` drives threaded loadgen sessions through a
  :class:`~repro.server.sharding.ShardCluster` router and runs ``kills``
  kill→promote→reseed cycles. Cycle 0 kills ``kill_shard``'s primary and
  promotes its WAL-fed replica with the reseed deferred; cycle 1 kills
  the *same* shard again, mid-reseed, wrecking its WAL tail; later
  cycles walk the other shards. The run ends by killing the promoted
  primary once more and recovering it from its re-attached WAL alone.

Both take the impairment as a :class:`~repro.net.NetworkConditions`
and return one :class:`FaultReport`, audited the same way from the
ledger of acked schedule and upload ids against the ``tasks`` and
``raw_data`` rows that survived. The report keeps two promises apart:

* **delivery** — every phone got a schedule and every scheduled upload
  landed. Turning retries off (``resilient=False``) breaks it.
* **durability** — nothing acked is lost or applied twice. Killing a
  server that runs without the WAL breaks it.

``tests/integration/test_chaos.py``, ``test_crash_recovery.py`` and
``test_sharding.py`` assert both, and ``repro crash`` / ``repro
shardchaos`` are the CLI presets.
"""

from __future__ import annotations

import tempfile
import threading
import time
from collections import Counter as TallyCounter
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Iterable

import numpy as np

from repro.common.errors import ValidationError
from repro.db import Database, DurabilityConfig, RecoveryReport, open_durable_database
from repro.net import NetworkConditions
from repro.net.transport import Network
from repro.obs import MetricsRegistry, use_metrics
from repro.server.sharding import ShardCluster
from repro.server.system import SORSystem
from repro.sim.loadgen import LoadgenSpec, _Drivers, _start_cluster, build_workload
from repro.sim.scenarios import shop_feature_pipeline, syracuse_coffee_shops

#: Phones the field test deploys at the first coffee shop, and their budget.
FIELD_PHONES = 4
FIELD_BUDGET = 5
#: Simulated seconds a killed field server stays down before restarting.
FIELD_DOWNTIME_S = 30.0


@dataclass
class FaultReport:
    """What one fault run did to the data, plus the metrics it emitted.

    Field runs fill the recovery counters; fleet runs fill the failover
    ones (``killed_shard`` is ``None`` on a field run).
    """

    phones: int
    kills: int
    tasks_created: int
    uploads_ingested: int
    acked_schedules: int
    acked_uploads: int
    undelivered_uploads: int
    lost_acked_schedules: int
    lost_acked_uploads: int
    duplicate_tasks: int
    duplicate_uploads: int
    requests_dropped: int
    responses_dropped: int
    retries_total: float
    metrics: MetricsRegistry = field(repr=False)
    records_replayed: int = 0
    recovery_reports: list[RecoveryReport] = field(default_factory=list)
    killed_shard: str | None = None
    failovers: int = 0
    reseeds: int = 0
    promoted_recovery_ok: bool = True
    replica_lag_after_sync: int = 0
    busy_replies: float = 0.0

    @property
    def unscheduled_phones(self) -> int:
        """Phones whose scan never produced an acked schedule."""
        return self.phones - self.acked_schedules

    @property
    def delivered(self) -> bool:
        """Every phone got a schedule and every scheduled upload landed."""
        return self.unscheduled_phones == 0 and self.undelivered_uploads == 0

    @property
    def durable(self) -> bool:
        """Nothing acked lost or applied twice; on a fleet, the replica
        lag drained and the promoted primary recovered from disk."""
        return (
            self.lost_acked_schedules == 0
            and self.lost_acked_uploads == 0
            and self.duplicate_tasks == 0
            and self.duplicate_uploads == 0
            and self.replica_lag_after_sync == 0
            and self.promoted_recovery_ok
        )

    @property
    def data_intact(self) -> bool:
        """Both promises kept: delivered and durable."""
        return self.delivered and self.durable

    def to_dict(self) -> dict[str, Any]:
        """A JSON-friendly dump (the CLI's ``--format json``)."""
        payload = {
            spec.name: getattr(self, spec.name)
            for spec in fields(self)
            if spec.name != "metrics"
        }
        payload["recovery_reports"] = [asdict(r) for r in self.recovery_reports]
        for name in ("unscheduled_phones", "delivered", "durable", "data_intact"):
            payload[name] = getattr(self, name)
        return payload


def _counter_total(registry: MetricsRegistry, name: str) -> float:
    metric = registry.get(name)
    if metric is None:
        return 0.0
    return sum(child.value for _, child in metric.series())  # type: ignore[attr-defined]


def _audit(
    *,
    phones: int,
    kills: int,
    acked_schedules: Iterable[str],
    acked_uploads: Iterable[str],
    tasks: list[dict[str, Any]],
    raw_rows: list[dict[str, Any]],
    network: Network,
    metrics: MetricsRegistry,
    **run_counters: Any,
) -> FaultReport:
    """The one audit: the acked ledger against the surviving rows."""
    scheduled = set(acked_schedules)
    uploaded = set(acked_uploads)
    task_ids = {row["task_id"] for row in tasks}
    tasks_per_app_user = TallyCounter((row["user_id"], row["app_id"]) for row in tasks)
    rows_per_task = TallyCounter(row["task_id"] for row in raw_rows)
    return FaultReport(
        phones=phones,
        kills=kills,
        tasks_created=len(tasks),
        uploads_ingested=len(rows_per_task),
        acked_schedules=len(scheduled),
        acked_uploads=len(uploaded),
        undelivered_uploads=len(scheduled - set(rows_per_task)),
        lost_acked_schedules=len(scheduled - task_ids),
        lost_acked_uploads=len(uploaded - set(rows_per_task)),
        duplicate_tasks=sum(count - 1 for count in tasks_per_app_user.values()),
        duplicate_uploads=sum(count - 1 for count in rows_per_task.values()),
        requests_dropped=network.stats.requests_dropped,
        responses_dropped=network.stats.responses_dropped,
        retries_total=_counter_total(metrics, "sor_net_retries_total"),
        metrics=metrics,
        **run_counters,
    )


# ----------------------------------------------------------------------
# the field driver
# ----------------------------------------------------------------------
class CrashInjector:
    """Kills a field test's server at seeded instants and restarts it."""

    def __init__(self, system: SORSystem) -> None:
        self.system = system
        self.kills_executed = 0

    def schedule(self, kinds: list[str], seed: int) -> None:
        """One kill per kind, spread over the middle of the window.

        The kills sit far enough apart that every restart completes well
        before the field test ends.
        """
        system = self.system
        span = system.end_time - system.start_time
        rng = np.random.default_rng(seed + 1)
        for fraction, kind in zip(np.linspace(0.3, 0.7, len(kinds)), kinds):
            jitter = float(rng.uniform(-0.02, 0.02))
            at = system.start_time + (fraction + jitter) * span
            system.simulator.schedule_at(at, lambda kind=kind: self._kill(kind))

    def _kill(self, kind: str) -> None:
        system = self.system
        manager = system.server.database.durability
        if kind != "plain" and manager is not None and not manager.closed:
            manager.simulate_wreck(kind)
        system.kill_server()
        self.kills_executed += 1
        system.simulator.schedule_at(
            system.simulator.now() + FIELD_DOWNTIME_S, system.restart_server
        )


def run_field_faults(
    *,
    network: NetworkConditions,
    kills: int,
    seed: int = 0,
    durability: DurabilityConfig | None = None,
    resilient: bool = True,
) -> FaultReport:
    """Run one seeded field test under ``network`` with ``kills`` kills.

    Without ``durability`` every kill is ``plain`` and the restarted
    server comes back empty. The run executes against a fresh metrics
    registry, returned in the report.
    """
    if kills < 0:
        raise ValidationError("kills must be non-negative")
    nasty = ["torn_tail", "mid_checkpoint"] if durability is not None else []
    kinds = (nasty + ["plain"] * kills)[:kills]
    registry = MetricsRegistry()
    with use_metrics(registry):
        system = SORSystem(
            seed=seed,
            network_conditions=network,
            resilient=resilient,
            durability=durability,
        )
        try:
            shop = syracuse_coffee_shops(np.random.default_rng(seed))[0]
            system.deploy_place(shop, shop_feature_pipeline())
            for _ in range(FIELD_PHONES):
                system.deploy_phone(shop.place_id, budget=FIELD_BUDGET)
            injector = CrashInjector(system)
            injector.schedule(kinds, seed)
            system.run()
            if kills:
                # Give every phone one more tick so uploads that failed
                # during a downtime window retry against the recovered
                # server.
                for deployed in system.phones:
                    deployed.phone.tick()
            database = system.server.database
            return _audit(
                phones=len(system.phones),
                kills=injector.kills_executed,
                acked_schedules=(
                    deployed.task.task_id
                    for deployed in system.phones
                    if deployed.task is not None
                ),
                acked_uploads=(
                    task_id
                    for deployed in system.phones
                    for task_id in deployed.phone.acked_uploads
                ),
                tasks=database.table("tasks").select(),
                raw_rows=database.table("raw_data").select(),
                network=system.network,
                metrics=registry,
                records_replayed=sum(
                    report.records_replayed for report in system.recovery_reports
                ),
                recovery_reports=list(system.recovery_reports),
            )
        finally:
            system.server.close()
            if system.server.database.durability is not None:
                system.server.database.durability.close()


# ----------------------------------------------------------------------
# the fleet driver
# ----------------------------------------------------------------------
def _kill_cycles(
    cluster: ShardCluster,
    drivers: _Drivers,
    *,
    kills: int,
    kill_shard: int,
    kill_after_schedules: int,
    downtime_s: float,
) -> None:
    """Each cycle waits until the run has acked more data than the last
    kill left behind, then kills a primary and promotes its replica."""
    shards = len(cluster.shards)
    for cycle in range(kills):
        target = f"shard-{kill_shard if cycle <= 1 else (kill_shard + cycle - 1) % shards}"
        threshold = (cycle + 1) * kill_after_schedules
        while drivers.acked_schedules() < threshold and drivers.alive():
            time.sleep(0.002)
        if cycle == 1:
            # Cycle 0 skipped its reseed so this one races the kill: the
            # replacement replica bootstraps from the promotion
            # checkpoint while the primary it reads from dies inside
            # checkpoint compaction with a torn, uncommitted WAL tail.
            reseeder = threading.Thread(
                target=cluster.reseed, args=(target,), name="fault-reseed"
            )
            reseeder.start()
            cluster.kill_primary(target, wreck=True)
            reseeder.join()
        else:
            cluster.kill_primary(target)
        if downtime_s:
            # Long enough that requests for the victim's categories hit
            # the router's BUSY path and are re-sent after failover.
            time.sleep(downtime_s)
        cluster.promote(target, reseed=cycle != 0 or kills == 1)


def _task_ids(database: Database) -> list[list[str]]:
    """The sorted task ids of ``database``'s tasks and raw_data rows."""
    return [
        sorted(row["task_id"] for row in database.table(table).select())
        for table in ("tasks", "raw_data")
    ]


def _recovers_from_disk(cluster: ShardCluster, shard_id: str) -> bool:
    """Hard-kill ``shard_id``'s primary and recover its database from
    disk alone: every task and upload it held must come back."""
    shard = cluster.shards[shard_id]
    expected = _task_ids(shard.primary.database)
    cluster.kill_primary(shard_id)
    recovered, _recovery = open_durable_database(
        DurabilityConfig(directory=shard.directory, fsync=False),
        name=f"{shard_id}-proof",
        metrics=MetricsRegistry(),
    )
    try:
        return _task_ids(recovered) == expected
    finally:
        if recovered.durability is not None:
            recovered.durability.close()


def run_fleet_faults(
    fleet: LoadgenSpec,
    *,
    network: NetworkConditions,
    kills: int,
    kill_shard: int = 1,
    kill_after_schedules: int = 30,
    downtime_s: float = 0.05,
) -> FaultReport:
    """Drive ``fleet``'s loadgen workload through a lossy sharded fleet
    while ``kills`` kill→promote→reseed cycles run; audit acked data.

    Cycle ``k`` fires once ``(k + 1) * kill_after_schedules`` schedules
    have been acked; each killed primary stays dead ``downtime_s``
    seconds before its replica is promoted.
    """
    if fleet.shards < 2:
        raise ValidationError("fleet faults need at least 2 shards")
    if fleet.replicas < 1:
        raise ValidationError("the killed shard needs a replica to promote")
    if not 0 <= kill_shard < fleet.shards:
        raise ValidationError("kill_shard must name an existing shard")
    if kills < 1:
        raise ValidationError("kills must be at least 1")
    if not 0 < kills * kill_after_schedules < fleet.phones:
        raise ValidationError(
            "every kill threshold must fall inside the run "
            "(kills * kill_after_schedules < phones)"
        )
    if downtime_s < 0:
        raise ValidationError("downtime_s must be non-negative")
    registry = MetricsRegistry()
    scripts = build_workload(fleet)
    victim = f"shard-{kill_shard}"
    with use_metrics(registry), tempfile.TemporaryDirectory(
        prefix="sor-fleet-faults-"
    ) as base_dir:
        cluster = _start_cluster(fleet, scripts, registry, base_dir, network)
        try:
            drivers = _Drivers(
                fleet, scripts, cluster.network, cluster.router_host, registry
            )
            drivers.start()
            _kill_cycles(
                cluster,
                drivers,
                kills=kills,
                kill_shard=kill_shard,
                kill_after_schedules=kill_after_schedules,
                downtime_s=downtime_s,
            )
            drivers.join()
            drivers.raise_failures()
            cluster.stop_replication()
            cluster.sync_replicas()  # drain whatever the pump missed
            lag = cluster.replica_lag_records()
            primaries = [shard.primary.database for shard in cluster.shards.values()]
            tasks = [row for db in primaries for row in db.table("tasks").select()]
            raw_rows = [row for db in primaries for row in db.table("raw_data").select()]
            promoted_recovery_ok = _recovers_from_disk(cluster, victim)
            return _audit(
                phones=fleet.phones,
                kills=kills,
                acked_schedules=(
                    task_id for counts in drivers.counts
                    for task_id in counts.acked_schedules
                ),
                acked_uploads=(
                    task_id for counts in drivers.counts
                    for task_id in counts.acked_uploads
                ),
                tasks=tasks,
                raw_rows=raw_rows,
                network=cluster.network,
                metrics=registry,
                killed_shard=victim,
                failovers=int(_counter_total(registry, "sor_shard_failovers_total")),
                reseeds=int(_counter_total(registry, "sor_shard_reseeds_total")),
                promoted_recovery_ok=promoted_recovery_ok,
                replica_lag_after_sync=lag,
                busy_replies=_counter_total(registry, "sor_shard_router_rejected_total"),
            )
        finally:
            cluster.close()


def format_fault_report(report: FaultReport) -> str:
    """The CLI's human-readable rendering of one fault run."""
    if report.data_intact:
        verdict = "INTACT"
    elif not report.durable:
        verdict = "DATA LOSS"
    else:
        verdict = "UNDELIVERED"
    header = f"faults — {report.phones} phones, {report.kills} kill(s)"
    if report.killed_shard is not None:
        header += (
            f" starting at {report.killed_shard} "
            f"({report.failovers} failovers, {report.reseeds} reseeds)"
        )
    lines = [
        header,
        f"acked schedules     : {report.acked_schedules} "
        f"(lost {report.lost_acked_schedules}, "
        f"duplicates {report.duplicate_tasks})",
        f"acked uploads       : {report.acked_uploads} "
        f"(lost {report.lost_acked_uploads}, "
        f"duplicates {report.duplicate_uploads})",
        f"undelivered         : {report.unscheduled_phones} schedules, "
        f"{report.undelivered_uploads} uploads",
        f"drops               : {report.requests_dropped} requests, "
        f"{report.responses_dropped} responses "
        f"({report.retries_total:.0f} retries)",
    ]
    if report.killed_shard is None:
        lines.append(f"WAL records replayed: {report.records_replayed}")
    else:
        recovery = "OK" if report.promoted_recovery_ok else "LOST DATA"
        lines += [
            f"replica lag (final) : {report.replica_lag_after_sync} records",
            f"promoted recovery   : {recovery} "
            "(promoted primary killed and recovered from its re-attached WAL)",
            f"busy replies        : {report.busy_replies:.0f}",
        ]
    lines.append(f"verdict             : {verdict}")
    return "\n".join(lines)
