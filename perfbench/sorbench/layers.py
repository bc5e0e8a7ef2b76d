"""Per-layer metrics from the traced rounds.

Span self times are summed per layer (``tracing.LAYER_OF_SPAN``) along
each request's blocking path; whatever the driver's root span does not
hand to a child layer is the *unattributed* remainder. Counters come
from each round's ``MetricsRegistry`` as deltas over the timed window.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.obs import MetricsRegistry

from sorbench.stats import mean_or_zero, quantile_or_zero, ratio
from sorbench.tracing import LAYER_OF_SPAN, LAYERS, SpanRecorder, self_times

#: Registry counters read as timed-window deltas (summed over labels).
COUNTERS = (
    "sor_ranking_cache_hits_total",
    "sor_ranking_cache_misses_total",
    "sor_scheduler_tasks_total",
    "sor_scheduler_instants_evaluated_total",
    "sor_db_wal_records_total",
    "sor_db_wal_bytes",
    "sor_shard_router_read_failovers_total",
    "sor_net_bytes_sent_total",
    "sor_net_bytes_received_total",
)

#: Spans whose full durations feed a percentile or a per-call mean.
_TIMED = (
    "codec.encode", "codec.content_key", "codec.decode",
    "executor.queue_wait", "rwlock.read_wait", "rwlock.write_wait",
    "rwlock.write_hold", "scheduler.schedule_task", "scheduler.add",
    "ranker.rank_many", "ranker.aggregate", "ranker.kemeny", "wal.commit",
    "replication.ship", "replication.apply", "replica.handle",
)

#: Accounting tolerance: unattributed share of the client-observed mean.
UNATTRIBUTED_TOLERANCE = 0.10


def counter_totals(registry: MetricsRegistry) -> dict[str, float]:
    """Current value of every :data:`COUNTERS` entry, summed over labels."""
    totals = {}
    for name in COUNTERS:
        metric = registry.get(name)
        totals[name] = (
            sum(child.value for _labels, child in metric.series())  # type: ignore[union-attr]
            if metric is not None
            else 0.0
        )
    return totals


@dataclass
class LayerTally:
    """Everything the traced rounds measured, accumulated."""

    requests: int = 0
    root_ns: int = 0
    root_self_ns: int = 0
    layer_self_ns: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    background_ns: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    durations_ns: dict[str, list[int]] = field(default_factory=lambda: defaultdict(list))
    self_ns: dict[str, list[int]] = field(default_factory=lambda: defaultdict(list))
    handle_ns: dict[str, list[int]] = field(default_factory=lambda: defaultdict(list))
    table_ops: int = 0
    attempts: int = 0
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    events: dict[str, float] = field(default_factory=lambda: defaultdict(float))

    def add_round(self, recorder: SpanRecorder, counters: dict[str, float]) -> None:
        """Fold one traced round's spans, events and counter deltas in."""
        spans = recorder.spans
        selfs = self_times(spans)
        name_of = {span[3]: span[0] for span in spans}
        parent_of = {span[3]: span[4] for span in spans}
        for name, start, end, span_id, parent, request in spans:
            own = selfs[span_id]
            layer = LAYER_OF_SPAN[name]
            # Lock, queue and handler numbers are the requests' own; the
            # replication pump works on no request's behalf.
            if name in _TIMED and (request is not None) != (layer == "replication"):
                self.durations_ns[name].append(end - start)
                self.self_ns[name].append(own)
            if request is None:
                self.background_ns[layer] += own
                continue
            if name == "request":
                self.requests += 1
                self.root_ns += end - start
                self.root_self_ns += own
                continue
            self.layer_self_ns[layer] += own
            if name == "db.table":
                self.table_ops += 1
            elif name in ("server.handle", "replica.handle"):
                self.handle_ns[recorder.requests[request]].append(end - start)
            elif name == "router.handle":
                self.self_ns[name].append(own)
            elif name == "wire.send":
                # A phone-side attempt: a send of the client the driver's
                # root span called directly (not the router's client).
                client = parent_of.get(parent)
                if name_of.get(parent) == "client.send" and name_of.get(client) == "request":
                    self.attempts += 1
        for name, amount in recorder.events:
            self.events[name] += amount
        for name, value in counters.items():
            self.counters[name] += value

    # -- the reported numbers -------------------------------------------
    def unattributed_share(self) -> float:
        """Root self time over client-observed time."""
        return ratio(self.root_self_ns, self.root_ns)

    def shares(self) -> dict[str, float]:
        """Each layer's share of the client-observed time."""
        return {layer: ratio(self.layer_self_ns[layer], self.root_ns) for layer in LAYERS}

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric, by name (times in microseconds)."""
        us = 1e-3
        per_req = self.requests
        durations, selfs = self.durations_ns, self.self_ns

        def p(name: str, pct: float) -> float:
            return quantile_or_zero(durations[name], pct) * us

        def handle(kind: str, pct: float) -> float:
            return quantile_or_zero(self.handle_ns[kind], pct) * us

        encodes = selfs["codec.encode"] + selfs["codec.content_key"]
        counters, events = self.counters, self.events
        hits = counters["sor_ranking_cache_hits_total"]
        misses = counters["sor_ranking_cache_misses_total"]
        commits = len(durations["wal.commit"])
        values = {
            "codec.encode_calls_per_req": ratio(len(encodes), per_req),
            "codec.decode_calls_per_req": ratio(len(selfs["codec.decode"]), per_req),
            "codec.encode_us": mean_or_zero(encodes) * us,
            "codec.decode_us": mean_or_zero(selfs["codec.decode"]) * us,
            "client.attempts_per_req": ratio(self.attempts, per_req),
            "wire.bytes_per_req": ratio(
                counters["sor_net_bytes_sent_total"]
                + counters["sor_net_bytes_received_total"],
                per_req,
            ),
            "router.self_us": ratio(sum(selfs["router.handle"]), per_req) * us,
            "router.read_failovers": counters["sor_shard_router_read_failovers_total"],
            "executor.queue_wait_us.p50": p("executor.queue_wait", 50),
            "executor.queue_wait_us.p99": p("executor.queue_wait", 99),
            "executor.busy_rejections": events["busy_rejections"],
            "rwlock.read_wait_us.p99": p("rwlock.read_wait", 99),
            "rwlock.write_wait_us.p99": p("rwlock.write_wait", 99),
            "rwlock.write_hold_us.p50": p("rwlock.write_hold", 50),
        }
        for kind in ("participate", "pull", "upload", "rank_query"):
            values[f"server.handle_us.{kind}.p50"] = handle(kind, 50)
            values[f"server.handle_us.{kind}.p99"] = handle(kind, 99)
        values.update(
            {
                "server.self_us": ratio(self.layer_self_ns["server"], per_req) * us,
                "scheduler.schedule_task_us.p50": p("scheduler.schedule_task", 50),
                "scheduler.schedule_task_us.p99": p("scheduler.schedule_task", 99),
                "scheduler.add_us": mean_or_zero(durations["scheduler.add"]) * us,
                "scheduler.instants_evaluated_per_task": ratio(
                    counters["sor_scheduler_instants_evaluated_total"],
                    counters["sor_scheduler_tasks_total"],
                ),
                "ranker.rank_many_us.p50": p("ranker.rank_many", 50),
                "ranker.rank_many_us.p99": p("ranker.rank_many", 99),
                "ranker.cache_hit_ratio": ratio(hits, hits + misses),
                "ranker.aggregate_us": mean_or_zero(durations["ranker.aggregate"]) * us,
                "ranker.kemeny_us": mean_or_zero(durations["ranker.kemeny"]) * us,
                "db.table_ops_per_req": ratio(self.table_ops, per_req),
                "db.table_us_per_req": ratio(self.layer_self_ns["db"], per_req) * us,
                "wal.commit_us.p50": p("wal.commit", 50),
                "wal.commit_us.p99": p("wal.commit", 99),
                "wal.frames_per_commit": ratio(counters["sor_db_wal_records_total"], commits),
                "wal.bytes_per_req": ratio(counters["sor_db_wal_bytes"], per_req),
                "replication.ship_us.p50": p("replication.ship", 50),
                "replication.ship_us.p99": p("replication.ship", 99),
                "replication.read_amplification": ratio(
                    events["parsed_bytes"], events["shipped_bytes"]
                ),
                "replication.apply_us_per_record": ratio(
                    sum(durations["replication.apply"]), events["applied_records"]
                ) * us,
                "replica.rank_us.p50": p("replica.handle", 50),
                "accounting.client_mean_us": ratio(self.root_ns, per_req) * us,
                "accounting.unattributed_share": self.unattributed_share(),
            }
        )
        for layer, share in self.shares().items():
            values[f"share.{layer}"] = share
        return values

    def samples(self) -> dict[str, int]:
        """Sample count behind every percentile and mean."""
        counts = {name: len(values) for name, values in self.durations_ns.items()}
        counts.update(
            {f"server.handle.{kind}": len(values) for kind, values in self.handle_ns.items()}
        )
        counts["requests"] = self.requests
        return counts
