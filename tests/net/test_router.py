"""Tests for repro.net.router: consistent hashing and envelope routing."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.net import NetworkConditions
from repro.net.http import HttpRequest, HttpResponse
from repro.net.messages import Envelope, MessageType
from repro.net.resilience import BreakerPolicy, ResilientClient, RetryPolicy
from repro.net.router import HashRing, RoutingTable, ShardInfo, ShardRouter
from repro.net.transport import Network
from repro.obs import CONTENT_TYPE, MetricsRegistry, NullTracer


class TestHashRing:
    def test_deterministic_assignment(self):
        ring = HashRing(("a", "b", "c"))
        assert all(
            ring.node_for(f"key-{i}") == HashRing(("c", "b", "a")).node_for(f"key-{i}")
            for i in range(50)
        )

    def test_every_node_owns_keys(self):
        ring = HashRing(("a", "b", "c", "d"), vnodes=64)
        owners = {ring.node_for(f"key-{i}") for i in range(500)}
        assert owners == {"a", "b", "c", "d"}

    def test_membership_change_moves_a_minority_of_keys(self):
        keys = [f"key-{i}" for i in range(1000)]
        ring = HashRing(("a", "b", "c", "d"))
        before = {key: ring.node_for(key) for key in keys}
        ring.add("e")
        moved = sum(1 for key in keys if ring.node_for(key) != before[key])
        # Consistent hashing: ~1/5 of the keyspace moves, not ~4/5.
        assert 0 < moved < len(keys) // 2

    def test_empty_ring_raises(self):
        with pytest.raises(ValidationError, match="empty"):
            HashRing().node_for("anything")

    def test_vnodes_validated(self):
        with pytest.raises(ValidationError):
            HashRing(vnodes=0)


class TestRoutingTable:
    def make_table(self):
        table = RoutingTable(vnodes=32)
        for index in range(3):
            table.add_shard(
                ShardInfo(
                    shard_id=f"shard-{index}",
                    primary=f"shard-{index}",
                    replicas=(f"shard-{index}-r0",),
                )
            )
        return table

    def test_pin_overrides_the_ring(self):
        table = self.make_table()
        ring_owner = table.category_owner("museums")
        target = next(
            shard for shard in table.shard_ids() if shard != ring_owner
        )
        table.pin_category("museums", target)
        assert table.category_owner("museums") == target
        assert table.shard_for_category("museums").shard_id == target

    def test_pin_to_unknown_shard_rejected(self):
        table = self.make_table()
        with pytest.raises(ValidationError, match="unknown shard"):
            table.pin_category("museums", "shard-99")

    def test_shard_for_host_matches_primaries_only(self):
        table = self.make_table()
        assert table.shard_for_host("shard-1").shard_id == "shard-1"
        assert table.shard_for_host("shard-1-r0") is None

    def test_set_replicas_after_promotion(self):
        table = self.make_table()
        table.set_replicas("shard-0", ())
        assert table.shards["shard-0"].replicas == ()
        assert table.shards["shard-0"].primary == "shard-0"

    def test_learn_app(self):
        table = self.make_table()
        table.learn_app("app-7", "museums")
        assert table.app_category["app-7"] == "museums"


class _RecordingBackend:
    """Fake shard endpoint: records requests, returns a canned reply."""

    def __init__(self, host, *, status=200, fail=False):
        self.host = host
        self.status = status
        self.fail = fail
        self.requests = []

    def handle_request(self, request):
        self.requests.append(request)
        if self.fail:
            return HttpResponse(status=500)
        reply = Envelope(
            message_type=MessageType.ACK,
            sender=self.host,
            recipient="",
            payload={"served_by": self.host},
        )
        return HttpResponse(status=self.status, body=reply.to_bytes())


def build_router(num_shards=2, replicas=1):
    metrics = MetricsRegistry()
    network = Network(
        conditions=NetworkConditions(base_latency_s=0.0, jitter_s=0.0),
        rng=np.random.default_rng(0),
        metrics=metrics,
    )
    table = RoutingTable(vnodes=32)
    backends = {}
    for index in range(num_shards):
        shard_id = f"shard-{index}"
        replica_hosts = tuple(
            f"{shard_id}-r{j}" for j in range(replicas)
        )
        table.add_shard(
            ShardInfo(shard_id=shard_id, primary=shard_id, replicas=replica_hosts)
        )
        backends[shard_id] = _RecordingBackend(shard_id)
        network.register(shard_id, backends[shard_id])
        for host in replica_hosts:
            backends[host] = _RecordingBackend(host)
            network.register(host, backends[host])
    client = ResilientClient(
        network,
        policy=RetryPolicy(
            max_attempts=2, base_backoff_s=0.001, max_backoff_s=0.002,
            deadline_s=5.0,
        ),
        breaker_policy=BreakerPolicy(failure_threshold=100,
                                     recovery_timeout_s=0.01),
        rng=np.random.default_rng(1),
        metrics=metrics,
        tracer=NullTracer(),
    )
    router = ShardRouter(
        "router", network, table,
        client=client, metrics=metrics, tracer=NullTracer(),
    )
    return router, table, backends, network


def post(router, envelope):
    return router.handle_request(
        HttpRequest("POST", "router", "/sor", envelope.to_bytes())
    )


def served_by(response):
    return Envelope.from_bytes(response.body).payload.get("served_by")


class TestShardRouter:
    def test_participate_routes_by_learned_category(self):
        router, table, backends, _ = build_router()
        table.pin_category("museums", "shard-1")
        table.learn_app("app-1", "museums")
        response = post(
            router,
            Envelope(
                message_type=MessageType.PARTICIPATE,
                sender="phone-1",
                recipient="router",
                payload={"app_id": "app-1"},
            ).with_idempotency_key(),
        )
        assert served_by(response) == "shard-1"
        assert len(backends["shard-1"].requests) == 1

    def test_unknown_app_counts_a_misroute_but_still_routes(self):
        router, _, _, _ = build_router()
        response = post(
            router,
            Envelope(
                message_type=MessageType.PARTICIPATE,
                sender="phone-1",
                recipient="router",
                payload={"app_id": "app-unknown"},
            ).with_idempotency_key(),
        )
        assert response.status == 200
        counter = router.metrics.get("sor_shard_router_misroutes_total")
        assert counter.value() == 1

    def test_sensed_data_follows_task_id_prefix(self):
        router, _, backends, _ = build_router()
        response = post(
            router,
            Envelope(
                message_type=MessageType.SENSED_DATA,
                sender="phone-1",
                recipient="router",
                payload={"task_id": "shard-1:task-3"},
            ).with_idempotency_key(),
        )
        assert served_by(response) == "shard-1"
        assert backends["shard-0"].requests == []

    def test_keyless_rank_query_prefers_replicas(self):
        router, table, backends, _ = build_router()
        table.pin_category("museums", "shard-0")
        for _ in range(3):
            response = post(
                router,
                Envelope(
                    message_type=MessageType.RANK_QUERY,
                    sender="phone-1",
                    recipient="router",
                    payload={"category": "museums", "profiles": []},
                ),
            )
            assert served_by(response) == "shard-0-r0"
        assert backends["shard-0"].requests == []

    def test_keyed_rank_query_reads_from_a_replica_too(self):
        """A rank query is a read whatever its key: no server stores its
        reply, so a keyed one need not reach the primary."""
        router, table, backends, _ = build_router()
        table.pin_category("museums", "shard-0")
        response = post(
            router,
            Envelope(
                message_type=MessageType.RANK_QUERY,
                sender="phone-1",
                recipient="router",
                payload={"category": "museums", "profiles": []},
            ).with_idempotency_key(),
        )
        assert served_by(response) == "shard-0-r0"
        assert backends["shard-0"].requests == []

    def test_rank_query_fails_over_replica_to_primary(self):
        router, table, backends, network = build_router()
        table.pin_category("museums", "shard-0")
        network.unregister("shard-0-r0")  # replica is dark
        response = post(
            router,
            Envelope(
                message_type=MessageType.RANK_QUERY,
                sender="phone-1",
                recipient="router",
                payload={"category": "museums", "profiles": []},
            ),
        )
        assert served_by(response) == "shard-0"
        failovers = router.metrics.get("sor_shard_router_read_failovers_total")
        assert failovers.value() >= 1

    def test_preferences_fan_out_to_all_primaries(self):
        router, _, backends, _ = build_router()
        response = post(
            router,
            Envelope(
                message_type=MessageType.PREFERENCES,
                sender="phone-1",
                recipient="router",
                payload={"user_id": "u1"},
            ).with_idempotency_key(),
        )
        assert response.status == 200
        assert len(backends["shard-0"].requests) == 1
        assert len(backends["shard-1"].requests) == 1

    def test_dead_primary_write_answers_busy_envelope(self):
        router, table, _, network = build_router()
        table.pin_category("museums", "shard-1")
        table.learn_app("app-1", "museums")
        network.unregister("shard-1")
        response = post(
            router,
            Envelope(
                message_type=MessageType.PARTICIPATE,
                sender="phone-1",
                recipient="router",
                payload={"app_id": "app-1"},
            ).with_idempotency_key(),
        )
        assert response.status == 503
        envelope = Envelope.from_bytes(response.body)
        assert envelope.message_type is MessageType.BUSY

    def test_backend_5xx_is_retried_and_turned_into_busy(self):
        router, table, backends, _ = build_router()
        table.pin_category("museums", "shard-0")
        table.learn_app("app-1", "museums")
        backends["shard-0"].fail = True
        response = post(
            router,
            Envelope(
                message_type=MessageType.PARTICIPATE,
                sender="phone-1",
                recipient="router",
                payload={"app_id": "app-1"},
            ).with_idempotency_key(),
        )
        # The router's client retried (max_attempts=2) then gave up.
        assert len(backends["shard-0"].requests) == 2
        assert response.status == 503

    def test_malformed_body_is_a_400(self):
        router, _, _, _ = build_router()
        response = router.handle_request(
            HttpRequest("POST", "router", "/sor", b"\x00not-an-envelope")
        )
        assert response.status == 400

    def test_metrics_endpoint_serves_prometheus_text(self):
        router, _, _, _ = build_router()
        response = router.handle_request(
            HttpRequest("GET", "router", "/metrics")
        )
        assert response.status == 200
        assert response.headers["Content-Type"] == CONTENT_TYPE
        assert b"sor_shard_router_requests_total" in response.body
