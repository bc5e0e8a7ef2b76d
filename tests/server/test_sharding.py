"""Tests for repro.server.sharding: replicas, promotion, rebalancing."""

import threading

import numpy as np
import pytest

import repro.db.replication as replication
from repro.common.clock import ManualClock
from repro.common.errors import ConfigurationError
from repro.common.geo import LatLon
from repro.core.features import FeaturePipeline, FeatureSpec, MeanExtractor
from repro.db import eq
from repro.net import NetworkConditions
from repro.net.codec import encode_body
from repro.net.http import HttpRequest
from repro.net.messages import Envelope, MessageType
from repro.net.resilience import ResilientClient
from repro.net.transport import Network
from repro.obs import MetricsRegistry, NullTracer, Tracer
from repro.server.app_manager import Application
from repro.server.concurrency import ConcurrencyConfig
from repro.server.ranker_service import bump_data_version
from repro.server.sharding import ShardCluster, ShardReplica

FEATURES = ("noise_db", "wifi_mbps")

PROFILE = {
    "name": "quiet",
    "preferences": {
        "noise_db": {"preferred": "min", "weight": 5},
        "wifi_mbps": {"preferred": "max", "weight": 2},
    },
}


def make_cluster(tmp_path, *, num_shards=2, replicas=1, concurrency=None, tracer=None):
    """A cluster; ``concurrency`` gates primaries and replicas alike, and
    ``tracer`` is shared by every server and the router's client."""
    metrics = MetricsRegistry()
    network = Network(
        conditions=NetworkConditions(base_latency_s=0.0, jitter_s=0.0),
        rng=np.random.default_rng(0),
        metrics=metrics,
    )
    tracer = tracer if tracer is not None else NullTracer()
    cluster = ShardCluster(
        network,
        ManualClock(0.0),
        tmp_path,
        num_shards=num_shards,
        replicas_per_shard=replicas,
        metrics=metrics,
        tracer=tracer,
        concurrency=concurrency,
        replica_concurrency=concurrency,
        fsync=False,
        router_client=ResilientClient(network, metrics=metrics, tracer=tracer),
    )
    return cluster, network


def make_app(index, category):
    return Application(
        app_id=f"app-{index}",
        creator="test",
        place_id=f"place-{index}",
        place_name=f"Place {index}",
        category=category,
        location=LatLon(43.0 + 0.001 * index, -76.0),
        script="local data = {}\nreturn data",
        pipeline=FeaturePipeline(
            [
                FeatureSpec(feature, "microphone", MeanExtractor())
                for feature in FEATURES
            ]
        ),
        period_start=0.0,
        period_end=100.0,
        num_instants=4,
    )


def seed_features(primary, index, category, *, base=10.0):
    for feature_index, feature in enumerate(FEATURES):
        primary.database.table("feature_data").insert(
            {
                "place_id": f"place-{index}",
                "category": category,
                "feature": feature,
                "value": float(base + 7.0 * index + 3.0 * feature_index),
                "computed_at": 0.0,
            }
        )


def place_category(cluster, indices, category, *, pin_to=None):
    for index in indices:
        primary = cluster.create_application(
            make_app(index, category), pin_to=pin_to
        )
        seed_features(primary, index, category)
    return primary


def rank_query(category):
    return Envelope(
        message_type=MessageType.RANK_QUERY,
        sender="phone-1",
        recipient="",
        payload={"category": category, "profiles": [PROFILE]},
    )


def post(network, host, envelope):
    return network.send(HttpRequest("POST", host, "/sor", envelope.to_bytes()))


class TestReplica:
    def test_replica_serves_rank_from_shipped_wal(self, tmp_path):
        cluster, network = make_cluster(tmp_path)
        try:
            place_category(cluster, (0, 1), "museums", pin_to="shard-0")
            applied = cluster.sync_replicas()
            assert applied > 0
            response = post(network, "shard-0-r0", rank_query("museums"))
            assert response.status == 200
            reply = Envelope.from_bytes(response.body)
            assert reply.message_type is MessageType.RANKING
            places = reply.payload["rankings"][0]["places"]
            assert sorted(places) == ["place-0", "place-1"]
        finally:
            cluster.close()

    def test_replica_serves_metrics_without_counting_the_scrape(self, tmp_path):
        cluster, network = make_cluster(tmp_path, num_shards=1)
        try:
            place_category(cluster, (0, 1), "museums")
            cluster.sync_replicas()
            assert post(network, "shard-0-r0", rank_query("museums")).status == 200
            response = network.send(HttpRequest("GET", "shard-0-r0", "/metrics"))
            assert response.status == 200
            assert "sor_shard_replica_requests_total" in response.body.decode()
            requests = cluster.metrics.get("sor_shard_replica_requests_total")
            assert requests.value(replica="shard-0-r0", status="200") == 1
            assert requests.value(replica="shard-0-r0", status="400") == 0
        finally:
            cluster.close()

    def test_replica_matches_primary_ranking_exactly(self, tmp_path):
        cluster, network = make_cluster(tmp_path)
        try:
            place_category(cluster, (0, 1, 2), "museums", pin_to="shard-0")
            cluster.sync_replicas()
            primary_reply = Envelope.from_bytes(
                post(network, "shard-0", rank_query("museums")).body
            )
            replica_reply = Envelope.from_bytes(
                post(network, "shard-0-r0", rank_query("museums")).body
            )
            assert primary_reply.payload == replica_reply.payload
        finally:
            cluster.close()

    @pytest.mark.parametrize(
        "payload",
        [
            {"category": 7, "profiles": [PROFILE]},
            {"category": "museums", "profiles": PROFILE},
            {"category": "museums", "profiles": []},
            {
                "category": "museums",
                "profiles": [
                    {
                        "name": "fractional",
                        "preferences": {
                            "noise_db": {"preferred": "min", "weight": 1.5}
                        },
                    }
                ],
            },
        ],
        ids=["category-not-str", "profiles-not-list", "no-profiles", "bad-weight"],
    )
    def test_replica_matches_primary_error_exactly(self, tmp_path, payload):
        cluster, network = make_cluster(tmp_path)
        try:
            place_category(cluster, (0, 1, 2), "museums", pin_to="shard-0")
            cluster.sync_replicas()
            query = Envelope(
                message_type=MessageType.RANK_QUERY,
                sender="phone-1",
                recipient="",
                payload=payload,
            )
            primary_reply = Envelope.from_bytes(post(network, "shard-0", query).body)
            replica_reply = Envelope.from_bytes(
                post(network, "shard-0-r0", query).body
            )
            assert primary_reply.message_type is MessageType.ERROR
            assert replica_reply.message_type is MessageType.ERROR
            assert primary_reply.payload == replica_reply.payload
        finally:
            cluster.close()

    def test_staleness_is_bounded_and_versioned(self, tmp_path):
        cluster, network = make_cluster(tmp_path)
        try:
            primary = place_category(
                cluster, (0, 1), "museums", pin_to="shard-0"
            )
            cluster.sync_replicas()
            stale = Envelope.from_bytes(
                post(network, "shard-0-r0", rank_query("museums")).body
            )
            # The primary moves on: new data, bumped version.
            with primary.database.transaction():
                seed_features(primary, 2, "museums", base=500.0)
                version = bump_data_version(primary.database, "museums")
            replica = cluster.shards["shard-0"].replicas[0]
            assert replica.pending() > 0  # lag is measurable...
            behind = Envelope.from_bytes(
                post(network, "shard-0-r0", rank_query("museums")).body
            )
            # ...and visible: the stale reply still declares the version
            # it was computed against instead of impersonating the new one.
            assert behind.payload["data_version"] == stale.payload["data_version"]
            assert behind.payload["data_version"] < version
            cluster.sync_replicas()
            fresh = Envelope.from_bytes(
                post(network, "shard-0-r0", rank_query("museums")).body
            )
            assert fresh.payload["data_version"] == version
            assert replica.pending() == 0
        finally:
            cluster.close()

    def test_replica_that_cannot_serve_yet_answers_busy_envelope(self, tmp_path):
        network = Network(
            conditions=NetworkConditions(base_latency_s=0.0, jitter_s=0.0),
            rng=np.random.default_rng(0),
            metrics=MetricsRegistry(),
        )
        # No primary has written here yet, so the replica has no tables.
        replica = ShardReplica(
            "lonely-r0",
            network,
            tmp_path / "no-primary",
            ManualClock(0.0),
            metrics=MetricsRegistry(),
            tracer=NullTracer(),
        )
        try:
            response = post(network, "lonely-r0", rank_query("museums"))
            assert response.status == 503
            assert response.headers["Retry-After"] == "0.05"
            reply = Envelope.from_bytes(response.body)
            assert reply.message_type is MessageType.BUSY
            assert reply.payload == {"retry_after_s": 0.05}
        finally:
            replica.close()

    def test_replica_is_read_only(self, tmp_path):
        cluster, network = make_cluster(tmp_path)
        try:
            envelope = Envelope(
                message_type=MessageType.PARTICIPATE,
                sender="phone-1",
                recipient="",
                payload={"app_id": "app-0"},
            ).with_idempotency_key()
            response = post(network, "shard-0-r0", envelope)
            assert response.status == 405
        finally:
            cluster.close()


class TestDeepBodies:
    def test_every_endpoint_answers_400(self, tmp_path):
        """5,000 nested one-item lists: a CodecError, not a RecursionError."""
        cluster, network = make_cluster(tmp_path)
        try:
            place_category(cluster, (0, 1), "museums", pin_to="shard-0")
            cluster.sync_replicas()
            shallow = encode_body(
                {
                    "type": "rank_query",
                    "sender": "phone-1",
                    "recipient": "",
                    "payload": {"category": "museums", "deep": None},
                }
            )
            body = shallow[:-1] + bytes((0x07, 0x01)) * 5000 + bytes((0x00,))
            assert len(body) > 10_000
            for host in (cluster.router_host, "shard-0", "shard-0-r0"):
                response = network.send(HttpRequest("POST", host, "/sor", body))
                assert response.status == 400, host
            # ...and each still serves the next well-formed query.
            for host in (cluster.router_host, "shard-0", "shard-0-r0"):
                assert post(network, host, rank_query("museums")).status == 200
        finally:
            cluster.close()


def register_users(cluster, count):
    for index in range(count):
        cluster.register_user(f"user-{index}", f"User {index}", f"token-{index}")


def users(database):
    return sorted(database.table("users").select(), key=lambda row: row["user_id"])


class TestReplicaLag:
    """One definition of lag: the records a ship from the replica's
    cursor finds, plus one when a checkpoint install is due."""

    def test_due_checkpoint_install_counts_as_lag(self, tmp_path):
        cluster, _ = make_cluster(tmp_path, num_shards=1)
        try:
            shard = cluster.shards["shard-0"]
            replica = shard.replicas[0]
            register_users(cluster, 5)
            shard.primary.database.durability.checkpoint()
            shard.primary.database.durability.checkpoint()
            # The segment the replica's cursor points at is pruned, and
            # the rows it has not shipped live only in the checkpoint.
            assert replica.database.table("users").count() == 0
            assert replica.pending() >= 1
            assert cluster.replica_lag_records() >= 1
            replica.sync()
            assert replica.pending() == 0
            assert cluster.replica_lag_records() == 0
            assert users(replica.database) == users(shard.primary.database)
        finally:
            cluster.close()

    def test_lag_gauge_holds_what_the_sync_found(self, tmp_path):
        cluster, _ = make_cluster(tmp_path, num_shards=1)
        try:
            replica = cluster.shards["shard-0"].replicas[0]
            gauge = cluster.metrics.get("sor_shard_replica_lag_records")
            register_users(cluster, 5)
            assert replica.pending() == 5
            assert replica.sync() == 5
            assert gauge.value(replica=replica.host) == 5
            assert replica.sync() == 0
            assert gauge.value(replica=replica.host) == 0
        finally:
            cluster.close()


    def test_pending_reads_no_checkpoint(self, tmp_path, monkeypatch):
        cluster, _ = make_cluster(tmp_path, num_shards=1)
        try:
            shard = cluster.shards["shard-0"]
            replica = shard.replicas[0]
            register_users(cluster, 5)
            shard.primary.database.durability.checkpoint()
            shard.primary.database.durability.checkpoint()
            reads = []
            read_checkpoint = replication.read_checkpoint

            def counted(path):
                reads.append(path)
                return read_checkpoint(path)

            monkeypatch.setattr(replication, "read_checkpoint", counted)
            # An install is due, yet counting it loads no checkpoint.
            lags = [replica.pending() for _ in range(3)]
            lags.append(cluster.replica_lag_records())
            assert reads == []
            expected = replica._shipper.ship(replica._cursor).lag
            assert len(reads) == 1  # the ship itself still loads it
            assert expected >= 1
            assert lags == [expected] * 4
        finally:
            cluster.close()

    def test_sync_returns_what_pending_reported(self, tmp_path):
        cluster, _ = make_cluster(tmp_path, num_shards=1)
        try:
            shard = cluster.shards["shard-0"]
            replica = shard.replicas[0]
            register_users(cluster, 5)
            shard.primary.database.durability.checkpoint()
            shard.primary.database.durability.checkpoint()
            pending = replica.pending()
            assert pending >= 1
            # The pass installs the checkpoint holding all 5 rows.
            assert replica.sync() == pending
            assert users(replica.database) == users(shard.primary.database)
        finally:
            cluster.close()


class TestCallerThreads:
    """Primaries and replicas run each request on its caller's thread."""

    def test_concurrent_cluster_starts_no_thread(self, tmp_path):
        before = set(threading.enumerate())
        cluster, _ = make_cluster(tmp_path, concurrency=ConcurrencyConfig())
        try:
            assert set(threading.enumerate()) - before == set()
        finally:
            cluster.close()

    def test_replica_span_parents_to_the_router_client_span(self, tmp_path):
        tracer = Tracer()
        cluster, network = make_cluster(
            tmp_path, concurrency=ConcurrencyConfig(), tracer=tracer
        )
        try:
            place_category(cluster, (0, 1), "museums", pin_to="shard-0")
            cluster.sync_replicas()
            tracer.reset()
            response = post(network, cluster.router_host, rank_query("museums"))
            assert response.status == 200
            spans = {record.span_id: record for record in tracer.finished()}
            (rank,) = [span for span in spans.values() if span.name == "ranker.rank_many"]
            send = spans[rank.parent_id]
            assert send.name == "net.resilient_send"
            assert send.attributes["host"] == "shard-0-r0"
            assert spans[send.parent_id].name == "router.route"
        finally:
            cluster.close()


class TestRouterDefaultClient:
    """Without ``router_client``, the router's hop reports to the cluster."""

    def test_default_client_uses_the_cluster_registry_and_tracer(self, tmp_path):
        metrics = MetricsRegistry()
        tracer = Tracer()
        network = Network(
            conditions=NetworkConditions(base_latency_s=0.0, jitter_s=0.0),
            rng=np.random.default_rng(0),
            metrics=metrics,
        )
        cluster = ShardCluster(
            network,
            ManualClock(0.0),
            tmp_path,
            num_shards=1,
            metrics=metrics,
            tracer=tracer,
            fsync=False,
        )
        try:
            place_category(cluster, (0, 1), "museums")
            cluster.sync_replicas()
            tracer.reset()
            for _ in range(3):
                response = post(network, cluster.router_host, rank_query("museums"))
                assert response.status == 200
            exported = network.send(
                HttpRequest("GET", cluster.router_host, "/metrics")
            ).body.decode()
            assert "sor_net_resilient_sends_total" in exported
            spans = {record.span_id: record for record in tracer.finished()}
            sends = [span for span in spans.values() if span.name == "net.resilient_send"]
            assert len(sends) == 3
            for send in sends:
                assert spans[send.parent_id].name == "router.route"
            ranks = [span for span in spans.values() if span.name == "ranker.rank_many"]
            assert len(ranks) == 3
            for rank in ranks:
                assert spans[rank.parent_id].name == "net.resilient_send"
        finally:
            cluster.close()


class TestPromotion:
    def test_promote_refuses_while_primary_lives(self, tmp_path):
        cluster, _ = make_cluster(tmp_path)
        try:
            with pytest.raises(ConfigurationError, match="still registered"):
                cluster.promote("shard-0")
        finally:
            cluster.close()

    def test_promote_without_replicas_refuses(self, tmp_path):
        cluster, _ = make_cluster(tmp_path, replicas=0)
        try:
            cluster.kill_primary("shard-0")
            with pytest.raises(ConfigurationError, match="no replica"):
                cluster.promote("shard-0")
        finally:
            cluster.close()

    def test_promotion_preserves_acked_data_and_host(self, tmp_path):
        cluster, network = make_cluster(tmp_path)
        try:
            place_category(cluster, (0, 1), "museums", pin_to="shard-0")
            # Deliberately do NOT sync before the kill: promotion's final
            # catch-up read of the dead primary's directory must recover
            # everything that was acked, not just what was shipped.
            cluster.kill_primary("shard-0")
            promoted = cluster.promote("shard-0")
            assert promoted.host == "shard-0"  # task-id prefixes stay valid
            assert cluster.shards["shard-0"].primary is promoted
            rows = promoted.database.table("feature_data").select(
                eq("category", "museums")
            )
            assert len(rows) == 2 * len(FEATURES)
            # The consumed replica is gone from the routing table; the
            # re-seeded replacement (fresh host, never reused) is in.
            assert cluster.table.shards["shard-0"].replicas == ("shard-0-r1",)
            # The promoted primary is durable: commits flow into a
            # re-attached WAL in the same directory.
            assert promoted.database.durability is not None
            assert not promoted.database.durability.closed
            response = post(network, "shard-0", rank_query("museums"))
            assert Envelope.from_bytes(response.body).message_type is (
                MessageType.RANKING
            )
            failovers = cluster.metrics.get("sor_shard_failovers_total")
            assert failovers.value() == 1
        finally:
            cluster.close()

    def test_promoted_primary_serves_writes_via_router(self, tmp_path):
        cluster, network = make_cluster(tmp_path)
        try:
            place_category(cluster, (0, 1), "museums", pin_to="shard-0")
            cluster.register_user("user-1", "User One", "token-1")
            cluster.kill_primary("shard-0")
            cluster.promote("shard-0")
            envelope = Envelope(
                message_type=MessageType.PARTICIPATE,
                sender="user-1",
                recipient="",
                payload={
                    "app_id": "app-0",
                    "user_id": "user-1",
                    "token": "token-1",
                    "budget": 2,
                    "latitude": 43.0,
                    "longitude": -76.0,
                },
            ).with_idempotency_key()
            response = post(network, cluster.router_host, envelope)
            assert response.status == 200
            reply = Envelope.from_bytes(response.body)
            assert reply.message_type is not MessageType.ERROR
        finally:
            cluster.close()


class TestDurableFailover:
    def test_promoted_primary_survives_second_kill(self, tmp_path):
        """The core durable-promotion claim: kill the shard twice.

        Data written *after* the first promotion goes through the
        re-attached WAL, so the second promotion (from the re-seeded
        replica) must recover it too.
        """
        cluster, _ = make_cluster(tmp_path)
        try:
            place_category(cluster, (0, 1), "museums", pin_to="shard-0")
            cluster.kill_primary("shard-0")
            promoted = cluster.promote("shard-0")
            # New acked data on the promoted primary, never synced to
            # the replacement replica before the second kill.
            seed_features(promoted, 2, "museums")
            cluster.kill_primary("shard-0")
            second = cluster.promote("shard-0")
            rows = second.database.table("feature_data").select(
                eq("category", "museums")
            )
            assert len(rows) == 3 * len(FEATURES)
            assert second.database.durability is not None
            failovers = cluster.metrics.get("sor_shard_failovers_total")
            assert failovers.value() == 2
        finally:
            cluster.close()

    def test_promote_refuses_laggy_replica(self, tmp_path):
        """A replica whose catch-up leaves shipped records unapplied
        must not be silently promoted over acked data."""
        cluster, _ = make_cluster(tmp_path)
        try:
            # Written after the replica's constructor sync, never
            # shipped: the replica is genuinely behind the log.
            place_category(cluster, (0, 1), "museums", pin_to="shard-0")
            cluster.kill_primary("shard-0")
            replica = cluster.shards["shard-0"].replicas[0]
            replica.sync = lambda: 0  # a catch-up pass that goes nowhere
            with pytest.raises(ConfigurationError, match="laggy"):
                cluster.promote("shard-0")
        finally:
            cluster.close()

    def test_promote_reports_catchup_count_in_metrics(self, tmp_path):
        cluster, _ = make_cluster(tmp_path)
        try:
            place_category(cluster, (0, 1), "museums", pin_to="shard-0")
            cluster.kill_primary("shard-0")
            cluster.promote("shard-0")
            catchup = cluster.metrics.get(
                "sor_shard_promote_catchup_records_total"
            )
            # The feature rows written after the ctor sync were only
            # recovered by promotion's final file-level catch-up.
            assert catchup.value(shard="shard-0") >= 2 * len(FEATURES)
        finally:
            cluster.close()

    def test_reseeded_replica_bootstraps_from_checkpoint(self, tmp_path):
        cluster, network = make_cluster(tmp_path)
        try:
            place_category(cluster, (0, 1), "museums", pin_to="shard-0")
            cluster.kill_primary("shard-0")
            cluster.promote("shard-0")
            shard = cluster.shards["shard-0"]
            assert [replica.host for replica in shard.replicas] == [
                "shard-0-r1"
            ]
            replacement = shard.replicas[0]
            # Bootstrapped from the promotion checkpoint (generation 2),
            # not a full replay of segment 1.
            assert replacement._cursor.seq >= 2
            reseeds = cluster.metrics.get("sor_shard_reseeds_total")
            assert reseeds.value(shard="shard-0") == 1
            bootstraps = cluster.metrics.get(
                "sor_shard_replica_bootstraps_total"
            )
            assert bootstraps.value(replica="shard-0-r1") == 1
            # And it serves rank queries for the shard's category.
            response = post(network, "shard-0-r1", rank_query("museums"))
            assert response.status == 200
            assert Envelope.from_bytes(response.body).message_type is (
                MessageType.RANKING
            )
        finally:
            cluster.close()

    def test_promote_without_reseed_leaves_replica_set_empty(self, tmp_path):
        cluster, _ = make_cluster(tmp_path)
        try:
            place_category(cluster, (0, 1), "museums", pin_to="shard-0")
            cluster.kill_primary("shard-0")
            cluster.promote("shard-0", reseed=False)
            assert cluster.shards["shard-0"].replicas == []
            assert cluster.table.shards["shard-0"].replicas == ()
        finally:
            cluster.close()

    def test_wreck_kill_is_survivable(self, tmp_path):
        """A kill inside checkpoint compaction plus a torn, uncommitted
        WAL tail: promotion must discard the wreckage, keep the acked
        rows, and re-attach cleanly on top."""
        cluster, _ = make_cluster(tmp_path)
        try:
            place_category(cluster, (0, 1), "museums", pin_to="shard-0")
            cluster.kill_primary("shard-0", wreck=True)
            promoted = cluster.promote("shard-0")
            rows = promoted.database.table("feature_data").select(
                eq("category", "museums")
            )
            assert len(rows) == 2 * len(FEATURES)
            assert not any("doomed" in str(row) for row in rows)
            # And the wrecked directory still recovers after yet
            # another kill — the re-attach sanitized the torn tail.
            seed_features(promoted, 2, "museums")
            cluster.kill_primary("shard-0")
            second = cluster.promote("shard-0")
            rows = second.database.table("feature_data").select(
                eq("category", "museums")
            )
            assert len(rows) == 3 * len(FEATURES)
        finally:
            cluster.close()


class TestRebalance:
    def test_add_shard_moves_ring_owned_categories(self, tmp_path):
        cluster, _ = make_cluster(tmp_path, num_shards=1, replicas=0)
        try:
            categories = [f"cat-{index}" for index in range(8)]
            for index, category in enumerate(categories):
                primary = cluster.create_application(make_app(index, category))
                seed_features(primary, index, category)
                bump_data_version(primary.database, category)
            cluster.add_shard()
            moved = [
                category
                for category in categories
                if cluster.table.category_owner(category) == "shard-1"
            ]
            assert moved  # the ring hands shard-1 a share of the space
            assert len(moved) < len(categories)  # ...not everything
            for index, category in enumerate(categories):
                owner = cluster.shards[
                    cluster.table.category_owner(category)
                ].primary
                rows = owner.database.table("feature_data").select(
                    eq("category", category)
                )
                assert len(rows) == len(FEATURES)
                assert owner.apps.get(f"app-{index}") is not None
                # Version numbers survive the move, so replica caches
                # keyed on (category, version) can never alias.
                assert (
                    owner.database.table("ranking_versions")
                    .get(category)["data_version"]
                    == 1
                )
            # Nothing left behind on the old owner.
            for category in moved:
                stale = cluster.shards["shard-0"].primary
                assert stale.database.table("feature_data").select(
                    eq("category", category)
                ) == []
                assert stale.apps.get(f"app-{categories.index(category)}") is None
        finally:
            cluster.close()

    def test_old_primary_stops_serving_a_moved_category(self, tmp_path):
        cluster, network = make_cluster(tmp_path, num_shards=1, replicas=1)
        try:
            categories = [f"cat-{index}" for index in range(8)]
            before = {}
            for index, category in enumerate(categories):
                primary = place_category(cluster, (index,), category)
                seed_features(primary, 100 + index, category)  # a second place
                bump_data_version(primary.database, category)
            cluster.sync_replicas()
            for category in categories:
                for host in ("shard-0", "shard-0-r0"):
                    reply = Envelope.from_bytes(
                        post(network, host, rank_query(category)).body
                    )
                    assert reply.message_type is MessageType.RANKING
                    before[category] = reply.payload["data_version"]
            cluster.add_shard()
            moved = [
                category
                for category in categories
                if cluster.table.category_owner(category) == "shard-1"
            ]
            assert moved
            cluster.sync_replicas()
            for category in moved:
                # The rankings cached before the move are keyed on the
                # old version; the delete moved the source past it.
                for host in ("shard-0", "shard-0-r0"):
                    reply = Envelope.from_bytes(
                        post(network, host, rank_query(category)).body
                    )
                    assert reply.message_type is MessageType.ERROR, host
                    assert "two places" in reply.payload["reason"]
                version = cluster.shards["shard-0"].primary.ranker.data_version(
                    category
                )
                assert version == before[category] + 1
                # The new owner serves it under the version it moved with.
                reply = Envelope.from_bytes(
                    post(network, "shard-1", rank_query(category)).body
                )
                assert reply.message_type is MessageType.RANKING
                assert reply.payload["data_version"] == before[category]
        finally:
            cluster.close()

    def test_upload_for_a_moved_application_is_refused(self, tmp_path):
        """A task issued before its application moved routes to the old
        shard by its id; that shard answers the upload with ERROR rather
        than acking a blob that could never become readings."""
        cluster, network = make_cluster(tmp_path, num_shards=1, replicas=0)
        try:
            cluster.register_user("user-1", "User One", "token-1")
            categories = [f"cat-{index}" for index in range(8)]
            tasks = {}
            for index, category in enumerate(categories):
                application = make_app(index, category)
                cluster.create_application(application)
                participate = Envelope(
                    message_type=MessageType.PARTICIPATE,
                    sender="user-1",
                    recipient="",
                    payload={
                        "app_id": application.app_id,
                        "user_id": "user-1",
                        "token": "token-1",
                        "budget": 2,
                        "latitude": application.location.latitude,
                        "longitude": application.location.longitude,
                    },
                ).with_idempotency_key()
                reply = Envelope.from_bytes(
                    post(network, cluster.router_host, participate).body
                )
                assert reply.message_type is MessageType.SCHEDULE
                tasks[category] = reply.payload["task_id"]
            cluster.add_shard()
            assert cluster.table.category_owner("cat-0") == "shard-1"
            assert tasks["cat-0"] == "shard-0:task-1"
            stayed = next(
                category
                for category in categories
                if cluster.table.category_owner(category) == "shard-0"
            )

            def upload(category):
                envelope = Envelope(
                    message_type=MessageType.SENSED_DATA,
                    sender="user-1",
                    recipient="",
                    payload={
                        "task_id": tasks[category],
                        "token": "token-1",
                        "bursts": [
                            {"sensor": "microphone", "t": 1.0, "dt": 0.0,
                             "values": [40.0]}
                        ],
                    },
                ).with_idempotency_key()
                return Envelope.from_bytes(
                    post(network, cluster.router_host, envelope).body
                )

            refused = upload("cat-0")
            assert refused.message_type is MessageType.ERROR
            assert refused.payload["reason"] == "unknown application"
            for shard in cluster.shards.values():
                raw = shard.primary.database.table("raw_data")
                assert raw.count(eq("task_id", tasks["cat-0"])) == 0
            assert upload(stayed).message_type is MessageType.ACK
            assert cluster.shards["shard-0"].primary.process_data() == 1
        finally:
            cluster.close()

    def test_pinned_categories_never_rebalance(self, tmp_path):
        cluster, _ = make_cluster(tmp_path, num_shards=2, replicas=0)
        try:
            place_category(cluster, (0,), "museums", pin_to="shard-0")
            cluster.add_shard()
            assert cluster.table.category_owner("museums") == "shard-0"
            primary = cluster.shards["shard-0"].primary
            assert primary.apps.get("app-0") is not None
        finally:
            cluster.close()

    def test_new_shard_knows_registered_users(self, tmp_path):
        cluster, _ = make_cluster(tmp_path, num_shards=1, replicas=0)
        try:
            cluster.register_user("user-1", "User One", "token-1")
            shard = cluster.add_shard()
            users = shard.primary.database.table("users").select()
            assert [row["user_id"] for row in users] == ["user-1"]
        finally:
            cluster.close()
