"""Tests for the versioned ranking cache, batch rank API and endpoint."""

import numpy as np
import pytest

from repro.common.clock import ManualClock
from repro.common.errors import RankingError
from repro.db import (
    Database,
    DurabilityConfig,
    and_,
    eq,
    open_durable_database,
)
from repro.net import (
    CloudMessenger,
    Envelope,
    HttpRequest,
    MessageType,
    NetworkConditions,
)
from repro.net.transport import Network
from repro.obs import MetricsRegistry
from repro.core.ranking import MAX, MIN, FeaturePreference, PreferenceProfile
from repro.server.ranker_service import (
    PersonalizableRanker,
    RankingCache,
    bump_data_version,
    get_data_version,
    profile_from_dict,
    profile_to_dict,
)
from repro.server.reports import explain_report
from repro.server.schemas import create_all_tables

FEATURES = {
    "p1": {"temperature": 70.0, "noise": 40.0},
    "p2": {"temperature": 75.0, "noise": 30.0},
    "p3": {"temperature": 65.0, "noise": 50.0},
}


def seed_database(features=FEATURES, category="coffee_shop"):
    database = Database(name="test", metrics=MetricsRegistry())
    create_all_tables(database)
    write_features(database, features, category)
    return database


def write_features(database, features, category="coffee_shop"):
    table = database.table("feature_data")
    for place_id, values in features.items():
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
    bump_data_version(database, category)


def profile(name="David", **prefs):
    if not prefs:
        prefs = {"temperature": (70.0, 5), "noise": (MIN, 3)}
    return PreferenceProfile(
        name,
        {
            feature: FeaturePreference(preferred, weight)
            for feature, (preferred, weight) in prefs.items()
        },
    )


def make_ranker(database=None, capacity=8):
    database = database if database is not None else seed_database()
    registry = MetricsRegistry()
    cache = RankingCache(capacity=capacity, metrics=registry)
    ranker = PersonalizableRanker(database, cache=cache, metrics=registry)
    return ranker, cache, database


def assert_reports_equal(left, right):
    """Bitwise equality of two ranking reports."""
    assert left.category == right.category
    assert left.ranking.items == right.ranking.items
    assert left.feature_names == right.feature_names
    assert left.place_ids == right.place_ids
    assert np.array_equal(left.feature_matrix, right.feature_matrix)
    assert [r.items for r in left.individual] == [
        r.items for r in right.individual
    ]
    assert left.weights == right.weights
    assert left.weighted_footrule == right.weighted_footrule
    assert left.weighted_kemeny == right.weighted_kemeny


class TestUncoveredFeatureRegression:
    def test_profile_missing_a_common_feature_ranks(self):
        """Regression: an uncovered common feature used to raise."""
        ranker, _, _ = make_ranker()
        only_temperature = profile("Solo", temperature=(70.0, 5))
        report = ranker.rank("coffee_shop", only_temperature)
        assert report.feature_names == ["temperature"]
        assert report.ranking.items[0] == "p1"

    def test_uncovered_equals_explicit_zero_weight(self):
        ranker, _, _ = make_ranker()
        uncovered = profile("A", temperature=(70.0, 5))
        zeroed = profile("B", temperature=(70.0, 5), noise=(MIN, 0))
        left = ranker.rank("coffee_shop", uncovered)
        right = ranker.rank("coffee_shop", zeroed)
        assert left.ranking.items == right.ranking.items
        assert left.feature_names == right.feature_names == ["temperature"]

    def test_profile_with_no_positive_common_weight_rejected(self):
        ranker, _, _ = make_ranker()
        unrelated = profile("Ghost", wifi=(MAX, 5))
        with pytest.raises(RankingError):
            ranker.rank("coffee_shop", unrelated)


class TestRankingCacheUnit:
    def test_capacity_must_be_positive(self):
        with pytest.raises(RankingError):
            RankingCache(capacity=0, metrics=MetricsRegistry())

    def test_miss_then_hit(self):
        ranker, cache, _ = make_ranker()
        first = ranker.rank("coffee_shop", profile())
        second = ranker.rank("coffee_shop", profile())
        assert second is first  # served from the cache, not recomputed
        assert (cache.hits, cache.misses) == (1, 1)

    def test_metrics_counters_track_attributes(self):
        registry = MetricsRegistry()
        cache = RankingCache(capacity=1, metrics=registry)
        ranker = PersonalizableRanker(
            seed_database(), cache=cache, metrics=registry
        )
        ranker.rank("coffee_shop", profile("A"))
        ranker.rank("coffee_shop", profile("A"))
        assert registry.get("sor_ranking_cache_hits_total").value() == 1
        assert registry.get("sor_ranking_cache_misses_total").value() == 1
        assert registry.get("sor_ranking_cache_evictions_total").value() == 0

    def test_lru_eviction_at_capacity(self):
        ranker, cache, _ = make_ranker(capacity=1)
        david = profile("David")
        emma = profile("Emma", temperature=(65.0, 2), noise=(MIN, 5))
        ranker.rank("coffee_shop", david)
        ranker.rank("coffee_shop", emma)  # evicts David's entry
        assert len(cache) == 1
        assert cache.evictions == 1
        ranker.rank("coffee_shop", david)  # miss again: was evicted
        assert cache.misses == 3
        assert cache.hits == 0

    def test_clear_keeps_counters(self):
        ranker, cache, _ = make_ranker()
        ranker.rank("coffee_shop", profile())
        cache.clear()
        assert len(cache) == 0
        assert cache.misses == 1
        ranker.rank("coffee_shop", profile())
        assert cache.misses == 2


class TestVersioning:
    def test_starts_at_zero_without_table(self):
        database = Database(name="bare", metrics=MetricsRegistry())
        assert get_data_version(database, "coffee_shop") == 0

    def test_bump_creates_table_and_increments(self):
        database = Database(name="bare", metrics=MetricsRegistry())
        assert bump_data_version(database, "coffee_shop") == 1
        assert bump_data_version(database, "coffee_shop") == 2
        assert get_data_version(database, "coffee_shop") == 2
        assert get_data_version(database, "trail") == 0

    def test_bump_invalidates_cached_rankings(self):
        ranker, cache, database = make_ranker()
        ranker.rank("coffee_shop", profile())
        bump_data_version(database, "coffee_shop")
        report = ranker.rank("coffee_shop", profile())
        assert cache.hits == 0
        assert cache.misses == 2
        assert report.ranking.items  # recomputed fine on the new version

    def test_stale_entry_never_served_after_data_change(self):
        ranker, _, database = make_ranker()
        before = ranker.rank("coffee_shop", profile())
        database.table("feature_data").update(
            and_(eq("place_id", "p3"), eq("feature", "noise")), {"value": 0.0}
        )
        bump_data_version(database, "coffee_shop")
        after = ranker.rank("coffee_shop", profile())
        # Recomputed on the new data: p3's noise of 0 is now best.
        noise = after.feature_names.index("noise")
        assert after.individual[noise].items[0] == "p3"
        assert before.individual[noise].items[0] == "p2"
        assert after.weighted_footrule != before.weighted_footrule

    def test_version_survives_durable_restart(self, tmp_path):
        config = DurabilityConfig(directory=tmp_path)
        database, _ = open_durable_database(config)
        create_all_tables(database)
        bump_data_version(database, "coffee_shop")
        bump_data_version(database, "coffee_shop")
        database.durability.close()  # simulated kill, no graceful flush
        reopened, _ = open_durable_database(config)
        assert get_data_version(reopened, "coffee_shop") == 2
        reopened.durability.close()


class TestBatchRanking:
    def profiles(self):
        return [
            profile("David", temperature=(70.0, 5), noise=(MIN, 3)),
            profile("Emma", temperature=(65.0, 2), noise=(MIN, 5)),
            profile("Frank", temperature=(75.0, 4)),
        ]

    def test_rank_many_matches_uncached_rank_bitwise(self):
        ranker, _, database = make_ranker()
        batch = ranker.rank_many("coffee_shop", self.profiles())
        plain = PersonalizableRanker(database, metrics=MetricsRegistry())
        for person in self.profiles():
            assert_reports_equal(
                batch[person.name], plain.rank("coffee_shop", person)
            )

    def test_rank_many_preserves_profile_order(self):
        ranker, _, _ = make_ranker()
        batch = ranker.rank_many("coffee_shop", self.profiles())
        assert list(batch) == ["David", "Emma", "Frank"]

    def test_rank_many_serves_cached_profiles(self):
        ranker, cache, _ = make_ranker()
        ranker.rank("coffee_shop", profile("David"))
        ranker.rank_many(
            "coffee_shop", [profile("David"), profile("Emma", wifi=(MAX, 1),
                                                      temperature=(70.0, 2))]
        )
        assert cache.hits == 1
        assert cache.misses == 2

    def test_equal_profiles_share_a_report_but_keep_their_names(self):
        """The cache serves one report to profiles with equal preferences;
        each explanation names the profile it was asked for."""
        ranker, cache, _ = make_ranker()
        batch = ranker.rank_many("coffee_shop", [profile("u"), profile("v")])
        assert cache.hits == 1 and batch["u"] is batch["v"]
        for name in ("u", "v"):
            text = explain_report(name, batch[name])
            assert text.startswith(f"Ranking for {name} (coffee_shop)")

    def test_rank_many_rejects_duplicate_names(self):
        ranker, cache, _ = make_ranker()
        with pytest.raises(RankingError, match="duplicate profile name 'u'"):
            ranker.rank_many(
                "coffee_shop", [profile("u"), profile("v"), profile("u")]
            )
        assert cache.misses == 0

    def test_rank_many_needs_two_places(self):
        database = Database(name="one", metrics=MetricsRegistry())
        create_all_tables(database)
        write_features(database, {"p1": {"temperature": 70.0}})
        ranker = PersonalizableRanker(database, metrics=MetricsRegistry())
        with pytest.raises(RankingError):
            ranker.rank_many("coffee_shop", [profile()])


class TestProfileWireCodec:
    def test_roundtrip(self):
        original = profile("David", temperature=(70.0, 5), noise=(MIN, 3),
                           wifi=(MAX, 1))
        revived = profile_from_dict(profile_to_dict(original))
        assert revived.name == original.name
        assert revived.fingerprint() == original.fingerprint()

    @pytest.mark.parametrize(
        "payload",
        [
            {"name": "x"},
            {"name": "x", "preferences": {}},
            {"name": 3, "preferences": {"t": {"preferred": 1.0, "weight": 1}}},
            {"name": "x", "preferences": {"t": {"preferred": "best",
                                                "weight": 1}}},
            {"name": "x", "preferences": {"t": {"preferred": 1.0,
                                                "weight": True}}},
            {"name": "x", "preferences": {"t": {"preferred": 1.0,
                                                "weight": "5"}}},
        ],
    )
    def test_malformed_rejected(self, payload):
        with pytest.raises(RankingError):
            profile_from_dict(payload)


class TestRankQueryEndpoint:
    def make_server(self):
        from repro.server import SensingServer

        network = Network(
            conditions=NetworkConditions(drop_probability=0.0),
            rng=np.random.default_rng(0),
        )
        server = SensingServer(
            "server",
            network,
            ManualClock(start=10.0),
            gcm=CloudMessenger(),
            metrics=MetricsRegistry(),
        )
        write_features(server.database, FEATURES)
        return server, network

    def post(self, network, payload):
        envelope = Envelope(
            MessageType.RANK_QUERY, "client-1", "server", payload
        )
        response = network.send(
            HttpRequest("POST", "server", "/sor", envelope.to_bytes())
        )
        assert response.ok
        return Envelope.from_bytes(response.body)

    def test_round_trip(self):
        server, network = self.make_server()
        reply = self.post(
            network,
            {
                "category": "coffee_shop",
                "profiles": [profile_to_dict(profile("David"))],
            },
        )
        assert reply.message_type is MessageType.RANKING
        assert reply.payload["category"] == "coffee_shop"
        assert reply.payload["data_version"] == 1
        (entry,) = reply.payload["rankings"]
        assert entry["profile"] == "David"
        expected = server.ranker.rank("coffee_shop", profile("David"))
        assert entry["places"] == list(expected.ranking.items)
        assert entry["weighted_footrule"] == expected.weighted_footrule

    def test_batch_reply_in_profile_order(self):
        _, network = self.make_server()
        reply = self.post(
            network,
            {
                "category": "coffee_shop",
                "profiles": [
                    profile_to_dict(profile("David")),
                    profile_to_dict(
                        profile("Emma", temperature=(65.0, 2), noise=(MIN, 5))
                    ),
                ],
            },
        )
        assert [r["profile"] for r in reply.payload["rankings"]] == [
            "David", "Emma",
        ]

    @pytest.mark.parametrize(
        "payload",
        [
            {"profiles": []},
            {"category": "coffee_shop"},
            {"category": "coffee_shop", "profiles": []},
            {"category": "coffee_shop", "profiles": [{"name": "x"}]},
            {"category": "ghost_town", "profiles": None},
        ],
    )
    def test_malformed_is_error(self, payload):
        _, network = self.make_server()
        reply = self.post(network, payload)
        assert reply.message_type is MessageType.ERROR

    def test_unknown_category_is_error(self):
        _, network = self.make_server()
        reply = self.post(
            network,
            {
                "category": "ghost_town",
                "profiles": [profile_to_dict(profile("David"))],
            },
        )
        assert reply.message_type is MessageType.ERROR
        assert "two places" in reply.payload["reason"]

    @pytest.mark.parametrize(
        "preferred", [float("nan"), float("inf"), float("-inf")],
        ids=["nan", "inf", "-inf"],
    )
    def test_non_finite_preferred_is_error(self, preferred):
        # The codec carries IEEE doubles, so these arrive intact; a
        # non-finite target would make Γ all-NaN/inf and rank in place
        # order with footrule 0.
        server, network = self.make_server()
        entry = profile_to_dict(profile("David"))
        entry["preferences"]["temperature"]["preferred"] = preferred
        reply = self.post(
            network, {"category": "coffee_shop", "profiles": [entry]}
        )
        assert reply.message_type is MessageType.ERROR
        assert "not finite" in reply.payload["reason"]
        assert len(server.ranker.cache) == 0

    def test_duplicate_profile_names_is_error(self):
        server, network = self.make_server()
        reply = self.post(
            network,
            {
                "category": "coffee_shop",
                "profiles": [
                    profile_to_dict(profile("u", noise=(MIN, 5))),
                    profile_to_dict(profile("u", noise=(MAX, 5))),
                ],
            },
        )
        assert reply.message_type is MessageType.ERROR
        assert "duplicate profile name 'u'" in reply.payload["reason"]
        assert len(server.ranker.cache) == 0


class TestDataProcessorBumpsVersion:
    def test_compute_features_bumps_every_write(self):
        from tests.server.test_server_endpoint import make_server, participate

        server, network, *_ = make_server()
        task_id = participate(network).payload["task_id"]
        upload = Envelope(
            MessageType.SENSED_DATA,
            sender="phone-1",
            recipient="server",
            payload={
                "task_id": task_id,
                "token": "tok-a",
                "status": "finished",
                "error": "",
                "bursts": [
                    {
                        "sensor": "temperature",
                        "t": 100.0,
                        "dt": 1.0,
                        "values": [70.0, 72.0],
                    }
                ],
            },
        )
        response = network.send(
            HttpRequest("POST", "server", "/sor", upload.to_bytes())
        )
        assert response.ok
        assert get_data_version(server.database, "coffee_shop") == 0
        server.process_data()
        server.compute_all_features()
        assert get_data_version(server.database, "coffee_shop") == 1
        server.compute_all_features()
        assert get_data_version(server.database, "coffee_shop") == 2
