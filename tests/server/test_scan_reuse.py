"""Scan reuse: one category scan per data version, shared and bounded.

A ranker keeps the newest scan of each category and ranks every miss
at that version from it. These tests pin what makes that safe:

* a long-lived ranker reports exactly what a ranker built afresh for
  each call reports, while feature writes and version bumps interleave;
* exactly one scan is built per ``(category, data_version)``, also when
  readers miss at once;
* the scan's arrays reject writes, and its memos stay bounded however
  many preferred values and feature subsets clients send;
* the rows a scan reads and the version it is keyed on always agree:
  feature rows and their version bump commit together, under the
  server's exclusive lock, and a rebalanced category's old owner moves
  to a new version;
* a replica's checkpoint install starts with no scan.
"""

import shutil
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.clock import ManualClock
from repro.common.errors import RankingError
from repro.common.geo import LatLon
from repro.core.features import FeaturePipeline, FeatureSpec, MeanExtractor
from repro.core.ranking import MAX, MIN, FeaturePreference, PreferenceProfile
from repro.db import Database, DurabilityConfig, and_, eq
from repro.db.wal import read_wal_file
from repro.net import (
    CloudMessenger,
    Envelope,
    HttpRequest,
    MessageType,
    NetworkConditions,
)
from repro.net.transport import Network
from repro.obs import MetricsRegistry
from repro.server import SensingServer
from repro.server.app_manager import Application
from repro.server.ranker_service import (
    PersonalizableRanker,
    RankingCache,
    bump_data_version,
    get_data_version,
    profile_to_dict,
)
from repro.server.schemas import create_all_tables
from repro.server.sharding import ShardReplica
from tests.server.test_ranking_cache import assert_reports_equal
from tests.server.test_sharding import make_cluster, place_category, post, rank_query

CATEGORY = "coffee_shop"
FEATURES = ("temperature", "noise", "wifi")


def new_database():
    database = Database(name="scan", metrics=MetricsRegistry())
    create_all_tables(database)
    return database


def write_rows(database, rows, category=CATEGORY):
    """Insert or update ``{place: {feature: value}}``, then bump: one commit."""
    table = database.table("feature_data")
    with database.transaction():
        for place_id, values in rows.items():
            for feature, value in values.items():
                match = and_(
                    eq("category", category),
                    eq("place_id", place_id),
                    eq("feature", feature),
                )
                if table.select(match):
                    table.update(match, {"value": value})
                else:
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


def make_profile(name, prefs):
    return PreferenceProfile(
        name,
        {
            feature: FeaturePreference(preferred, weight)
            for feature, (preferred, weight) in prefs.items()
        },
    )


def rank_outcome(ranker, profiles, category=CATEGORY):
    try:
        return ranker.rank_many(category, profiles), None
    except RankingError as exc:
        return None, str(exc)


def scans_built(registry):
    return registry.get("sor_ranking_scans_total").value()


# ----------------------------------------------------------------------
# a long-lived ranker equals a fresh one
# ----------------------------------------------------------------------
values = st.sampled_from([0.0, 1.0, 2.5, 40.0, 70.0])
preferred = st.one_of(
    st.sampled_from([MAX, MIN]), st.sampled_from([0.0, 1.0, 65.0, 70.0])
)
profile_prefs = st.dictionaries(
    st.sampled_from(FEATURES), st.tuples(preferred, st.integers(0, 5)), min_size=1
)
write_op = st.tuples(
    st.just("write"),
    st.dictionaries(
        st.sampled_from([f"p{index}" for index in range(5)]),
        st.dictionaries(st.sampled_from(FEATURES), values, min_size=1),
        min_size=1,
        max_size=3,
    ),
)
bump_op = st.tuples(st.just("bump"), st.none())
rank_op = st.tuples(
    st.just("rank"),
    st.lists(
        profile_prefs,
        min_size=1,
        max_size=3,
        unique_by=lambda prefs: tuple(sorted(prefs.items())),
    ),
)
operations = st.lists(st.one_of(write_op, bump_op, rank_op, rank_op), max_size=14)


@settings(max_examples=80, deadline=None)
@given(ops=operations)
def test_long_lived_ranker_reports_equal_fresh_rankers(ops):
    database = new_database()
    registry = MetricsRegistry()
    long_lived = PersonalizableRanker(
        database, cache=RankingCache(capacity=4, metrics=registry), metrics=registry
    )
    for kind, argument in ops:
        if kind == "write":
            write_rows(database, argument)
        elif kind == "bump":
            bump_data_version(database, CATEGORY)
        else:
            # A cached report keeps the name it was computed under, so
            # equal preferences get equal names.
            profiles = [make_profile("", prefs) for prefs in argument]
            profiles = [
                make_profile(f"user-{profile.fingerprint()[:12]}", prefs)
                for profile, prefs in zip(profiles, argument)
            ]
            fresh = PersonalizableRanker(database, metrics=MetricsRegistry())
            kept, kept_error = rank_outcome(long_lived, profiles)
            built, built_error = rank_outcome(fresh, profiles)
            assert kept_error == built_error
            if kept is not None:
                assert list(kept) == list(built)
                for name in kept:
                    assert_reports_equal(kept[name], built[name])


# ----------------------------------------------------------------------
# one scan per (category, data_version)
# ----------------------------------------------------------------------
ROWS = {
    "p1": {"temperature": 70.0, "noise": 40.0, "wifi": 5.0},
    "p2": {"temperature": 75.0, "noise": 30.0, "wifi": 9.0},
    "p3": {"temperature": 65.0, "noise": 50.0, "wifi": 1.0},
}
DAVID = make_profile("David", {"temperature": (70.0, 5), "noise": (MIN, 3)})
EMMA = make_profile("Emma", {"wifi": (MAX, 4), "noise": (MIN, 1)})


class TestOneScanPerVersion:
    def make(self):
        database = new_database()
        write_rows(database, ROWS, "cafes")
        write_rows(database, ROWS, "bars")
        registry = MetricsRegistry()
        # No ranking cache: every call misses and needs the scan.
        return database, registry, PersonalizableRanker(database, metrics=registry)

    def test_misses_at_one_version_share_one_scan(self):
        _, registry, ranker = self.make()
        for _ in range(5):
            ranker.rank_many("cafes", [DAVID, EMMA])
            ranker.rank("bars", DAVID)
        assert scans_built(registry) == 2

    def test_only_a_version_change_builds_a_new_scan(self):
        database, registry, ranker = self.make()
        ranker.rank("cafes", DAVID)
        bump_data_version(database, "cafes")
        for _ in range(3):
            ranker.rank("cafes", DAVID)
        assert scans_built(registry) == 2
        write_rows(database, {"p3": {"noise": 0.0}}, "cafes")
        report = ranker.rank("cafes", DAVID)
        assert scans_built(registry) == 3
        assert_reports_equal(
            report,
            PersonalizableRanker(database, metrics=MetricsRegistry()).rank(
                "cafes", DAVID
            ),
        )

    def test_concurrent_misses_build_one_scan(self):
        _, registry, ranker = self.make()
        barrier = threading.Barrier(8)
        errors = []

        def worker():
            barrier.wait()
            try:
                for _ in range(10):
                    ranker.rank("cafes", DAVID)
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert scans_built(registry) == 1

    def test_categories_without_rows_are_not_kept(self):
        _, registry, ranker = self.make()
        ranker.rank("cafes", DAVID)
        for index in range(300):
            with pytest.raises(RankingError, match="two places"):
                ranker.rank(f"ghost-{index}", DAVID)
        assert list(ranker._scans) == ["cafes"]


# ----------------------------------------------------------------------
# read-only arrays and bounded memos
# ----------------------------------------------------------------------
class TestSharedScan:
    def test_arrays_reject_writes(self):
        database = new_database()
        write_rows(database, ROWS)
        ranker = PersonalizableRanker(database, metrics=MetricsRegistry())
        full = ranker.rank(
            CATEGORY,
            make_profile(
                "all", {"temperature": (MAX, 1), "noise": (MIN, 1), "wifi": (5.0, 1)}
            ),
        )
        subset = ranker.rank(CATEGORY, DAVID)
        scan = ranker._scans[CATEGORY]
        assert full.feature_matrix is scan.matrix_all
        for array in (scan.matrix_all, full.feature_matrix, subset.feature_matrix):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = -1.0
        assert subset.feature_matrix.shape == (3, 2)

    def test_memos_stay_bounded_by_the_data(self):
        features = [f"f{index}" for index in range(10)]
        rng = np.random.default_rng(3)
        database = new_database()
        write_rows(
            database,
            {
                f"p{place}": {feature: float(rng.integers(0, 50)) for feature in features}
                for place in range(6)
            },
        )
        ranker = PersonalizableRanker(database, metrics=MetricsRegistry())
        for index in range(2000):
            chosen = [f for f in features if rng.random() < 0.5] or features[:1]
            prefs = {
                feature: (
                    [MAX, MIN, float(index) + rng.random()][index % 3],
                    int(rng.integers(1, 6)),
                )
                for feature in chosen
            }
            ranker.rank(CATEGORY, make_profile(f"u{index}", prefs))
        scan = ranker._scans[CATEGORY]
        # At most a MAX and a MIN ranking per feature; no per-subset memo.
        assert len(scan._rankings) <= 2 * len(features)
        assert set(vars(scan)) == {
            "category",
            "data_version",
            "common",
            "_columns",
            "place_ids",
            "matrix_all",
            "_rankings",
        }


# ----------------------------------------------------------------------
# rows and versions commit together
# ----------------------------------------------------------------------
PLACE = LatLon(43.05, -76.15)
FULL_PROFILE = make_profile("Fay", {"temperature": (MIN, 1), "warmth": (MAX, 5)})


def make_server(directory=None):
    """A server whose app-1 writes two feature rows for place-1, in a
    category where place-0 already has both features."""
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
        durability=(
            DurabilityConfig(directory=directory, fsync=False) if directory else None
        ),
    )
    server.register_user("alice", "Alice", "tok-a")
    server.create_application(
        Application(
            app_id="app-1",
            creator="owner",
            place_id="place-1",
            place_name="Place One",
            category=CATEGORY,
            location=PLACE,
            script="return get_temperature_readings(2, 1.0)",
            pipeline=FeaturePipeline(
                [
                    FeatureSpec("temperature", "temperature", MeanExtractor()),
                    FeatureSpec("warmth", "temperature", MeanExtractor()),
                ]
            ),
            period_start=0.0,
            period_end=10_800.0,
        )
    )
    write_rows(server.database, {"place-0": {"temperature": 60.0, "warmth": 50.0}})

    def send(message_type, payload):
        envelope = Envelope(message_type, "phone-1", "server", payload)
        response = network.send(
            HttpRequest("POST", "server", "/sor", envelope.to_bytes())
        )
        assert response.ok
        return Envelope.from_bytes(response.body)

    task_id = send(
        MessageType.PARTICIPATE,
        {
            "user_id": "alice",
            "token": "tok-a",
            "app_id": "app-1",
            "place_id": "place-1",
            "latitude": PLACE.latitude,
            "longitude": PLACE.longitude,
            "budget": 2,
        },
    ).payload["task_id"]
    send(
        MessageType.SENSED_DATA,
        {
            "task_id": task_id,
            "token": "tok-a",
            "status": "finished",
            "error": "",
            "bursts": [
                {"sensor": "temperature", "t": 100.0, "dt": 1.0, "values": [70.0, 72.0]}
            ],
        },
    )
    server.process_data()
    return server, network


def ask(network):
    envelope = Envelope(
        MessageType.RANK_QUERY,
        "client-1",
        "server",
        {"category": CATEGORY, "profiles": [profile_to_dict(FULL_PROFILE)]},
    )
    response = network.send(HttpRequest("POST", "server", "/sor", envelope.to_bytes()))
    return Envelope.from_bytes(response.body)


class TestRowsThenBump:
    def test_rank_query_waits_for_the_whole_feature_write(self, monkeypatch):
        server, network = make_server()
        table = server.database.table("feature_data")
        insert = table.insert
        seen: dict = {}

        def insert_then_query(row):
            result = insert(row)
            if "thread" not in seen:
                # A rank query arrives after the first of place-1's rows.
                thread = threading.Thread(
                    target=lambda: seen.setdefault("reply", ask(network))
                )
                seen["thread"] = thread
                thread.start()
                thread.join(0.3)
                seen["waited"] = thread.is_alive()
            return result

        monkeypatch.setattr(table, "insert", insert_then_query)
        server.compute_all_features()
        seen["thread"].join(10)
        assert seen["waited"]
        version = get_data_version(server.database, CATEGORY)
        assert version == 2
        expected = PersonalizableRanker(server.database, metrics=MetricsRegistry()).rank(
            CATEGORY, FULL_PROFILE
        )
        for reply in (seen["reply"], ask(network)):
            assert reply.message_type is MessageType.RANKING
            assert reply.payload["data_version"] == version
            (entry,) = reply.payload["rankings"]
            assert entry["places"] == list(expected.ranking.items)
            assert entry["weighted_footrule"] == expected.weighted_footrule

    def test_replica_never_applies_the_bump_without_its_rows(self, tmp_path):
        directory = tmp_path / "primary"
        server, network = make_server(directory)
        segment = sorted(directory.glob("wal-*.log"))[-1]
        start = segment.stat().st_size
        server.compute_all_features()
        server.database.durability.close()
        entries, _, _ = read_wal_file(segment, base=start)
        ops = [(record["op"], record.get("table")) for record, _, _ in entries]
        assert ops[0][0] == "begin" and ops[-1][0] == "commit"
        assert ops[-2] == ("update", "ranking_versions")
        assert ops[1:-2].count(("insert", "feature_data")) == 2
        # Ship every prefix of the log that ends on a frame boundary.
        for number, end in enumerate([start] + [end for _, _, end in entries]):
            copy = tmp_path / f"cut-{number}"
            shutil.copytree(directory, copy)
            with open(copy / segment.name, "r+b") as handle:
                handle.truncate(end)
            replica = ShardReplica(
                f"replica-{number}", network, copy, ManualClock(0.0),
                metrics=MetricsRegistry(),
            )
            version = get_data_version(replica.database, CATEGORY)
            rows = replica.database.table("feature_data").select(
                eq("place_id", "place-1")
            )
            complete = number == len(entries)
            assert (version, len(rows)) == ((2, 2) if complete else (1, 0))
            replica.close()


class TestReplicaScan:
    def test_checkpoint_install_starts_with_no_scan(self, tmp_path):
        cluster, network = make_cluster(tmp_path, num_shards=1)
        try:
            place_category(cluster, (0, 1), "museums")
            shard = cluster.shards["shard-0"]
            replica = shard.replicas[0]
            replica.sync()
            assert post(network, replica.host, rank_query("museums")).status == 200
            assert list(replica.ranker._scans) == ["museums"]
            built = scans_built(cluster.metrics)
            for _ in range(2):
                shard.primary.database.durability.checkpoint()
            assert replica.sync() == 1  # the checkpoint install
            assert replica.ranker._scans == {}
            assert post(network, replica.host, rank_query("museums")).status == 200
            assert scans_built(cluster.metrics) == built + 1
        finally:
            cluster.close()
