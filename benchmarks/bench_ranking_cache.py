"""Ranking-cache gate: warm ``rank()`` must crush the cold path.

The workload is the Table II reproduction — the three Syracuse coffee
shops' sensed features (Fig. 10) ranked for David and Emma (Fig. 11).
The cold path bumps the category's data version before every request,
so the cache can never hit and every call runs the full Algorithm 2
pipeline (table scan, H matrix, Γ, min-cost assignment). The warm
path repeats the identical requests over unchanged data, which the
versioned cache serves as a dictionary lookup. The gate asserts the
warm path is at least 10× faster — if the cache key ever stops
matching (fingerprint drift, version churn), this collapses to ~1× and
fails loudly.
"""

import time

from repro.db import Database
from repro.experiments.fig10_shop_features import run_fig10
from repro.obs import MetricsRegistry
from repro.server.ranker_service import (
    PersonalizableRanker,
    RankingCache,
    bump_data_version,
)
from repro.server.schemas import create_all_tables
from repro.sim.scenarios import customer_profiles

CATEGORY = "coffee_shop"
ROUNDS = 30


def seed_database() -> Database:
    """Feature data for the Table II shops, straight from the Fig. 10 run."""
    database = Database(name="bench", metrics=MetricsRegistry())
    create_all_tables(database)
    table = database.table("feature_data")
    for place, features in run_fig10(seed=2014).features.items():
        for feature, value in features.items():
            table.insert(
                {
                    "place_id": place,
                    "category": CATEGORY,
                    "feature": feature,
                    "value": value,
                    "computed_at": 0.0,
                }
            )
    bump_data_version(database, CATEGORY)
    return database


def test_warm_rank_at_least_10x_faster_than_cold(benchmark):
    database = seed_database()
    profiles = customer_profiles()
    registry = MetricsRegistry()
    ranker = PersonalizableRanker(
        database, cache=RankingCache(metrics=registry), metrics=registry
    )

    def race():
        cold_times = []
        for _ in range(ROUNDS):
            bump_data_version(database, CATEGORY)  # cache can never hit
            started = time.perf_counter()
            ranker.rank_many(CATEGORY, profiles)
            cold_times.append(time.perf_counter() - started)
        ranker.rank_many(CATEGORY, profiles)  # fill the cache once
        warm_times = []
        for _ in range(ROUNDS):
            started = time.perf_counter()
            ranker.rank_many(CATEGORY, profiles)
            warm_times.append(time.perf_counter() - started)
        return min(cold_times), min(warm_times)

    cold, warm = benchmark.pedantic(race, rounds=1, iterations=1)
    speedup = cold / warm
    print()
    print(f"cold (best of {ROUNDS}): {cold * 1e6:>9.1f} µs")
    print(f"warm (best of {ROUNDS}): {warm * 1e6:>9.1f} µs")
    print(f"speedup: {speedup:.1f}x")
    assert ranker.cache.hits >= 2 * ROUNDS  # the warm rounds actually hit
    assert speedup >= 10.0
    benchmark.extra_info["cold_seconds"] = cold
    benchmark.extra_info["warm_seconds"] = warm
    benchmark.extra_info["speedup"] = speedup
