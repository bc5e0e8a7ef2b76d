"""The pinned-seed benchmark slate every ablation configuration runs.

Four benches (*cells*), one per subsystem the switch matrix touches:

* ``scheduling`` — offline greedy on a seeded long-horizon problem,
  where the ``stochastic`` switch's sampled picks race the exact sweep
  (the cell emits its objective value too, so a run can eyeball the
  value cost of sampling — no digest: stochastic schedules
  legitimately differ);
* ``ranking`` — repeated warm ``rank_many`` over unchanged data against
  a seeded feature table (the ``ranking_cache`` switch);
* ``loadgen`` — a scaled-down :mod:`repro.sim.loadgen` run with
  simulated per-request I/O (the ``concurrency`` switch);
* ``fieldtest`` — a small end-to-end :class:`SORSystem` deployment on a
  seeded 10 %-lossy network (the ``durability`` cost and, through the
  count of feature rows that actually made it to the database, the
  ``resilient`` switch's delivery importance).

Each cell reads its switches' booleans from the configuration's
``values``; :func:`stochastic_greedy_kwargs` and :func:`system_kwargs`
turn them into constructor keywords, and
``tests/ablation/test_switch_injection.py`` asserts that every twin's
keywords reach their constructors.

Timings are best-of-``repeat`` after one untimed warmup (the standard
robust estimator on shared machines). Everything else —
schedules, rankings, delivered-row counts, workload digests — is exact
under the pinned seed, which is what makes the importance *ranking*
reproducible and the behavior-preservation digests comparable.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from repro.common.errors import AblationError
from repro.core.scheduling import (
    GaussianKernel,
    GreedyScheduler,
    SchedulingPeriod,
    SchedulingProblem,
)
from repro.db import Database, DurabilityConfig
from repro.obs import MetricsRegistry, NullTracer
from repro.server.concurrency import ConcurrencyConfig
from repro.server.ranker_service import (
    PersonalizableRanker,
    RankingCache,
    bump_data_version,
)
from repro.server.schemas import ALL_SCHEMAS, create_all_tables
from repro.sim.arrivals import uniform_arrivals

PERIOD_S = 10800.0  # the paper's three-hour sensing period

# Problem sizes for the slate; they fit a CI job. The stochastic cell
# needs a horizon long enough that a dense sweep per pick actually
# hurts; sigma shrinks with the spacing so the kernel band stays ~60
# instants wide.
STOCHASTIC_INSTANTS = 20_000
STOCHASTIC_USERS = 40
STOCHASTIC_BUDGET = 15
STOCHASTIC_SIGMA_S = 5.0
RANKING_PLACES = 8
RANKING_FEATURES = 4
RANKING_ROUNDS = 30
LOADGEN_PHONES = 120
LOADGEN_CLIENTS = 6
LOADGEN_WORKERS = 6
LOADGEN_QUEUE_CAPACITY = 32
LOADGEN_IO_DELAY_S = 0.002
LOADGEN_PLACES = 4
FIELDTEST_PHONES_PER_PLACE = 2
FIELDTEST_BUDGET = 5
FIELDTEST_INSTANTS = 240
FIELDTEST_DROP_PROBABILITY = 0.10


@dataclass
class BenchResult:
    """What one bench measured for one configuration.

    ``metrics`` are numbers (seconds, counts, rates); ``digests`` are
    exact fingerprints of *what was computed* — the runner compares them
    between the baseline and every behavior-preserving switch's ablated
    twin.
    """

    metrics: dict[str, float]
    digests: dict[str, str] = field(default_factory=dict)


BenchFn = Callable[..., BenchResult]


def stochastic_greedy_kwargs(
    values: Mapping[str, bool], *, seed: int = 2014
) -> dict[str, Any]:
    """``GreedyScheduler`` keywords for the long-horizon stochastic cell.

    Off runs the exact mode, so the twin is the system as it would
    actually run without sampling.
    """
    return {"mode": "stochastic" if values["stochastic"] else "exact", "seed": seed}


def system_kwargs(
    values: Mapping[str, bool], *, durability_dir: str | Path | None = None
) -> dict[str, Any]:
    """The switch-controlled subset of ``SORSystem`` keywords."""
    kwargs: dict[str, Any] = {
        "ranking_cache": values["ranking_cache"],
        "resilient": values["resilient"],
    }
    if values["durability"]:
        if durability_dir is None:
            raise AblationError("durability needs a durability_dir for the WAL")
        kwargs["durability"] = DurabilityConfig(directory=durability_dir)
    if values["concurrency"]:
        kwargs["concurrency"] = ConcurrencyConfig()
    return kwargs


def _digest(payload: Any) -> str:
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _best_of(repeat: int, run: Callable[[], Any]) -> tuple[float, Any]:
    """(best wall seconds, last result) over one warmup + ``repeat`` runs."""
    run()  # warmup: caches, allocator, import costs stay untimed
    best = float("inf")
    result = None
    for _ in range(max(1, repeat)):
        started = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - started)
    return best, result


# ----------------------------------------------------------------------
# scheduling
# ----------------------------------------------------------------------
def _stochastic_problem(seed: int) -> SchedulingProblem:
    rng = np.random.default_rng(seed)
    period = SchedulingPeriod(0.0, PERIOD_S, STOCHASTIC_INSTANTS)
    return SchedulingProblem(
        period,
        uniform_arrivals(STOCHASTIC_USERS, PERIOD_S, STOCHASTIC_BUDGET, rng),
        GaussianKernel(sigma=STOCHASTIC_SIGMA_S),
    )


def bench_scheduling(
    values: Mapping[str, bool], *, seed: int, repeat: int
) -> BenchResult:
    """Long-horizon offline greedy: sampled picks vs the exact sweep.

    The baseline samples, the ablated twin runs the exact mode — see
    :func:`stochastic_greedy_kwargs`. The schedule is deterministic
    under the pinned seed but differs from exact greedy by design, so
    it contributes no digest.
    """
    problem = _stochastic_problem(seed)
    scheduler = GreedyScheduler(
        metrics=MetricsRegistry(), **stochastic_greedy_kwargs(values, seed=seed)
    )
    seconds, schedule = _best_of(repeat, lambda: scheduler.solve(problem))
    return BenchResult(
        metrics={
            "scheduling_stochastic_seconds": seconds,
            "scheduling_stochastic_value": schedule.objective_value,
        }
    )


# ----------------------------------------------------------------------
# ranking
# ----------------------------------------------------------------------
def _ranking_fixture(seed: int):
    from repro.core.ranking.preferences import (
        MAX,
        MIN,
        FeaturePreference,
        PreferenceProfile,
    )

    rng = np.random.default_rng(seed)
    database = Database(name="ablation-ranking", metrics=MetricsRegistry())
    create_all_tables(database)
    table = database.table("feature_data")
    features = [f"f{index}" for index in range(RANKING_FEATURES)]
    for place in range(RANKING_PLACES):
        for feature_index, feature in enumerate(features):
            table.insert(
                {
                    "place_id": f"place-{place}",
                    "category": "ablation",
                    "feature": feature,
                    "value": float(
                        10.0
                        + 3.0 * place
                        + 1.5 * feature_index
                        + rng.uniform(-1.0, 1.0)
                    ),
                    "computed_at": 0.0,
                }
            )
    bump_data_version(database, "ablation")
    profiles = [
        PreferenceProfile(
            "perf",
            {
                features[0]: FeaturePreference(MIN, 5),
                features[1]: FeaturePreference(MAX, 2),
            },
        ),
        PreferenceProfile(
            "target",
            {
                features[0]: FeaturePreference(12.0, 3),
                features[-1]: FeaturePreference(MIN, 3),
            },
        ),
        PreferenceProfile(
            "spread",
            {feature: FeaturePreference(MAX, 2) for feature in features},
        ),
    ]
    return database, profiles


def bench_ranking(
    values: Mapping[str, bool], *, seed: int, repeat: int
) -> BenchResult:
    """Repeated warm ``rank_many`` over unchanged data, cache per config."""
    database, profiles = _ranking_fixture(seed)
    registry = MetricsRegistry()
    cache = RankingCache(metrics=registry) if values["ranking_cache"] else None
    ranker = PersonalizableRanker(
        database, cache=cache, metrics=registry, tracer=NullTracer()
    )

    def warm_loop():
        reports = None
        for _ in range(RANKING_ROUNDS):
            reports = ranker.rank_many("ablation", profiles)
        return reports

    seconds, reports = _best_of(repeat, warm_loop)
    order = {
        name: list(report.ranking.items) for name, report in reports.items()
    }
    return BenchResult(
        metrics={"ranking_seconds": seconds},
        digests={"ranking": _digest(order)},
    )


# ----------------------------------------------------------------------
# loadgen
# ----------------------------------------------------------------------
def bench_loadgen(
    values: Mapping[str, bool], *, seed: int, repeat: int
) -> BenchResult:
    """Scaled-down loadgen slate with simulated per-request I/O."""
    from repro.sim.loadgen import LoadgenSpec, run_loadgen

    spec = LoadgenSpec(
        phones=LOADGEN_PHONES,
        seed=seed,
        mode="concurrent" if values["concurrency"] else "sequential",
        clients=LOADGEN_CLIENTS,
        workers=LOADGEN_WORKERS,
        queue_capacity=LOADGEN_QUEUE_CAPACITY,
        io_delay_s=LOADGEN_IO_DELAY_S,
        places=LOADGEN_PLACES,
    )
    best = float("inf")
    report = None
    for _ in range(max(1, repeat)):
        report = run_loadgen(spec)
        best = min(best, report.duration_s)
    return BenchResult(
        metrics={
            "loadgen_seconds": best,
            "loadgen_rps": report.requests_ok / best,
        },
        digests={
            "loadgen": _digest(
                [
                    report.workload_digest,
                    report.sessions_completed,
                    report.error_replies,
                    report.replay_mismatches,
                ]
            )
        },
    )


# ----------------------------------------------------------------------
# fieldtest
# ----------------------------------------------------------------------
def _run_fieldtest(
    values: Mapping[str, bool], seed: int, directory: str
) -> tuple[float, int, int, int]:
    from repro.net import NetworkConditions
    from repro.server.system import SORSystem
    from repro.sim.scenarios import (
        customer_profiles,
        shop_feature_pipeline,
        syracuse_coffee_shops,
    )

    system = SORSystem(
        seed=seed,
        network_conditions=NetworkConditions(
            base_latency_s=0.0,
            jitter_s=0.0,
            drop_probability=FIELDTEST_DROP_PROBABILITY,
            response_drop_probability=FIELDTEST_DROP_PROBABILITY,
        ),
        **system_kwargs(values, durability_dir=directory),
    )
    rng = np.random.default_rng(seed)
    started = time.perf_counter()
    for shop in syracuse_coffee_shops(rng):
        system.deploy_place(
            shop,
            shop_feature_pipeline(),
            num_instants=FIELDTEST_INSTANTS,
        )
        for _ in range(FIELDTEST_PHONES_PER_PLACE):
            system.deploy_phone(shop.place_id, budget=FIELDTEST_BUDGET)
    system.run()
    system.process_and_rank("coffee_shop", customer_profiles())
    seconds = time.perf_counter() - started
    raw_rows = system.server.database.table("raw_data").count()
    feature_rows = system.server.database.table("feature_data").count()
    # Crash the server and bring it back: with durability the WAL replay
    # restores the tables, without it the restart is empty. The survivor
    # count is exact under the pinned seed, which keeps the durability
    # switch's importance ranking deterministic (wall-clock WAL overhead
    # is too noisy to rank against exact delivery metrics).
    system.kill_server()
    system.restart_server()
    recovered = sum(
        system.server.database.table(schema.name).count()
        for schema in ALL_SCHEMAS
    )
    system.server.close()
    if system.server.database.durability is not None:
        system.server.database.durability.close()
    return seconds, raw_rows, feature_rows, recovered


def bench_fieldtest(
    values: Mapping[str, bool], *, seed: int, repeat: int
) -> BenchResult:
    """End-to-end field test on a lossy network, then a crash + restart."""
    best = float("inf")
    raw_rows = feature_rows = recovered = 0
    # No shared warmup: each field test is a fresh deployment (the WAL
    # must start empty every round), so the first round doubles as it.
    for _ in range(1 + max(1, repeat)):
        with tempfile.TemporaryDirectory(prefix="sor-ablation-") as directory:
            seconds, raw_rows, feature_rows, recovered = _run_fieldtest(
                values, seed, directory
            )
        best = min(best, seconds)
    return BenchResult(
        metrics={
            "fieldtest_seconds": best,
            # Raw uploads that survived the lossy network: the resilient
            # client's delivery metric (feature rows stay places x features
            # as long as a single sample gets through, so they cannot see
            # retries).
            "fieldtest_raw_rows": float(raw_rows),
            "fieldtest_feature_rows": float(feature_rows),
            # +1 Laplace smoothing: without durability the restart is
            # empty, and the effect ratio must stay finite.
            "fieldtest_recovered_rows": float(1 + recovered),
        },
        digests={
            "fieldtest_rows": _digest([raw_rows, feature_rows, recovered])
        },
    )


#: The default slate, in execution order.
DEFAULT_BENCHES: dict[str, BenchFn] = {
    "scheduling": bench_scheduling,
    "ranking": bench_ranking,
    "loadgen": bench_loadgen,
    "fieldtest": bench_fieldtest,
}
