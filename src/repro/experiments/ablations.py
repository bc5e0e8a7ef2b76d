"""Ablation studies for design choices DESIGN.md calls out.

Not in the paper — these quantify the impact of the choices the paper
leaves implicit:

* ``run_sigma_ablation`` — how the coverage-kernel width changes both
  algorithms' coverage (a small σ models fast-changing features;
  schedules must spread much more),
* ``run_backend_ablation`` — greedy over the vectorized objective vs
  greedy over the scalar oracle: identical schedules, very different
  runtimes,
* ``run_aggregation_ablation`` — footrule aggregation vs Borda
  count vs the exact (NP-hard) Kemeny optimum on random instances, plus
  the local-search refinement,
* ``run_online_ablation`` — the price of online operation: the server's
  arrival-order incremental greedy (each user scheduled the moment they
  scan, over their remaining window, without revisiting earlier users)
  vs the offline greedy that sees all participants up front,
* ``run_objective_ablation`` — the paper's per-user objective (eq. 2)
  vs the pooled objective it solves and reports (eq. 4).

``benchmarks/bench_ablation_sweeps.py`` runs the ungated sweeps at
their documented parameters and asserts each one's claim.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.ranking import (
    Ranking,
    aggregate_footrule,
    borda_count,
    refine_by_adjacent_swaps,
    weighted_kemeny_distance,
)
from repro.core.ranking.reference import brute_force_kemeny
from repro.core.scheduling import (
    CoverageObjective,
    GaussianKernel,
    GreedyScheduler,
    PeriodicBaselineScheduler,
    PerUserGreedyScheduler,
    SchedulingPeriod,
    SchedulingProblem,
    average_coverage,
    greedy_window,
    per_user_sum_value,
)
from repro.core.scheduling.reference import ReferenceCoverageObjective
from repro.sim.arrivals import uniform_arrivals

PERIOD_S = 10_800.0


# ----------------------------------------------------------------------
# kernel width
# ----------------------------------------------------------------------
@dataclass
class SigmaPoint:
    sigma_s: float
    greedy_coverage: float
    baseline_coverage: float


def run_sigma_ablation(
    *,
    sigmas: tuple[float, ...] = (2.0, 5.0, 10.0, 30.0, 60.0),
    users: int = 40,
    budget: int = 17,
    runs: int = 5,
    seed: int = 0,
) -> list[SigmaPoint]:
    """Sweep the Gaussian kernel width for both schedulers."""
    period = SchedulingPeriod(0.0, PERIOD_S, 1080)
    points = []
    for sigma in sigmas:
        greedy_values, baseline_values = [], []
        for run in range(runs):
            rng = np.random.default_rng(seed + run)
            problem = SchedulingProblem(
                period,
                uniform_arrivals(users, PERIOD_S, budget, rng),
                GaussianKernel(sigma=sigma),
            )
            greedy_values.append(GreedyScheduler().solve(problem).average_coverage)
            baseline_values.append(
                PeriodicBaselineScheduler().solve(problem).average_coverage
            )
        points.append(
            SigmaPoint(
                sigma_s=sigma,
                greedy_coverage=float(np.mean(greedy_values)),
                baseline_coverage=float(np.mean(baseline_values)),
            )
        )
    return points


# ----------------------------------------------------------------------
# vectorized objective vs scalar oracle
# ----------------------------------------------------------------------
@dataclass
class BackendPoint:
    num_instants: int
    sigma_s: float
    reference_seconds: float
    numpy_seconds: float
    identical_schedules: bool

    @property
    def speedup(self) -> float:
        if not self.numpy_seconds:
            return 0.0
        return self.reference_seconds / self.numpy_seconds


def run_backend_ablation(
    *,
    instant_counts: tuple[int, ...] = (360, 1000),
    users: int = 30,
    budget: int = 17,
    sigma: float = 10.0,
    seed: int = 0,
    rounds: int = 3,
) -> list[BackendPoint]:
    """Time greedy over the objective against the oracle; assert they agree.

    Both run greedy's one exact loop: over the scalar oracle
    (``GreedyScheduler()._solve`` with a
    :class:`~repro.core.scheduling.reference.ReferenceCoverageObjective`)
    it re-walks every instant's kernel window per pick (the
    paper-literal O(N²) loop), while ``GreedyScheduler().solve``'s
    vectorized objective maintains its gains array and answers each
    pick with one O(N) masked argmax — the cost the vectorization
    removes.

    Each side is timed ``rounds`` times, interleaved, and the best
    round is kept — shared machines stall either side for tens of
    milliseconds at a time, and the minimum is the standard robust
    estimator for "how fast does this code actually run".
    """
    points = []
    for num_instants in instant_counts:
        rng = np.random.default_rng(seed)
        period = SchedulingPeriod(0.0, PERIOD_S, num_instants)
        problem = SchedulingProblem(
            period,
            uniform_arrivals(users, PERIOD_S, budget, rng),
            GaussianKernel(sigma=sigma),
        )
        reference_seconds = float("inf")
        numpy_seconds = float("inf")
        reference = vectorized = None
        for _ in range(max(1, rounds)):
            start = time.perf_counter()
            reference = GreedyScheduler()._solve(
                problem, ReferenceCoverageObjective(period, problem.kernel)
            )
            reference_seconds = min(reference_seconds, time.perf_counter() - start)
            start = time.perf_counter()
            vectorized = GreedyScheduler().solve(problem)
            numpy_seconds = min(numpy_seconds, time.perf_counter() - start)
        points.append(
            BackendPoint(
                num_instants=num_instants,
                sigma_s=sigma,
                reference_seconds=reference_seconds,
                numpy_seconds=numpy_seconds,
                identical_schedules=reference.assignments == vectorized.assignments,
            )
        )
    return points


# ----------------------------------------------------------------------
# city-scale horizon (kernel band + stochastic greedy)
# ----------------------------------------------------------------------
@dataclass
class ScalingPoint:
    """One horizon length on the exact-vs-stochastic scaling curve."""

    num_instants: int
    sigma_s: float
    total_budget: int
    exact_seconds: float
    stochastic_seconds: float
    exact_value: float
    stochastic_value: float
    #: tracemalloc peak of one stochastic solve (objective + loop).
    peak_bytes: int

    @property
    def speedup(self) -> float:
        if not self.stochastic_seconds:
            return 0.0
        return self.exact_seconds / self.stochastic_seconds

    @property
    def value_ratio(self) -> float:
        if not self.exact_value:
            return 0.0
        return self.stochastic_value / self.exact_value

    @property
    def peak_bytes_per_instant(self) -> float:
        return self.peak_bytes / max(1, self.num_instants)


def run_scaling_ablation(
    *,
    instant_counts: tuple[int, ...] = (2_000, 20_000, 100_000),
    users: int = 50,
    budget: int = 20,
    seed: int = 2014,
    rounds: int = 3,
    sample_epsilon: float = 0.1,
    measure_memory: bool = True,
) -> list[ScalingPoint]:
    """Exact greedy vs stochastic greedy as the horizon grows.

    The kernel width shrinks with the instant spacing (``sigma_s =
    100000 / N`` seconds) so the banded kernel stays ~60 instants wide
    at every point — the curve then isolates how the *horizon* scales:
    the exact sweep pays O(N) per pick, the sampled pick pays
    O((N/B)·log(1/ε)) with a horizon-independent constant. The total
    budget is ``users × budget`` picks (1000 by default) at every N.

    Each point also records the tracemalloc peak of one untimed
    stochastic solve — the committed scaling gate asserts it stays
    linear in N (dense |T|×|T| kernel matrices would need 80 GB at
    N = 10⁵; the band needs a few hundred bytes per instant).
    """
    points = []
    for num_instants in instant_counts:
        sigma = 100_000.0 / num_instants
        rng = np.random.default_rng(seed)
        period = SchedulingPeriod(0.0, PERIOD_S, num_instants)
        problem = SchedulingProblem(
            period,
            uniform_arrivals(users, PERIOD_S, budget, rng),
            GaussianKernel(sigma=sigma),
        )
        exact_seconds = stochastic_seconds = float("inf")
        exact_schedule = stochastic_schedule = None
        for _ in range(max(1, rounds)):
            start = time.perf_counter()
            exact_schedule = GreedyScheduler().solve(problem)
            exact_seconds = min(exact_seconds, time.perf_counter() - start)
            start = time.perf_counter()
            stochastic_schedule = GreedyScheduler(
                mode="stochastic", seed=seed, sample_epsilon=sample_epsilon
            ).solve(problem)
            stochastic_seconds = min(
                stochastic_seconds, time.perf_counter() - start
            )
        peak_bytes = 0
        if measure_memory:
            import tracemalloc

            tracemalloc.start()
            GreedyScheduler(
                mode="stochastic", seed=seed, sample_epsilon=sample_epsilon
            ).solve(problem)
            _, peak_bytes = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        points.append(
            ScalingPoint(
                num_instants=num_instants,
                sigma_s=sigma,
                total_budget=users * budget,
                exact_seconds=exact_seconds,
                stochastic_seconds=stochastic_seconds,
                exact_value=exact_schedule.objective_value,
                stochastic_value=stochastic_schedule.objective_value,
                peak_bytes=peak_bytes,
            )
        )
    return points


# ----------------------------------------------------------------------
# multi-kernel (per-feature σ) scheduling
# ----------------------------------------------------------------------
@dataclass
class MultiKernelPoint:
    """Per-feature coverage achieved by each scheduling strategy."""

    strategy: str
    slow_feature_coverage: float  # wide kernel (e.g. temperature)
    fast_feature_coverage: float  # narrow kernel (e.g. acceleration)
    blended_value: float


def run_multikernel_ablation(
    *,
    users: int = 20,
    budget: int = 17,
    runs: int = 5,
    slow_sigma: float = 60.0,
    fast_sigma: float = 5.0,
    seed: int = 0,
) -> list[MultiKernelPoint]:
    """Schedule for one kernel vs the blend; report per-feature coverage.

    The paper assigns different σ per feature class but schedules with a
    single kernel; this quantifies what that costs when one application
    senses both a slow feature (wide σ) and a fast one (narrow σ) in the
    same bursts.
    """
    from repro.core.scheduling.multikernel import (
        FeatureKernel,
        MultiKernelGreedyScheduler,
        MultiKernelObjective,
    )

    period = SchedulingPeriod(0.0, PERIOD_S, 1080)
    features = [
        FeatureKernel("slow", GaussianKernel(slow_sigma), weight=1.0),
        FeatureKernel("fast", GaussianKernel(fast_sigma), weight=1.0),
    ]
    strategies = {
        "single slow kernel": GreedyScheduler(),
        "single fast kernel": GreedyScheduler(),
        "blended kernels": MultiKernelGreedyScheduler(features),
    }
    accumulators = {
        name: {"slow": [], "fast": [], "value": []} for name in strategies
    }
    for run in range(runs):
        rng = np.random.default_rng(seed + run)
        arrivals = uniform_arrivals(users, PERIOD_S, budget, rng)
        for name in strategies:
            if name == "single slow kernel":
                problem = SchedulingProblem(
                    period, arrivals, GaussianKernel(slow_sigma)
                )
                schedule = GreedyScheduler().solve(problem)
            elif name == "single fast kernel":
                problem = SchedulingProblem(
                    period, arrivals, GaussianKernel(fast_sigma)
                )
                schedule = GreedyScheduler().solve(problem)
            else:
                problem = SchedulingProblem(
                    period, arrivals, GaussianKernel(slow_sigma)
                )
                schedule = MultiKernelGreedyScheduler(features).solve(problem)
            evaluation = MultiKernelObjective(period, features)
            for instant in schedule.pooled_instants:
                evaluation.add(instant)
            coverage = evaluation.per_feature_coverage()
            accumulators[name]["slow"].append(coverage["slow"])
            accumulators[name]["fast"].append(coverage["fast"])
            accumulators[name]["value"].append(evaluation.value())
    return [
        MultiKernelPoint(
            strategy=name,
            slow_feature_coverage=float(np.mean(data["slow"])),
            fast_feature_coverage=float(np.mean(data["fast"])),
            blended_value=float(np.mean(data["value"])),
        )
        for name, data in accumulators.items()
    ]


# ----------------------------------------------------------------------
# spam resistance of the aggregation
# ----------------------------------------------------------------------
@dataclass
class SpamPoint:
    """How far one spam ranking drags each aggregator from the honest
    consensus (Kemeny distance; 0 = unaffected)."""

    spam_weight: int
    footrule_drift: float
    borda_drift: float


def run_spam_resistance_ablation(
    *,
    num_items: int = 7,
    honest_rankings: int = 5,
    swaps_per_honest: int = 3,
    spam_weights: tuple[int, ...] = (0, 1, 2, 3, 4, 5),
    instances: int = 20,
    seed: int = 0,
) -> list[SpamPoint]:
    """Quantify the paper's reason for choosing the Kemeny distance.

    The honest inputs are noisy copies of one true ranking (a few random
    adjacent swaps each, weight 1); the spammer submits the *reversed*
    true ranking with growing weight. We measure the Kemeny distance of
    each aggregate from the true ranking, averaged over instances: a
    median-like aggregator (footrule/Kemeny family) should resist the
    outlier far better than the mean-like Borda count.
    """
    from repro.core.ranking.distances import kemeny_distance

    rng = np.random.default_rng(seed)
    items = [f"item-{index}" for index in range(num_items)]
    drifts: dict[int, list[list[float]]] = {w: [] for w in spam_weights}
    for _ in range(instances):
        truth = Ranking(rng.permutation(items).tolist())
        honest = []
        for _ in range(honest_rankings):
            order = list(truth.items)
            for _ in range(swaps_per_honest):
                position = int(rng.integers(0, num_items - 1))
                order[position], order[position + 1] = (
                    order[position + 1],
                    order[position],
                )
            honest.append(Ranking(order))
        spam = Ranking(reversed(truth.items))
        for weight in spam_weights:
            collection = honest + ([spam] if weight > 0 else [])
            weights = [1] * honest_rankings + ([weight] if weight > 0 else [])
            footrule = aggregate_footrule(collection, weights)
            borda = borda_count(collection, weights)
            drifts[weight].append(
                [
                    float(kemeny_distance(footrule, truth)),
                    float(kemeny_distance(borda, truth)),
                ]
            )
    return [
        SpamPoint(
            spam_weight=weight,
            footrule_drift=float(np.mean([pair[0] for pair in drifts[weight]])),
            borda_drift=float(np.mean([pair[1] for pair in drifts[weight]])),
        )
        for weight in spam_weights
    ]


# ----------------------------------------------------------------------
# online vs offline greedy
# ----------------------------------------------------------------------
@dataclass
class OnlinePoint:
    users: int
    online_coverage: float
    offline_coverage: float

    @property
    def ratio(self) -> float:
        """Online / offline coverage (1.0 = no price paid)."""
        if self.offline_coverage == 0:
            return 1.0
        return self.online_coverage / self.offline_coverage


def _online_coverage(problem: SchedulingProblem) -> float:
    """Simulate the server's arrival-order incremental scheduling.

    Users are processed in arrival order; each spends their budget
    greedily over [arrival, departure] given everything already
    committed — the same :func:`greedy_window` call
    :class:`repro.server.scheduler_service.SensingSchedulerService`
    makes per PARTICIPATE request.
    """
    from repro.server.scheduler_service import ONLINE_MIN_GAIN

    objective = CoverageObjective(problem.period, problem.kernel)
    order = sorted(range(len(problem.users)), key=lambda i: problem.users[i].arrival)
    for user_index in order:
        lo, hi = problem.user_window(user_index)
        greedy_window(
            objective, lo, hi, problem.users[user_index].budget, ONLINE_MIN_GAIN
        )
    return objective.average_coverage()


def run_online_ablation(
    *,
    user_counts: tuple[int, ...] = (10, 20, 30, 40, 50),
    budget: int = 17,
    runs: int = 5,
    seed: int = 0,
) -> list[OnlinePoint]:
    """Compare arrival-order online scheduling with offline greedy."""
    period = SchedulingPeriod(0.0, PERIOD_S, 1080)
    kernel = GaussianKernel(sigma=10.0)
    points = []
    for users in user_counts:
        online_values, offline_values = [], []
        for run in range(runs):
            rng = np.random.default_rng(seed + run)
            problem = SchedulingProblem(
                period, uniform_arrivals(users, PERIOD_S, budget, rng), kernel
            )
            online_values.append(_online_coverage(problem))
            offline_values.append(
                GreedyScheduler().solve(problem).average_coverage
            )
        points.append(
            OnlinePoint(
                users=users,
                online_coverage=float(np.mean(online_values)),
                offline_coverage=float(np.mean(offline_values)),
            )
        )
    return points


# ----------------------------------------------------------------------
# per-user (eq. 2) vs pooled (eq. 4) objective
# ----------------------------------------------------------------------
def run_objective_ablation(
    *, users: int = 40, budget: int = 17, runs: int = 3, seed: int = 0
) -> dict[str, float]:
    """Schedule with both objectives and cross-evaluate both schedules.

    Returns the run means of ``pooled_by_pooled`` and
    ``pooled_by_perusr`` (the pooled greedy's schedule scored by average
    pooled coverage and by the per-user sum) and ``perusr_by_pooled``
    and ``perusr_by_perusr`` (the same for the per-user greedy, whose
    users ignore each other).
    """
    period = SchedulingPeriod(0.0, PERIOD_S, 1080)
    kernel = GaussianKernel(sigma=10.0)
    rows = []
    for run in range(runs):
        rng = np.random.default_rng(seed + run)
        problem = SchedulingProblem(
            period, uniform_arrivals(users, PERIOD_S, budget, rng), kernel
        )
        pooled_schedule = GreedyScheduler().solve(problem)
        peruser_schedule = PerUserGreedyScheduler().solve(problem)
        rows.append(
            {
                "pooled_by_pooled": pooled_schedule.average_coverage,
                "pooled_by_perusr": per_user_sum_value(pooled_schedule),
                "perusr_by_pooled": average_coverage(peruser_schedule),
                "perusr_by_perusr": peruser_schedule.objective_value,
            }
        )
    return {key: float(np.mean([row[key] for row in rows])) for key in rows[0]}


# ----------------------------------------------------------------------
# aggregation quality
# ----------------------------------------------------------------------
@dataclass
class AggregationStats:
    """Mean weighted-Kemeny ratios vs the exact optimum (1.0 = optimal)."""

    instances: int = 0
    footrule_ratio: float = 0.0
    refined_ratio: float = 0.0
    borda_ratio: float = 0.0
    footrule_optimal_fraction: float = 0.0
    per_instance: list[dict] = field(default_factory=list, repr=False)


def run_aggregation_ablation(
    *,
    instances: int = 40,
    num_items: int = 6,
    num_rankings: int = 4,
    seed: int = 0,
) -> AggregationStats:
    """Compare aggregation heuristics against the exact Kemeny optimum."""
    rng = np.random.default_rng(seed)
    items = [f"item-{index}" for index in range(num_items)]
    footrule_ratios, refined_ratios, borda_ratios = [], [], []
    optimal_hits = 0
    stats = AggregationStats()
    for _ in range(instances):
        collection = [
            Ranking(rng.permutation(items).tolist()) for _ in range(num_rankings)
        ]
        weights = [int(value) for value in rng.integers(1, 6, size=num_rankings)]
        optimum = brute_force_kemeny(collection, weights)
        optimum_value = weighted_kemeny_distance(optimum, collection, weights)
        footrule = aggregate_footrule(collection, weights)
        refined = refine_by_adjacent_swaps(footrule, collection, weights)
        borda = borda_count(collection, weights)

        def ratio(candidate: Ranking) -> float:
            value = weighted_kemeny_distance(candidate, collection, weights)
            if optimum_value == 0:
                return 1.0 if value == 0 else float("inf")
            return value / optimum_value

        footrule_ratio = ratio(footrule)
        footrule_ratios.append(footrule_ratio)
        refined_ratios.append(ratio(refined))
        borda_ratios.append(ratio(borda))
        if footrule_ratio <= 1.0 + 1e-12:
            optimal_hits += 1
        stats.per_instance.append(
            {
                "optimum": optimum_value,
                "footrule": weighted_kemeny_distance(footrule, collection, weights),
                "refined": weighted_kemeny_distance(refined, collection, weights),
                "borda": weighted_kemeny_distance(borda, collection, weights),
            }
        )
    stats.instances = instances
    stats.footrule_ratio = float(np.mean(footrule_ratios))
    stats.refined_ratio = float(np.mean(refined_ratios))
    stats.borda_ratio = float(np.mean(borda_ratios))
    stats.footrule_optimal_fraction = optimal_hits / instances
    return stats
