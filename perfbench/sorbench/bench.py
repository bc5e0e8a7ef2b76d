"""One benchmark run: repeated rounds of one workload, then the metrics.

A round builds a fresh deployment (timed as set-up), drives the whole
plan through it with the closed-loop drivers (the timed window), reads
coverage and disk use, tears it down and checks every reply. Rounds
repeat until ``seconds`` of timed window have passed, after one
untimed warm-up round on an eighth of the plan. When a run has fewer
than :data:`SETUP_SAMPLES` untraced rounds, it builds and tears down
more deployments, :data:`SETUP_PAUSE_S` apart, so ``setup_s`` always
has that many samples.

``setup_s`` is the fastest set-up, not the median. One set-up takes
5–30 ms. On a shared 2-core x86_64 host the same CPU work runs
1.4–1.7× slower in spells lasting up to a second, so each sample sits
wholly in one speed state, back-to-back samples share it, and a run's
median jumps between states. The fastest of samples taken apart is
steady. The timed-window metrics span the whole run: throughput and
CPU are medians over rounds, p50 and p99 medians over groups of rounds
(:meth:`RunResult.latency_groups`).

End-to-end metrics come from untraced rounds only. With ``trace`` the
rounds alternate untraced and traced, so the per-layer numbers and the
tracing overhead come from the same run.
"""

from __future__ import annotations

import gc
import resource
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterator

from sorbench import stats
from sorbench.checks import RankingOracle, check_schedule
from sorbench.driver import KINDS, drive
from sorbench.layers import UNATTRIBUTED_TOLERANCE, LayerTally, counter_totals
from sorbench.tracing import SpanRecorder, install, unwrapped
from sorbench.workloads import WORKLOADS, Deployment, Plan, deploy, remove_tree

DRIVERS = 2

#: Set-up times behind every run's ``setup_s``, at least.
SETUP_SAMPLES = 12

#: Pause before each set-up-only build, so samples fall in different
#: speed states of the host rather than one.
SETUP_PAUSE_S = 0.15


@dataclass
class Round:
    """What one round measured and found."""

    traced: bool
    setup_s: float
    wall_s: float
    cpu_s: float
    attempted: int
    answered: int
    coverage: float
    disk_bytes: int
    latencies_ns: dict[str, list[int]]
    failures: list[str]
    sessions: int
    completed: int

    @property
    def throughput_rps(self) -> float:
        return self.answered / self.wall_s


@dataclass
class RunResult:
    """A whole run: its rounds, checks and metrics."""

    workload: str
    seed: int
    digest: str
    rounds: list[Round] = field(default_factory=list)
    #: Set-up times of the untraced rounds and of any set-up-only builds.
    setups: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    layers: LayerTally | None = None
    spans: list[list[Any]] = field(default_factory=list)

    @property
    def timed(self) -> list[Round]:
        return [r for r in self.rounds if not r.traced]

    @property
    def attempted(self) -> int:
        return sum(r.attempted for r in self.rounds)

    @property
    def failed(self) -> int:
        return sum(len(r.failures) for r in self.rounds)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def latency_groups(self) -> list[list[float]]:
        """Untraced request latencies (ms) in groups of consecutive rounds.

        Each group holds at least ``stats.GROUP_SAMPLES``, so its p99
        leaves ten samples beyond it. The reported p50 and p99 are
        medians over groups: a spell in which the host runs slow raises
        the groups it falls in, not the whole run's tail, while a slower
        program raises every group.
        """
        return stats.grouped(
            [value / 1e6 for kind in KINDS for value in r.latencies_ns[kind]]
            for r in self.timed
        )

    def latencies_ms(self) -> list[float]:
        """Every untraced request latency, pooled over rounds."""
        return [value for group in self.latency_groups() for value in group]

    def end_to_end(self) -> dict[str, float]:
        """The end-to-end metrics of the untraced rounds."""
        timed = self.timed
        groups = self.latency_groups()
        return {
            "setup_s": min(self.setups),
            "throughput_rps": stats.median_or_zero([r.throughput_rps for r in timed]),
            "latency_p50_ms": stats.median_percentile(groups, 50),
            "latency_p99_ms": stats.median_percentile(groups, 99),
            "cpu_ms_per_req": stats.median_or_zero(
                [1000.0 * r.cpu_s / r.answered for r in timed]
            ),
            "coverage": timed[0].coverage,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "disk_bytes_per_req": stats.median_or_zero(
                [r.disk_bytes / r.answered for r in timed]
            ),
        }

    def per_layer(self) -> dict[str, float]:
        """The traced rounds' layer metrics plus the tracing overhead."""
        assert self.layers is not None
        untraced = stats.median_or_zero([r.throughput_rps for r in self.timed])
        traced = stats.median_or_zero(
            [r.throughput_rps for r in self.rounds if r.traced]
        )
        values = self.layers.metrics()
        values["trace.untraced_throughput_rps"] = untraced
        values["trace.traced_throughput_rps"] = traced
        values["trace.overhead_share"] = 1.0 - stats.ratio(traced, untraced)
        return values


@contextmanager
def _deployed(plan: Plan, workdir: Path) -> Iterator[tuple[Deployment, float]]:
    """A fresh deployment of ``plan`` and its set-up time; torn down after."""
    directory = Path(tempfile.mkdtemp(prefix=f"{plan.workload}-", dir=workdir))
    try:
        started = time.perf_counter()
        deployment = deploy(plan, directory)
        setup_s = time.perf_counter() - started
        try:
            yield deployment, setup_s
        finally:
            deployment.close()
    finally:
        remove_tree(directory)


def run_round(
    plan: Plan,
    oracle: RankingOracle,
    workdir: Path,
    recorder: SpanRecorder | None = None,
) -> tuple[Round, dict[str, float]]:
    """Build, drive, measure, tear down and check one round.

    Returns the round and its registry counter deltas over the timed
    window. The tracing wrappers, when a recorder is given, exist only
    between set-up and teardown; restoring them is verified.
    """
    with _deployed(plan, workdir) as (deployment, setup_s):
        before = counter_totals(deployment.metrics)
        patch = install(recorder) if recorder is not None else None
        try:
            timed = drive(plan, deployment, DRIVERS, recorder)
        finally:
            if patch is not None:
                originals = list(patch.originals)
                patch.restore()
                if not unwrapped(originals):
                    raise RuntimeError("tracing wrappers survived the traced round")
        after = counter_totals(deployment.metrics)
        coverage = deployment.coverage()
        disk_bytes = deployment.disk_bytes()
    log = timed.log
    failures = list(log.failures)
    for phone, payload in log.schedules:
        problem = check_schedule(phone, payload, plan.period_s)
        if problem is not None:
            failures.append(f"participate {phone.user_id}: {problem}")
    for query, payload in log.rankings:
        problem = oracle.check(query, payload)
        if problem is not None:
            failures.append(f"rank_query {query.category}/{query.profile['name']}: {problem}")
    answered = sum(len(values) for values in log.latencies_ns.values())
    result = Round(
        traced=recorder is not None,
        setup_s=setup_s,
        wall_s=timed.wall_s,
        cpu_s=timed.cpu_s,
        attempted=log.attempted,
        answered=answered,
        coverage=coverage,
        disk_bytes=disk_bytes,
        latencies_ns=log.latencies_ns,
        failures=failures,
        sessions=log.sessions,
        completed=log.completed,
    )
    deltas = {name: after[name] - before[name] for name in after}
    return result, deltas


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> RunResult:
    """Run ``workload`` for ``seconds`` of timed rounds."""
    plan = WORKLOADS[workload](seed)
    result = RunResult(workload, seed, plan.digest())
    oracle = RankingOracle(plan)
    workdir.mkdir(parents=True, exist_ok=True)
    run_round(replace(plan, items=plan.items[: len(plan.items) // 8]), oracle, workdir)
    if trace:
        result.layers = LayerTally()
    timed_s = 0.0
    while True:
        traced = trace and len(result.rounds) % 2 == 1
        recorder = SpanRecorder() if traced else None
        gc.collect()
        round_, deltas = run_round(plan, oracle, workdir, recorder)
        result.rounds.append(round_)
        if recorder is not None:
            assert result.layers is not None
            result.layers.add_round(recorder, deltas)
            result.spans.extend(list(span) for span in recorder.spans)
        timed_s += round_.wall_s
        if timed_s >= seconds and (not trace or len(result.rounds) >= 2):
            break
    result.setups = [r.setup_s for r in result.timed]
    while len(result.setups) < SETUP_SAMPLES:
        time.sleep(SETUP_PAUSE_S)
        gc.collect()
        with _deployed(plan, workdir) as (_deployment, setup_s):
            result.setups.append(setup_s)
    _check_run(result, plan, workload)
    return result


def _check_run(result: RunResult, plan: Plan, workload: str) -> None:
    """Run-level checks: determinism, completeness and sample counts."""
    if WORKLOADS[workload](plan.seed).digest() != result.digest:
        result.problems.append("the workload digest changed for the same seed")
    coverages = {r.coverage for r in result.rounds}
    if len(coverages) != 1:
        result.problems.append(f"coverage differs between rounds: {sorted(coverages)}")
    for index, r in enumerate(result.rounds):
        if r.completed != r.sessions:
            result.problems.append(
                f"round {index}: {r.sessions - r.completed} of {r.sessions} sessions failed"
            )
    sizes = [len(group) for group in result.latency_groups()]
    if not all(stats.supports(size, 99) for size in sizes):
        result.problems.append(
            f"latency groups of {sizes} samples leave fewer than "
            f"{stats.MIN_BEYOND} beyond p99"
        )
    if result.layers is not None:
        share = result.layers.unattributed_share()
        if abs(share) > UNATTRIBUTED_TOLERANCE:
            result.problems.append(
                f"layer self times leave {share:.1%} of the client-observed mean "
                f"unattributed (tolerance {UNATTRIBUTED_TOLERANCE:.0%})"
            )
