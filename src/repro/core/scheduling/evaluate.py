"""Evaluation helpers shared by tests, benchmarks and the server."""

from __future__ import annotations

from repro.core.scheduling.objective import coverage_of_instants
from repro.core.scheduling.problem import Schedule, SchedulingProblem


def average_coverage(schedule: Schedule) -> float:
    """Recompute a schedule's average coverage from scratch.

    Unlike :attr:`Schedule.average_coverage` (which trusts the stored
    objective value), this recomputes from the assignments — used by
    tests to cross-check scheduler bookkeeping.
    """
    problem: SchedulingProblem = schedule.problem
    value = coverage_of_instants(
        problem.period, problem.kernel, set(schedule.pooled_instants)
    )
    return value / problem.period.num_instants
