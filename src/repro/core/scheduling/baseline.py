"""The paper's baseline scheduler (Section V-C).

"A simple scheduling algorithm served as the baseline: a mobile phone
starts to sense every 10 s since its arrival for N^B_k times." Readings
therefore cluster right after each user's arrival instead of spreading
over the period — which is exactly why the greedy scheduler beats it.
"""

from __future__ import annotations

from repro.common.validation import require_positive
from repro.core.scheduling.objective import coverage_of_instants
from repro.core.scheduling.problem import Schedule, SchedulingProblem


class PeriodicBaselineScheduler:
    """Sense every ``interval_s`` seconds from arrival, budget times."""

    def __init__(self, interval_s: float = 10.0) -> None:
        self.interval_s = require_positive(interval_s, "interval_s")

    def solve(self, problem: SchedulingProblem) -> Schedule:
        """Build the periodic schedule and evaluate its pooled coverage."""
        period = problem.period
        assignments: dict[str, list[int]] = {}
        for user_index, user in enumerate(problem.users):
            limit = min(user.departure, period.end)
            indices: list[int] = []
            seen: set[int] = set()
            for shot in range(user.budget):
                timestamp = user.arrival + shot * self.interval_s
                if timestamp > limit:
                    break
                instant_index = period.nearest_instant(timestamp)
                if not problem.user_can_sense_at(user_index, instant_index):
                    continue
                if instant_index in seen:
                    continue
                seen.add(instant_index)
                indices.append(instant_index)
            assignments[user.user_id] = sorted(indices)
        pooled = {index for indices in assignments.values() for index in indices}
        schedule = Schedule(
            problem=problem,
            assignments=assignments,
            objective_value=coverage_of_instants(period, problem.kernel, pooled),
        )
        schedule.validate()
        return schedule
