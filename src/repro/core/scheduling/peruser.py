"""The per-user-sum objective (the paper's equation (2)) — an
alternative reading of the scheduling problem.

The paper first writes the objective as ``Σ_j Σ_k p(t_j, Φ_k)``
(equation (2)): each user's schedule covers instants *independently* and
coverages add across users. Its reformulation (4) then pools all
measurements into one set Ψ, where a second user measuring an
already-covered instant adds (almost) nothing. The two differ exactly
when users overlap in time.

Equation (2) is separable: the total is maximized by optimizing each
user's own coverage independently, which this scheduler does (greedy per
user over their window — optimal-per-user up to the usual greedy bound,
identical machinery to the pooled case). The simulation numbers the
paper reports (average coverage ≤ 1, "almost 100% with 55 users") only
make sense under the pooled objective, which is why
:class:`~repro.core.scheduling.greedy.GreedyScheduler` is the default;
this module exists to quantify the difference (see
:func:`~repro.experiments.ablations.run_objective_ablation`, run by
``benchmarks/bench_ablation_sweeps.py``).
"""

from __future__ import annotations

from repro.core.scheduling.greedy import greedy_window
from repro.core.scheduling.objective import make_objective
from repro.core.scheduling.problem import Schedule, SchedulingProblem


def per_user_sum_value(schedule: Schedule) -> float:
    """Evaluate a schedule under equation (2): Σ_k f(Φ_k)."""
    problem = schedule.problem
    total = 0.0
    for user in problem.users:
        objective = make_objective(problem.period, problem.kernel)
        for instant in schedule.assignments.get(user.user_id, []):
            objective.add(instant)
        total += objective.value()
    return total


class PerUserGreedyScheduler:
    """Greedy for the separable equation-(2) objective.

    Each user maximizes their own coverage in isolation: spread your own
    budget over your own window, ignoring everyone else. Overlapping
    users therefore pick the *same* well-spread instants instead of
    interleaving — the behaviour the pooled objective avoids.
    """

    def __init__(self, *, min_gain: float = 1e-12) -> None:
        self.min_gain = min_gain

    def solve(self, problem: SchedulingProblem) -> Schedule:
        """Schedule every user independently; returns the combined plan.

        Each user runs :func:`~repro.core.scheduling.greedy.greedy_window`
        over their own window on a fresh objective. ``objective_value``
        on the result is the equation-(2) total.
        """
        assignments: dict[str, list[int]] = {}
        total = 0.0
        for user_index, user in enumerate(problem.users):
            lo, hi = problem.user_window(user_index)
            objective = make_objective(problem.period, problem.kernel)
            picks = greedy_window(objective, lo, hi, user.budget, self.min_gain)
            assignments[user.user_id] = sorted(picks)
            total += objective.value()
        schedule = Schedule(
            problem=problem, assignments=assignments, objective_value=total
        )
        schedule.validate()
        return schedule
