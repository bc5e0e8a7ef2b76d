"""Tests for the greedy scheduler (paper Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.scheduling import (
    GaussianKernel,
    GreedyScheduler,
    MobileUser,
    SchedulingPeriod,
    SchedulingProblem,
    average_coverage,
)
from repro.core.scheduling.reference import brute_force_optimal


def random_problem(rng, *, num_instants=12, duration=120.0, users=3, max_budget=3):
    mobile_users = []
    for index in range(users):
        arrival = float(rng.uniform(0, duration * 0.8))
        departure = float(rng.uniform(arrival + duration * 0.1, duration))
        budget = int(rng.integers(1, max_budget + 1))
        mobile_users.append(MobileUser(f"u{index}", arrival, departure, budget))
    period = SchedulingPeriod(0.0, duration, num_instants)
    return SchedulingProblem(period, mobile_users, GaussianKernel(sigma=20.0))


class TestBasics:
    def test_respects_constraints(self, paper_problem):
        schedule = GreedyScheduler().solve(paper_problem)
        schedule.validate()  # budgets, windows, duplicates

    def test_objective_value_is_accurate(self, paper_problem):
        schedule = GreedyScheduler().solve(paper_problem)
        assert average_coverage(schedule) == pytest.approx(
            schedule.average_coverage, rel=1e-9
        )

    def test_every_user_with_window_gets_work(self, small_problem):
        schedule = GreedyScheduler().solve(small_problem)
        assert all(len(v) > 0 for v in schedule.assignments.values())

    def test_zero_budget_user_gets_nothing(self):
        period = SchedulingPeriod(0.0, 100.0, 10)
        users = [MobileUser("idle", 0, 100, 0), MobileUser("busy", 0, 100, 3)]
        problem = SchedulingProblem(period, users, GaussianKernel(10.0))
        schedule = GreedyScheduler().solve(problem)
        assert schedule.assignments["idle"] == []
        assert len(schedule.assignments["busy"]) == 3

    def test_spreads_measurements(self):
        """Greedy must not cluster all instants together."""
        period = SchedulingPeriod(0.0, 1000.0, 100)
        users = [MobileUser("u", 0, 1000, 5)]
        problem = SchedulingProblem(period, users, GaussianKernel(sigma=20.0))
        schedule = GreedyScheduler().solve(problem)
        instants = schedule.assignments["u"]
        gaps = np.diff(sorted(instants))
        assert gaps.min() >= 10  # ~evenly spread over 100 instants

    def test_matroid_for_matches_problem(self, small_problem):
        scheduler = GreedyScheduler()
        matroid = scheduler.matroid_for(small_problem)
        schedule = scheduler.solve(small_problem)
        by_index = {user.user_id: i for i, user in enumerate(small_problem.users)}
        elements = {
            (by_index[user_id], instant)
            for user_id, instants in schedule.assignments.items()
            for instant in instants
        }
        assert matroid.is_independent(elements)


class TestApproximationGuarantee:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_at_least_half_optimal(self, seed):
        """Greedy ≥ ½ · OPT (Fisher–Nemhauser–Wolsey via paper ref 10)."""
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, num_instants=8, duration=80.0, users=2,
                                 max_budget=2)
        optimal_value, _ = brute_force_optimal(problem)
        greedy_value = GreedyScheduler().solve(problem).objective_value
        assert greedy_value >= 0.5 * optimal_value - 1e-9

    def test_usually_much_better_than_half(self, small_problem):
        optimal_value, _ = brute_force_optimal(small_problem)
        greedy_value = GreedyScheduler().solve(small_problem).objective_value
        assert greedy_value >= 0.9 * optimal_value  # empirically near-optimal


class TestMinGain:
    def test_zero_min_gain_exhausts_budgets(self):
        period = SchedulingPeriod(0.0, 100.0, 10)
        users = [MobileUser("u", 0, 100, 10)]
        problem = SchedulingProblem(period, users, GaussianKernel(5.0))
        schedule = GreedyScheduler(min_gain=0.0).solve(problem)
        assert len(schedule.assignments["u"]) == 10

    def test_default_stops_at_negligible_gain(self):
        period = SchedulingPeriod(0.0, 100.0, 10)
        # One user with a huge budget and a very wide kernel: after all
        # 10 instants are chosen nothing remains to gain.
        users = [MobileUser("u", 0, 100, 100)]
        problem = SchedulingProblem(period, users, GaussianKernel(5.0))
        schedule = GreedyScheduler().solve(problem)
        assert len(schedule.assignments["u"]) <= 10


class TestTieBreaking:
    """The explicit lowest-index tie-break contract (regression tests).

    Both backends must land on the same instant when marginal gains tie
    exactly — otherwise cross-backend schedules diverge on the first
    plateau (uniform gains at step 0 are the everyday case: every
    instant of an empty schedule gains w_0).
    """

    def test_argmax_tied_low_picks_first_of_exact_ties(self):
        from repro.core.scheduling import argmax_tied_low

        assert argmax_tied_low(np.array([0.0, 3.5, 3.5, 1.0])) == 1
        assert argmax_tied_low(np.array([2.0, 2.0, 2.0])) == 0
        assert argmax_tied_low(np.array([-np.inf, -np.inf])) == 0
        assert argmax_tied_low(np.array([1.0, np.nextafter(1.0, 2.0)])) == 1

    def test_uniform_plateau_schedules_lowest_instants_first(self):
        # A kernel so narrow no two instants interact: every gain ties
        # at w_0 forever, so greedy must walk indices left to right.
        period = SchedulingPeriod(0.0, 1000.0, 10)
        users = [MobileUser("u", 0, 1000, 4)]
        problem = SchedulingProblem(period, users, GaussianKernel(sigma=1e-6))
        for backend in ("numpy", "reference"):
            schedule = GreedyScheduler(backend=backend).solve(problem)
            assert schedule.assignments["u"] == [0, 1, 2, 3], backend

    def test_symmetric_problem_is_deterministic_across_variants(self):
        # Mirror-symmetric setup: gains tie in symmetric pairs at every
        # step. Both backends and a re-run must agree.
        period = SchedulingPeriod(0.0, 600.0, 24)
        users = [
            MobileUser("a", 0, 600, 3),
            MobileUser("b", 0, 600, 3),
        ]
        problem = SchedulingProblem(period, users, GaussianKernel(sigma=60.0))
        schedules = [
            GreedyScheduler(backend=backend).solve(problem)
            for backend in ("numpy", "reference")
        ]
        schedules.append(GreedyScheduler().solve(problem))
        for other in schedules[1:]:
            assert other.assignments == schedules[0].assignments
