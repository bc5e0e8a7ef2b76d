"""Tests for scheduling problem data types."""

import pytest

from repro.common.errors import SchedulingError, ValidationError
from repro.core.scheduling import (
    GaussianKernel,
    MobileUser,
    Schedule,
    SchedulingPeriod,
    SchedulingProblem,
)


class TestSchedulingPeriod:
    def test_paper_setup(self):
        period = SchedulingPeriod(0.0, 10_800.0, 1080)
        assert period.spacing == pytest.approx(10.0)
        assert period.duration == 10_800.0

    def test_instants_array(self):
        period = SchedulingPeriod(100.0, 200.0, 10)
        instants = period.instants()
        assert len(instants) == 10
        assert instants[0] == 100.0
        assert instants[1] == pytest.approx(110.0)

    def test_instant_time_bounds(self):
        period = SchedulingPeriod(0.0, 100.0, 10)
        assert period.instant_time(0) == 0.0
        with pytest.raises(ValidationError):
            period.instant_time(10)
        with pytest.raises(ValidationError):
            period.instant_time(-1)

    def test_nearest_instant_clamps(self):
        period = SchedulingPeriod(0.0, 100.0, 10)
        assert period.nearest_instant(-50.0) == 0
        assert period.nearest_instant(1e9) == 9
        assert period.nearest_instant(42.0) == 4

    def test_window_indices(self):
        period = SchedulingPeriod(0.0, 100.0, 10)
        assert period.window_indices(0.0, 100.0) == (0, 10)
        assert period.window_indices(25.0, 55.0) == (3, 6)
        lo, hi = period.window_indices(99.0, 99.5)
        assert hi >= lo

    def test_invalid_period_rejected(self):
        with pytest.raises(ValidationError):
            SchedulingPeriod(10.0, 10.0, 5)
        with pytest.raises(ValidationError):
            SchedulingPeriod(0.0, 10.0, 0)

    @pytest.mark.parametrize(
        "start, end", [(float("-inf"), 10.0), (0.0, float("inf"))]
    )
    def test_non_finite_bounds_rejected(self, start, end):
        with pytest.raises(ValidationError, match="finite"):
            SchedulingPeriod(start, end, 5)


class TestMobileUser:
    def test_valid(self):
        user = MobileUser("u", 0.0, 10.0, 3)
        assert user.budget == 3

    def test_invalid_rejected(self):
        with pytest.raises(ValidationError):
            MobileUser("", 0.0, 10.0, 1)
        with pytest.raises(ValidationError):
            MobileUser("u", 10.0, 0.0, 1)
        with pytest.raises(ValidationError):
            MobileUser("u", 0.0, 10.0, -1)


class TestSchedulingProblem:
    def test_duplicate_users_rejected(self):
        period = SchedulingPeriod(0.0, 100.0, 10)
        with pytest.raises(ValidationError):
            SchedulingProblem(
                period,
                [MobileUser("u", 0, 50, 1), MobileUser("u", 50, 100, 1)],
            )

    def test_windows_and_ground_set(self, small_problem):
        lo, hi = small_problem.user_window(0)
        assert lo == 0
        assert small_problem.user_can_sense_at(0, lo)
        assert not small_problem.user_can_sense_at(0, 9)
        pairs = small_problem.ground_set()
        assert all(
            small_problem.user_can_sense_at(user, instant)
            for user, instant in pairs
        )

    def test_total_budget(self, small_problem):
        assert small_problem.total_budget() == 4

    def test_default_kernel_is_gaussian(self):
        period = SchedulingPeriod(0.0, 100.0, 10)
        problem = SchedulingProblem(period, [MobileUser("u", 0, 100, 1)])
        assert isinstance(problem.kernel, GaussianKernel)


class TestScheduleValidation:
    def test_valid_schedule_passes(self, small_problem):
        schedule = Schedule(
            problem=small_problem, assignments={"a": [0, 3], "b": [5]}
        )
        schedule.validate()

    def test_budget_violation_caught(self, small_problem):
        schedule = Schedule(
            problem=small_problem, assignments={"a": [0, 1, 2]}
        )
        with pytest.raises(SchedulingError, match="budget"):
            schedule.validate()

    def test_window_violation_caught(self, small_problem):
        schedule = Schedule(problem=small_problem, assignments={"a": [9]})
        with pytest.raises(SchedulingError, match="window"):
            schedule.validate()

    def test_duplicate_instants_caught(self, small_problem):
        schedule = Schedule(problem=small_problem, assignments={"a": [2, 2]})
        with pytest.raises(SchedulingError, match="duplicate"):
            schedule.validate()

    def test_unknown_user_caught(self, small_problem):
        schedule = Schedule(problem=small_problem, assignments={"ghost": [0]})
        with pytest.raises(SchedulingError, match="unknown"):
            schedule.validate()

    def test_pooled_instants_deduplicated(self, small_problem):
        schedule = Schedule(
            problem=small_problem, assignments={"a": [3, 5], "b": [5, 7]}
        )
        assert schedule.pooled_instants == [3, 5, 7]

    def test_times_for(self, small_problem):
        schedule = Schedule(problem=small_problem, assignments={"a": [0, 2]})
        assert schedule.times_for("a") == [0.0, 20.0]
        assert schedule.times_for("missing") == []
