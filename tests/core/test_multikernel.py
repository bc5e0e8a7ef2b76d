"""Tests for the multi-kernel (per-feature σ) scheduling extension."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ValidationError
from repro.core.scheduling import (
    FeatureKernel,
    GaussianKernel,
    GreedyScheduler,
    MobileUser,
    MultiKernelGreedyScheduler,
    MultiKernelObjective,
    SchedulingPeriod,
    SchedulingProblem,
)

FEATURES = [
    FeatureKernel("temperature", GaussianKernel(60.0), weight=1.0),
    FeatureKernel("acceleration", GaussianKernel(5.0), weight=2.0),
]


def make_problem(num_users=5, budget=6):
    period = SchedulingPeriod(0.0, 1_000.0, 100)
    users = [
        MobileUser(f"u{i}", i * 100.0, 1_000.0, budget) for i in range(num_users)
    ]
    return SchedulingProblem(period, users, GaussianKernel(10.0))


class TestObjective:
    def test_value_is_weighted_sum(self):
        from repro.core.scheduling.objective import CoverageObjective

        period = SchedulingPeriod(0.0, 1_000.0, 100)
        blended = MultiKernelObjective(period, FEATURES)
        singles = [
            (feature, CoverageObjective(period, feature.kernel))
            for feature in FEATURES
        ]
        for instant in (5, 30, 31, 80):
            blended.add(instant)
            for _, single in singles:
                single.add(instant)
        expected = sum(f.weight * s.value() for f, s in singles)
        assert blended.value() == pytest.approx(expected, rel=1e-12)

    def test_gain_matches_realized(self):
        period = SchedulingPeriod(0.0, 1_000.0, 100)
        objective = MultiKernelObjective(period, FEATURES)
        objective.add(10)
        predicted = objective.gain(40)
        before = objective.value()
        objective.add(40)
        assert objective.value() - before == pytest.approx(predicted, rel=1e-9)

    def test_current_gains_matches_gain(self):
        period = SchedulingPeriod(0.0, 1_000.0, 100)
        objective = MultiKernelObjective(period, FEATURES)
        objective.add(50)
        gains = objective.current_gains
        for instant in (0, 25, 49, 50, 51, 99):
            assert gains[instant] == pytest.approx(objective.gain(instant), abs=1e-10)

    @settings(max_examples=25)
    @given(
        base=st.sets(st.integers(0, 99), max_size=5),
        extra=st.integers(0, 99),
        candidate=st.integers(0, 99),
    )
    def test_blend_is_monotone_submodular(self, base, extra, candidate):
        period = SchedulingPeriod(0.0, 1_000.0, 100)
        small = MultiKernelObjective(period, FEATURES)
        for instant in base:
            small.add(instant)
        big = MultiKernelObjective(period, FEATURES)
        for instant in base | {extra}:
            big.add(instant)
        assert big.value() >= small.value() - 1e-9
        assert big.gain(candidate) <= small.gain(candidate) + 1e-9

    def test_per_feature_coverage_reported(self):
        period = SchedulingPeriod(0.0, 1_000.0, 100)
        objective = MultiKernelObjective(period, FEATURES)
        for instant in range(0, 100, 10):
            objective.add(instant)
        coverage = objective.per_feature_coverage()
        # The wide temperature kernel is easy to cover; the narrow
        # acceleration kernel much harder.
        assert coverage["temperature"] > 0.9
        assert coverage["acceleration"] < coverage["temperature"]

    def test_validation(self):
        period = SchedulingPeriod(0.0, 100.0, 10)
        with pytest.raises(ValidationError):
            MultiKernelObjective(period, [])
        with pytest.raises(ValidationError):
            MultiKernelObjective(
                period,
                [
                    FeatureKernel("x", GaussianKernel(1.0)),
                    FeatureKernel("x", GaussianKernel(2.0)),
                ],
            )
        with pytest.raises(ValidationError):
            FeatureKernel("x", GaussianKernel(1.0), weight=-1.0)


class TestScheduler:
    def test_schedule_is_feasible(self):
        problem = make_problem()
        schedule = MultiKernelGreedyScheduler(FEATURES).solve(problem)
        schedule.validate()
        assert schedule.objective_value > 0

    def test_beats_single_kernel_on_blended_metric(self):
        """Scheduling for the wrong (single) kernel leaves blended value
        on the table relative to optimizing the blend directly."""
        problem = make_problem(num_users=4, budget=5)
        blended_schedule = MultiKernelGreedyScheduler(FEATURES).solve(problem)

        # Schedule greedily for the WIDE kernel only, then evaluate the
        # result under the blended objective.
        wide_only = SchedulingProblem(
            problem.period, problem.users, FEATURES[0].kernel
        )
        single_schedule = GreedyScheduler().solve(wide_only)
        evaluation = MultiKernelObjective(problem.period, FEATURES)
        for instant in single_schedule.pooled_instants:
            evaluation.add(instant)
        assert blended_schedule.objective_value >= evaluation.value() - 1e-9

    def test_per_feature_coverage_exposed(self):
        scheduler = MultiKernelGreedyScheduler(FEATURES)
        scheduler.solve(make_problem())
        coverage = scheduler.last_per_feature_coverage
        assert set(coverage) == {"temperature", "acceleration"}
        assert all(0.0 <= value <= 1.0 for value in coverage.values())

    def test_zero_weight_feature_ignored_for_gain(self):
        features = [
            FeatureKernel("real", GaussianKernel(20.0), weight=1.0),
            FeatureKernel("ghost", GaussianKernel(5.0), weight=0.0),
        ]
        problem = make_problem(num_users=2, budget=4)
        schedule = MultiKernelGreedyScheduler(features).solve(problem)
        # Objective value must equal the single-kernel value of "real".
        from repro.core.scheduling.objective import coverage_of_instants

        expected = coverage_of_instants(
            problem.period, features[0].kernel, set(schedule.pooled_instants)
        )
        assert schedule.objective_value == pytest.approx(expected, rel=1e-9)
