"""Tests for the incremental coverage objective."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.scheduling import (
    CoverageObjective,
    GaussianKernel,
    MobileUser,
    Schedule,
    SchedulingPeriod,
    SchedulingProblem,
    per_user_sum_value,
)
from repro.core.scheduling.objective import UndoLog, coverage_of_instants


def make_objective(num_instants=20, sigma=15.0, duration=200.0):
    period = SchedulingPeriod(0.0, duration, num_instants)
    return CoverageObjective(period, GaussianKernel(sigma=sigma))


def brute_force_value(period, kernel, chosen):
    """Direct evaluation of equations (1) and (4)."""
    total = 0.0
    for j in range(period.num_instants):
        survival = 1.0
        for i in chosen:
            distance = abs(period.instant_time(i) - period.instant_time(j))
            survival *= 1.0 - kernel.probability(distance)
        total += 1.0 - survival
    return total


class TestValue:
    def test_empty_value_zero(self):
        assert make_objective().value() == 0.0

    def test_single_instant_matches_brute_force(self):
        objective = make_objective()
        objective.add(10)
        expected = brute_force_value(
            objective.period, objective.kernel, {10}
        )
        assert objective.value() == pytest.approx(expected, rel=1e-9)

    def test_multiple_instants_match_brute_force(self):
        objective = make_objective()
        for instant in (2, 7, 13, 18):
            objective.add(instant)
        expected = brute_force_value(
            objective.period, objective.kernel, {2, 7, 13, 18}
        )
        assert objective.value() == pytest.approx(expected, rel=1e-9)

    def test_duplicate_add_is_noop(self):
        objective = make_objective()
        objective.add(5)
        before = objective.value()
        assert objective.add(5) == 0.0
        assert objective.value() == before

    def test_average_coverage_normalization(self):
        objective = make_objective()
        objective.add(10)
        assert objective.average_coverage() == pytest.approx(
            objective.value() / 20
        )

    def test_coverage_profile_peaks_at_measurement(self):
        objective = make_objective()
        objective.add(10)
        profile = objective.coverage_profile()
        assert profile[10] == pytest.approx(1.0)
        assert profile[10] >= profile.max() - 1e-12

    def test_out_of_range_add_rejected(self):
        from repro.common.errors import SchedulingError

        with pytest.raises(SchedulingError):
            make_objective().add(99)


class TestGains:
    def test_gain_equals_realized_increase(self):
        objective = make_objective()
        objective.add(4)
        predicted = objective.gain(12)
        before = objective.value()
        objective.add(12)
        assert objective.value() - before == pytest.approx(predicted, rel=1e-9)

    def test_gains_all_matches_individual(self):
        objective = make_objective()
        objective.add(7)
        gains = objective.gains_all()
        for instant in range(20):
            assert gains[instant] == objective.gain(instant)

    def test_current_gains_matches_gains_all(self):
        objective = make_objective()
        for instant in (1, 9, 15):
            objective.add(instant)
        assert np.array_equal(objective.current_gains, objective.gains_all())

    def test_chosen_instant_gain_zero(self):
        objective = make_objective()
        objective.add(5)
        assert objective.gain(5) == 0.0


class TestSubmodularityProperties:
    @settings(max_examples=40)
    @given(
        base=st.sets(st.integers(0, 19), max_size=6),
        extra=st.integers(0, 19),
        candidate=st.integers(0, 19),
    )
    def test_monotone_and_submodular(self, base, extra, candidate):
        """f is monotone; marginal gains shrink as the set grows."""
        small = make_objective()
        for instant in base:
            small.add(instant)
        big = make_objective()
        for instant in base | {extra}:
            big.add(instant)
        # Monotonicity.
        assert big.value() >= small.value() - 1e-12
        # Submodularity (diminishing returns).
        assert big.gain(candidate) <= small.gain(candidate) + 1e-12

    @settings(max_examples=30)
    @given(chosen=st.sets(st.integers(0, 19), max_size=8))
    def test_incremental_matches_brute_force(self, chosen):
        objective = make_objective()
        for instant in chosen:
            objective.add(instant)
        expected = brute_force_value(objective.period, objective.kernel, chosen)
        assert objective.value() == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_value_bounded_by_num_instants(self):
        objective = make_objective()
        for instant in range(20):
            objective.add(instant)
        assert objective.value() <= 20.0 + 1e-9


class TestHelpers:
    def test_coverage_of_instants_one_shot(self):
        period = SchedulingPeriod(0.0, 200.0, 20)
        kernel = GaussianKernel(15.0)
        value = coverage_of_instants(period, kernel, [3, 9, 9, 16])
        assert value == pytest.approx(
            brute_force_value(period, kernel, {3, 9, 16}), rel=1e-9
        )

    def test_value_only_helpers_equal_a_maintained_objective_bitwise(self):
        """coverage_of_instants and per_user_sum_value read only value(),
        which no gain maintenance feeds."""
        period = SchedulingPeriod(0.0, 10_800.0, 4000)
        kernel = GaussianKernel(60.0)
        rng = np.random.default_rng(11)
        picks = sorted(set(rng.integers(0, 4000, size=640).tolist()))
        maintained = CoverageObjective(period, kernel)
        for instant in picks:
            maintained.add(instant)
        assert coverage_of_instants(period, kernel, picks) == maintained.value()
        users = [MobileUser(f"u{i}", 0.0, 10_800.0, 400) for i in range(2)]
        halves = {"u0": picks[::2], "u1": picks[1::2]}
        schedule = Schedule(SchedulingProblem(period, users, kernel), halves)
        expected = 0.0
        for user in users:
            objective = CoverageObjective(period, kernel)
            for instant in halves[user.user_id]:
                objective.add(instant)
            expected += objective.value()
        assert per_user_sum_value(schedule) == expected

    def test_window_respects_kernel_support(self):
        objective = make_objective(num_instants=100, sigma=5.0, duration=1000.0)
        support_instants = math.ceil(
            objective.kernel.support() / objective.period.spacing
        )
        assert objective.window == support_instants


class TestRecomputeBlocks:
    """An add's 4w+1-column gain band is one block exactly when it does
    not fit the ~128 KiB block but its w × (4w+1) scratch fits 1 MiB."""

    @pytest.mark.parametrize(
        ("sigma", "window", "block"),
        [
            (9.708, 63, 260),  # the band (253) fits the 128 KiB block
            (9.863, 64, 257),  # first one-block window: 4w+1
            (27.882, 180, 721),  # last: 180 × 721 floats fit 1 MiB
            (28.037, 181, 90),  # 181 × 725 do not: the band splits
        ],
    )
    def test_block_width(self, sigma, window, block):
        objective = make_objective(num_instants=1200, sigma=sigma, duration=1199.0)
        assert objective.window == window
        assert objective._block_columns == block
        assert objective._terms_buffer.shape == (window, block)


def objective_state(objective):
    return (
        np.asarray(objective.survival).copy(),
        objective._log_survival.copy(),
        objective.gains_all(),
        objective.chosen,
    )


def assert_same_state(first, second):
    for left, right in zip(first[:3], second[:3]):
        assert np.array_equal(left, right)
    assert first[3] == second[3]


class TestUndoLog:
    """Restoring a log's adds is bitwise the objective before them."""

    @pytest.mark.parametrize("maintain_gains", [True, False])
    @pytest.mark.parametrize("sigma", [15.0, 80.0])
    def test_restore_returns_the_state_before_the_block(
        self, maintain_gains, sigma
    ):
        period = SchedulingPeriod(0.0, 600.0, 300)
        kernel = GaussianKernel(sigma=sigma)
        objective = CoverageObjective(period, kernel, maintain_gains=maintain_gains)
        untouched = CoverageObjective(period, kernel, maintain_gains=maintain_gains)
        for instant in (5, 150, 299):
            objective.add(instant)
            untouched.add(instant)
        before = objective_state(objective)
        with UndoLog(objective) as undo:
            for instant in (0, 151, 150, 160, 298, 77):  # 150 is already in
                objective.add(instant)
            objective.gains_all()  # a full-sweep read in between
        assert objective.chosen == {0, 5, 77, 150, 151, 160, 298, 299}
        undo.restore()
        assert_same_state(objective_state(objective), before)
        undo.restore()  # a second restore does nothing
        assert_same_state(objective_state(objective), before)
        # Later adds see exactly the state of an objective that never
        # saw the undone ones.
        for instant in (151, 40):
            gain = objective.add(instant)
            untouched_gain = untouched.add(instant)
            if maintain_gains:  # else one may be a BLAS dot (gains_at)
                assert gain == untouched_gain
        assert_same_state(objective_state(objective), objective_state(untouched))

    def test_adds_outside_the_block_are_not_recorded(self):
        objective = make_objective()
        with UndoLog(objective) as undo:
            objective.add(3)
        objective.add(12)
        undo.restore()
        assert objective.chosen == {12}

    def test_a_block_that_raises_restores_at_once(self):
        objective = make_objective()
        before = objective_state(objective)
        with pytest.raises(RuntimeError):
            with UndoLog(objective):
                objective.add(4)
                objective.add(9)
                raise RuntimeError("picks abandoned")
        assert_same_state(objective_state(objective), before)
