"""Tests for evaluation helpers and miscellaneous gaps."""

import numpy as np
import pytest

from repro.core.scheduling import (
    GaussianKernel,
    GreedyScheduler,
    Schedule,
    SchedulingPeriod,
    average_coverage,
    coverage_of_instants,
)


class TestEvaluateInstants:
    def test_empty_set_zero(self):
        period = SchedulingPeriod(0.0, 100.0, 10)
        assert coverage_of_instants(period, GaussianKernel(10.0), []) == 0.0

    def test_duplicates_ignored(self):
        period = SchedulingPeriod(0.0, 100.0, 10)
        kernel = GaussianKernel(10.0)
        assert coverage_of_instants(period, kernel, [3, 3, 3]) == pytest.approx(
            coverage_of_instants(period, kernel, [3])
        )

    def test_matches_schedule_bookkeeping(self, small_problem):
        schedule = GreedyScheduler().solve(small_problem)
        recomputed = coverage_of_instants(
            small_problem.period,
            small_problem.kernel,
            schedule.pooled_instants,
        )
        assert recomputed == pytest.approx(schedule.objective_value, rel=1e-9)


class TestAverageCoverageCrossCheck:
    def test_detects_wrong_stored_value(self, small_problem):
        """average_coverage recomputes from assignments, so a corrupted
        stored objective is caught by comparing the two."""
        schedule = Schedule(
            problem=small_problem,
            assignments={"a": [0, 5]},
            objective_value=999.0,  # wrong on purpose
        )
        assert average_coverage(schedule) != pytest.approx(
            schedule.average_coverage
        )


class TestPhoneMessageHandlerFailures:
    def test_failed_send_counted_and_returns_none(self):
        from repro.common.clock import ManualClock
        from repro.net import Envelope, MessageType, NetworkConditions
        from repro.net.transport import Network
        from repro.phone.message_handler import PhoneMessageHandler
        from repro.phone.power import Battery, WakeLockManager

        clock = ManualClock()
        network = Network(
            conditions=NetworkConditions(drop_probability=1.0),
            rng=np.random.default_rng(0),
        )
        handler = PhoneMessageHandler(
            "phone-x", network, WakeLockManager(clock, Battery())
        )

        class Sink:
            def handle_request(self, request):
                raise AssertionError("must be dropped before reaching me")

        network.register("srv", Sink())
        envelope = Envelope(MessageType.PING, "phone-x", "srv", {})
        assert handler.send("srv", envelope) is None
        assert handler.messages_failed == 1

    def test_wake_lock_released_even_on_failure(self):
        from repro.common.clock import ManualClock
        from repro.net import Envelope, MessageType, NetworkConditions
        from repro.net.transport import Network
        from repro.phone.message_handler import PhoneMessageHandler
        from repro.phone.power import Battery, WakeLockManager

        clock = ManualClock()
        locks = WakeLockManager(clock, Battery())
        network = Network(
            conditions=NetworkConditions(drop_probability=1.0),
            rng=np.random.default_rng(0),
        )
        network.register("srv", object())  # never reached
        handler = PhoneMessageHandler("phone-x", network, locks)
        handler.send("srv", Envelope(MessageType.PING, "phone-x", "srv", {}))
        assert not locks.is_held
