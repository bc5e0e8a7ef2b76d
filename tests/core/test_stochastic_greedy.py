"""Property tests for the stochastic greedy mode.

The stochastic mode trades the exact mode's bitwise pick discipline for
horizon-free per-pick cost, and promises exactly two things instead:

* **determinism under a fixed seed** — a scheduler re-solved with the
  same seed reproduces its schedule bit for bit. (Identity with the
  exact mode or the scalar oracle is explicitly *not* promised: sampled
  candidates are scored with a BLAS-order dot that rounds a few ulp
  away from the fold-tree walk.)
* **value within ε of exact greedy** — the sampled pick keeps the
  ``(1 − 1/e − ε)`` expectation bound (Mirzasoleiman et al. 2015), and
  in practice lands within a percent or two of the exact value.

Plus the invariants every mode owes: budgets are never exceeded,
schedules validate, ``min_gain`` terminates the loop, a sample whose
best instant no user can take walks the rest of the sample, and a dry
sample falls back to one exact sweep rather than stalling.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SchedulingError
from repro.core.scheduling import (
    GaussianKernel,
    GreedyScheduler,
    MobileUser,
    SchedulingPeriod,
    SchedulingProblem,
    stochastic_sample_size,
)
from repro.obs import MetricsRegistry

PERIOD_S = 600.0


def problems(max_instants: int = 48, max_users: int = 5, max_budget: int = 6):
    """Random scheduling problems (mirrors the differential suite)."""

    @st.composite
    def build(draw):
        num_instants = draw(st.integers(min_value=2, max_value=max_instants))
        sigma = draw(
            st.floats(min_value=1.0, max_value=120.0, allow_nan=False)
        )
        num_users = draw(st.integers(min_value=1, max_value=max_users))
        period = SchedulingPeriod(0.0, PERIOD_S, num_instants)
        users = []
        for index in range(num_users):
            arrival = draw(
                st.floats(min_value=0.0, max_value=PERIOD_S * 0.9)
            )
            departure = draw(
                st.floats(min_value=arrival, max_value=PERIOD_S)
            )
            budget = draw(st.integers(min_value=1, max_value=max_budget))
            users.append(
                MobileUser(
                    user_id=f"u{index}",
                    arrival=arrival,
                    departure=departure,
                    budget=budget,
                )
            )
        return SchedulingProblem(period, users, GaussianKernel(sigma=sigma))

    return build()


def wide_open_problem(num_instants=40, num_users=3, budget=4, sigma=30.0):
    """Every user present for the whole period."""
    period = SchedulingPeriod(0.0, PERIOD_S, num_instants)
    users = [
        MobileUser(
            user_id=f"u{index}", arrival=0.0, departure=PERIOD_S, budget=budget
        )
        for index in range(num_users)
    ]
    return SchedulingProblem(period, users, GaussianKernel(sigma=sigma))


class _ZeroRng:
    """Generator stub whose every draw is candidate index 0.

    Starves the sampler: once instant 0 stops paying, every sample is
    dry, forcing the exact-sweep fallback on each remaining pick.
    """

    def integers(self, low, high, size=None):
        return np.zeros(size, dtype=np.int64)


# ----------------------------------------------------------------------
# sample-size formula
# ----------------------------------------------------------------------
class TestSampleSize:
    def test_matches_the_formula(self):
        # ⌈(1000/10)·ln(1/0.1)⌉ = ⌈230.26⌉ = 231
        assert stochastic_sample_size(1000, 10, 0.1) == 231

    def test_clamps_to_at_least_one(self):
        assert stochastic_sample_size(5, 1000, 0.5) == 1

    def test_clamps_to_candidate_count(self):
        assert stochastic_sample_size(4, 1, 0.1) == 4

    def test_degenerate_inputs(self):
        assert stochastic_sample_size(0, 10, 0.1) == 0
        assert stochastic_sample_size(10, 0, 0.1) == 10

    def test_smaller_epsilon_never_shrinks_the_sample(self):
        loose = stochastic_sample_size(500, 10, 0.3)
        tight = stochastic_sample_size(500, 10, 0.05)
        assert tight >= loose


# ----------------------------------------------------------------------
# determinism under a fixed seed
# ----------------------------------------------------------------------
class TestSeedDeterminism:
    @given(problem=problems())
    @settings(max_examples=25, deadline=None)
    def test_fresh_schedulers_with_equal_seeds_agree_bitwise(self, problem):
        first = GreedyScheduler(mode="stochastic", seed=7)
        second = GreedyScheduler(mode="stochastic", seed=7)
        a = first.solve(problem)
        b = second.solve(problem)
        assert a.assignments == b.assignments
        assert a.objective_value == b.objective_value

    @given(problem=problems())
    @settings(max_examples=15, deadline=None)
    def test_resolving_the_same_scheduler_is_deterministic(self, problem):
        scheduler = GreedyScheduler(mode="stochastic", seed=11)
        a = scheduler.solve(problem)
        b = scheduler.solve(problem)
        assert a.assignments == b.assignments
        assert a.objective_value == b.objective_value

    def test_injected_rng_advances_across_solves(self):
        """An injected generator is the caller's stream to manage."""
        problem = wide_open_problem()
        seeded = GreedyScheduler(
            mode="stochastic", rng=np.random.default_rng(7)
        )
        first = seeded.solve(problem)
        seeded.solve(problem)  # advances the injected stream
        replay = GreedyScheduler(
            mode="stochastic", rng=np.random.default_rng(7)
        )
        assert replay.solve(problem).assignments == first.assignments

    def test_bad_sample_epsilon_rejected(self):
        with pytest.raises(SchedulingError):
            GreedyScheduler(mode="stochastic", sample_epsilon=0.0)
        with pytest.raises(SchedulingError):
            GreedyScheduler(mode="stochastic", sample_epsilon=1.0)


# ----------------------------------------------------------------------
# value and feasibility guarantees
# ----------------------------------------------------------------------
class TestGuarantees:
    @given(problem=problems())
    @settings(max_examples=25, deadline=None)
    def test_value_within_epsilon_of_exact_greedy(self, problem):
        epsilon = 0.1
        exact = GreedyScheduler().solve(problem)
        sampled = GreedyScheduler(
            mode="stochastic", sample_epsilon=epsilon, seed=7
        ).solve(problem)
        bound = (1.0 - 1.0 / math.e - epsilon) * exact.objective_value
        assert sampled.objective_value >= bound - 1e-9

    @given(problem=problems())
    @settings(max_examples=25, deadline=None)
    def test_budgets_never_exceeded_and_schedule_validates(self, problem):
        schedule = GreedyScheduler(mode="stochastic", seed=7).solve(problem)
        schedule.validate()
        for user in problem.users:
            assigned = schedule.assignments.get(user.user_id, [])
            assert len(assigned) <= user.budget
            assert len(set(assigned)) == len(assigned)

    def test_min_gain_terminates_the_loop(self):
        problem = wide_open_problem()
        starved = GreedyScheduler(
            mode="stochastic", seed=7, min_gain=float("inf")
        ).solve(problem)
        assert starved.pooled_instants == []
        assert starved.objective_value == 0.0

    def test_matroid_runs_to_a_basis_with_zero_min_gain(self):
        problem = wide_open_problem(num_instants=40, num_users=2, budget=3)
        schedule = GreedyScheduler(
            mode="stochastic", seed=7, min_gain=0.0
        ).solve(problem)
        for user in problem.users:
            assert len(schedule.assignments[user.user_id]) == user.budget


# ----------------------------------------------------------------------
# dry-sample fallback and instrumentation
# ----------------------------------------------------------------------
class TestFallbackAndMetrics:
    def test_solve_reports_sample_and_evaluation_counters(self):
        registry = MetricsRegistry()
        scheduler = GreedyScheduler(
            mode="stochastic", seed=7, metrics=registry
        )
        scheduler.solve(wide_open_problem())
        assert (
            registry.counter("sor_greedy_stochastic_samples_total").value()
            > 0
        )
        assert (
            registry.counter(
                "sor_greedy_evaluations_total", labels=("strategy",)
            ).value(strategy="stochastic")
            > 0
        )

    def test_dry_sample_falls_back_to_an_exact_sweep(self):
        """A starved sampler must still fill the matroid, exactly.

        The stub rng only ever proposes instant 0; after it is taken the
        samples are all dry, so every further pick must come from the
        exact fallback sweep — the schedule still fills every budget
        with distinct, well-spread instants.
        """
        problem = wide_open_problem(num_instants=30, num_users=2, budget=1)
        registry = MetricsRegistry()
        scheduler = GreedyScheduler(
            mode="stochastic", rng=_ZeroRng(), metrics=registry
        )
        schedule = scheduler.solve(problem)
        schedule.validate()
        pooled = schedule.pooled_instants
        assert len(pooled) == 2
        assert len(set(pooled)) == 2
        assert (
            registry.counter(
                "sor_greedy_stochastic_fallbacks_total"
            ).value()
            >= 1
        )

    @pytest.mark.parametrize(
        ("seed", "expected_fallbacks"), [(1, 0), (0, 1)], ids=["walk", "walk-then-fallback"]
    )
    def test_sample_walk_skips_a_best_instant_with_no_free_user(
        self, seed, expected_fallbacks
    ):
        """The sample walk: the best sampled instant has no free user.

        Two full-period users with a budget of 3 over 3 instants run
        to a basis at ``min_gain=0``: each instant is picked twice, and
        a pooled instant both users hold still gains 0.0, so the best
        of a sample is often an instant no user can take. The pick then
        walks the rest of the sample best-first. Under seed 1 the one
        walk finds a free user; under seed 0 one of two walks finds
        none, and that pick falls back to an exact sweep.
        """
        period = SchedulingPeriod(0.0, 100.0, 3)
        users = [
            MobileUser(user_id=f"u{index}", arrival=0.0, departure=100.0, budget=3)
            for index in range(2)
        ]
        problem = SchedulingProblem(period, users, GaussianKernel(sigma=20.0))
        registry = MetricsRegistry()
        schedule = GreedyScheduler(
            mode="stochastic", seed=seed, min_gain=0.0, metrics=registry
        ).solve(problem)
        schedule.validate()
        assert schedule.assignments == {"u0": [0, 1, 2], "u1": [0, 1, 2]}
        samples = registry.counter("sor_greedy_stochastic_samples_total").value()
        fallbacks = registry.counter(
            "sor_greedy_stochastic_fallbacks_total"
        ).value()
        assert fallbacks == expected_fallbacks
        assert registry.counter(
            "sor_greedy_evaluations_total", labels=("strategy",)
        ).value(strategy="stochastic") == samples + fallbacks * 3
