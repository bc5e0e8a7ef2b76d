"""Differential tests pinning the numpy scheduling core to the reference.

The vectorized backend (:mod:`repro.core.scheduling.objective`) is a
rewrite of the scalar specification
(:mod:`repro.core.scheduling.reference`); these tests are the contract
that keeps them the same algorithm:

* coverage values agree to 1e-9 (relative) on random instances,
* marginal gains agree **bitwise** after any pick sequence — the
  stronger property the schedule identity rests on, because exact ties
  must tie on both backends for the lowest-index tie-break to land on
  the same instant,
* greedy schedules are identical — across backends (at the default
  and at zero ``min_gain``) and across repeated runs,
* the kernel band holds the dense Toeplitz rows' floats exactly,
* the shared loops agree: :func:`greedy_window` on a fresh objective
  is ``GreedyScheduler``'s one-user schedule, and a one-feature
  ``MultiKernelGreedyScheduler`` is ``GreedyScheduler``,
* on brute-forceable instances greedy achieves at least half the
  optimum (the matroid-greedy guarantee, paper ref 10).

Instances are generated by hypothesis; run with ``--hypothesis-seed=0``
in CI for reproducibility.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduling import (
    CoverageObjective,
    ExponentialKernel,
    FeatureKernel,
    GaussianKernel,
    GreedyScheduler,
    MobileUser,
    MultiKernelGreedyScheduler,
    ReferenceCoverageObjective,
    SchedulingPeriod,
    SchedulingProblem,
    TriangularKernel,
    coverage_of_instants,
    greedy_window,
    kernel_matrices,
    make_objective,
    reference_coverage_of_instants,
)
from repro.core.scheduling.reference import brute_force_optimal, fold_tree_sum

PERIOD_S = 600.0


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
def problems(max_instants: int = 48, max_users: int = 5, max_budget: int = 6):
    """Random scheduling problems: horizon, σ, and per-user windows."""

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


def instant_sets(max_instants: int = 48):
    """A horizon length together with a random subset of its instants."""

    @st.composite
    def build(draw):
        num_instants = draw(st.integers(min_value=1, max_value=max_instants))
        instants = draw(
            st.sets(
                st.integers(min_value=0, max_value=num_instants - 1),
                max_size=num_instants,
            )
        )
        sigma = draw(
            st.floats(min_value=1.0, max_value=120.0, allow_nan=False)
        )
        return num_instants, sigma, instants

    return build()


# ----------------------------------------------------------------------
# objective values
# ----------------------------------------------------------------------
class TestObjectiveValues:
    @given(case=instant_sets())
    @settings(max_examples=60, deadline=None)
    def test_coverage_values_match_to_1e9(self, case):
        num_instants, sigma, instants = case
        period = SchedulingPeriod(0.0, PERIOD_S, num_instants)
        kernel = GaussianKernel(sigma=sigma)
        vectorized = coverage_of_instants(period, kernel, instants, "numpy")
        reference = reference_coverage_of_instants(period, kernel, instants)
        assert vectorized == pytest.approx(reference, rel=1e-9, abs=1e-9)

    @given(case=instant_sets(max_instants=32))
    @settings(max_examples=40, deadline=None)
    def test_gains_bitwise_equal_after_any_pick_sequence(self, case):
        """The tie-structure contract: not just close — identical."""
        num_instants, sigma, instants = case
        period = SchedulingPeriod(0.0, PERIOD_S, num_instants)
        kernel = GaussianKernel(sigma=sigma)
        vectorized = CoverageObjective(period, kernel)
        reference = ReferenceCoverageObjective(period, kernel)
        for pick in sorted(instants):
            assert vectorized.add(pick) == reference.add(pick)
            assert np.array_equal(
                np.asarray(vectorized.survival),
                np.asarray(reference.survival),
            )
        assert np.array_equal(vectorized.gains_all(), reference.gains_all())

    @given(case=instant_sets(max_instants=32))
    @settings(max_examples=40, deadline=None)
    def test_gain_predicts_realized_increase(self, case):
        num_instants, sigma, instants = case
        period = SchedulingPeriod(0.0, PERIOD_S, num_instants)
        kernel = GaussianKernel(sigma=sigma)
        objective = CoverageObjective(period, kernel)
        for pick in sorted(instants):
            before = objective.value()
            gain = objective.add(pick)
            assert objective.value() - before == pytest.approx(
                gain, rel=1e-9, abs=1e-9
            )


# ----------------------------------------------------------------------
# greedy schedules
# ----------------------------------------------------------------------
class TestScheduleIdentity:
    @given(problem=problems())
    @settings(max_examples=50, deadline=None)
    def test_backends_produce_identical_schedules(self, problem):
        reference = GreedyScheduler(backend="reference").solve(problem)
        vectorized = GreedyScheduler(backend="numpy").solve(problem)
        assert reference.assignments == vectorized.assignments
        assert vectorized.objective_value == pytest.approx(
            reference.objective_value, rel=1e-9, abs=1e-9
        )

    @given(problem=problems())
    @settings(max_examples=30, deadline=None)
    def test_backends_identical_at_zero_min_gain(self, problem):
        """Run to a basis, both backends still agree pick for pick."""
        reference = GreedyScheduler(backend="reference", min_gain=0.0)
        vectorized = GreedyScheduler(backend="numpy", min_gain=0.0)
        assert (
            reference.solve(problem).assignments
            == vectorized.solve(problem).assignments
        )

    @given(problem=problems())
    @settings(max_examples=20, deadline=None)
    def test_reruns_are_deterministic(self, problem):
        first = GreedyScheduler().solve(problem)
        second = GreedyScheduler().solve(problem)
        assert first.assignments == second.assignments


# ----------------------------------------------------------------------
# the kernel band against a dense Toeplitz oracle
# ----------------------------------------------------------------------
def dense_toeplitz_rows(period, kernel):
    """The |T|×|T| ``1 - p`` and ``log1p(-p)`` matrices, built densely.

    Test-local oracle for the numpy objective's kernel band: the same
    truncated weights as the scalar reference, laid out as full rows.
    """
    weights = ReferenceCoverageObjective(period, kernel).weights
    num_instants = period.num_instants
    padded = np.zeros(num_instants)
    padded[: len(weights)] = weights
    offsets = np.abs(
        np.arange(num_instants)[:, None] - np.arange(num_instants)[None, :]
    )
    probability = padded[offsets]
    with np.errstate(divide="ignore"):
        return 1.0 - probability, np.log1p(-probability)


class TestBandedDense:
    """The kernel band is a layout of the dense rows, not an approximation.

    The objective stores only the O(N·window) mirrored band, but every
    in-band slice must hold the dense Toeplitz row's floats exactly, so
    replaying any pick sequence through dense rows reproduces the
    objective's state bitwise (``==`` on floats, no tolerance).
    """

    KERNELS = [
        GaussianKernel(sigma=45.0),
        TriangularKernel(width=90.0),
        ExponentialKernel(scale=60.0),
    ]

    @pytest.mark.parametrize(
        "kernel", KERNELS, ids=["gaussian", "triangular", "exponential"]
    )
    @pytest.mark.parametrize("num_instants", [1, 7, 60])
    def test_band_equals_dense_toeplitz_rows(self, kernel, num_instants):
        period = SchedulingPeriod(0.0, PERIOD_S, num_instants)
        band = kernel_matrices(period, kernel)
        complement, log_complement = dense_toeplitz_rows(period, kernel)
        window = band.window
        for instant in range(num_instants):
            lo = max(0, instant - window)
            hi = min(num_instants, instant + window + 1)
            shift = window - instant
            assert np.array_equal(
                band.complement_band[lo + shift : hi + shift],
                complement[instant, lo:hi],
            )
            assert np.array_equal(
                band.log_complement_band[lo + shift : hi + shift],
                log_complement[instant, lo:hi],
            )

    @pytest.mark.parametrize(
        "kernel", KERNELS, ids=["gaussian", "triangular", "exponential"]
    )
    @given(case=instant_sets(max_instants=32))
    @settings(max_examples=25, deadline=None)
    def test_bitwise_equal_state_after_any_pick_sequence(self, kernel, case):
        num_instants, _, instants = case
        period = SchedulingPeriod(0.0, PERIOD_S, num_instants)
        banded = CoverageObjective(period, kernel)
        reference = ReferenceCoverageObjective(period, kernel)
        complement, log_complement = dense_toeplitz_rows(period, kernel)
        survival = np.ones(num_instants)
        log_survival = np.zeros(num_instants)
        for pick in sorted(instants):
            gain = banded.add(pick)
            assert gain == reference.add(pick)
            survival *= complement[pick]
            log_survival += log_complement[pick]
            assert np.array_equal(np.asarray(banded.survival), survival)
        assert np.array_equal(banded.gains_all(), reference.gains_all())
        assert banded.value() == float(
            num_instants - np.exp(log_survival).sum()
        )

    @given(case=instant_sets(max_instants=32))
    @settings(max_examples=25, deadline=None)
    def test_gains_at_matches_full_sweep_without_maintenance(self, case):
        """The stochastic mode's batched gather is the same function.

        ``gains_at`` accumulates its window dot in BLAS order, not the
        fold-tree order of the maintained array, so the comparison is
        few-ulp rather than bitwise — exactly the trade its docstring
        promises. Chosen instants must still read exactly 0.0.
        """
        num_instants, sigma, instants = case
        period = SchedulingPeriod(0.0, PERIOD_S, num_instants)
        kernel = GaussianKernel(sigma=sigma)
        maintained = CoverageObjective(period, kernel, maintain_gains=True)
        on_demand = CoverageObjective(period, kernel, maintain_gains=False)
        for pick in sorted(instants):
            maintained.add(pick)
            on_demand.add(pick)
        everything = np.arange(num_instants)
        sampled = on_demand.gains_at(everything)
        np.testing.assert_allclose(
            sampled, maintained.gains_all(), rtol=1e-12, atol=1e-12
        )
        for pick in sorted(instants):
            assert sampled[pick] == 0.0


# ----------------------------------------------------------------------
# the shared loops: one window loop, one exact pooled loop
# ----------------------------------------------------------------------
class TestSharedLoops:
    @pytest.mark.parametrize("backend", ["numpy", "reference"])
    @given(
        problem=problems(max_users=1, max_budget=12),
        min_gain=st.sampled_from([1e-12, 0.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_window_helper_is_the_one_user_greedy(
        self, backend, problem, min_gain
    ):
        user = problem.users[0]
        lo, hi = problem.user_window(0)
        objective = make_objective(problem.period, problem.kernel, backend)
        picks = greedy_window(objective, lo, hi, user.budget, min_gain)
        schedule = GreedyScheduler(backend=backend, min_gain=min_gain).solve(
            problem
        )
        assert sorted(picks) == schedule.assignments[user.user_id]
        assert len(set(picks)) == len(picks)
        assert all(lo <= pick < hi for pick in picks)
        if min_gain == 0.0:
            assert len(picks) == min(user.budget, hi - lo)

    @given(problem=problems(), min_gain=st.sampled_from([1e-12, 0.0]))
    @settings(max_examples=40, deadline=None)
    def test_one_feature_multikernel_is_the_pooled_greedy(
        self, problem, min_gain
    ):
        feature = FeatureKernel("only", problem.kernel, weight=1.0)
        blended = MultiKernelGreedyScheduler([feature], min_gain=min_gain)
        pooled = GreedyScheduler(min_gain=min_gain).solve(problem)
        schedule = blended.solve(problem)
        assert schedule.assignments == pooled.assignments
        assert schedule.objective_value == pooled.objective_value


# ----------------------------------------------------------------------
# approximation guarantee
# ----------------------------------------------------------------------
class TestApproximationGuarantee:
    @given(problem=problems(max_instants=8, max_users=3, max_budget=3))
    @settings(max_examples=25, deadline=None)
    def test_greedy_at_least_half_of_optimum(self, problem):
        optimum, _ = brute_force_optimal(problem)
        for backend in ("numpy", "reference"):
            greedy = GreedyScheduler(backend=backend, min_gain=0.0).solve(
                problem
            )
            assert greedy.objective_value >= optimum / 2.0 - 1e-9


# ----------------------------------------------------------------------
# the reduction-tree contract
# ----------------------------------------------------------------------
class TestFoldTree:
    def test_single_term(self):
        assert fold_tree_sum([3.5]) == 3.5

    def test_matches_documented_tree_on_four_terms(self):
        # n=4: rest=2 → (a+c, b+d); n=2: rest=1 → ((a+c)+(b+d)).
        a, b, c, d = 0.1, 0.2, 0.3, 0.4
        assert fold_tree_sum([a, b, c, d]) == ((a + c) + (b + d))

    def test_matches_documented_tree_on_five_terms(self):
        # n=5: half=2, rest=3 → (a+d, b+e, c); n=3: half=1, rest=2 →
        # ((a+d)+c, b+e); n=2 → (((a+d)+c) + (b+e)).
        a, b, c, d, e = 0.11, 0.23, 0.37, 0.41, 0.53
        assert fold_tree_sum([a, b, c, d, e]) == (((a + d) + c) + (b + e))

    @given(
        terms=st.lists(
            st.floats(
                min_value=0.0, max_value=1.0, allow_nan=False
            ),
            min_size=1,
            max_size=64,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_sums_to_math_fsum_within_tree_error(self, terms):
        import math

        exact = math.fsum(terms)
        assert fold_tree_sum(list(terms)) == pytest.approx(
            exact, rel=1e-12, abs=1e-12
        )
