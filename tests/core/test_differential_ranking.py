"""Differential tests pinning the ranking aggregation to independent oracles.

The footrule aggregation is a min-cost perfect matching of places to
ranks, which :func:`aggregate_footrule` solves with scipy's
``linear_sum_assignment`` (Jonker–Volgenant). The successive-shortest-
paths flow in :mod:`repro.core.ranking.reference`
(:func:`assignment_via_flow`) solves the paper's auxiliary flow graph by
a completely different algorithm and never runs on the serving path,
which makes the two ideal cross-implementation oracles for each other:

* on random cost matrices, the flow solver's total cost must equal the
  scipy optimum (this pins the oracle itself),
* on random ranking collections up to the serving size (32 places, as
  in the rank-heavy workload), the aggregate must *achieve* the flow
  oracle's optimal footrule cost exactly — the constraint matrix is
  totally unimodular, so the LP optimum is integral and attained — and
  ranking the same input twice must return the same order,
* the vectorized weighted Kemeny and footrule distances equal the
  scalar per-pair spec ``Σ w · d(R, R_j)`` bitwise, type included,
* the footrule aggregate's weighted Kemeny distance stays within the
  theoretical 2× of the exact (brute-force) Kemeny optimum on ≤6
  places.

Run with ``--hypothesis-seed=0`` in CI for reproducibility.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from repro.core.ranking import (
    Ranking,
    aggregate_footrule,
    footrule_cost_matrix,
    weighted_kemeny_distance,
)
from repro.core.ranking.distances import (
    footrule_distance,
    kemeny_distance,
    weighted_footrule_distance,
)
from repro.core.ranking.reference import (
    assignment_via_flow,
    brute_force_kemeny,
    footrule_cost_matrix_reference,
)


def cost_matrices(max_size: int = 7):
    @st.composite
    def build(draw):
        size = draw(st.integers(min_value=1, max_value=max_size))
        values = draw(
            st.lists(
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                min_size=size * size,
                max_size=size * size,
            )
        )
        return np.array(values).reshape(size, size)

    return build()


def ranking_collections(
    max_items: int = 6,
    max_rankings: int = 5,
    *,
    min_weight: int = 1,
    max_weight: int = 9,
    float_weights: bool = True,
):
    @st.composite
    def build(draw):
        num_items = draw(st.integers(min_value=1, max_value=max_items))
        num_rankings = draw(st.integers(min_value=1, max_value=max_rankings))
        items = [f"place-{index}" for index in range(num_items)]
        collection = []
        for _ in range(num_rankings):
            order = draw(st.permutations(items))
            collection.append(Ranking(order))
        weights = draw(
            st.lists(
                st.integers(min_value=min_weight, max_value=max_weight),
                min_size=num_rankings,
                max_size=num_rankings,
            )
        )
        if float_weights:
            return collection, [float(weight) for weight in weights]
        return collection, weights

    return build()


#: rank_heavy's place count: the size a cache miss solves when serving.
SERVING_ITEMS = 32


def serving_collections():
    """Up to 32 places, 1–3 feature rankings, profile weights 0–5."""
    return ranking_collections(
        SERVING_ITEMS, 3, min_weight=0, max_weight=5, float_weights=False
    )


def weighted_ranking_collections(max_items: int = 6, max_rankings: int = 5):
    """Like :func:`ranking_collections` but with irrational-ish float
    weights, so any accumulation-order difference between the vectorized
    cost matrix and the scalar reference would actually show up."""

    @st.composite
    def build(draw):
        collection, _ = draw(ranking_collections(max_items, max_rankings))
        weights = draw(
            st.lists(
                st.floats(min_value=0.01, max_value=10.0, allow_nan=False,
                          allow_infinity=False),
                min_size=len(collection),
                max_size=len(collection),
            )
        )
        return collection, weights

    return build()


class TestVectorizedCostMatrixBitwise:
    """The vectorized footrule cost matrix is pinned *bitwise* to the
    scalar reference loop — same contract as the scheduling objective
    and its oracle."""

    @given(case=weighted_ranking_collections())
    @settings(max_examples=80, deadline=None)
    def test_vectorized_equals_reference_bitwise(self, case):
        collection, weights = case
        vectorized, items_v = footrule_cost_matrix(collection, weights)
        reference, items_r = footrule_cost_matrix_reference(collection, weights)
        assert items_v == items_r
        assert np.array_equal(vectorized, reference)  # bitwise, not approx

    def test_known_small_instance(self):
        collection = [Ranking(["a", "b", "c"]), Ranking(["c", "a", "b"])]
        weights = [0.3, 0.7]
        vectorized, items = footrule_cost_matrix(collection, weights)
        reference, _ = footrule_cost_matrix_reference(collection, weights)
        assert items == ("a", "b", "c")
        assert np.array_equal(vectorized, reference)
        # Spot-check one entry by hand: item "a" at rank 1 costs
        # 0.3·|1−1| + 0.7·|2−1| = 0.7.
        assert vectorized[0, 0] == pytest.approx(0.7)


class TestFlowMatchesScipy:
    @given(cost=cost_matrices())
    @settings(max_examples=60, deadline=None)
    def test_min_cost_matching_equals_linear_sum_assignment(self, cost):
        rows, columns = linear_sum_assignment(cost)
        scipy_cost = float(cost[rows, columns].sum())
        assert assignment_via_flow(cost)[0] == pytest.approx(
            scipy_cost, rel=1e-9, abs=1e-9
        )

    @given(case=ranking_collections())
    @settings(max_examples=40, deadline=None)
    def test_aggregate_achieves_scipy_optimal_footrule_cost(self, case):
        collection, weights = case
        cost, _ = footrule_cost_matrix(collection, weights)
        rows, columns = linear_sum_assignment(cost)
        optimum = float(cost[rows, columns].sum())
        aggregate = aggregate_footrule(collection, weights)
        achieved = weighted_footrule_distance(aggregate, collection, weights)
        assert achieved == pytest.approx(optimum, rel=1e-9, abs=1e-9)


class TestAssignmentMatchesFlowOracle:
    @given(case=serving_collections())
    @settings(max_examples=40, deadline=None)
    def test_aggregate_reaches_flow_optimum_at_serving_size(self, case):
        collection, weights = case
        cost, _ = footrule_cost_matrix(collection, weights)
        aggregate = aggregate_footrule(collection, weights)
        # Integer weights make every cost an exact integer, so the two
        # solvers must agree exactly, not just approximately.
        assert weighted_footrule_distance(
            aggregate, collection, weights
        ) == assignment_via_flow(cost)[0]

    @given(case=serving_collections())
    @settings(max_examples=40, deadline=None)
    def test_same_input_same_order(self, case):
        collection, weights = case
        first = aggregate_footrule(collection, weights)
        rebuilt = [Ranking(ranking.items) for ranking in collection]
        assert aggregate_footrule(rebuilt, list(weights)).items == first.items


class TestWeightedDistancesMatchScalarSpec:
    """The numpy distances equal ``Σ w · d`` over the scalar spec bitwise,
    so a report's ``weighted_*`` values keep their value and wire type."""

    @given(
        case=st.one_of(
            serving_collections(),
            weighted_ranking_collections(max_items=SERVING_ITEMS, max_rankings=4),
        ),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_weighted_distances_equal_scalar_spec(self, case, data):
        collection, weights = case
        ranking = Ranking(data.draw(st.permutations(collection[0].items)))
        for vectorized, spec in (
            (weighted_kemeny_distance, kemeny_distance),
            (weighted_footrule_distance, footrule_distance),
        ):
            expected = sum(
                weight * spec(ranking, individual)
                for individual, weight in zip(collection, weights)
            )
            value = vectorized(ranking, collection, weights)
            assert value == expected
            assert type(value) is type(expected)


class TestKemenyGuarantee:
    @given(case=ranking_collections(max_items=6, max_rankings=4))
    @settings(max_examples=25, deadline=None)
    def test_footrule_within_twice_brute_force_kemeny(self, case):
        collection, weights = case
        optimum = brute_force_kemeny(collection, weights)
        optimum_value = weighted_kemeny_distance(optimum, collection, weights)
        aggregate = aggregate_footrule(collection, weights)
        achieved = weighted_kemeny_distance(aggregate, collection, weights)
        assert achieved <= 2.0 * optimum_value + 1e-9
