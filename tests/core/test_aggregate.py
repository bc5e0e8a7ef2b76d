"""Tests for rank aggregation (Algorithm 2, step 3)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import RankingError
from repro.core.ranking import (
    Ranking,
    aggregate_footrule,
    borda_count,
    footrule_cost_matrix,
    refine_by_adjacent_swaps,
    weighted_footrule_distance,
    weighted_kemeny_distance,
)
from repro.core.ranking.reference import brute_force_kemeny

ITEMS = tuple("ABCDE")


def random_instance(rng, *, num_rankings=3, items=ITEMS):
    collection = [
        Ranking(rng.permutation(list(items)).tolist()) for _ in range(num_rankings)
    ]
    weights = [int(w) for w in rng.integers(0, 6, size=num_rankings)]
    if sum(weights) == 0:
        weights[0] = 1
    return collection, weights


class TestCostMatrix:
    def test_shape_and_items(self):
        collection = [Ranking("ABC"), Ranking("CBA")]
        cost, items = footrule_cost_matrix(collection, [1, 1])
        assert cost.shape == (3, 3)
        assert items == ("A", "B", "C")

    def test_values(self):
        collection = [Ranking("AB")]
        cost, _ = footrule_cost_matrix(collection, [2])
        # A at rank1: |1-1|*2 = 0; A at rank2: |1-2|*2 = 2
        assert cost[0, 0] == 0.0
        assert cost[0, 1] == 2.0


class TestFootruleOptimality:
    def test_unanimous_input_returned(self):
        collection = [Ranking("CAB")] * 3
        assert aggregate_footrule(collection, [1, 2, 3]) == Ranking("CAB")

    def test_zero_weight_ranking_ignored(self):
        collection = [Ranking("ABC"), Ranking("CBA")]
        assert aggregate_footrule(collection, [1, 0]) == Ranking("ABC")

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_exactly_minimizes_weighted_footrule(self, seed):
        rng = np.random.default_rng(seed)
        collection, weights = random_instance(rng)
        aggregated = aggregate_footrule(collection, weights)
        best = min(
            weighted_footrule_distance(Ranking(p), collection, weights)
            for p in itertools.permutations(ITEMS)
        )
        achieved = weighted_footrule_distance(aggregated, collection, weights)
        assert achieved == pytest.approx(best)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_two_approximation_of_kemeny(self, seed):
        """The paper's guarantee via d_K ≤ d_f ≤ 2·d_K."""
        rng = np.random.default_rng(seed)
        collection, weights = random_instance(rng)
        aggregated = aggregate_footrule(collection, weights)
        optimum = brute_force_kemeny(collection, weights)
        optimal_value = weighted_kemeny_distance(optimum, collection, weights)
        achieved = weighted_kemeny_distance(aggregated, collection, weights)
        assert achieved <= 2.0 * optimal_value + 1e-9


class TestBruteForceKemeny:
    def test_single_ranking_is_its_own_optimum(self):
        assert brute_force_kemeny([Ranking("BAC")], [5]) == Ranking("BAC")

    def test_majority_wins(self):
        collection = [Ranking("ABC"), Ranking("ABC"), Ranking("CBA")]
        assert brute_force_kemeny(collection, [1, 1, 1]) == Ranking("ABC")

    def test_weights_can_flip_majority(self):
        collection = [Ranking("ABC"), Ranking("ABC"), Ranking("CBA")]
        assert brute_force_kemeny(collection, [1, 1, 10]) == Ranking("CBA")

    def test_size_limit_enforced(self):
        big = Ranking(range(12))
        with pytest.raises(RankingError):
            brute_force_kemeny([big], [1])


class TestBordaAndRefinement:
    def test_borda_simple(self):
        collection = [Ranking("ABC"), Ranking("ACB")]
        assert borda_count(collection, [1, 1]) == Ranking("ABC")

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_refinement_never_hurts(self, seed):
        rng = np.random.default_rng(seed)
        collection, weights = random_instance(rng)
        start = borda_count(collection, weights)
        refined = refine_by_adjacent_swaps(start, collection, weights)
        assert weighted_kemeny_distance(
            refined, collection, weights
        ) <= weighted_kemeny_distance(start, collection, weights)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_flow_plus_refinement_close_to_optimal(self, seed):
        rng = np.random.default_rng(seed)
        collection, weights = random_instance(rng, num_rankings=4)
        refined = refine_by_adjacent_swaps(
            aggregate_footrule(collection, weights), collection, weights
        )
        optimum = brute_force_kemeny(collection, weights)
        achieved = weighted_kemeny_distance(refined, collection, weights)
        optimal_value = weighted_kemeny_distance(optimum, collection, weights)
        # Local Kemenization of the footrule solution is near-optimal in
        # practice; 1.5 is a loose regression bound (theory says ≤ 2).
        assert achieved <= 1.5 * optimal_value + 1e-9


class TestInputValidation:
    def test_empty_collection_rejected(self):
        with pytest.raises(RankingError):
            aggregate_footrule([], [])

    def test_mismatched_item_sets_rejected(self):
        with pytest.raises(RankingError):
            aggregate_footrule([Ranking("AB"), Ranking("AC")], [1, 1])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weights_rejected(self, bad):
        collection = [Ranking("ABC"), Ranking("CAB"), Ranking("BCA")]
        with pytest.raises(RankingError, match="weights must be finite"):
            aggregate_footrule(collection, [1, bad, 2])
