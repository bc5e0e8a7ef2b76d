"""Tests for the min-cost flow oracle and its assignment graph."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from repro.common.errors import RankingError
from repro.core.ranking.reference import MinCostFlow, assignment_via_flow


class TestBasics:
    def test_single_path(self):
        network = MinCostFlow(3)
        network.add_edge(0, 1, 1, 2.0)
        network.add_edge(1, 2, 1, 3.0)
        assert network.solve(0, 2, 1) == pytest.approx(5.0)

    def test_prefers_cheap_path(self):
        network = MinCostFlow(4)
        network.add_edge(0, 1, 1, 10.0)
        network.add_edge(1, 3, 1, 10.0)
        network.add_edge(0, 2, 1, 1.0)
        network.add_edge(2, 3, 1, 1.0)
        assert network.solve(0, 3, 1) == pytest.approx(2.0)

    def test_splits_over_paths_when_needed(self):
        network = MinCostFlow(4)
        network.add_edge(0, 1, 1, 1.0)
        network.add_edge(1, 3, 1, 1.0)
        network.add_edge(0, 2, 1, 5.0)
        network.add_edge(2, 3, 1, 5.0)
        assert network.solve(0, 3, 2) == pytest.approx(12.0)

    def test_insufficient_capacity_raises(self):
        network = MinCostFlow(2)
        network.add_edge(0, 1, 1, 1.0)
        with pytest.raises(RankingError, match="supports only"):
            network.solve(0, 1, 2)

    def test_flow_on_reports_routed_edges(self):
        network = MinCostFlow(3)
        cheap = network.add_edge(0, 1, 1, 1.0)
        network.add_edge(1, 2, 1, 1.0)
        network.solve(0, 2, 1)
        assert network.flow_on(cheap) == 1

    def test_negative_cost_rejected(self):
        network = MinCostFlow(2)
        with pytest.raises(RankingError):
            network.add_edge(0, 1, 1, -1.0)

    def test_invalid_nodes_rejected(self):
        network = MinCostFlow(2)
        with pytest.raises(RankingError):
            network.add_edge(0, 5, 1, 1.0)
        with pytest.raises(RankingError):
            network.solve(0, 0, 1)


class TestAssignmentOptimality:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000), size=st.integers(2, 6))
    def test_matches_scipy_hungarian(self, seed, size):
        rng = np.random.default_rng(seed)
        cost = rng.integers(0, 50, size=(size, size)).astype(float)
        flow_total, matching = assignment_via_flow(cost)
        rows, cols = linear_sum_assignment(cost)
        scipy_total = float(cost[rows, cols].sum())
        assert flow_total == pytest.approx(scipy_total)
        # matching must be a permutation
        assert sorted(matching) == list(range(size))
        assert sorted(matching.values()) == list(range(size))

    def test_matches_exhaustive_small(self):
        cost = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
        flow_total, _ = assignment_via_flow(cost)
        best = min(
            sum(cost[i, p[i]] for i in range(3))
            for p in itertools.permutations(range(3))
        )
        assert flow_total == pytest.approx(best)
