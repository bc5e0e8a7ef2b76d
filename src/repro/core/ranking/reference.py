"""Oracles for the ranking pipeline: slow, literal, and test-only.

Nothing on the serving path imports this module. The tests and the
aggregation ablation use it as independent ground truth:

* :class:`MinCostFlow` and :func:`assignment_via_flow` — the paper
  solves its footrule aggregation on an auxiliary flow graph "by a
  linear programming based algorithm" whose constraint matrix is
  totally unimodular, guaranteeing an integral optimum. This is the
  combinatorial equivalent: successive shortest augmenting paths with
  Johnson potentials (Dijkstra) on the source → places → ranks → sink
  graph, an algorithm entirely unlike the scipy assignment solver that
  :func:`~repro.core.ranking.aggregate.aggregate_footrule` runs;
* :func:`footrule_cost_matrix_reference` — the scalar spec the
  vectorized :func:`~repro.core.ranking.aggregate.footrule_cost_matrix`
  must reproduce bitwise;
* :func:`brute_force_kemeny` — the exact (NP-hard) weighted Kemeny
  optimum by exhaustive search, for small item sets.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from repro.common.errors import RankingError
from repro.core.ranking.aggregate import _check_inputs, _position_matrix
from repro.core.ranking.distances import weighted_kemeny_distance
from repro.core.ranking.types import Ranking


@dataclass
class _Edge:
    target: int
    capacity: int
    cost: float
    flow: int = 0


class MinCostFlow:
    """A min-cost flow network over integer node ids.

    Supports non-negative edge costs (all SOR graphs satisfy this).
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes <= 0:
            raise RankingError("network needs at least one node")
        self.num_nodes = num_nodes
        self._edges: list[_Edge] = []
        self._adjacency: list[list[int]] = [[] for _ in range(num_nodes)]

    def add_edge(self, source: int, target: int, capacity: int, cost: float) -> int:
        """Add a directed edge; returns its id (for flow inspection)."""
        if not (0 <= source < self.num_nodes and 0 <= target < self.num_nodes):
            raise RankingError("edge endpoint out of range")
        if capacity < 0:
            raise RankingError("edge capacity must be non-negative")
        if cost < 0:
            raise RankingError("this solver requires non-negative edge costs")
        edge_id = len(self._edges)
        self._edges.append(_Edge(target=target, capacity=capacity, cost=cost))
        self._edges.append(_Edge(target=source, capacity=0, cost=-cost))
        self._adjacency[source].append(edge_id)
        self._adjacency[target].append(edge_id + 1)
        return edge_id

    def flow_on(self, edge_id: int) -> int:
        """Flow currently routed on edge ``edge_id``."""
        return self._edges[edge_id].flow

    def solve(self, source: int, sink: int, amount: int) -> float:
        """Route ``amount`` units from source to sink at minimum cost.

        Returns the total cost. Raises :class:`RankingError` if the
        requested amount cannot be routed.
        """
        if source == sink:
            raise RankingError("source and sink must differ")
        total_cost = 0.0
        routed = 0
        potentials = [0.0] * self.num_nodes
        while routed < amount:
            distances, parents = self._dijkstra(source, potentials)
            if distances[sink] == float("inf"):
                raise RankingError(
                    f"network supports only {routed} of {amount} units"
                )
            for node in range(self.num_nodes):
                if distances[node] < float("inf"):
                    potentials[node] += distances[node]
            # Find bottleneck along the augmenting path.
            bottleneck = amount - routed
            node = sink
            while node != source:
                edge = self._edges[parents[node]]
                bottleneck = min(bottleneck, edge.capacity - edge.flow)
                node = self._edges[parents[node] ^ 1].target
            # Augment.
            node = sink
            while node != source:
                edge_id = parents[node]
                self._edges[edge_id].flow += bottleneck
                self._edges[edge_id ^ 1].flow -= bottleneck
                total_cost += bottleneck * self._edges[edge_id].cost
                node = self._edges[edge_id ^ 1].target
            routed += bottleneck
        return total_cost

    def _dijkstra(
        self, source: int, potentials: list[float]
    ) -> tuple[list[float], list[int]]:
        distances = [float("inf")] * self.num_nodes
        parents = [-1] * self.num_nodes
        distances[source] = 0.0
        heap: list[tuple[float, int]] = [(0.0, source)]
        while heap:
            distance, node = heapq.heappop(heap)
            if distance > distances[node]:
                continue
            for edge_id in self._adjacency[node]:
                edge = self._edges[edge_id]
                if edge.capacity - edge.flow <= 0:
                    continue
                reduced = edge.cost + potentials[node] - potentials[edge.target]
                candidate = distance + reduced
                if candidate < distances[edge.target] - 1e-12:
                    distances[edge.target] = candidate
                    parents[edge.target] = edge_id
                    heapq.heappush(heap, (candidate, edge.target))
        return distances, parents


def assignment_via_flow(cost: np.ndarray) -> tuple[float, dict[int, int]]:
    """Min-cost perfect matching of rows to columns on the paper's graph.

    Builds source → rows (places) → columns (ranks) → sink with every
    capacity 1 and ``cost[row, column]`` on the middle edges, routes one
    unit per row, and returns the total cost with the matching
    ``{row: column}``.
    """
    count = cost.shape[0]
    network = MinCostFlow(2 * count + 2)
    source, sink = 0, 2 * count + 1
    edges = {}
    for row in range(count):
        network.add_edge(source, 1 + row, 1, 0.0)
        for column in range(count):
            edges[(row, column)] = network.add_edge(
                1 + row, 1 + count + column, 1, float(cost[row, column])
            )
    for column in range(count):
        network.add_edge(1 + count + column, sink, 1, 0.0)
    total = network.solve(source, sink, count)
    matching = {
        row: column
        for (row, column), edge_id in edges.items()
        if network.flow_on(edge_id) > 0
    }
    return total, matching


def footrule_cost_matrix_reference(
    collection: Sequence[Ranking], weights: Sequence[float]
) -> tuple[np.ndarray, tuple[Hashable, ...]]:
    """The O(N²·J) scalar spec of ``footrule_cost_matrix``.

    Kept as the oracle for the differential test; the vectorized path
    must reproduce it bitwise.
    """
    _check_inputs(collection, weights)
    positions, items = _position_matrix(collection)
    count = len(items)
    weight_vector = [float(weight) for weight in weights]
    cost = np.zeros((count, count))
    for item_index in range(count):
        for rank_index in range(count):
            total = 0.0
            for ranking_index, weight in enumerate(weight_vector):
                total += weight * abs(
                    positions[ranking_index, item_index] - float(rank_index + 1)
                )
            cost[item_index, rank_index] = total
    return cost, items


def brute_force_kemeny(
    collection: Sequence[Ranking], weights: Sequence[float], *, max_items: int = 8
) -> Ranking:
    """Exact weighted-Kemeny-optimal ranking by exhaustive permutation.

    Only for small item sets; used as the ground truth in tests and the
    aggregation-quality ablation.
    """
    _check_inputs(collection, weights)
    items = collection[0].items
    if len(items) > max_items:
        raise RankingError(
            f"brute force limited to {max_items} items, got {len(items)}"
        )
    best_ranking: Ranking | None = None
    best_value = float("inf")
    for permutation in itertools.permutations(items):
        candidate = Ranking(permutation)
        value = weighted_kemeny_distance(candidate, collection, weights)
        if value < best_value - 1e-12:
            best_value = value
            best_ranking = candidate
    assert best_ranking is not None
    return best_ranking
