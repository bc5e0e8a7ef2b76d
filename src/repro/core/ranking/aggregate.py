"""Step 3 of Algorithm 2: rank aggregation.

The footrule-optimal aggregation is a min-cost perfect matching between
places and ranks: assigning place i to final rank r costs
``Σ_j w_j · |π(i, R_j) − r|`` (the paper's edge cost on its auxiliary
flow graph). We build that place × rank cost matrix and solve the
assignment with scipy's ``linear_sum_assignment``. The result minimizes
the weighted footrule distance κ_f and therefore 2-approximates the
weighted Kemeny optimum. :mod:`repro.core.ranking.reference` solves the
paper's flow graph literally and holds the other test oracles.

Also here: Borda count (a cheap baseline for the ablation sweeps) and an
adjacent-swap local search that can only improve the Kemeny objective
of any starting ranking.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.common.errors import RankingError
from repro.core.ranking.distances import (
    require_valid_weights,
    weighted_kemeny_distance,
)
from repro.core.ranking.types import Ranking
from repro.obs import MetricsRegistry, get_metrics

#: Buckets for the total footrule cost of one aggregation — spans the
#: tiny test instances (< 1) up to paper-scale weighted collections.
_FOOTRULE_COST_BUCKETS = (
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0,
)


def _check_inputs(collection: Sequence[Ranking], weights: Sequence[float]) -> None:
    if not collection:
        raise RankingError("need at least one individual ranking")
    require_valid_weights(collection, weights)
    first = collection[0]
    for other in collection[1:]:
        first.require_same_items(other)


def _position_matrix(
    collection: Sequence[Ranking],
) -> tuple[np.ndarray, tuple[Hashable, ...]]:
    """``P[j, i] = π(item_i, R_j)`` and the shared item order."""
    items = collection[0].items
    positions = np.array(
        [[ranking.position(item) for item in items] for ranking in collection],
        dtype=float,
    )
    return positions, items


def footrule_cost_matrix(
    collection: Sequence[Ranking], weights: Sequence[float]
) -> tuple[np.ndarray, tuple[Hashable, ...]]:
    """Cost[i][r] = Σ_j w_j · |π(item_i, R_j) − (r+1)| and the item order.

    One broadcasted ``w_j · |P[j, i] − r|`` tensor reduced over the
    ranking axis with :func:`np.add.reduce`, whose slice-by-slice
    accumulation order matches the scalar reference's ``total += …``
    loop (``footrule_cost_matrix_reference``) — the two are bitwise
    identical (pinned by the differential suite), like the scheduling
    objective and its oracle.
    """
    _check_inputs(collection, weights)
    positions, items = _position_matrix(collection)
    count = len(items)
    ranks = np.arange(1, count + 1, dtype=float)
    weight_vector = np.asarray(weights, dtype=float)
    # terms[j, i, r] = w_j · |π(item_i, R_j) − r|
    terms = weight_vector[:, None, None] * np.abs(
        positions[:, :, None] - ranks[None, None, :]
    )
    return np.add.reduce(terms, axis=0), items


def aggregate_footrule(
    collection: Sequence[Ranking],
    weights: Sequence[float],
    *,
    metrics: MetricsRegistry | None = None,
) -> Ranking:
    """The footrule-optimal aggregated ranking via min-cost assignment.

    Rows of the cost matrix follow the first ranking's item order and
    ``linear_sum_assignment`` is a pure function of the matrix, so the
    same input always yields the same order. Among tied optima the order
    is the one scipy's shortest-augmenting-path solver settles on when
    it augments the rows in that item order. It may differ from the flow
    oracle's pick; the tests pin its footrule cost and its determinism.
    """
    registry = metrics if metrics is not None else get_metrics()
    cost, items = footrule_cost_matrix(collection, weights)
    rows, ranks = linear_sum_assignment(cost)
    footrule_cost = float(cost[rows, ranks].sum())
    registry.counter(
        "sor_ranking_aggregations_total",
        "footrule aggregations solved as a min-cost assignment",
    ).inc()
    registry.gauge(
        "sor_ranking_matching_size",
        "items matched to ranks in the most recent aggregation",
    ).set(len(items))
    registry.histogram(
        "sor_ranking_footrule_cost",
        "total weighted footrule cost of each aggregation",
        buckets=_FOOTRULE_COST_BUCKETS,
    ).observe(footrule_cost)
    # rows is 0..N-1, so argsort(ranks) lists the item at each rank.
    return Ranking(items[index] for index in np.argsort(ranks))


def borda_count(collection: Sequence[Ranking], weights: Sequence[float]) -> Ranking:
    """Weighted Borda count: order by weighted mean position.

    A popular cheap aggregation heuristic; included as the baseline the
    ablation bench compares the footrule aggregation against.
    """
    _check_inputs(collection, weights)
    items = collection[0].items
    scores = {
        item: sum(
            weight * ranking.position(item)
            for ranking, weight in zip(collection, weights)
        )
        for item in items
    }
    # Stable: ties keep the item order of the first individual ranking.
    ordered = sorted(items, key=lambda item: scores[item])
    return Ranking(ordered)


def refine_by_adjacent_swaps(
    start: Ranking, collection: Sequence[Ranking], weights: Sequence[float]
) -> Ranking:
    """Local search: swap adjacent items while κ_K strictly improves.

    Starting from the footrule solution this can only lower the weighted
    Kemeny distance, tightening the 2-approximation in practice (this is
    the classic "local Kemenization" post-processing step).
    """
    _check_inputs(collection, weights)
    start.require_same_items(collection[0])
    current = list(start.items)
    current_value = weighted_kemeny_distance(Ranking(current), collection, weights)
    improved = True
    while improved:
        improved = False
        for index in range(len(current) - 1):
            candidate = list(current)
            candidate[index], candidate[index + 1] = (
                candidate[index + 1],
                candidate[index],
            )
            value = weighted_kemeny_distance(Ranking(candidate), collection, weights)
            if value < current_value - 1e-12:
                current = candidate
                current_value = value
                improved = True
    return Ranking(current)

