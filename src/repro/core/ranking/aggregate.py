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

import math
from typing import Hashable, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.common.errors import RankingError
from repro.core.ranking.distances import (
    positions_in_order,
    rank_tables,
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


def _check_inputs(collection: Sequence[Ranking], weights: Sequence[float]) -> np.ndarray:
    """Raise RankingError unless the collection can be aggregated.

    Returns ``P[j, i] = π(item_i, R_j)`` over the first ranking's order,
    which the same-items check computes anyway.
    """
    if not collection:
        raise RankingError("need at least one individual ranking")
    require_valid_weights(collection, weights)
    return positions_in_order(collection[0], collection)


def _cost_terms(
    positions: np.ndarray, weights: Sequence[float], columns: slice | np.ndarray
) -> np.ndarray:
    """``Σ_j w_j · |P[j, i] − (c + 1)|`` for every rank column ``c``.

    ``columns=slice(None)`` gives the whole cost matrix; one column per
    item gives the costs of that assignment, item by item. Either way
    :func:`np.add.reduce` adds the rankings' terms in collection order,
    as the scalar reference's ``total += …`` loop does, so the costs of
    an assignment are bitwise the matrix entries it selects.
    """
    terms = rank_tables(positions.shape[1])[0][positions - 1, columns]
    weight_vector = np.asarray(weights, dtype=float).reshape(
        (-1,) + (1,) * (terms.ndim - 1)
    )
    return np.add.reduce(weight_vector * terms, axis=0)


def footrule_cost_matrix(
    collection: Sequence[Ranking], weights: Sequence[float]
) -> tuple[np.ndarray, tuple[Hashable, ...]]:
    """Cost[i][r] = Σ_j w_j · |π(item_i, R_j) − (r+1)| and the item order.

    Rows follow the first ranking's item order. One broadcasted
    ``w_j · |P[j, i] − r|`` tensor is reduced over the ranking axis
    (:func:`_cost_terms`), bitwise identical to the scalar reference
    ``footrule_cost_matrix_reference`` (pinned by the differential
    suite), like the scheduling objective and its oracle.
    """
    positions = _check_inputs(collection, weights)
    return _cost_terms(positions, weights, slice(None)), collection[0].items


def dominant_index(weights: Sequence[float]) -> int | None:
    """The index k with ``w_k > Σ_{j≠k} w_j``, or ``None`` if none has it.

    Compared exactly over the float weights the cost matrix uses:
    ``math.fsum`` rounds the exact sum of the others correctly, and a
    float exceeds a correctly rounded sum only if it exceeds the sum.
    Only the largest weight can qualify, and a tie for it never does.
    """
    values = [float(weight) for weight in weights]
    top = max(values)
    index = values.index(top)
    rest = math.fsum(values[:index] + values[index + 1 :])
    return index if top > rest else None


def aggregate_footrule(
    collection: Sequence[Ranking],
    weights: Sequence[float],
    *,
    metrics: MetricsRegistry | None = None,
) -> Ranking:
    """The footrule-optimal aggregated ranking via min-cost assignment.

    When one weight exceeds the sum of the others, that ranking R_k is
    the unique optimum and comes back with no solve: by the triangle
    inequality ``d_f(R, R_j) ≥ d_f(R_k, R_j) − d_f(R, R_k)``, so
    ``κ_f(R) ≥ κ_f(R_k) + (w_k − Σ_{j≠k} w_j) · d_f(R, R_k)``, and
    ``d_f(R, R_k) > 0`` for every other ``R``.

    Otherwise rows of the cost matrix follow the first ranking's item
    order and ``linear_sum_assignment`` is a pure function of the
    matrix, so the same input always yields the same order. Among tied
    optima the order is the one scipy's shortest-augmenting-path solver
    settles on when it augments the rows in that item order. It may
    differ from the flow oracle's pick; the tests pin its footrule cost
    and its determinism.

    The answer is kept over the first ranking's basis
    (:meth:`Ranking.over`), so its weighted distances to the collection
    are array work too.
    """
    positions = _check_inputs(collection, weights)
    registry = metrics if metrics is not None else get_metrics()
    first = collection[0]
    dominant = dominant_index(weights)
    if dominant is not None:
        ranking = collection[dominant]
        # Each item's column is the dominant ranking's rank for it.
        item_costs = _cost_terms(positions, weights, positions[dominant] - 1)
        registry.counter(
            "sor_ranking_dominant_answers_total",
            "footrule aggregations answered by a dominant weight's ranking, "
            "with no assignment solve",
        ).inc()
    else:
        cost = _cost_terms(positions, weights, slice(None))
        rows, columns = linear_sum_assignment(cost)
        item_costs = cost[rows, columns]
        # rows is 0..N-1, so argsort(columns) lists the item at each rank.
        ranking = Ranking.over(first, np.argsort(columns))
    registry.counter(
        "sor_ranking_aggregations_total",
        "footrule aggregations solved as a min-cost assignment",
    ).inc()
    registry.gauge(
        "sor_ranking_matching_size",
        "items matched to ranks in the most recent aggregation",
    ).set(len(first))
    registry.histogram(
        "sor_ranking_footrule_cost",
        "total weighted footrule cost of each aggregation",
        buckets=_FOOTRULE_COST_BUCKETS,
    ).observe(float(item_costs.sum()))
    return ranking


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

