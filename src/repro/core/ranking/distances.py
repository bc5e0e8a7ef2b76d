"""Ranking distances: Kemeny (Kendall tau) and Spearman's footrule.

Definitions follow the paper's Section IV-B: the Kemeny distance counts
pairwise order violations between two rankings (Definition 2); the
footrule distance sums absolute rank displacements (equation (9)) and
satisfies ``d_K ≤ d_f ≤ 2·d_K`` (Diaconis–Graham, equation (10)).
Weighted variants against a collection of individual rankings implement
equations (7) and (11). The two pairwise distances are the scalar spec;
the weighted variants compute every ranking's distance at once with
numpy and are pinned to ``Σ w · distance`` over the spec bitwise.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.common.errors import RankingError
from repro.core.ranking.types import Ranking


def kemeny_distance(first: Ranking, second: Ranking) -> int:
    """Number of item pairs the two rankings order oppositely.

    The paper's double sum (equation (5)) counts each violated pair
    twice — once as (i, i′) and once as (i′, i) — but its worked example
    (d_K = 2 for two violations) counts unordered pairs, so we count
    unordered pairs.
    """
    first.require_same_items(second)
    items = first.items
    violations = 0
    for index_a in range(len(items)):
        for index_b in range(index_a + 1, len(items)):
            item_a, item_b = items[index_a], items[index_b]
            first_order = first.position(item_a) - first.position(item_b)
            second_order = second.position(item_a) - second.position(item_b)
            if first_order * second_order < 0:
                violations += 1
    return violations


def footrule_distance(first: Ranking, second: Ranking) -> int:
    """Spearman's footrule ``Σ_i |π(i, R1) − π(i, R2)|``."""
    first.require_same_items(second)
    return sum(
        abs(first.position(item) - second.position(item)) for item in first.items
    )


def require_valid_weights(
    collection: Sequence[Ranking], weights: Sequence[float]
) -> None:
    """Raise RankingError unless each ranking has a finite, non-negative weight.

    A NaN or infinite weight would poison every cost and distance.
    """
    if len(collection) != len(weights):
        raise RankingError(
            f"{len(collection)} rankings but {len(weights)} weights"
        )
    if not all(math.isfinite(weight) for weight in weights):
        raise RankingError("weights must be finite")
    if any(weight < 0 for weight in weights):
        raise RankingError("weights must be non-negative")


def _check_collection(
    ranking: Ranking, collection: Sequence[Ranking], weights: Sequence[float]
) -> None:
    require_valid_weights(collection, weights)
    for individual in collection:
        ranking.require_same_items(individual)


def _positions(ranking: Ranking, collection: Sequence[Ranking]) -> np.ndarray:
    """``P[j, k] = π(ranking[k], R_j)``: every R_j's positions in R's order."""
    items = ranking.items
    return np.array(
        [[individual.position(item) for item in items] for individual in collection],
        dtype=np.int64,
    ).reshape(len(collection), len(items))


def _weighted_sum(distances: list[int], weights: Sequence[float]) -> float:
    # A plain Python sum over exact integer distances: the same value and
    # int/float type as Σ w · distance over the scalar spec.
    return sum(weight * distance for distance, weight in zip(distances, weights))


def weighted_kemeny_distance(
    ranking: Ranking, collection: Sequence[Ranking], weights: Sequence[float]
) -> float:
    """κ_K(R, Ω) = Σ_j w_j · d_K(R, R_j) (equation (7)).

    d_K(R, R_j) is the number of inversions in R_j's positions listed in
    R's order; all item pairs of all rankings are compared in one step.
    """
    _check_collection(ranking, collection, weights)
    positions = _positions(ranking, collection)
    order = np.arange(len(ranking))
    # inversions[j, a, b]: R ranks a above b but R_j ranks b above a.
    inversions = (positions[:, :, None] > positions[:, None, :]) & (
        order[:, None] < order
    )
    return _weighted_sum(inversions.sum(axis=(1, 2)).tolist(), weights)


def weighted_footrule_distance(
    ranking: Ranking, collection: Sequence[Ranking], weights: Sequence[float]
) -> float:
    """κ_f(R, Ω) = Σ_j w_j · d_f(R, R_j) (equation (11))."""
    _check_collection(ranking, collection, weights)
    positions = _positions(ranking, collection)
    ranks = np.arange(1, len(ranking) + 1)
    return _weighted_sum(np.abs(positions - ranks).sum(axis=1).tolist(), weights)
