"""Ranking distances: Kemeny (Kendall tau) and Spearman's footrule.

Definitions follow the paper's Section IV-B: the Kemeny distance counts
pairwise order violations between two rankings (Definition 2); the
footrule distance sums absolute rank displacements (equation (9)) and
satisfies ``d_K ≤ d_f ≤ 2·d_K`` (Diaconis–Graham, equation (10)).
Weighted variants against a collection of individual rankings implement
equations (7) and (11). The two pairwise distances are the scalar spec.

The weighted variants and the aggregation in
:mod:`repro.core.ranking.aggregate` share one array kernel:
:func:`positions_in_order` lists every individual ranking's positions in
a target ranking's order, and :func:`footrule_counts` and
:func:`kemeny_counts` reduce those arrays to each ranking's integer
distance. The weighted values are pinned to ``Σ w · distance`` over the
spec bitwise.
"""

from __future__ import annotations

import functools
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
    if not all(map(math.isfinite, weights)):
        raise RankingError("weights must be finite")
    if weights and min(weights) < 0:
        raise RankingError("weights must be non-negative")


# ----------------------------------------------------------------------
# the array kernel
# ----------------------------------------------------------------------
def positions_in_order(target: Ranking, collection: Sequence[Ranking]) -> np.ndarray:
    """``Q[j, k] = π(target[k], R_j)`` as an int64 array, one row per R_j.

    When the target and every R_j are kept over one basis
    (:meth:`Ranking.over`), the rows are the stored position arrays
    reindexed by the target's order: no per-item lookups, and no
    item-set check, since each is a permutation of that basis. Any
    other collection is checked to share the target's item set and
    looked up item by item.
    """
    basis = target._basis
    if (
        basis is not None
        and collection
        and all(ranking._basis is basis for ranking in collection)
    ):
        stacked = np.array([ranking._basis_positions for ranking in collection])
        # take() keeps the result C-ordered; stacked[:, order] would not,
        # and the kernels run several times slower on that layout.
        return stacked.take(target._order, axis=1)
    for individual in collection:
        target.require_same_items(individual)
    items = target.items
    return np.array(
        [[individual.position(item) for item in items] for individual in collection],
        dtype=np.int64,
    ).reshape(len(collection), len(items))


@functools.lru_cache(maxsize=4)
def rank_tables(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only tables for N items: ``|a − b|`` over ranks 1..N as
    floats (row a − 1, column b − 1) and the ``a < b`` pair mask.

    9·N² bytes a size; only the four most recent sizes are kept, and a
    category's size comes from its data, not from what clients send.
    """
    ranks = np.arange(count)
    distances = np.abs(ranks[:, None] - ranks).astype(float)
    before = ranks[:, None] < ranks
    distances.flags.writeable = False
    before.flags.writeable = False
    return distances, before


def footrule_counts(positions: np.ndarray) -> np.ndarray:
    """``d_f(R, R_j)`` per row of :func:`positions_in_order`'s array."""
    ranks = np.arange(1, positions.shape[1] + 1)
    return np.abs(positions - ranks).sum(axis=1)


def kemeny_counts(positions: np.ndarray) -> np.ndarray:
    """``d_K(R, R_j)`` per row: the inversions in R_j's positions in R's order."""
    rankings, items = positions.shape
    # inversions[j, a, b]: R ranks a above b but R_j ranks b above a.
    inversions = positions[:, :, None] > positions[:, None, :]
    inversions &= rank_tables(items)[1]
    return inversions.reshape(rankings, items * items).sum(axis=1)


def _weighted_sum(distances: list[int], weights: Sequence[float]) -> float:
    # A plain Python sum over exact integer distances: the same value and
    # int/float type as Σ w · distance over the scalar spec.
    return sum(weight * distance for distance, weight in zip(distances, weights))


def weighted_kemeny_distance(
    ranking: Ranking, collection: Sequence[Ranking], weights: Sequence[float]
) -> float:
    """κ_K(R, Ω) = Σ_j w_j · d_K(R, R_j) (equation (7))."""
    require_valid_weights(collection, weights)
    counts = kemeny_counts(positions_in_order(ranking, collection))
    return _weighted_sum(counts.tolist(), weights)


def weighted_footrule_distance(
    ranking: Ranking, collection: Sequence[Ranking], weights: Sequence[float]
) -> float:
    """κ_f(R, Ω) = Σ_j w_j · d_f(R, R_j) (equation (11))."""
    require_valid_weights(collection, weights)
    counts = footrule_counts(positions_in_order(ranking, collection))
    return _weighted_sum(counts.tolist(), weights)
