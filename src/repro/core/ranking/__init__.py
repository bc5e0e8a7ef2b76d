"""Personalizable ranking (paper Section IV).

Pipeline:

1. Feature matrix ``H`` (N places × M features) plus a user's preferred
   values ``U`` → preference-distance matrix ``Γ`` with
   ``γ_ij = |h_ij − u_j|`` (:func:`preference_distance_matrix`),
2. per-feature *individual rankings* ``R_j`` by sorting each Γ column
   ascending (:func:`individual_rankings`),
3. aggregation: find the ranking minimizing the weighted Spearman
   footrule distance ``κ_f(R, Ω) = Σ_j w_j · d_f(R, R_j)`` by reduction
   to a min-cost perfect matching of places to ranks, solved with
   scipy's ``linear_sum_assignment`` (:func:`aggregate_footrule`).
   Because ``d_K ≤ d_f ≤ 2·d_K`` (Diaconis–Graham), the footrule
   optimum 2-approximates the NP-hard weighted Kemeny optimum.

Baselines: Borda count (:func:`borda_count`) and a Kemeny-improving
local-search refinement (:func:`refine_by_adjacent_swaps`). The tests'
oracles — exact weighted Kemeny by exhaustive search, the scalar cost
matrix spec, and the paper's flow graph solved literally by min-cost
flow — live in :mod:`repro.core.ranking.reference`, off the serving
path.
"""

from repro.core.ranking.aggregate import (
    aggregate_footrule,
    borda_count,
    footrule_cost_matrix,
    refine_by_adjacent_swaps,
)
from repro.core.ranking.hybrid import aggregate_hybrid, subjective_ranking
from repro.core.ranking.distances import (
    footrule_distance,
    kemeny_distance,
    weighted_footrule_distance,
    weighted_kemeny_distance,
)
from repro.core.ranking.individual import (
    individual_rankings,
    preference_distance_matrix,
    require_finite_features,
)
from repro.core.ranking.preferences import (
    MAX,
    MIN,
    FeaturePreference,
    PreferenceProfile,
)
from repro.core.ranking.types import Ranking

__all__ = [
    "MAX",
    "MIN",
    "FeaturePreference",
    "PreferenceProfile",
    "Ranking",
    "aggregate_footrule",
    "aggregate_hybrid",
    "borda_count",
    "footrule_cost_matrix",
    "footrule_distance",
    "individual_rankings",
    "kemeny_distance",
    "preference_distance_matrix",
    "refine_by_adjacent_swaps",
    "require_finite_features",
    "subjective_ranking",
    "weighted_footrule_distance",
    "weighted_kemeny_distance",
]
