#!/usr/bin/env python3
"""Blend SOR's objective rankings with Yelp-style subjective ratings.

The paper positions SOR as an *enhancement* of subjective recommendation
systems, not a replacement (Section I). This example shows the
integration: the coffee-shop feature data feeds the objective pipeline,
a (synthetic) star-rating source contributes one more individual
ranking, and the footrule aggregation blends both according to how much
the user trusts the crowd.

Run:  python examples/hybrid_rankings.py
"""

from repro.core.features import build_feature_matrix
from repro.core.ranking import (
    aggregate_hybrid,
    individual_rankings,
    preference_distance_matrix,
)
from repro.experiments.fig10_shop_features import run_fig10
from repro.sim.scenarios import customer_profiles, shop_feature_pipeline

# What "the crowd" thinks (Yelp-style mean stars) — deliberately at odds
# with Emma's objective preferences: the noisy Starbucks is popular.
CROWD_STARS = {
    "Tim Hortons": 3.4,
    "B&N Cafe": 3.9,
    "Starbucks": 4.6,
}


def main() -> None:
    print("Collecting objective feature data (simulated field test)...")
    fig10 = run_fig10(seed=2014)
    pipeline = shop_feature_pipeline()
    emma = next(p for p in customer_profiles() if p.name == "Emma")

    active = [name for name in pipeline.feature_names if emma.weight(name) > 0]
    matrix, place_ids = build_feature_matrix(fig10.features, active)
    gamma = preference_distance_matrix(matrix, active, emma)
    objective = individual_rankings(gamma, place_ids)

    print(f"\ncrowd ratings: {CROWD_STARS}")

    print("\n-- Emma with her full Table II weights "
          f"({[emma.weight(n) for n in active]}) --")
    strong_weights = [emma.weight(name) for name in active]
    for trust in (0, 5):
        blended = aggregate_hybrid(
            objective, strong_weights, CROWD_STARS, subjective_weight=trust
        )
        print(f"  subjective weight {trust}: {list(blended.items)}")
    print("  Her objective preferences are emphatic (total weight "
          f"{sum(strong_weights)}), so even full trust in the crowd "
          "cannot push the noisy Starbucks up.")

    print("\n-- Emma holding each objective feature lightly (weight 1) --")
    light_weights = [1] * len(active)
    print(f"{'subjective weight':>18}  blended ranking")
    for trust in range(0, 6):
        blended = aggregate_hybrid(
            objective, light_weights, CROWD_STARS, subjective_weight=trust
        )
        print(f"{trust:>18}  {list(blended.items)}")
    print(
        "\nAt weight 0 the objective Table II order holds "
        "(B&N, Tim Hortons, Starbucks); as trust in the crowd grows, the "
        "popular-but-noisy Starbucks climbs to the top."
    )


if __name__ == "__main__":
    main()
