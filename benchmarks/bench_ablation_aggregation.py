"""Ablation — aggregation quality: footrule vs Borda vs exact Kemeny.

On random weighted instances small enough for exhaustive search, compare
the weighted-Kemeny objective achieved by the paper's footrule
aggregation (a min-cost assignment), the local-search-refined variant,
and Borda count, against the true optimum (ratio 1.0 = optimal; theory
guarantees the footrule solution ≤ 2.0).
"""

from benchmarks._ablation_common import record, run_once
from repro.experiments.ablations import run_aggregation_ablation


def test_ablation_aggregation_quality(benchmark):
    stats = run_once(
        benchmark,
        lambda: run_aggregation_ablation(instances=40, num_items=6, seed=0),
    )
    print()
    print(f"instances:                    {stats.instances}")
    print(f"footrule / optimum:           {stats.footrule_ratio:.4f}")
    print(f"  + local search / optimum:   {stats.refined_ratio:.4f}")
    print(f"borda / optimum:              {stats.borda_ratio:.4f}")
    print(f"footrule exactly optimal on:  {stats.footrule_optimal_fraction:.0%}")
    assert stats.footrule_ratio <= 2.0
    assert stats.refined_ratio <= stats.footrule_ratio + 1e-9
    record(
        benchmark,
        footrule_ratio=stats.footrule_ratio,
        refined_ratio=stats.refined_ratio,
        borda_ratio=stats.borda_ratio,
    )
