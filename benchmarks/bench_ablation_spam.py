"""Ablation — spam resistance of the rank aggregation.

The paper chose the Kemeny distance because it "has been shown to have
good spam resistance" (its ref [7], Dwork et al.). This bench drops one
adversarial (reversed) ranking of growing weight into a pool of honest
noisy rankings (total honest weight 5) and measures how far each
aggregator drifts from the truth.

Expected shape: while the spammer is a *minority* (weight < half the
honest mass… up to ~3 here), the median-like footrule aggregation drifts
less than the mean-like Borda count. As the spammer nears the honest
mass (weights 4–5), the median commits to one side and degrades
catastrophically while Borda merely averages — the classic breakdown
point of robust estimators.
"""

from benchmarks._ablation_common import print_table, record_points, run_once
from repro.experiments.ablations import run_spam_resistance_ablation


def test_ablation_spam_resistance(benchmark):
    points = run_once(
        benchmark, lambda: run_spam_resistance_ablation(instances=20, seed=0)
    )
    print_table(
        [
            ("spam weight", ">11"),
            ("footrule drift", ">14.2f"),
            ("borda drift", ">11.2f"),
        ],
        [
            (p.spam_weight, p.footrule_drift, p.borda_drift)
            for p in points
        ],
    )
    # In the minority-spam regime the Kemeny-family aggregation resists
    # better than Borda (the paper's stated reason for choosing it).
    minority = next(point for point in points if point.spam_weight == 3)
    assert minority.footrule_drift <= minority.borda_drift + 1e-9
    record_points(
        benchmark, points, "spam_weight", "footrule_drift", "borda_drift"
    )
