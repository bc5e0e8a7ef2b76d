"""Fig. 14(b) — average coverage probability vs sensing budget.

The paper's setup: 40 users, budget swept 15…25 (step 1), 10 runs per
point. Expected shape: both curves rise with budget; greedy dominates by
a wide margin throughout.
"""

from repro.experiments.fig14_scheduling import format_sweep, run_fig14b


def test_fig14b_coverage_vs_budget(benchmark, request):
    runs = request.config.getoption("--paper-runs")
    result = benchmark.pedantic(
        lambda: run_fig14b(runs=runs, seed=0),
        rounds=1,
        iterations=1,
    )
    print()
    print(
        format_sweep(
            result,
            f"Fig. 14(b) — coverage vs budget ({runs} runs/point)",
        )
    )
    for point in result.points:
        assert point.greedy_mean > point.baseline_mean
    greedy = [point.greedy_mean for point in result.points]
    assert greedy == sorted(greedy)
    benchmark.extra_info["greedy_series"] = result.greedy_series()
    benchmark.extra_info["baseline_series"] = result.baseline_series()
    benchmark.extra_info["mean_improvement"] = result.mean_improvement
