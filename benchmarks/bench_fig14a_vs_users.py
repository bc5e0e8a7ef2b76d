"""Fig. 14(a) — average coverage probability vs number of mobile users.

The paper's setup: 3-hour period, 1080 instants, σ = 10 s, budget 17,
users swept 10…50 (step 5), 10 runs per point, baseline = sense every
10 s from arrival. Expected shape: greedy dominates everywhere, reaches
≈0.88 at 40 users where the baseline sits at ≈0.50, and approaches 1.0
toward 50–55 users.
"""

from repro.experiments.fig14_scheduling import format_sweep, run_fig14a


def test_fig14a_coverage_vs_users(benchmark, request):
    runs = request.config.getoption("--paper-runs")
    result = benchmark.pedantic(
        lambda: run_fig14a(runs=runs, seed=0),
        rounds=1,
        iterations=1,
    )
    print()
    print(
        format_sweep(
            result,
            f"Fig. 14(a) — coverage vs users ({runs} runs/point)",
        )
    )
    for point in result.points:
        assert point.greedy_mean > point.baseline_mean
    benchmark.extra_info["greedy_series"] = result.greedy_series()
    benchmark.extra_info["baseline_series"] = result.baseline_series()
    benchmark.extra_info["mean_improvement"] = result.mean_improvement
    benchmark.extra_info["paper_reference"] = (
        "greedy ~0.8+ at 40 users; baseline ~0.5 at 40 users; ~100% by 55 users"
    )
