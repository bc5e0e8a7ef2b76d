"""Ablation sweeps over the design choices the paper leaves implicit.

One parametrized bench runs each sweep of
:mod:`repro.experiments.ablations` exactly once inside
pytest-benchmark's timer (the sweeps repeat and average internally) at
its documented parameters, prints its points, and asserts its claim:

* ``sigma`` — a wider coverage kernel covers more time per measurement,
  so greedy coverage rises with σ ∈ {2,5,10,30,60} s;
* ``online`` — scheduling each user the moment they scan (the paper's
  online scheduler) never beats offline greedy materially, and the
  price stays small;
* ``multikernel`` — for an application sensing a slow (σ = 60 s) and a
  fast (σ = 5 s) feature in the same bursts, the blended per-feature
  objective beats either single kernel on the blend;
* ``objective`` — the per-user objective (eq. 2) and the pooled one the
  paper solves (eq. 4) each win on their own metric, and the per-user
  greedy pays a real pooled-coverage price;
* ``spam`` — against one reversed spam ranking of weight 3 and honest
  weight 5, the median-like footrule aggregation drifts less than the
  mean-like Borda count (the paper's reason for Kemeny, its ref [7]);
* ``aggregation`` — footrule aggregation stays within its 2× guarantee
  of the exact Kemeny optimum, and local-search refinement never hurts.

The numpy-vs-reference backend gate stays in
``bench_ablation_lazy_greedy.py``, whose id is a ``BENCH_bench.json``
key.
"""

import pytest

from repro.experiments.ablations import (
    run_aggregation_ablation,
    run_multikernel_ablation,
    run_objective_ablation,
    run_online_ablation,
    run_sigma_ablation,
    run_spam_resistance_ablation,
)


def _sigma_claim(points):
    coverages = [point.greedy_coverage for point in points]
    assert coverages == sorted(coverages)


def _online_claim(points):
    for point in points:
        assert 0.80 <= point.ratio <= 1.02, point


def _multikernel_claim(points):
    blended = next(p for p in points if p.strategy == "blended kernels")
    for point in points:
        assert blended.blended_value >= point.blended_value - 1e-6, point


def _objective_claim(means):
    assert means["pooled_by_pooled"] >= means["perusr_by_pooled"]
    assert means["perusr_by_perusr"] >= means["pooled_by_perusr"] - 1e-6
    assert means["perusr_by_pooled"] < means["pooled_by_pooled"] * 0.95


def _spam_claim(points):
    minority = next(point for point in points if point.spam_weight == 3)
    assert minority.footrule_drift <= minority.borda_drift + 1e-9


def _aggregation_claim(stats):
    assert stats.footrule_ratio <= 2.0
    assert stats.refined_ratio <= stats.footrule_ratio + 1e-9


#: name -> (the sweep at its documented parameters, its claim)
SWEEPS = {
    "sigma": (lambda: run_sigma_ablation(runs=3, seed=0), _sigma_claim),
    "online": (lambda: run_online_ablation(runs=3, seed=0), _online_claim),
    "multikernel": (
        lambda: run_multikernel_ablation(runs=3, seed=0),
        _multikernel_claim,
    ),
    "objective": (
        lambda: run_objective_ablation(runs=3, seed=0),
        _objective_claim,
    ),
    "spam": (
        lambda: run_spam_resistance_ablation(instances=20, seed=0),
        _spam_claim,
    ),
    "aggregation": (
        lambda: run_aggregation_ablation(instances=40, num_items=6, seed=0),
        _aggregation_claim,
    ),
}


@pytest.mark.parametrize("name", list(SWEEPS))
def test_ablation_sweep(benchmark, name):
    run, claim = SWEEPS[name]
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print()  # clear of pytest's dot output
    for point in result if isinstance(result, list) else [result]:
        print(point)
    claim(result)
