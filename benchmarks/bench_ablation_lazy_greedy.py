"""Ablation — the vectorized scheduling objective vs the scalar oracle.

Greedy's one exact loop runs over both and produces byte-identical
schedules; this bench pins the headline speedup of the numpy core on a
1000-instant horizon, where the oracle re-walks every instant's kernel
window per pick (the paper-literal O(N²) loop) and the numpy objective
answers each pick from its maintained gains array. The other ablation
sweeps live in ``bench_ablation_sweeps.py``.
"""

from repro.experiments.ablations import run_backend_ablation


def test_ablation_backend_1000_instants(benchmark):
    """Numpy objective vs scalar oracle on a 1000-instant horizon.

    The acceptance bar: greedy over the vectorized objective beats
    greedy over the scalar oracle by ≥10× at 1000 instants (it lands
    nearer 50–100×) and produces the identical schedule.
    """
    point = benchmark.pedantic(
        lambda: run_backend_ablation(
            instant_counts=(1000,), users=50, budget=20, sigma=100.0
        )[0],
        rounds=1,
        iterations=1,
    )
    print(
        f"\nreference {point.reference_seconds:.4f} s  "
        f"numpy {point.numpy_seconds:.4f} s  speedup {point.speedup:.1f}x"
    )
    assert point.identical_schedules
    assert point.speedup >= 10.0
    benchmark.extra_info.update(
        reference_seconds=point.reference_seconds,
        numpy_seconds=point.numpy_seconds,
        speedup=point.speedup,
    )
