"""Ablation — the vectorized scheduling backend vs the scalar reference.

Both backends run the same exact greedy and produce byte-identical
schedules; this bench pins the headline speedup of the numpy core on a
1000-instant horizon, where the reference re-walks every instant's
kernel window per pick (the paper-literal O(N²) loop) and the numpy
objective answers each pick from its maintained gains array.
"""

from benchmarks._ablation_common import print_table, record, run_once
from repro.experiments.ablations import run_backend_ablation


def test_ablation_backend_1000_instants(benchmark):
    """Numpy vs reference on a 1000-instant horizon.

    The acceptance bar: the vectorized backend beats the scalar
    reference by ≥10× at 1000 instants (it lands nearer 50–100×) and
    produces the identical schedule.
    """
    point = run_once(
        benchmark,
        lambda: run_backend_ablation(
            instant_counts=(1000,), users=50, budget=20, sigma=100.0
        )[0],
    )
    print_table(
        [
            ("reference (s)", ">14.4f"),
            ("numpy (s)", ">10.4f"),
            ("speedup", ">8.1f"),
        ],
        [(point.reference_seconds, point.numpy_seconds, point.speedup)],
    )
    assert point.identical_schedules
    assert point.speedup >= 10.0
    record(
        benchmark,
        reference_seconds=point.reference_seconds,
        numpy_seconds=point.numpy_seconds,
        speedup=point.speedup,
    )
