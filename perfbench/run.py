"""Run one workload of the SOR benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload schedule_heavy --seed 1 --seconds 30 --trace 0

The program under test is imported from the checkout's ``src/``; the run
fails (exit code 2, no result) when there is none. Every metric named in
``BENCHMARK.json`` is printed by name with its unit — the end-to-end
list with ``--trace 0``, the per-layer list with ``--trace 1`` — and the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``error_rate`` is printed with
them but is not a listed metric: it must be 0, and the result line
carries it as ``failed`` / ``attempted``. A result file with the
environment, the load model and workload rationale from
``perfbench/rationale.json``, the checks and per-round detail is written
to ``perfbench/results/``; a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one SOR benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def _environment() -> dict[str, object]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """Run one workload, print its metrics and write its result file."""
    from sorbench.bench import run
    from sorbench.layers import UNATTRIBUTED_TOLERANCE
    from sorbench.stats import tail

    workdir = HERE / ".work"
    try:
        result = run(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    values = result.per_layer() if trace else result.end_to_end()
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics in BENCHMARK.json were not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    environment = _environment()
    rationale = json.loads((HERE / "rationale.json").read_text())
    latency_tail = tail(result.latencies_ms())

    print(
        f"perfbench {workload} seed={seed} trace={int(trace)} "
        + " ".join(f"{key}={value}" for key, value in environment.items())
    )
    print(f"workload digest {result.digest}; {len(result.rounds)} rounds")
    groups = [len(group) for group in result.latency_groups()]
    print(
        f"latency_p50_ms and latency_p99_ms: medians over {len(groups)} groups "
        f"of {min(groups, default=0)}-{max(groups, default=0)} samples"
    )
    if latency_tail is not None:
        print(
            f"latency tail: p{latency_tail.percentile:g} = {latency_tail.value:.3f} ms "
            f"({latency_tail.beyond} of {latency_tail.count} samples beyond it)"
        )
    print(f"requests attempted {result.attempted}, failed {result.failed}")
    print(f"error_rate {result.failed / result.attempted:.6g} fraction")
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}")
    for r in result.rounds:
        for failure in r.failures[:5]:
            print(f"FAILED REQUEST: {failure}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment,
        "load_model": rationale["load_model"],
        "rationale": rationale["workloads"][workload],
        "digest": result.digest,
        "correct": result.correct,
        "problems": result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "latency_tail": vars(latency_tail) if latency_tail is not None else None,
        "latency_group_samples": groups,
        "setups_s": result.setups,
        "metrics": metrics,
        "rounds": [
            {k: v for k, v in vars(r).items() if k not in ("latencies_ns", "failures")}
            | {"failures": r.failures[:20]}
            for r in result.rounds
        ],
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    if result.layers is not None:
        record["unattributed_tolerance"] = UNATTRIBUTED_TOLERANCE
        record["layer_samples"] = result.layers.samples()
        record["background_us"] = {
            layer: ns / 1e3 for layer, ns in result.layers.background_ns.items()
        }
        with gzip.open(results / f"{stem}-spans.json.gz", "wt", compresslevel=1) as handle:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "span_id", "parent_id", "request_id"],
                    "spans": result.spans,
                },
                handle,
            )
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from sorbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    summary = run_one(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
