"""The CI load gate: run ``repro loadgen`` configs and enforce thresholds.

Two passes over the same seeded workload generator:

1. **scale** — ``--phones`` (default 10000) against the concurrent
   server with a small simulated I/O delay; gates sustained req/s and
   p99 handler latency, and requires *every* session to complete with
   zero error replies and zero idempotent-replay mismatches (the
   correctness half of the gate, fully deterministic under the seed);
2. **speedup** — a smaller population with a heavier I/O delay, run
   through both the concurrent server and the single-threaded baseline;
   gates the throughput ratio (the acceptance criterion: the concurrent
   server must sustain at least ``--min-speedup``× the sequential rate).

Writes ``BENCH_loadgen.json`` in the canonical gate schema that
``compare_bench.py`` diffs against the committed baseline in
``benchmarks/baselines/``. Absolute thresholds here are deliberately
lenient (they catch catastrophic breakage on any runner); the
regression comparison against the baseline is the tighter screw.

Usage::

    python benchmarks/loadgen_gate.py                 # CI defaults
    python benchmarks/loadgen_gate.py --phones 2000   # quicker local run
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--phones", type=int, default=10000)
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--min-rps", type=float, default=300.0)
    parser.add_argument("--max-p99-ms", type=float, default=100.0)
    parser.add_argument("--min-speedup", type=float, default=5.0)
    parser.add_argument("--out", type=Path, default=Path("BENCH_loadgen.json"))
    args = parser.parse_args(argv)

    from repro.sim.loadgen import (
        LoadgenSpec,
        format_report,
        run_comparison,
        run_loadgen,
    )

    failures: list[str] = []

    # -- pass 1: scale -------------------------------------------------
    scale_spec = LoadgenSpec(
        phones=args.phones,
        seed=args.seed,
        mode="concurrent",
        clients=8,
        workers=8,
        queue_capacity=64,
        io_delay_s=0.0002,
    )
    scale = run_loadgen(scale_spec)
    print(format_report(scale))
    print()
    if scale.sessions_completed != args.phones:
        failures.append(
            f"scale: only {scale.sessions_completed}/{args.phones} sessions completed"
        )
    if scale.error_replies:
        failures.append(f"scale: {scale.error_replies} error replies")
    if scale.replay_mismatches:
        failures.append(f"scale: {scale.replay_mismatches} replay mismatches")
    if scale.requests_per_s < args.min_rps:
        failures.append(
            f"scale: {scale.requests_per_s:.0f} req/s below floor {args.min_rps:.0f}"
        )
    if scale.p99_ms > args.max_p99_ms:
        failures.append(
            f"scale: p99 {scale.p99_ms:.1f}ms above ceiling {args.max_p99_ms:.0f}ms"
        )

    # -- pass 2: speedup ----------------------------------------------
    speedup_spec = LoadgenSpec(
        phones=250,
        seed=args.seed,
        mode="concurrent",
        clients=16,
        workers=16,
        queue_capacity=64,
        io_delay_s=0.008,
    )
    concurrent, sequential, speedup = run_comparison(speedup_spec)
    print(
        f"speedup — concurrent {concurrent.requests_per_s:,.0f} req/s vs "
        f"sequential {sequential.requests_per_s:,.0f} req/s = {speedup:.2f}x"
    )
    if speedup < args.min_speedup:
        failures.append(
            f"speedup: {speedup:.2f}x below required {args.min_speedup:.1f}x"
        )

    payload = {
        "metrics": {
            "loadgen_rps": {
                "value": scale.requests_per_s,
                "direction": "higher",
                "tolerance_pct": 30,
            },
            "loadgen_p99_ms": {
                "value": scale.p99_ms,
                "direction": "lower",
                "tolerance_pct": 100,
            },
            "loadgen_speedup": {
                "value": speedup,
                "direction": "higher",
                "tolerance_pct": 25,
            },
        },
        "info": {
            "phones": args.phones,
            "seed": args.seed,
            "workload_digest": scale.workload_digest,
            "requests_ok": scale.requests_ok,
            "sessions_completed": scale.sessions_completed,
            "busy_rejections": scale.busy_rejections,
            "p50_ms": scale.p50_ms,
            "duration_s": scale.duration_s,
            "sequential_rps": sequential.requests_per_s,
        },
    }
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {args.out}")

    if failures:
        print(f"\nload gate FAILED ({len(failures)}):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("load gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
