"""The CI sharding gate: prove ranking throughput scales with shards.

Runs the same seeded loadgen workload (heavy on keyless rank queries,
which the shard replicas serve) against three fleet sizes:

1. **1 shard** — the single ``SensingServer`` deployed today, with its
   admission gate deliberately bounded (``workers=1`` plus a simulated
   per-request I/O delay) so one server's capacity is well-defined;
2. **mid fleet** (default 4 shards) — shown for the near-linear curve,
   not gated;
3. **8 shards** — each shard bounded exactly like the single server.

Categories are pinned round-robin across the shards, so the offered
load splits evenly and the measured ratio is shard capacity, not hash
luck. The acceptance criterion is the 1→8 throughput ratio: it must be
at least ``--min-speedup`` (default 5×), and every session must
complete with zero error replies at every fleet size.

Writes ``BENCH_sharding.json`` in the canonical gate schema that
``compare_bench.py`` diffs against the committed baseline in
``benchmarks/baselines/``.

Usage::

    python benchmarks/bench_sharding.py                # CI defaults
    python benchmarks/bench_sharding.py --phones 200   # quicker local run
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--phones", type=int, default=400)
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--shards", type=int, default=8)
    parser.add_argument("--mid-shards", type=int, default=4)
    # Large enough that simulated I/O wait dominates per-request Python
    # CPU — shard count, not the GIL, must be what bounds throughput.
    parser.add_argument("--io-delay-ms", type=float, default=15.0)
    parser.add_argument("--min-speedup", type=float, default=5.0)
    parser.add_argument("--out", type=Path, default=Path("BENCH_sharding.json"))
    args = parser.parse_args(argv)

    from repro.sim.loadgen import LoadgenSpec, format_report, run_loadgen

    # Rank-heavy mix: every other phone sends a keyless rank query, so
    # the replicas' read path carries real load at every fleet size.
    base = LoadgenSpec(
        phones=args.phones,
        seed=args.seed,
        mode="concurrent",
        clients=32,
        workers=1,  # bound one shard's capacity: ~1/io_delay req/s
        queue_capacity=64,
        io_delay_s=args.io_delay_ms / 1000.0,
        places=16,
        categories=8,
        replicas=1,
        rank_every=2,
        shards=1,
    )

    failures: list[str] = []
    reports = {}
    for shards in (1, args.mid_shards, args.shards):
        spec = replace(base, shards=shards)
        report = run_loadgen(spec)
        reports[shards] = report
        print(f"--- {shards} shard(s) ---")
        print(format_report(report))
        print()
        if report.sessions_completed != args.phones:
            failures.append(
                f"{shards} shard(s): only {report.sessions_completed}/"
                f"{args.phones} sessions completed"
            )
        if report.error_replies:
            failures.append(
                f"{shards} shard(s): {report.error_replies} error replies"
            )
        if report.replay_mismatches:
            failures.append(
                f"{shards} shard(s): {report.replay_mismatches} replay "
                "mismatches"
            )

    single = reports[1]
    full = reports[args.shards]
    mid = reports[args.mid_shards]
    speedup = full.requests_per_s / max(single.requests_per_s, 1e-9)
    mid_speedup = mid.requests_per_s / max(single.requests_per_s, 1e-9)
    print(
        f"scaling — 1 shard {single.requests_per_s:,.0f} req/s, "
        f"{args.mid_shards} shards {mid.requests_per_s:,.0f} req/s "
        f"({mid_speedup:.2f}x), {args.shards} shards "
        f"{full.requests_per_s:,.0f} req/s ({speedup:.2f}x)"
    )
    if speedup < args.min_speedup:
        failures.append(
            f"1→{args.shards} shard speedup {speedup:.2f}x below required "
            f"{args.min_speedup:.1f}x"
        )

    payload = {
        "metrics": {
            "sharding_speedup": {
                "value": speedup,
                "direction": "higher",
                "tolerance_pct": 25,
            },
            "sharding_rps": {
                "value": full.requests_per_s,
                "direction": "higher",
                "tolerance_pct": 30,
            },
        },
        "info": {
            "phones": args.phones,
            "seed": args.seed,
            "shards": args.shards,
            "mid_shards": args.mid_shards,
            "io_delay_ms": args.io_delay_ms,
            "workload_digest": full.workload_digest,
            "single_shard_rps": single.requests_per_s,
            "mid_shard_rps": mid.requests_per_s,
            "mid_speedup": mid_speedup,
            "requests_ok": full.requests_ok,
            "sessions_completed": full.sessions_completed,
        },
    }
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {args.out}")

    if failures:
        print(f"\nsharding gate FAILED ({len(failures)}):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("sharding gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
