"""Command-line interface: reproduce any paper artefact from the shell.

Usage::

    python -m repro table1            # Table I rankings
    python -m repro fig14a --runs 10  # Fig. 14(a) sweep
    python -m repro all               # everything, in paper order
    python -m repro obs               # end-to-end run + metrics dump
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Callable

from repro.experiments.fig6_trail_features import format_fig6, run_fig6
from repro.experiments.fig10_shop_features import format_fig10, run_fig10
from repro.experiments.fig14_scheduling import (
    format_sweep,
    run_fig14a,
    run_fig14b,
)
from repro.experiments.table1_trail_rankings import format_table1, run_table1
from repro.experiments.table2_shop_rankings import format_table2, run_table2

if TYPE_CHECKING:
    from repro.sim.faults import FaultReport


def _cmd_fig6(args: argparse.Namespace) -> str:
    return format_fig6(run_fig6(seed=args.seed))


def _cmd_fig10(args: argparse.Namespace) -> str:
    return format_fig10(run_fig10(seed=args.seed))


def _cmd_table1(args: argparse.Namespace) -> str:
    return format_table1(run_table1(seed=args.seed))


def _cmd_table2(args: argparse.Namespace) -> str:
    return format_table2(run_table2(seed=args.seed))


def _cmd_fig14a(args: argparse.Namespace) -> str:
    return format_sweep(
        run_fig14a(runs=args.runs, seed=args.seed),
        f"Fig. 14(a) — coverage vs users ({args.runs} runs/point)",
    )


def _cmd_fig14b(args: argparse.Namespace) -> str:
    return format_sweep(
        run_fig14b(runs=args.runs, seed=args.seed),
        f"Fig. 14(b) — coverage vs budget ({args.runs} runs/point)",
    )


def _cmd_obs(args: argparse.Namespace) -> str:
    """Run the end-to-end experiment and dump the metrics registry.

    The whole protocol (participation, scheduling, uploads, decoding,
    ranking) runs against the process-global registry, so the dump shows
    every instrumented subsystem with real traffic behind it.
    """
    from repro.experiments.end_to_end import run_end_to_end
    from repro.obs import get_metrics, to_dict, to_prometheus_text

    run_end_to_end(seed=args.seed, phones_per_shop=3, budget=10)
    registry = get_metrics()
    if args.format == "json":
        return json.dumps(to_dict(registry), indent=2, sort_keys=True)
    return to_prometheus_text(registry)


def _cmd_rank(args: argparse.Namespace) -> str:
    """Run the coffee-shop deployment and serve rankings twice.

    The first pass runs the full Algorithm 2 pipeline and fills the
    versioned ranking cache; the second pass repeats the same batch
    query and is served entirely from the cache, which the trailing
    stats line makes visible.
    """
    import numpy as np

    from repro.server import SORSystem
    from repro.sim.scenarios import (
        customer_profiles,
        shop_feature_pipeline,
        syracuse_coffee_shops,
    )

    system = SORSystem(seed=args.seed)
    rng = np.random.default_rng(args.seed)
    for shop in syracuse_coffee_shops(rng):
        system.deploy_place(shop, shop_feature_pipeline())
        for _ in range(3):
            system.deploy_phone(shop.place_id, budget=10)
    system.run()
    profiles = customer_profiles()
    system.process_and_rank("coffee_shop", profiles)
    reports = system.server.ranker.rank_many("coffee_shop", profiles)
    names = {
        place_id: deployed.place.name
        for place_id, deployed in system.places.items()
    }
    lines = ["Personalizable rankings — coffee_shop"]
    for profile_name, report in reports.items():
        placed = " > ".join(names[place] for place in report.ranking.items)
        lines.append(
            f"{profile_name:<8}{placed}   "
            f"(footrule {report.weighted_footrule:.1f}, "
            f"kemeny {report.weighted_kemeny:.1f})"
        )
    cache = system.server.ranking_cache
    lines.append(
        f"data_version {system.server.ranker.data_version('coffee_shop')}; "
        f"cache: {cache.hits} hits, {cache.misses} misses, "
        f"{cache.evictions} evictions"
    )
    return "\n".join(lines)


def _fault_output(report: FaultReport, fmt: str) -> str:
    """Render a fault report; exit 1 when its audit fails.

    CI runs the fault presets as gates, so a broken promise (lost,
    duplicated or undelivered data) must fail the process.
    """
    from repro.sim.faults import format_fault_report

    if fmt == "json":
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    else:
        text = format_fault_report(report)
    if not report.data_intact:
        print(text, file=sys.stderr)
        raise SystemExit(1)
    return text


def _cmd_crash(args: argparse.Namespace) -> str:
    """Kill the field test's server mid-run and report what survived.

    With durability on (the default) the verdict should be INTACT;
    ``--no-durability`` shows the same kills destroying acknowledged
    state, and exits 1.
    """
    import tempfile

    from repro.db import DurabilityConfig
    from repro.net import NetworkConditions
    from repro.sim.faults import run_field_faults

    with tempfile.TemporaryDirectory(prefix="sor-crash-") as tmp:
        durability = (
            None
            if args.no_durability
            else DurabilityConfig(
                directory=args.durability_dir or tmp, checkpoint_every_records=40
            )
        )
        report = run_field_faults(
            network=NetworkConditions(),
            kills=args.kills,
            seed=args.seed,
            durability=durability,
        )
    return _fault_output(report, args.format)


def _given(value: int | None, default: int) -> int:
    """A fleet-shape flag's value, or the running command's own default."""
    return default if value is None else value


def _cmd_loadgen(args: argparse.Namespace) -> str:
    """Drive the in-process sensing server with a reproducible load mix.

    ``--mode compare`` runs the same seeded workload through the
    concurrent server and the single-threaded baseline and reports the
    throughput ratio — the number the CI load gate asserts on.
    """
    from repro.sim.loadgen import (
        LoadgenSpec,
        format_report,
        run_comparison,
        run_loadgen,
    )

    categories = _given(args.categories, 1)
    if args.places:
        places = args.places
    else:
        # Auto-size: the spec requires places to be a multiple of
        # categories with at least two places per category to rank.
        per_category = max(2, -(-8 // categories))
        places = per_category * categories
    spec = LoadgenSpec(
        phones=_given(args.phones, 10000),
        seed=args.seed,
        mode="concurrent" if args.mode == "compare" else args.mode,
        clients=args.clients,
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        io_delay_s=args.io_delay_ms / 1000.0,
        places=places,
        shards=_given(args.shards, 1),
        replicas=args.replicas,
        categories=categories,
    )
    if args.mode == "compare":
        concurrent, sequential, speedup = run_comparison(spec)
        if args.format == "json":
            return json.dumps(
                {
                    "concurrent": concurrent.to_dict(),
                    "sequential": sequential.to_dict(),
                    "speedup": speedup,
                },
                indent=2,
                sort_keys=True,
            )
        return "\n\n".join(
            [
                format_report(concurrent),
                format_report(sequential),
                f"concurrent/sequential speedup: {speedup:.2f}x",
            ]
        )
    report = run_loadgen(spec)
    if args.format == "json":
        return json.dumps(report.to_dict(), indent=2, sort_keys=True)
    return format_report(report)


def _cmd_ablate(args: argparse.Namespace) -> str:
    """Run the leave-one-out ablation matrix and rank the components.

    ``--out`` additionally writes the canonical gate document
    (``ablation_effect_<switch>`` metrics) that
    ``benchmarks/compare_bench.py`` checks against the committed
    floors; ``--invert SWITCH`` deliberately runs the baseline with that
    switch off and its twin with it on, so its measured importance
    inverts — the CI job uses it to prove the gate fails when a
    component stops winning. Bad ``--components``, ``--invert`` or
    ``--repeat`` values exit 2 with one line on stderr before any cell
    runs.
    """
    from pathlib import Path

    from repro.ablation import (
        enumerate_configs,
        render,
        run_ablation,
        to_bench_json,
    )
    from repro.common.errors import AblationError

    components = (
        tuple(name.strip() for name in args.components.split(",") if name.strip())
        if args.components is not None
        else None
    )
    try:
        if args.repeat < 1:
            raise AblationError("--repeat must be at least 1")
        enumerate_configs(components=components, invert=args.invert)
    except AblationError as error:
        print(f"repro ablate: error: {error}", file=sys.stderr)
        raise SystemExit(2) from None
    report = run_ablation(
        seed=args.seed,
        repeat=args.repeat,
        components=components,
        invert=args.invert,
    )
    if args.out:
        Path(args.out).write_text(
            json.dumps(to_bench_json(report), indent=2, sort_keys=True) + "\n"
        )
    fmt = "table" if args.format == "text" else args.format
    return render(report, fmt)


def _cmd_shardchaos(args: argparse.Namespace) -> str:
    """Kill shard primaries mid-run (repeatedly) and audit acked data.

    Drives the loadgen protocol mix through the shard router under 20%
    loss per leg and runs ``--kills`` kill→promote→reseed cycles: the
    first hard-kills ``--kill-shard``'s primary and durably promotes
    its WAL-fed replica; with ``--kills 2`` or more, the second kill
    hits the *same shard again* — the freshly promoted primary — and
    lands mid-reseed via a crash hook; later kills walk the remaining
    shards. Ends by killing the victim's promoted primary once more and
    recovering it from its re-attached WAL, then reports whether every
    acked schedule and upload survived.
    """
    from repro.net import NetworkConditions
    from repro.sim.faults import run_fleet_faults
    from repro.sim.loadgen import LoadgenSpec

    fleet = LoadgenSpec(
        phones=_given(args.phones, 120),
        seed=args.seed,
        workers=2,
        io_delay_s=0.0005,
        places=16,
        shards=_given(args.shards, 4),
        replicas=args.replicas,
        categories=_given(args.categories, 8),
    )
    report = run_fleet_faults(
        fleet,
        network=NetworkConditions(
            base_latency_s=0.0,
            jitter_s=0.0,
            drop_probability=0.2,
            response_drop_probability=0.2,
        ),
        kills=args.kills,
        kill_shard=args.kill_shard,
    )
    return _fault_output(report, args.format)


_COMMANDS: dict[str, Callable[[argparse.Namespace], str]] = {
    "fig6": _cmd_fig6,
    "table1": _cmd_table1,
    "fig10": _cmd_fig10,
    "table2": _cmd_table2,
    "fig14a": _cmd_fig14a,
    "fig14b": _cmd_fig14b,
    "obs": _cmd_obs,
    "rank": _cmd_rank,
    "crash": _cmd_crash,
    "loadgen": _cmd_loadgen,
    "shardchaos": _cmd_shardchaos,
    "ablate": _cmd_ablate,
}


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse parser for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the SOR paper's tables and figures.",
    )
    parser.add_argument(
        "artefact",
        choices=sorted(_COMMANDS) + ["all"],
        help="which paper artefact to regenerate",
    )
    parser.add_argument(
        "--seed", type=int, default=2014, help="root random seed (default 2014)"
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=10,
        help="runs per sweep point for fig14a/fig14b (paper: 10)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "table"),
        default="text",
        help="output format for the obs/ablate/loadgen/crash/shardchaos "
        "commands ('text' means 'table' for ablate; default: text)",
    )
    parser.add_argument(
        "--kills",
        type=int,
        default=2,
        help="server kills for the crash command / kill-promote-reseed "
        "cycles for shardchaos (default 2)",
    )
    parser.add_argument(
        "--durability-dir",
        default=None,
        help="where the crash command keeps WAL + checkpoints "
        "(default: a temporary directory)",
    )
    parser.add_argument(
        "--no-durability",
        action="store_true",
        help="run the crash command without the durability layer "
        "(demonstrates data loss)",
    )
    parser.add_argument(
        "--phones",
        type=int,
        default=None,
        help="phone population for loadgen/shardchaos (default 10000 for "
        "loadgen, 120 for shardchaos)",
    )
    parser.add_argument(
        "--mode",
        choices=("concurrent", "sequential", "compare"),
        default="concurrent",
        help="loadgen execution mode; 'compare' runs both and reports "
        "the speedup (default: concurrent)",
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=8,
        help="loadgen driver threads (default 8)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=8,
        help="server worker pool size for loadgen (default 8)",
    )
    parser.add_argument(
        "--queue-capacity",
        type=int,
        default=64,
        help="server admission queue bound for loadgen (default 64)",
    )
    parser.add_argument(
        "--io-delay-ms",
        type=float,
        default=0.2,
        help="simulated per-request socket/disk milliseconds for "
        "loadgen (default 0.2)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard count for loadgen/shardchaos; loadgen with more "
        "than 1 drives a ShardCluster through its router (default 1 "
        "for loadgen, 4 for shardchaos)",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="read-replicas per shard for sharded loadgen/shardchaos "
        "(default 1)",
    )
    parser.add_argument(
        "--categories",
        type=int,
        default=None,
        help="rankable categories the places split into for "
        "loadgen/shardchaos (default 1 for loadgen, 8 for shardchaos)",
    )
    parser.add_argument(
        "--places",
        type=int,
        default=0,
        help="places for loadgen (0 = auto: at least 8, grown so every "
        "category keeps two rankable places)",
    )
    parser.add_argument(
        "--kill-shard",
        type=int,
        default=1,
        help="index of the shard whose primary shardchaos kills "
        "(default 1)",
    )
    parser.add_argument(
        "--components",
        default=None,
        help="comma-separated switch subset for the ablate command "
        "(default: every registered switch)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=2,
        help="timed repetitions per benchmark cell for ablate, "
        "best-of (default 2)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="also write the canonical BENCH_ablation.json gate "
        "document here (ablate command)",
    )
    parser.add_argument(
        "--invert",
        default=None,
        metavar="SWITCH",
        help="run the baseline with SWITCH off and its twin with it on, "
        "to demonstrate an importance inversion failing the gate "
        "(ablate command)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.artefact == "all":
        names = ["fig6", "table1", "fig10", "table2", "fig14a", "fig14b"]
    else:
        names = [args.artefact]
    for name in names:
        if len(names) > 1:
            print(f"\n{'=' * 20} {name} {'=' * 20}")
        # Scheduling figures use seed 0 by convention unless overridden.
        if name.startswith("fig14") and args.seed == 2014:
            args_for = argparse.Namespace(**{**vars(args), "seed": 0})
        else:
            args_for = args
        print(_COMMANDS[name](args_for))
    return 0
