"""Render an :class:`AblationReport` for humans and for the CI gate.

Two consumers, two formats:

* :func:`format_report` — the ``--format table`` text a person reads:
  the ranked importance table plus the raw per-config metrics;
* :func:`to_bench_json` — the canonical metric schema
  ``benchmarks/compare_bench.py`` already understands. Every measured
  switch becomes one ``ablation_effect_<name>`` metric whose value is
  the switch's effect ratio with ``direction: "higher"`` — a component
  whose measured benefit collapses (importance inversion) regresses
  that metric past the tolerance of its committed floor and fails the
  gate, exactly like a slow benchmark fails a perf gate.
"""

from __future__ import annotations

import json
from typing import Any

from repro.ablation.runner import AblationReport

#: Gate metric name prefix; compare_bench treats these like any metric.
EFFECT_PREFIX = "ablation_effect_"


def to_bench_json(report: AblationReport) -> dict[str, Any]:
    """The ``{"metrics": {...}}`` document ``compare_bench.py`` loads.

    Tolerances are left out: ``compare_bench.py`` takes each one from
    the committed floor table, ``benchmarks/baselines/BENCH_ablation.json``.
    """
    return {
        "seed": report.seed,
        "repeat": report.repeat,
        "ranking": [entry.name for entry in report.importance],
        "metrics": {
            f"{EFFECT_PREFIX}{entry.name}": {
                "value": entry.ratio,
                "direction": "higher",
            }
            for entry in report.importance
        },
    }


def format_report(report: AblationReport) -> str:
    """The human-readable ranked importance table."""
    lines = [
        f"ablation matrix: seed={report.seed} repeat={report.repeat} "
        f"configs={len(report.results)}",
        "",
        "component importance (most impactful first):",
    ]
    header = (
        f"  {'rank':>4}  {'component':<14} {'kind':<8} {'ratio':>8}  "
        f"{'baseline':>12} {'ablated':>12}  metric"
    )
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for rank, entry in enumerate(report.importance, start=1):
        lines.append(
            f"  {rank:>4}  {entry.name:<14} {entry.kind:<8} "
            f"{entry.ratio:>8.2f}  {entry.baseline_value:>12.6g} "
            f"{entry.ablated_value:>12.6g}  {entry.primary_metric}"
        )
    lines.append("")
    lines.append("per-config wall seconds:")
    for result in report.results:
        lines.append(
            f"  {result.config.name:<18} {result.wall_seconds:>8.2f}s"
        )
    return "\n".join(lines)


def render(report: AblationReport, fmt: str) -> str:
    """Dispatch ``--format``; unknown formats raise ``ValueError``."""
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2, sort_keys=True)
    if fmt == "table":
        return format_report(report)
    raise ValueError(f"unknown ablation report format {fmt!r}")
