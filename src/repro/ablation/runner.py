"""Run the leave-one-out matrix and rank component importance.

For every configuration :func:`~repro.ablation.registry.enumerate_configs`
builds, the runner executes the benchmark slate and collects one merged
metric/digest set. Each switch's importance is then read off its
**primary metric**: the *effect ratio* is

* ``ablated / baseline`` when lower is better (how much slower the
  system gets without the component), or
* ``baseline / ablated`` when higher is better (how much more the
  system delivers with it),

so a ratio above 1 means the component helps, below 1 means it costs
(durability, resilience on a clean network), and exactly 1 means it is
dead weight. Components are ranked by ``|ln ratio|`` — the magnitude of
their effect in either direction — which puts a useless component last
regardless of how the helpful and costly ones interleave.

Behavior-preserving switches are cross-checked: every digest key shared
between the baseline result and the ablated twin must match exactly, or
the run fails with :class:`~repro.common.errors.AblationError` — an
ablation that changes *what* is computed is measuring two different
systems, not one component.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Sequence

from repro.ablation.benches import DEFAULT_BENCHES, BenchFn
from repro.ablation.registry import (
    SWITCHES,
    AblationConfig,
    Switch,
    enumerate_configs,
)
from repro.common.errors import AblationError
from repro.obs import MetricsRegistry, get_metrics

#: Ratios within this band of 1.0 are called neutral in the report.
NEUTRAL_BAND = 0.02


@dataclass
class ConfigResult:
    """The merged slate output for one configuration."""

    config: AblationConfig
    metrics: dict[str, float]
    digests: dict[str, str]
    wall_seconds: float

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form for the report's ``configs`` list."""
        return {
            "name": self.config.name,
            "ablated": self.config.ablated,
            "values": dict(self.config.values),
            "metrics": dict(self.metrics),
            "digests": dict(self.digests),
            "wall_seconds": self.wall_seconds,
        }


@dataclass
class ComponentImportance:
    """One switch's measured contribution."""

    name: str
    description: str
    primary_metric: str
    direction: str
    baseline_value: float
    ablated_value: float
    ratio: float
    impact: float
    kind: str  # "speedup" | "cost" | "neutral"

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form for the report's ``importance`` list."""
        return dict(vars(self))


@dataclass
class AblationReport:
    """Everything one ``repro ablate`` run produced."""

    seed: int
    repeat: int
    results: list[ConfigResult]
    importance: list[ComponentImportance]  # ranked, most impactful first

    def to_dict(self) -> dict[str, Any]:
        """The full report as plain JSON-ready data (``--format json``)."""
        return {
            "seed": self.seed,
            "repeat": self.repeat,
            "configs": [result.to_dict() for result in self.results],
            "importance": [entry.to_dict() for entry in self.importance],
        }


def effect_ratio(direction: str, baseline: float, ablated: float) -> float:
    """The component's benefit ratio on its primary metric (see module doc)."""
    if baseline <= 0 or ablated <= 0:
        raise AblationError(
            f"effect ratio needs positive metric values, got "
            f"baseline={baseline!r} ablated={ablated!r}"
        )
    if direction == "higher":
        return baseline / ablated
    return ablated / baseline


def _importance_kind(ratio: float) -> str:
    if ratio > 1.0 + NEUTRAL_BAND:
        return "speedup"
    if ratio < 1.0 - NEUTRAL_BAND:
        return "cost"
    return "neutral"


def _check_behavior_preserved(
    switches: list[Switch],
    baseline: ConfigResult,
    twins: dict[str, ConfigResult],
) -> None:
    for switch in switches:
        if not switch.behavior_preserving:
            continue
        twin = twins[switch.name]
        shared = sorted(set(baseline.digests) & set(twin.digests))
        for key in shared:
            if baseline.digests[key] != twin.digests[key]:
                raise AblationError(
                    f"switch {switch.name!r} is declared behavior-preserving "
                    f"but digest {key!r} diverged: baseline "
                    f"{baseline.digests[key]} vs {twin.config.name} "
                    f"{twin.digests[key]}"
                )


def run_ablation(
    *,
    seed: int = 2014,
    repeat: int = 2,
    components: Sequence[str] | None = None,
    invert: str | None = None,
    switches: Sequence[Switch] = SWITCHES,
    benches: dict[str, BenchFn] | None = None,
    metrics: MetricsRegistry | None = None,
) -> AblationReport:
    """Run the leave-one-out matrix and rank the measured components.

    ``components`` chooses which twins run and ``invert`` flips one
    switch's baseline (see :func:`enumerate_configs`); ``repeat`` is the
    best-of count of every timed cell. Bad arguments raise
    :class:`AblationError` before any cell runs.
    """
    if repeat < 1:
        raise AblationError("repeat must be at least 1")
    configs = enumerate_configs(switches, components, invert)
    benches = benches if benches is not None else DEFAULT_BENCHES
    obs = metrics if metrics is not None else get_metrics()
    m_configs = obs.counter(
        "sor_ablation_configs_total",
        "ablation configurations executed",
    )
    m_bench_seconds = obs.gauge(
        "sor_ablation_bench_seconds",
        "wall seconds of the most recent run of each (config, bench) cell",
        labels=("config", "bench"),
    )
    m_effect = obs.gauge(
        "sor_ablation_effect_ratio",
        "per-switch effect ratio from the most recent ablation run "
        "(>1 the component helps, <1 it costs)",
        labels=("switch",),
    )

    results: list[ConfigResult] = []
    for config in configs:
        merged_metrics: dict[str, float] = {}
        merged_digests: dict[str, str] = {}
        config_started = time.perf_counter()
        for bench_name, bench in benches.items():
            bench_started = time.perf_counter()
            result = bench(config.values, seed=seed, repeat=repeat)
            m_bench_seconds.set(
                time.perf_counter() - bench_started,
                config=config.name,
                bench=bench_name,
            )
            for key, value in result.metrics.items():
                if key in merged_metrics:
                    raise AblationError(
                        f"bench {bench_name!r} re-emits metric {key!r}"
                    )
                merged_metrics[key] = float(value)
            for key, value in result.digests.items():
                if key in merged_digests:
                    raise AblationError(
                        f"bench {bench_name!r} re-emits digest {key!r}"
                    )
                merged_digests[key] = value
        results.append(
            ConfigResult(
                config=config,
                metrics=merged_metrics,
                digests=merged_digests,
                wall_seconds=time.perf_counter() - config_started,
            )
        )
        m_configs.inc()

    baseline = results[0]
    twins = {
        result.config.ablated: result for result in results[1:]
    }
    measured = [switch for switch in switches if switch.name in twins]
    _check_behavior_preserved(measured, baseline, twins)

    importance: list[ComponentImportance] = []
    for switch in measured:
        twin = twins[switch.name]
        metric = switch.primary_metric
        for result in (baseline, twin):
            if metric not in result.metrics:
                raise AblationError(
                    f"switch {switch.name!r}: primary metric {metric!r} "
                    f"missing from {result.config.name} results"
                )
        ratio = effect_ratio(
            switch.direction, baseline.metrics[metric], twin.metrics[metric]
        )
        importance.append(
            ComponentImportance(
                name=switch.name,
                description=switch.description,
                primary_metric=metric,
                direction=switch.direction,
                baseline_value=baseline.metrics[metric],
                ablated_value=twin.metrics[metric],
                ratio=ratio,
                impact=abs(math.log(ratio)),
                kind=_importance_kind(ratio),
            )
        )
        m_effect.set(ratio, switch=switch.name)
    # Most impactful first; exact ties (e.g. several perfectly useless
    # components) break alphabetically so the ranking is deterministic.
    importance.sort(key=lambda entry: (-entry.impact, entry.name))
    return AblationReport(
        seed=seed,
        repeat=repeat,
        results=results,
        importance=importance,
    )
