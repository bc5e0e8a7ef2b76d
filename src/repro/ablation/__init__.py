"""Automated ablation harness: leave-one-out matrix over the on/off
components (stochastic sampling, ranking cache, concurrency,
resilience, durability), a pinned-seed benchmark slate, and a ranked
component-importance report gated against the committed floors. See
docs/ABLATION.md.
"""

from repro.ablation.benches import (
    DEFAULT_BENCHES,
    BenchResult,
    stochastic_greedy_kwargs,
    system_kwargs,
)
from repro.ablation.registry import (
    SWITCHES,
    AblationConfig,
    Switch,
    enumerate_configs,
)
from repro.ablation.report import (
    EFFECT_PREFIX,
    format_report,
    render,
    to_bench_json,
)
from repro.ablation.runner import (
    AblationReport,
    ComponentImportance,
    ConfigResult,
    effect_ratio,
    run_ablation,
)

__all__ = [
    "AblationConfig",
    "AblationReport",
    "BenchResult",
    "ComponentImportance",
    "ConfigResult",
    "DEFAULT_BENCHES",
    "EFFECT_PREFIX",
    "SWITCHES",
    "Switch",
    "effect_ratio",
    "enumerate_configs",
    "format_report",
    "render",
    "run_ablation",
    "stochastic_greedy_kwargs",
    "system_kwargs",
    "to_bench_json",
]
