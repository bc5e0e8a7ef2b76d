"""Automated ablation harness: leave-one-out matrix over the injectable
components (stochastic sampling, ranking cache, concurrency,
resilience, durability), a pinned-seed
benchmark slate, and a ranked component-importance report with CI
gates. See docs/ABLATION.md.
"""

from repro.ablation.apply import (
    effective_server_values,
    effective_stochastic_values,
    effective_system_values,
    server_kwargs,
    stochastic_greedy_kwargs,
    system_kwargs,
)
from repro.ablation.benches import (
    DEFAULT_BENCHES,
    BenchResult,
    BenchScale,
)
from repro.ablation.registry import (
    OFF,
    ON,
    AblationConfig,
    Switch,
    SwitchRegistry,
    default_registry,
)
from repro.ablation.report import (
    EFFECT_PREFIX,
    baseline_bench_json,
    format_report,
    render,
    to_bench_json,
)
from repro.ablation.runner import (
    AblationReport,
    AblationSpec,
    ComponentImportance,
    ConfigResult,
    effect_ratio,
    run_ablation,
)

__all__ = [
    "AblationConfig",
    "AblationReport",
    "AblationSpec",
    "BenchResult",
    "BenchScale",
    "ComponentImportance",
    "ConfigResult",
    "DEFAULT_BENCHES",
    "EFFECT_PREFIX",
    "OFF",
    "ON",
    "Switch",
    "SwitchRegistry",
    "baseline_bench_json",
    "default_registry",
    "effect_ratio",
    "effective_server_values",
    "effective_stochastic_values",
    "effective_system_values",
    "format_report",
    "render",
    "run_ablation",
    "server_kwargs",
    "stochastic_greedy_kwargs",
    "system_kwargs",
    "to_bench_json",
]
