"""The switch matrix behind ``repro ablate``.

A :class:`Switch` names one injectable component of the system. Every
switch is on/off: ``True`` is the component present, as production runs
it, and ``False`` is the component removed or replaced by the naive
alternative. :func:`enumerate_configs` builds the baseline configuration
(every switch on) plus one leave-one-out *twin* per selected switch; the
runner (:mod:`repro.ablation.runner`) executes the benchmark slate on
every configuration and attributes the performance difference of each
twin to its switch.

Switches are *declarative*: a switch carries the name of the primary
metric that measures its contribution and whether lower or higher is
better, so adding a component to the ablation matrix is one
:data:`SWITCHES` entry, the cell that reads its boolean, and its floor in
``benchmarks/baselines/BENCH_ablation.json`` (see docs/ABLATION.md).
``behavior_preserving`` switches additionally promise that ablating them
changes *only* performance — the runner cross-checks the result digests
of the baseline and the twin and fails loudly if they diverge. An
approximate component (stochastic-greedy sampling) declares its weaker
guarantee by *not* setting the flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.common.errors import AblationError


@dataclass(frozen=True)
class Switch:
    """One on/off component and how to measure its worth.

    ``primary_metric`` names the slate metric that isolates this
    component (``direction`` says whether lower or higher is better).
    Its effect ratio is gated as ``ablation_effect_<name>`` against the
    floor committed in ``benchmarks/baselines/BENCH_ablation.json``.
    """

    name: str
    description: str
    primary_metric: str
    direction: str = "lower"
    behavior_preserving: bool = False

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise AblationError(f"bad switch name {self.name!r}")
        if self.direction not in ("lower", "higher"):
            raise AblationError(
                f"switch {self.name!r}: direction must be 'lower' or 'higher'"
            )


@dataclass(frozen=True)
class AblationConfig:
    """One cell of the leave-one-out matrix.

    ``values`` maps every switch name to whether its component is on in
    this configuration; ``ablated`` names the one switch this twin
    flips (``None`` for the baseline configuration).
    """

    name: str
    values: Mapping[str, bool]
    ablated: str | None = None


#: The production switch matrix, in enumeration order. The cells in
#: :mod:`repro.ablation.benches` turn each boolean into the
#: ``GreedyScheduler`` / ``SensingServer`` / ``SORSystem`` constructor
#: keyword it toggles, and the injection tests assert the round trip.
SWITCHES: tuple[Switch, ...] = (
    Switch(
        name="stochastic",
        description="stochastic-greedy sampled picks vs the exact "
        "sweep on the long-horizon scheduling cell "
        "(approximate by design: schedules differ from exact greedy, "
        "so no behavior digest is promised)",
        primary_metric="scheduling_stochastic_seconds",
    ),
    Switch(
        name="ranking_cache",
        description="versioned ranking cache vs running the full "
        "Algorithm 2 pipeline on every rank query",
        primary_metric="ranking_seconds",
        behavior_preserving=True,
    ),
    Switch(
        name="concurrency",
        description="concurrent callers behind the admission gate "
        "vs the single-threaded server",
        primary_metric="loadgen_seconds",
        behavior_preserving=True,
    ),
    Switch(
        name="resilient",
        description="retrying resilient client vs bare sends on a "
        "lossy network (importance = data actually delivered)",
        primary_metric="fieldtest_raw_rows",
        direction="higher",
    ),
    Switch(
        name="durability",
        description="write-ahead log + checkpoints vs a purely "
        "in-memory database (importance = rows recovered after a "
        "crash/restart of the field-test server)",
        primary_metric="fieldtest_recovered_rows",
        direction="higher",
    ),
)


def enumerate_configs(
    switches: Sequence[Switch] = SWITCHES,
    components: Sequence[str] | None = None,
    invert: str | None = None,
) -> list[AblationConfig]:
    """The baseline plus one leave-one-out twin per selected switch.

    Every configuration holds every switch: the baseline has them all
    on, and each twin turns exactly one off. ``components`` only
    chooses which twins run (``None`` = all, in ``switches`` order).
    ``invert`` deliberately builds a *wrong* matrix — that switch is off
    in the baseline and its twin turns it on — so its measured
    importance inverts; the CI ``ablation-smoke`` job uses it to show
    that the importance gate fails when a component stops winning.
    Unknown or duplicate names and an empty selection raise
    :class:`AblationError` before anything runs.
    """
    names = [switch.name for switch in switches]
    if len(set(names)) != len(names):
        raise AblationError(f"duplicate switch names in {names}")
    wanted = list(names if components is None else components)
    for name in wanted + ([invert] if invert is not None else []):
        if name not in names:
            raise AblationError(
                f"unknown switch {name!r}; registered: {', '.join(names)}"
            )
    if not wanted:
        raise AblationError("cannot enumerate an empty switch selection")
    baseline = {name: name != invert for name in names}
    configs = [AblationConfig(name="baseline", values=baseline)]
    for name in names:
        if name in wanted:
            configs.append(
                AblationConfig(
                    name=f"no-{name}",
                    values={**baseline, name: not baseline[name]},
                    ablated=name,
                )
            )
    return configs
