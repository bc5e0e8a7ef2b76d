"""Switch-injection uniformity: every switch reaches its constructor.

Each leave-one-out configuration is applied to the real constructors
through the cells' keyword translations
(:func:`~repro.ablation.benches.stochastic_greedy_kwargs`,
:func:`~repro.ablation.benches.system_kwargs`) and probed back out via
an *observable effect* (the greedy scheduler's mode, the ranker's
attached cache, the database's durability manager, the admission
executor, the resilient client factory). If a constructor ever stops
honoring a knob — or a new switch is added without plumbing — the round
trip breaks here instead of the ablation silently measuring nothing.
"""

from __future__ import annotations

import pytest

from repro.ablation import (
    SWITCHES,
    enumerate_configs,
    stochastic_greedy_kwargs,
    system_kwargs,
)
from repro.common.errors import AblationError
from repro.core.scheduling import GreedyScheduler
from repro.server.system import SORSystem

STOCHASTIC_SWITCHES = ("stochastic",)
SYSTEM_SWITCHES = ("ranking_cache", "durability", "concurrency", "resilient")


def effective_stochastic_values(scheduler: GreedyScheduler) -> dict[str, bool]:
    """Probe the stochastic cell's ``GreedyScheduler`` back out."""
    return {"stochastic": scheduler.mode == "stochastic"}


def effective_system_values(system: SORSystem) -> dict[str, bool]:
    """Probe a ``SORSystem`` (via its first server) into switch values.

    Every entry reads an *observable effect* of the constructor keyword
    rather than a stored copy of it — that is what makes the round trip
    catch silently ignored knobs.
    """
    server = system.server
    return {
        "ranking_cache": server.ranker.cache is not None,
        "durability": server.database.durability is not None,
        "concurrency": server._executor is not None,
        "resilient": system._make_client("probe") is not None,
    }


def _configs():
    return enumerate_configs()


@pytest.mark.parametrize("config", _configs(), ids=lambda c: c.name)
class TestEveryConfigReachesConstructors:
    def test_stochastic_cell_round_trip(self, config):
        scheduler = GreedyScheduler(**stochastic_greedy_kwargs(config.values))
        effective = effective_stochastic_values(scheduler)
        for name in STOCHASTIC_SWITCHES:
            assert effective[name] == config.values[name], name

    def test_sor_system_round_trip(self, config, tmp_path):
        system = SORSystem(
            seed=2014,
            **system_kwargs(config.values, durability_dir=tmp_path),
        )
        try:
            effective = effective_system_values(system)
            for name in SYSTEM_SWITCHES:
                assert effective[name] == config.values[name], name
        finally:
            system.server.close()
            if system.server.database.durability is not None:
                system.server.database.durability.close()


class TestRegistryCoverage:
    def test_every_switch_probed_by_some_round_trip(self):
        """A new switch must be added to a probe set here and in a cell."""
        probed = set(STOCHASTIC_SWITCHES) | set(SYSTEM_SWITCHES)
        assert {switch.name for switch in SWITCHES} <= probed

    def test_every_switch_changes_an_effective_value(self, tmp_path):
        """Ablating any switch flips at least one probed value."""
        baseline = enumerate_configs()[0].values

        def snapshot(values, directory):
            system = SORSystem(
                seed=2014, **system_kwargs(values, durability_dir=directory)
            )
            try:
                effective = effective_system_values(system)
                cell = GreedyScheduler(**stochastic_greedy_kwargs(values))
                effective.update(effective_stochastic_values(cell))
                return effective
            finally:
                system.server.close()
                if system.server.database.durability is not None:
                    system.server.database.durability.close()

        base_dir = tmp_path / "base"
        base_dir.mkdir()
        base_effective = snapshot(baseline, base_dir)
        for index, switch in enumerate(SWITCHES):
            values = {**baseline, switch.name: False}
            directory = tmp_path / f"cfg{index}"
            directory.mkdir()
            effective = snapshot(values, directory)
            assert effective != base_effective, switch.name
            assert effective[switch.name] is False


class TestApplyHelpers:
    def test_durability_requires_directory(self):
        with pytest.raises(AblationError, match="durability_dir"):
            system_kwargs(enumerate_configs()[0].values)

    def test_ablated_stochastic_runs_the_exact_mode(self):
        """The no-stochastic twin runs the system as it would unsampled."""
        assert stochastic_greedy_kwargs({"stochastic": False})["mode"] == "exact"
