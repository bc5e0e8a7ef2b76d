"""Switch-injection uniformity: every registry switch reaches its
constructor.

Each leave-one-out configuration is applied to the real constructors
through :mod:`repro.ablation.apply` and probed back out via an
*observable effect* (the greedy scheduler's mode, the ranker's attached
cache, the database's durability manager, the admission executor, the
resilient client factory). If a constructor ever stops honoring a knob
— or a new switch is registered without plumbing — the round trip
breaks here instead of the ablation silently measuring nothing.
"""

from __future__ import annotations

import pytest

from repro.ablation import (
    default_registry,
    effective_stochastic_values,
    effective_system_values,
    server_kwargs,
    stochastic_greedy_kwargs,
    system_kwargs,
)
from repro.common.errors import AblationError
from repro.core.scheduling import GreedyScheduler
from repro.server.system import SORSystem

STOCHASTIC_SWITCHES = ("stochastic",)
SERVER_SWITCHES = ("ranking_cache", "durability", "concurrency")
SYSTEM_SWITCHES = SERVER_SWITCHES + ("resilient",)


def _configs():
    return default_registry().enumerate_configs()


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
        """A new switch must be added to a probe set here and in apply."""
        probed = set(STOCHASTIC_SWITCHES) | set(SYSTEM_SWITCHES)
        assert set(default_registry().names()) <= probed

    def test_every_switch_changes_an_effective_value(self, tmp_path):
        """Ablating any switch flips at least one probed value."""
        registry = default_registry()
        baseline = registry.baseline_values()

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
        for index, switch in enumerate(registry):
            values = dict(baseline)
            values[switch.name] = switch.ablated
            directory = tmp_path / f"cfg{index}"
            directory.mkdir()
            effective = snapshot(values, directory)
            assert effective != base_effective, switch.name
            assert effective[switch.name] == switch.ablated


class TestApplyHelpers:
    def test_durability_requires_directory(self):
        with pytest.raises(AblationError, match="durability_dir"):
            server_kwargs({"durability": "on"})

    def test_empty_values_mirror_constructor_defaults(self):
        """With no switches set, apply adds nothing the constructors
        would not default to themselves (durability and concurrency stay
        absent, matching the production ``SensingServer`` defaults)."""
        kwargs = system_kwargs({})
        assert kwargs == {"ranking_cache": True, "resilient": True}
        assert stochastic_greedy_kwargs({}) == {
            "mode": "stochastic",
            "seed": 2014,
        }

    def test_bad_stochastic_value_raises(self):
        with pytest.raises(AblationError, match="stochastic"):
            stochastic_greedy_kwargs({"stochastic": "maybe"})

    def test_ablated_stochastic_runs_the_exact_mode(self):
        """The no-stochastic twin runs the system as it would unsampled."""
        assert stochastic_greedy_kwargs({"stochastic": "off"})["mode"] == "exact"
