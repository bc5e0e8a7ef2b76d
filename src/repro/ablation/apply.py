"""Translate switch values into constructor keywords — and back.

This is the *only* place the registry's string vocabulary meets the
``GreedyScheduler`` / ``SensingServer`` / ``SORSystem`` constructor
signatures. The benchmark slate builds its systems through these
helpers, and ``tests/ablation/test_switch_injection.py`` asserts the
round trip (kwargs in, effective values probed back out) for every
leave-one-out configuration — so a registry switch that silently stops
reaching its constructor fails a test instead of quietly measuring
nothing.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping

from repro.common.errors import AblationError
from repro.db import DurabilityConfig
from repro.server.concurrency import ConcurrencyConfig
from repro.server.server import SensingServer
from repro.server.system import SORSystem

from repro.ablation.registry import OFF, ON


def _value(values: Mapping[str, Any], name: str, default: Any) -> Any:
    """Switch value with a default, so partial matrices still apply."""
    return values.get(name, default)


def stochastic_greedy_kwargs(
    values: Mapping[str, Any], *, seed: int = 2014
) -> dict[str, Any]:
    """``GreedyScheduler`` keywords for the long-horizon stochastic cell.

    The ablated value falls back to the exact mode, so the twin is the
    system as it would actually run without sampling.
    """
    value = _value(values, "stochastic", ON)
    if value not in (ON, OFF):
        raise AblationError(f"stochastic must be 'on' or 'off', got {value!r}")
    return {"mode": "stochastic" if value == ON else "exact", "seed": seed}


def server_kwargs(
    values: Mapping[str, Any],
    *,
    durability_dir: str | Path | None = None,
    workers: int = 8,
    queue_capacity: int = 64,
) -> dict[str, Any]:
    """The switch-controlled subset of ``SensingServer`` keywords."""
    kwargs: dict[str, Any] = {
        "ranking_cache": _value(values, "ranking_cache", ON) == ON,
    }
    if _value(values, "durability", "off") == ON:
        if durability_dir is None:
            raise AblationError(
                "durability=on needs a durability_dir for the WAL"
            )
        kwargs["durability"] = DurabilityConfig(directory=durability_dir)
    if _value(values, "concurrency", "sequential") == "pool":
        kwargs["concurrency"] = ConcurrencyConfig(
            workers=workers, queue_capacity=queue_capacity
        )
    return kwargs


def system_kwargs(
    values: Mapping[str, Any],
    *,
    durability_dir: str | Path | None = None,
    workers: int = 8,
    queue_capacity: int = 64,
) -> dict[str, Any]:
    """The switch-controlled subset of ``SORSystem`` keywords."""
    kwargs = server_kwargs(
        values,
        durability_dir=durability_dir,
        workers=workers,
        queue_capacity=queue_capacity,
    )
    kwargs["resilient"] = _value(values, "resilient", ON) == ON
    return kwargs


def effective_stochastic_values(scheduler: Any) -> dict[str, Any]:
    """Probe the stochastic cell's ``GreedyScheduler`` back out."""
    return {"stochastic": ON if scheduler.mode == "stochastic" else OFF}


def effective_server_values(server: SensingServer) -> dict[str, Any]:
    """Probe a ``SensingServer`` back into switch vocabulary.

    Every entry reads an *observable effect* of the constructor keyword
    (the ranker's attached cache, the database's durability manager, the
    admission executor) rather than a stored copy of the keyword — that
    is what makes the round-trip test catch silently ignored knobs.
    """
    return {
        "ranking_cache": ON if server.ranker.cache is not None else "off",
        "durability": ON if server.database.durability is not None else "off",
        "concurrency": "pool" if server._executor is not None else "sequential",
    }


def effective_system_values(system: SORSystem) -> dict[str, Any]:
    """Probe a ``SORSystem`` (via its first server) into switch values."""
    values = effective_server_values(system.server)
    values["resilient"] = (
        ON if system._make_client("probe") is not None else "off"
    )
    return values
