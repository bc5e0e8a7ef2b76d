"""Direct field-test simulation: phones at a place → raw bursts → features.

This is the algorithm-level reconstruction of the paper's field tests —
the full protocol version (barcode scan, HTTP, server-side scheduling
and decoding) lives in :mod:`repro.server.system`; both paths share this
module's provider wiring and produce equivalent feature data.

Per test: ``phones`` devices are present for the whole window (as in the
paper, where the test crew walked each trail / sat in each shop for the
three hours). The greedy scheduler spreads each phone's sensing budget
over the window; at every scheduled instant the phone takes one burst
per required sensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.common.clock import ManualClock
from repro.common.errors import ValidationError
from repro.core.features import FeaturePipeline
from repro.core.features.types import ReadingBurst
from repro.core.scheduling import (
    GaussianKernel,
    GreedyScheduler,
    MobileUser,
    SchedulingPeriod,
    SchedulingProblem,
)
from repro.sensors import (
    NEXUS4_SENSORS,
    SENSORDRONE_SENSORS,
    GpsProvider,
    ScalarProvider,
    VectorProvider,
)
from repro.sensors.provider import Provider
from repro.sim.mobility import TrailWalker
from repro.sim.places import PlaceProfile
from repro.sim.scenarios import FIELD_TEST_END_S, FIELD_TEST_START_S

_WALK_CADENCE_HZ = 2.0  # footfalls per second driving the accelerometer


@dataclass(frozen=True)
class BurstSettings:
    """How many readings one burst takes and how far apart."""

    count: int = 5
    interval_s: float = 1.0

    def __post_init__(self) -> None:
        if self.count <= 0 or self.interval_s < 0:
            raise ValidationError("invalid burst settings")


@dataclass(frozen=True)
class FieldTestConfig:
    """Parameters of one simulated field test."""

    start_s: float = FIELD_TEST_START_S
    end_s: float = FIELD_TEST_END_S
    phones: int = 7
    budget: int = 40
    num_instants: int = 1080
    scheduling_sigma_s: float = 60.0
    pace_m_per_s: float = 1.3
    burst: BurstSettings = field(default_factory=BurstSettings)
    gps_burst: BurstSettings = field(default_factory=lambda: BurstSettings(13, 3.0))
    # Accelerometers sample at tens of Hz; a 1 Hz burst would alias the
    # ~2 Hz stride cadence to a constant and miss the roughness entirely.
    accel_burst: BurstSettings = field(default_factory=lambda: BurstSettings(60, 0.025))

    def __post_init__(self) -> None:
        if self.end_s <= self.start_s:
            raise ValidationError("field test must end after it starts")
        if self.phones <= 0 or self.budget <= 0 or self.num_instants <= 0:
            raise ValidationError("phones, budget and num_instants must be positive")


@dataclass
class FieldTestResult:
    """Everything one simulated field test produced."""

    place_id: str
    features: dict[str, float]
    bursts_by_sensor: dict[str, list[ReadingBurst]]
    energy_by_phone_mj: dict[str, float]
    schedule_average_coverage: float


def _accelerometer_signal(
    place: PlaceProfile, phase: float
) -> "callable":
    """The (x, y, z) felt by a phone carried at this place.

    Walking shakes the phone at the stride cadence with an amplitude set
    by the trail's surface roughness (rockier ⇒ stronger jolts); the
    amplitude is scaled so the within-burst magnitude deviation matches
    ``surface_roughness``. A phone on a coffee-shop table barely moves.
    """
    amplitude = place.surface_roughness * math.sqrt(2.0)

    def signal(t: float) -> tuple[float, float, float]:
        shake = amplitude * math.sin(2.0 * math.pi * _WALK_CADENCE_HZ * t + phase)
        return (0.2 * shake, 0.2 * shake, 9.81 + shake)

    return signal


def build_providers(
    place: PlaceProfile,
    sensor_types: set[str],
    clock: ManualClock,
    rng: np.random.Generator,
    *,
    walker: TrailWalker | None = None,
    phase: float = 0.0,
) -> dict[str, Provider]:
    """Construct one phone's providers for the required sensors."""
    specs = {**NEXUS4_SENSORS, **SENSORDRONE_SENSORS}
    providers: dict[str, Provider] = {}
    for sensor_type in sorted(sensor_types):
        if sensor_type not in specs:
            raise ValidationError(f"unknown sensor type {sensor_type!r}")
        spec = specs[sensor_type]
        if sensor_type == "gps":
            if walker is None:
                raise ValidationError("gps sensing needs a walker")
            providers[sensor_type] = GpsProvider(
                spec, clock, rng, walker.position, fix_error_m=1.5
            )
        elif sensor_type == "accelerometer":
            providers[sensor_type] = VectorProvider(
                spec, clock, rng, _accelerometer_signal(place, phase)
            )
        else:
            providers[sensor_type] = ScalarProvider(
                spec, clock, rng, place.signal(sensor_type).value
            )
    return providers


def run_field_test(
    place: PlaceProfile,
    pipeline: FeaturePipeline,
    config: FieldTestConfig,
    rng: np.random.Generator,
) -> FieldTestResult:
    """Simulate one field test at ``place`` and compute its features."""
    period = SchedulingPeriod(config.start_s, config.end_s, config.num_instants)
    users = [
        MobileUser(
            user_id=f"{place.place_id}-phone-{index}",
            arrival=config.start_s,
            departure=config.end_s,
            budget=config.budget,
        )
        for index in range(config.phones)
    ]
    problem = SchedulingProblem(
        period, users, GaussianKernel(sigma=config.scheduling_sigma_s)
    )
    schedule = GreedyScheduler().solve(problem)

    needed = pipeline.required_sensors
    bursts_by_sensor: dict[str, list[ReadingBurst]] = {sensor: [] for sensor in needed}
    energy_by_phone: dict[str, float] = {}
    for index, user in enumerate(users):
        clock = ManualClock(start=config.start_s)
        walker = None
        if place.trail is not None:
            mode = "loop" if place.trail.is_loop else "ping_pong"
            # Stagger hikers along the trail so traces differ.
            walker = TrailWalker(
                place.trail,
                pace_m_per_s=config.pace_m_per_s,
                start_time=config.start_s - index * 120.0,
                mode=mode,
            )
        providers = build_providers(
            place,
            needed,
            clock,
            np.random.default_rng(rng.integers(0, 2**63)),
            walker=walker,
            phase=float(index),
        )
        for sense_time in schedule.times_for(user.user_id):
            if sense_time > clock.now():
                clock.set(sense_time)
            for sensor_type in sorted(needed):
                if sensor_type == "gps":
                    settings = config.gps_burst
                elif sensor_type == "accelerometer":
                    settings = config.accel_burst
                else:
                    settings = config.burst
                burst = providers[sensor_type].acquire_burst(
                    settings.count, settings.interval_s
                )
                bursts_by_sensor[sensor_type].append(
                    ReadingBurst(
                        timestamp=burst.timestamp,
                        duration_s=burst.duration_s,
                        values=burst.values,
                        source=user.user_id,
                    )
                )
        energy_by_phone[user.user_id] = sum(
            provider.energy_consumed_mj for provider in providers.values()
        )
    features = pipeline.compute(bursts_by_sensor)
    return FieldTestResult(
        place_id=place.place_id,
        features=features,
        bursts_by_sensor=bursts_by_sensor,
        energy_by_phone_mj=energy_by_phone,
        schedule_average_coverage=schedule.average_coverage,
    )
