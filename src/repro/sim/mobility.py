"""Trail geometry and hiker mobility.

A :class:`TrailPath` is a polyline with altitude; a :class:`TrailWalker`
walks it at a given pace and answers "where is the hiker at time t" —
which is exactly what the GPS provider's signal needs. Trail builders
control the geometric properties the field-test features measure:
lateral wiggle (→ curvature) and the altitude profile (→ altitude
change).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.common.errors import ValidationError
from repro.common.geo import LatLon, offset_latlon
from repro.core.features.types import GpsFix


@dataclass(frozen=True)
class TrailPoint:
    """One vertex of the trail in local metres plus altitude."""

    east_m: float
    north_m: float
    altitude_m: float


class TrailPath:
    """A polyline trail anchored at a geographic origin."""

    def __init__(self, origin: LatLon, points: list[TrailPoint]) -> None:
        if len(points) < 2:
            raise ValidationError("a trail needs at least two points")
        self.origin = origin
        self.points = list(points)
        distances = [0.0]
        for previous, current in zip(points, points[1:]):
            step = math.hypot(
                current.east_m - previous.east_m, current.north_m - previous.north_m
            )
            distances.append(distances[-1] + step)
        self._cumulative = distances

    @property
    def length_m(self) -> float:
        return self._cumulative[-1]

    @property
    def is_loop(self) -> bool:
        """Whether the trail closes on itself: its ends lie within 5 % of its length."""
        first, last = self.points[0], self.points[-1]
        return (
            math.hypot(last.east_m - first.east_m, last.north_m - first.north_m)
            < self.length_m * 0.05
        )

    def position_at(self, distance_m: float) -> GpsFix:
        """The point ``distance_m`` along the trail (clamped to its ends)."""
        distance = min(max(distance_m, 0.0), self.length_m)
        # Binary search for the segment containing `distance`.
        low, high = 0, len(self._cumulative) - 1
        while low + 1 < high:
            middle = (low + high) // 2
            if self._cumulative[middle] <= distance:
                low = middle
            else:
                high = middle
        segment_length = self._cumulative[high] - self._cumulative[low]
        fraction = (
            (distance - self._cumulative[low]) / segment_length
            if segment_length > 0
            else 0.0
        )
        start, end = self.points[low], self.points[high]
        east = start.east_m + fraction * (end.east_m - start.east_m)
        north = start.north_m + fraction * (end.north_m - start.north_m)
        altitude = start.altitude_m + fraction * (end.altitude_m - start.altitude_m)
        coordinate = offset_latlon(self.origin, east_m=east, north_m=north)
        return GpsFix(
            latitude=coordinate.latitude,
            longitude=coordinate.longitude,
            altitude_m=altitude,
        )

    @staticmethod
    def build(
        origin: LatLon,
        *,
        length_m: float,
        wiggle_amplitude_m: float,
        wiggle_period_m: float,
        altitude_amplitude_m: float,
        altitude_period_m: float,
        base_altitude_m: float = 150.0,
        point_spacing_m: float = 5.0,
        closed_loop: bool = False,
        rng: np.random.Generator | None = None,
        wiggle_jitter: float = 0.0,
    ) -> "TrailPath":
        """Build a synthetic trail with controlled curvature and relief.

        The trail heads east with a sinusoidal lateral wiggle; larger
        amplitude / shorter period ⇒ higher curvature. ``closed_loop``
        bends the trail around a circle instead (the Green Lake trail
        rings a lake). ``wiggle_jitter`` adds per-vertex lateral noise
        for rocky, irregular trails.
        """
        if length_m <= 0 or point_spacing_m <= 0:
            raise ValidationError("length_m and point_spacing_m must be positive")
        count = max(3, int(length_m / point_spacing_m) + 1)
        positions = np.linspace(0.0, length_m, count)
        points: list[TrailPoint] = []
        for along in positions:
            lateral = (
                wiggle_amplitude_m * math.sin(2.0 * math.pi * along / wiggle_period_m)
                if wiggle_period_m > 0
                else 0.0
            )
            if rng is not None and wiggle_jitter > 0:
                lateral += float(rng.normal(0.0, wiggle_jitter))
            altitude = base_altitude_m + (
                altitude_amplitude_m
                * math.sin(2.0 * math.pi * along / altitude_period_m)
                if altitude_period_m > 0
                else 0.0
            )
            if closed_loop:
                radius = length_m / (2.0 * math.pi)
                angle = along / radius
                east = (radius + lateral) * math.cos(angle)
                north = (radius + lateral) * math.sin(angle)
            else:
                east = along
                north = lateral
            points.append(TrailPoint(east_m=east, north_m=north, altitude_m=altitude))
        return TrailPath(origin, points)


class TrailWalker:
    """A hiker walking a trail at constant pace from ``start_time``.

    ``mode`` controls what happens past the trail end:

    * ``"clamp"`` — stay at the end (a phone parked at the trailhead),
    * ``"loop"`` — wrap around (a loop trail like Green Lake),
    * ``"ping_pong"`` — walk out and back (typical for linear trails).
    """

    _MODES = ("clamp", "loop", "ping_pong")

    def __init__(
        self,
        path: TrailPath,
        pace_m_per_s: float,
        start_time: float = 0.0,
        *,
        mode: str = "clamp",
    ) -> None:
        if pace_m_per_s <= 0:
            raise ValidationError("pace must be positive")
        if mode not in self._MODES:
            raise ValidationError(f"mode must be one of {self._MODES}, got {mode!r}")
        self.path = path
        self.pace_m_per_s = pace_m_per_s
        self.start_time = start_time
        self.mode = mode

    def _effective_distance(self, walked: float) -> float:
        length = self.path.length_m
        if self.mode == "loop":
            return walked % length
        if self.mode == "ping_pong":
            cycle = walked % (2.0 * length)
            return cycle if cycle <= length else 2.0 * length - cycle
        return min(walked, length)

    def position(self, t: float) -> GpsFix:
        """The hiker's GPS position at absolute time ``t``."""
        walked = max(0.0, t - self.start_time) * self.pace_m_per_s
        return self.path.position_at(self._effective_distance(walked))
