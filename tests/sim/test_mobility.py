"""Tests for trail geometry and walkers."""

import math

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.common.geo import LatLon, haversine_m
from repro.sim import TrailPath, TrailWalker
from repro.sim.mobility import TrailPoint

ORIGIN = LatLon(43.0, -76.0)


def straight_trail(length=100.0, altitude=50.0):
    return TrailPath(
        ORIGIN,
        [
            TrailPoint(0.0, 0.0, altitude),
            TrailPoint(length, 0.0, altitude),
        ],
    )


class TestTrailPath:
    def test_length(self):
        assert straight_trail(250.0).length_m == pytest.approx(250.0)

    def test_position_interpolates(self):
        trail = straight_trail(100.0)
        fix = trail.position_at(50.0)
        start = trail.position_at(0.0)
        distance = haversine_m(
            LatLon(start.latitude, start.longitude),
            LatLon(fix.latitude, fix.longitude),
        )
        assert distance == pytest.approx(50.0, abs=0.1)

    def test_position_clamps(self):
        trail = straight_trail(100.0)
        assert trail.position_at(-10.0) == trail.position_at(0.0)
        assert trail.position_at(500.0) == trail.position_at(100.0)

    def test_altitude_interpolates(self):
        trail = TrailPath(
            ORIGIN,
            [TrailPoint(0, 0, 100.0), TrailPoint(100, 0, 200.0)],
        )
        assert trail.position_at(50.0).altitude_m == pytest.approx(150.0)

    def test_needs_two_points(self):
        with pytest.raises(ValidationError):
            TrailPath(ORIGIN, [TrailPoint(0, 0, 0)])

    def test_build_closed_loop_closes(self):
        trail = TrailPath.build(
            ORIGIN,
            length_m=1000.0,
            wiggle_amplitude_m=0.0,
            wiggle_period_m=0.0,
            altitude_amplitude_m=0.0,
            altitude_period_m=0.0,
            closed_loop=True,
        )
        first, last = trail.points[0], trail.points[-1]
        assert math.hypot(last.east_m - first.east_m, last.north_m - first.north_m) < 5.0
        assert trail.is_loop

    def test_is_loop_needs_ends_within_five_percent_of_length(self):
        assert not straight_trail(100.0).is_loop
        # Out 50 m and back to 6 m from the start: 6 m ≥ 5 % of 94 m.
        out_and_near = TrailPath(
            ORIGIN,
            [TrailPoint(0, 0, 0), TrailPoint(50, 0, 0), TrailPoint(6, 0, 0)],
        )
        assert not out_and_near.is_loop
        # Back to 2 m from the start: 2 m < 5 % of 98 m.
        out_and_back = TrailPath(
            ORIGIN,
            [TrailPoint(0, 0, 0), TrailPoint(50, 0, 0), TrailPoint(2, 0, 0)],
        )
        assert out_and_back.is_loop
        assert not TrailPath(ORIGIN, [TrailPoint(0, 0, 0), TrailPoint(0, 0, 0)]).is_loop

    def test_build_wiggle_increases_path_curvatureiness(self):
        flat = TrailPath.build(
            ORIGIN, length_m=500.0, wiggle_amplitude_m=0.0, wiggle_period_m=0.0,
            altitude_amplitude_m=0.0, altitude_period_m=0.0,
        )
        wiggly = TrailPath.build(
            ORIGIN, length_m=500.0, wiggle_amplitude_m=20.0, wiggle_period_m=100.0,
            altitude_amplitude_m=0.0, altitude_period_m=0.0,
        )
        # Wiggle moves points off the axis.
        assert max(abs(p.north_m) for p in wiggly.points) > 10.0
        assert max(abs(p.north_m) for p in flat.points) == 0.0

    def test_build_jitter_uses_rng(self):
        rng = np.random.default_rng(0)
        jittered = TrailPath.build(
            ORIGIN, length_m=200.0, wiggle_amplitude_m=0.0, wiggle_period_m=0.0,
            altitude_amplitude_m=0.0, altitude_period_m=0.0,
            rng=rng, wiggle_jitter=3.0,
        )
        assert any(p.north_m != 0.0 for p in jittered.points)


class TestTrailWalker:
    def test_position_advances_with_pace(self):
        walker = TrailWalker(straight_trail(1000.0), pace_m_per_s=2.0)
        fix_10 = walker.position(10.0)
        start = walker.position(0.0)
        assert haversine_m(
            LatLon(start.latitude, start.longitude),
            LatLon(fix_10.latitude, fix_10.longitude),
        ) == pytest.approx(20.0, abs=0.1)

    def test_before_start_stays_at_trailhead(self):
        walker = TrailWalker(straight_trail(), pace_m_per_s=1.0, start_time=100.0)
        assert walker.position(0.0) == walker.position(50.0)

    def test_clamp_mode_stops_at_end(self):
        walker = TrailWalker(straight_trail(100.0), pace_m_per_s=1.0, mode="clamp")
        assert walker.position(100.0) == walker.position(1e6)

    def test_loop_mode_wraps(self):
        trail = straight_trail(100.0)
        walker = TrailWalker(trail, pace_m_per_s=1.0, mode="loop")
        assert walker.position(150.0) == trail.position_at(50.0)

    def test_ping_pong_reflects(self):
        trail = straight_trail(100.0)
        walker = TrailWalker(trail, pace_m_per_s=1.0, mode="ping_pong")
        assert walker.position(150.0) == trail.position_at(50.0)
        assert walker.position(250.0) == trail.position_at(50.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            TrailWalker(straight_trail(), pace_m_per_s=0.0)
        with pytest.raises(ValidationError):
            TrailWalker(straight_trail(), pace_m_per_s=1.0, mode="teleport")
