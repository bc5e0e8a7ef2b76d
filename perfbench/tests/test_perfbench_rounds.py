"""Rounds are deterministic per seed, and the output checks catch bad replies."""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro.server.server import SensingServer

from sorbench.bench import run_round
from sorbench.checks import RankingOracle, check_schedule
from sorbench.driver import drive
from sorbench.workloads import (
    ReplicationPump,
    deploy,
    plan_rank_heavy,
    plan_schedule_heavy,
    plan_sharded_mix,
    remove_tree,
)

SMALL_PLANS = {
    "schedule_heavy": lambda seed: plan_schedule_heavy(seed, phones=16),
    "rank_heavy": lambda seed: plan_rank_heavy(seed, queries=60, phones=8),
    "sharded_mix": lambda seed: plan_sharded_mix(seed, phones=48),
}


def _footrules(plan, tmp_path, drivers):
    deployment = deploy(plan, tmp_path / f"d{drivers}")
    try:
        timed = drive(plan, deployment, drivers)
        coverage = deployment.coverage()
    finally:
        deployment.close()
        remove_tree(deployment.directory)
    assert timed.log.failures == []
    costs = {
        (query.category, query.profile["name"]): payload["rankings"][0]["weighted_footrule"]
        for query, payload in timed.log.rankings
    }
    return coverage, costs


@pytest.mark.parametrize("workload", sorted(SMALL_PLANS))
def test_one_and_two_drivers_give_the_same_coverage_and_ranking_costs(workload, tmp_path):
    plan = SMALL_PLANS[workload](3)
    one = _footrules(plan, tmp_path, 1)
    two = _footrules(plan, tmp_path, 2)
    assert one == two
    assert 0.0 < one[0] < 1.0


def test_equal_seeds_give_equal_digests_and_different_seeds_do_not():
    for make in SMALL_PLANS.values():
        assert make(5).digest() == make(5).digest()
        assert make(5).digest() != make(6).digest()


def test_the_pump_runs_one_pass_per_paced_requests_and_stops():
    passes = []
    pump = ReplicationPump(lambda: passes.append(1) or 0, every=4)
    try:
        for _ in range(10):
            pump.answered()
        pump.drain()
        assert len(passes) == 2
    finally:
        pump.stop()
    assert "bench-replication" not in {thread.name for thread in threading.enumerate()}


def test_a_failing_pump_pass_is_raised_by_drain():
    def fail() -> int:
        raise RuntimeError("ship failed")

    pump = ReplicationPump(fail, every=1)
    try:
        pump.answered()
        with pytest.raises(RuntimeError, match="ship failed"):
            pump.drain()
    finally:
        pump.stop()


def test_split_keeps_each_application_on_one_driver():
    plan = SMALL_PLANS["sharded_mix"](1)
    shares = plan.split(2)
    owners = {}
    for index, share in enumerate(shares):
        for item in share:
            assert owners.setdefault(item.app_id, index) == index
    assert sum(len(share) for share in shares) == len(plan.items)


def test_schedule_check_trips_on_overspent_or_outside_schedules():
    phone = SMALL_PLANS["schedule_heavy"](1).phones[0]
    good = {"times": [0.0, phone.departure_time]}
    assert check_schedule(phone, good, 10800.0) is None
    too_many = {"times": [float(t) for t in range(phone.budget + 1)]}
    assert "budget" in check_schedule(phone, too_many, 10800.0)
    late = {"times": [phone.departure_time + 60.0]}
    assert "outside" in check_schedule(phone, late, 10800.0)
    assert check_schedule(phone, {"times": [1.0, 1.0]}, 10800.0) is not None


def test_ranking_check_trips_on_wrong_cost_or_order(tmp_path):
    plan = SMALL_PLANS["rank_heavy"](2)
    oracle = RankingOracle(plan)
    deployment = deploy(plan, tmp_path / "d")
    try:
        timed = drive(plan, deployment, 2)
    finally:
        deployment.close()
    query, payload = next(
        (q, p) for q, p in timed.log.rankings if len(q.profile["preferences"]) > 1
    )
    assert oracle.check(query, payload) is None
    entry = payload["rankings"][0]
    off = {**payload, "rankings": [{**entry, "weighted_footrule": entry["weighted_footrule"] + 1}]}
    assert "optimum" in oracle.check(query, off)
    places = list(entry["places"])
    places[0], places[-1] = places[-1], places[0]
    swapped = {**payload, "rankings": [{**entry, "places": places}]}
    assert "order costs" in oracle.check(query, swapped)


def test_a_planted_wrong_ranking_fails_the_round(tmp_path, monkeypatch):
    original = SensingServer._on_rank_query

    def planted(self, envelope):
        reply = original(self, envelope)
        rankings = [
            {**entry, "places": list(reversed(entry["places"]))}
            for entry in reply.payload["rankings"]
        ]
        return dataclasses.replace(reply, payload={**reply.payload, "rankings": rankings})

    monkeypatch.setattr(SensingServer, "_on_rank_query", planted)
    plan = SMALL_PLANS["rank_heavy"](4)
    result, _ = run_round(plan, RankingOracle(plan), tmp_path)
    assert any("order costs" in failure for failure in result.failures)


def test_a_planted_replay_mismatch_fails_the_session(tmp_path, monkeypatch):
    original = SensingServer._stored_response

    def planted(self, key):
        response = original(self, key)
        if response is None:
            return None
        return dataclasses.replace(response, body=response.body.replace(b"task", b"tusk"))

    monkeypatch.setattr(SensingServer, "_stored_response", planted)
    plan = SMALL_PLANS["schedule_heavy"](4)
    result, _ = run_round(plan, RankingOracle(plan), tmp_path)
    pulls = sum(phone.pull for phone in plan.phones)
    assert pulls > 0
    assert sum("replay differs" in failure for failure in result.failures) == pulls
    assert result.completed == result.sessions - pulls
