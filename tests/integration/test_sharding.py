"""End-to-end sharding tests: lossy fleet, repeated primary kills, audit.

The chaos scenario is the load-bearing claim for durable failover:
three shard primaries die mid-field-test under 20% loss on each network
leg — the victim shard twice in a row, the second kill landing on the
freshly *promoted* primary mid-reseed with a wrecked WAL tail — and
*every* acked schedule and upload is still present in the surviving
primaries' tables afterward. Acked means committed to the WAL, the WAL
is the replication log, and promotion re-attaches a live WAL, so the
run ends by killing the promoted primary once more and recovering it
from disk alone.
"""

import pytest

from repro.common.errors import ValidationError
from repro.net import NetworkConditions
from repro.sim.faults import format_fault_report, run_fleet_faults
from repro.sim.loadgen import LoadgenSpec, run_loadgen

FLEET = LoadgenSpec(
    phones=60,
    seed=2014,
    clients=6,
    workers=2,
    io_delay_s=0.0005,
    places=12,
    shards=3,
    replicas=1,
    categories=6,
)
LOSSY = NetworkConditions(
    base_latency_s=0.0,
    jitter_s=0.0,
    drop_probability=0.2,
    response_drop_probability=0.2,
)
KILLS = dict(kills=3, kill_shard=1, kill_after_schedules=12, downtime_s=0.05)


@pytest.fixture(scope="module")
def chaos_report():
    return run_fleet_faults(FLEET, network=LOSSY, **KILLS)


class TestShardChaos:
    def test_loss_was_actually_injected(self, chaos_report):
        assert chaos_report.requests_dropped > 0
        assert chaos_report.responses_dropped > 0

    def test_every_kill_cycle_failed_over(self, chaos_report):
        assert chaos_report.kills == 3
        assert chaos_report.failovers == 3
        assert chaos_report.killed_shard == "shard-1"

    def test_dead_shard_requests_hit_the_busy_path(self, chaos_report):
        # The downtime window exists so requests for the victim's
        # categories get the router's BUSY reply and are re-sent.
        assert chaos_report.busy_replies > 0

    def test_every_promotion_was_reseeded(self, chaos_report):
        # Cycle 0 defers its reseed so cycle 1 can race the kill against
        # it; every cycle still ends with a replacement replica.
        assert chaos_report.reseeds == 3

    def test_promoted_primary_recovers_from_reattached_wal(self, chaos_report):
        assert chaos_report.promoted_recovery_ok

    def test_every_phone_completed(self, chaos_report):
        assert chaos_report.acked_schedules == FLEET.phones
        assert chaos_report.acked_uploads == FLEET.phones
        assert chaos_report.delivered

    def test_no_acked_data_was_lost(self, chaos_report):
        assert chaos_report.lost_acked_schedules == 0
        assert chaos_report.lost_acked_uploads == 0

    def test_retries_never_duplicated_state(self, chaos_report):
        assert chaos_report.duplicate_tasks == 0
        assert chaos_report.duplicate_uploads == 0

    def test_replica_lag_drains_to_zero(self, chaos_report):
        assert chaos_report.replica_lag_after_sync == 0

    def test_report_rolls_up_to_data_intact(self, chaos_report):
        assert chaos_report.data_intact
        text = format_fault_report(chaos_report)
        assert "intact" in text.lower()


class TestFleetValidation:
    @pytest.mark.parametrize(
        "fleet, kills",
        [
            (LoadgenSpec(phones=60, shards=1), KILLS),
            (LoadgenSpec(phones=60, shards=3, replicas=0), KILLS),
            (LoadgenSpec(phones=60, shards=3), {**KILLS, "kill_shard": 3}),
            (LoadgenSpec(phones=36, shards=3), KILLS),
            (LoadgenSpec(phones=60, shards=3), {**KILLS, "kills": 0}),
            (LoadgenSpec(phones=60, shards=3), {**KILLS, "downtime_s": -1.0}),
        ],
        ids=["one-shard", "no-replica", "kill-shard", "late-kill", "no-kill", "downtime"],
    )
    def test_bad_fleet_inputs_rejected_before_running(self, fleet, kills):
        with pytest.raises(ValidationError):
            run_fleet_faults(fleet, network=LOSSY, **kills)


class TestShardedLoadgen:
    def test_sharded_run_matches_single_server_workload(self):
        # Same phones, same seed: the only difference is the deployment.
        # The workload digest (request contents in order, per phone)
        # must be identical, so the bench compares like with like.
        single = LoadgenSpec(
            phones=80, seed=7, clients=4, workers=2, places=8,
            categories=4, rank_every=2,
        )
        sharded = LoadgenSpec(
            phones=80, seed=7, clients=4, workers=2, places=8,
            categories=4, rank_every=2, shards=2, replicas=1,
        )
        base = run_loadgen(single)
        result = run_loadgen(sharded)
        assert result.sessions_completed == 80
        assert result.error_replies == 0 and result.replay_mismatches == 0
        assert result.workload_digest == base.workload_digest
        assert result.requests_ok == base.requests_ok
