"""Crash-recovery integration: kill the server mid-field-test, restart
from disk, and check durability's two promises — acknowledged state
survives, and retried un-acked envelopes do not double-apply."""

import gc
import os
from pathlib import Path

import pytest

from repro.db import DurabilityConfig
from repro.net import NetworkConditions
from repro.sim.faults import run_field_faults

NO_LOSS = NetworkConditions()


def run_kills(directory, *, seed=0, kills=2, network=NO_LOSS, checkpoint_every=40):
    return run_field_faults(
        network=network,
        kills=kills,
        seed=seed,
        durability=DurabilityConfig(
            directory=directory, checkpoint_every_records=checkpoint_every
        ),
    )


class TestDurableCrash:
    def test_acked_state_survives_two_kills(self, tmp_path):
        report = run_kills(tmp_path)
        assert report.kills == 2
        assert report.acked_schedules > 0
        assert report.acked_uploads > 0
        assert report.data_intact
        assert report.records_replayed > 0
        # One recovery at first boot plus one per restart.
        assert len(report.recovery_reports) == 3

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_intact_across_seeds(self, tmp_path, seed):
        report = run_kills(tmp_path, seed=seed)
        assert report.data_intact

    def test_torn_tail_kill_truncates_and_recovers(self, tmp_path):
        report = run_kills(tmp_path)
        # The first kill dies mid-commit: an uncommitted transaction and
        # half a frame on disk. Recovery must have discarded both.
        torn = [r for r in report.recovery_reports if r.torn_tail_bytes_discarded]
        assert torn
        assert any(
            r.incomplete_transactions_discarded for r in report.recovery_reports
        )
        assert report.data_intact

    def test_checkpoints_bound_replay_work(self, tmp_path):
        eager = run_kills(tmp_path, seed=4, checkpoint_every=5)
        assert eager.data_intact
        # With frequent compaction the later recoveries boot from a
        # checkpoint instead of replaying all of history.
        assert any(r.checkpoint_seq > 0 for r in eager.recovery_reports)
        checkpoints = eager.metrics.counter("sor_db_checkpoints_total")
        assert checkpoints.value() > 0

    def test_kills_plus_network_loss_stay_intact(self, tmp_path):
        # The nastiest combination: the server dies while the network is
        # also dropping 20% of each leg. Retries cross restart boundaries,
        # so deduplication must come from the durable idempotency table.
        lossy = NetworkConditions(drop_probability=0.2, response_drop_probability=0.2)
        report = run_kills(tmp_path, seed=3, network=lossy)
        assert report.kills == 2
        assert report.data_intact
        assert report.duplicate_tasks == 0
        assert report.duplicate_uploads == 0

    def test_recovery_metrics_emitted(self, tmp_path):
        report = run_kills(tmp_path)
        replayed = report.metrics.counter("sor_db_recovery_replayed_records")
        assert replayed.value() == report.records_replayed
        wal_bytes = report.metrics.counter("sor_db_wal_bytes")
        assert wal_bytes.value() > 0
        histogram = report.metrics.histogram("sor_db_recovery_seconds")
        assert histogram.count() == len(report.recovery_reports)


class TestFieldFaultRun:
    def test_same_arguments_give_an_identical_report(self, tmp_path):
        lossy = NetworkConditions(drop_probability=0.2, response_drop_probability=0.2)

        def counters(directory):
            payload = run_kills(directory, seed=3, network=lossy).to_dict()
            for recovery in payload["recovery_reports"]:
                recovery.pop("duration_s")  # wall-clock, not seeded
            return payload

        assert counters(tmp_path / "a") == counters(tmp_path / "b")

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_no_wal_handle_outlives_the_run(self, tmp_path):
        # With the collector paused, only an explicit close releases the
        # recovered server's WAL segment.
        gc.disable()
        try:
            run_kills(tmp_path)
            open_under_run = []
            for fd in os.listdir("/proc/self/fd"):
                try:
                    target = os.readlink(f"/proc/self/fd/{fd}")
                except OSError:
                    continue
                if target.startswith(str(tmp_path)):
                    open_under_run.append(Path(target).name)
        finally:
            gc.enable()
        assert open_under_run == []

    def test_negative_kills_rejected(self):
        from repro.common.errors import ValidationError

        with pytest.raises(ValidationError):
            run_field_faults(network=NO_LOSS, kills=-1)


class TestNonDurableContrast:
    def test_without_durability_acked_state_is_lost(self):
        report = run_field_faults(network=NO_LOSS, kills=2)
        assert report.kills == 2
        assert report.acked_schedules > 0
        assert report.lost_acked_schedules > 0  # the restart came up empty
        assert not report.data_intact
        assert not report.durable
        assert report.records_replayed == 0
        assert report.recovery_reports == []
