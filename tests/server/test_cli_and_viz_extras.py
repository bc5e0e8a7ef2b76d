"""Tests for the CLI entry point and sparkline visualization."""

import pytest

from repro.cli import build_parser, main
from repro.common.errors import ValidationError
from repro.server.visualization import sparkline


class TestSparkline:
    def test_length_matches_input(self):
        assert len(sparkline([0.0, 0.5, 1.0])) == 3

    def test_monotone_values_monotone_glyphs(self):
        art = sparkline([0.0, 0.25, 0.5, 0.75, 1.0])
        levels = "▁▂▃▄▅▆▇█"
        indices = [levels.index(ch) for ch in art]
        assert indices == sorted(indices)
        assert art[-1] == "█"

    def test_resampling_to_width(self):
        assert len(sparkline(range(100), width=20)) == 20

    def test_all_zero_handled(self):
        assert sparkline([0.0, 0.0]) == "▁▁"

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            sparkline([])


class TestCli:
    def test_parser_accepts_all_artefacts(self):
        parser = build_parser()
        for artefact in ("fig6", "fig10", "table1", "table2", "fig14a",
                         "fig14b", "all"):
            assert parser.parse_args([artefact]).artefact == artefact

    def test_unknown_artefact_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_table2_runs(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "matches paper: YES" in out

    def test_fig14a_quick(self, capsys):
        assert main(["fig14a", "--runs", "1"]) == 0
        out = capsys.readouterr().out
        assert "mean improvement" in out

    @pytest.mark.parametrize("artefact", ["fig14a", "fig14b"])
    @pytest.mark.parametrize("runs", ["0", "-1"])
    def test_fewer_than_one_run_exits_2_with_one_line(
        self, artefact, runs, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            main([artefact, "--runs", runs])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.err.startswith(f"repro {artefact}: error:")


class _Captured(Exception):
    """Raised by a stubbed driver so a test can inspect its arguments."""


def _capture(monkeypatch, module, name):
    calls = []

    def fake(*args, **kwargs):
        calls.append((args, kwargs))
        raise _Captured

    monkeypatch.setattr(module, name, fake)
    return calls


class TestFaultPresets:
    def test_crash_preset_is_intact(self, capsys):
        assert main(["crash"]) == 0
        out = capsys.readouterr().out
        assert "verdict             : INTACT" in out
        assert "WAL records replayed: 67" in out

    def test_crash_preset_json(self, capsys):
        import json

        assert main(["crash", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["data_intact"] and payload["kills"] == 2
        assert len(payload["recovery_reports"]) == 3

    def test_crash_without_durability_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["crash", "--no-durability"])
        assert exc.value.code == 1
        assert "DATA LOSS" in capsys.readouterr().err

    def test_shardchaos_has_its_own_defaults(self, monkeypatch):
        import repro.sim.faults as faults

        calls = _capture(monkeypatch, faults, "run_fleet_faults")
        with pytest.raises(_Captured):
            main(["shardchaos"])
        (fleet,), kwargs = calls[0]
        assert (fleet.phones, fleet.shards, fleet.replicas, fleet.categories) == (
            120, 4, 1, 8,
        )
        assert kwargs["kills"] == 2 and kwargs["kill_shard"] == 1

    def test_shardchaos_explicit_flags_reach_the_driver(self, monkeypatch):
        import repro.sim.faults as faults

        calls = _capture(monkeypatch, faults, "run_fleet_faults")
        with pytest.raises(_Captured):
            main([
                "shardchaos", "--phones", "10000", "--shards", "1",
                "--categories", "1", "--replicas", "0",
            ])
        (fleet,), _ = calls[0]
        assert (fleet.phones, fleet.shards, fleet.replicas, fleet.categories) == (
            10000, 1, 0, 1,
        )

    def test_shardchaos_bad_flag_raises_instead_of_being_replaced(self):
        with pytest.raises(ValidationError):
            main(["shardchaos", "--shards", "1"])

    def test_loadgen_keeps_its_defaults(self, monkeypatch):
        import repro.sim.loadgen as loadgen

        calls = _capture(monkeypatch, loadgen, "run_loadgen")
        with pytest.raises(_Captured):
            main(["loadgen"])
        (spec,), _ = calls[0]
        assert (spec.phones, spec.shards, spec.replicas, spec.categories) == (
            10000, 1, 1, 1,
        )
        assert spec.places == 8
