"""Tests for the ablation registry, runner, and report.

The runner tests use *synthetic* benches with hand-picked effect sizes
so the expected importance ranking is known exactly — the point is the
harness's arithmetic and invariants, not the real system's performance
(the real slate runs in the CI ``ablation-smoke`` job and in
``tests/ablation/test_switch_injection.py``).
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import pytest

from repro.ablation import (
    EFFECT_PREFIX,
    SWITCHES,
    BenchResult,
    Switch,
    effect_ratio,
    enumerate_configs,
    render,
    run_ablation,
    to_bench_json,
)
from repro.cli import main
from repro.common.errors import AblationError
from repro.obs import MetricsRegistry

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_compare_bench():
    path = REPO_ROOT / "benchmarks" / "compare_bench.py"
    spec = importlib.util.spec_from_file_location("compare_bench_ablation", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_bench = _load_compare_bench()


# ----------------------------------------------------------------------
# fixtures: a synthetic three-switch world with known effect sizes
# ----------------------------------------------------------------------
SYNTHETIC_SWITCHES = (
    Switch(
        name="fast",
        description="a component worth 4x",
        primary_metric="t_seconds",
        behavior_preserving=True,
    ),
    Switch(
        name="costly",
        description="a component that halves throughput",
        primary_metric="delivered",
        direction="higher",
    ),
    Switch(
        name="useless",
        description="a component that does nothing",
        primary_metric="t_seconds",
    ),
)

#: A floor table for the synthetic switches, shaped like the committed
#: ``benchmarks/baselines/BENCH_ablation.json``.
SYNTHETIC_FLOORS = {
    "metrics": {
        "ablation_effect_fast": {
            "value": 2.0,
            "direction": "higher",
            "tolerance_pct": 40.0,
        },
        "ablation_effect_costly": {
            "value": 1.5,
            "direction": "higher",
            "tolerance_pct": 20.0,
        },
    }
}


def synthetic_bench(values, *, seed, repeat):
    """Deterministic metrics: fast off ⇒ 4x slower; costly on ⇒ 2x rows."""
    seconds = 1.0 if values["fast"] else 4.0
    delivered = 200.0 if values["costly"] else 100.0
    return BenchResult(
        metrics={"t_seconds": seconds, "delivered": delivered},
        digests={"work": "identical-everywhere"},
    )


SYNTHETIC_BENCHES = {"synthetic": synthetic_bench}


def run_synthetic(benches=None, repeat=1, **kwargs):
    return run_ablation(
        seed=7,
        repeat=repeat,
        switches=SYNTHETIC_SWITCHES,
        benches=benches or SYNTHETIC_BENCHES,
        metrics=MetricsRegistry(),
        **kwargs,
    )


def gate_failures(tmp_path, report):
    """compare_bench's failures for ``report`` against the synthetic floors."""
    baseline_path = tmp_path / "baseline.json"
    fresh_path = tmp_path / "fresh.json"
    baseline_path.write_text(json.dumps(SYNTHETIC_FLOORS))
    fresh_path.write_text(json.dumps(to_bench_json(report)))
    _, failures = compare_bench.compare(
        compare_bench.load_metrics(baseline_path, 20.0),
        compare_bench.load_metrics(fresh_path, 20.0),
    )
    return failures


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_enumerates_baseline_plus_one_per_switch(self):
        configs = enumerate_configs()
        names = [switch.name for switch in SWITCHES]
        assert len(configs) == len(SWITCHES) + 1
        assert configs[0].name == "baseline"
        assert configs[0].ablated is None
        assert configs[0].values == {name: True for name in names}
        assert [config.ablated for config in configs[1:]] == names
        for config in configs[1:]:
            assert config.name == f"no-{config.ablated}"
            assert config.values == {
                name: name != config.ablated for name in names
            }

    def test_duplicate_registration_raises(self):
        with pytest.raises(AblationError, match="duplicate"):
            enumerate_configs(SYNTHETIC_SWITCHES + SYNTHETIC_SWITCHES[:1])

    def test_unknown_switch_raises_with_known_names(self):
        with pytest.raises(AblationError, match="unknown switch.*stochastic"):
            enumerate_configs(components=("flux_capacitor",))
        with pytest.raises(AblationError, match="unknown switch"):
            enumerate_configs(invert="flux_capacitor")

    def test_subset_preserves_order_and_rejects_unknown(self):
        configs = enumerate_configs(components=("ranking_cache", "stochastic"))
        assert [config.ablated for config in configs[1:]] == [
            "stochastic",
            "ranking_cache",
        ]
        # Only the twins are chosen: every config still holds every switch.
        assert configs[0].values == enumerate_configs()[0].values
        with pytest.raises(AblationError, match="unknown switch"):
            enumerate_configs(components=("stochastic", "nope"))

    def test_inverted_swaps_exactly_one_switch(self):
        baseline, fast_twin, *_ = enumerate_configs(
            SYNTHETIC_SWITCHES, invert="fast"
        )
        assert baseline.values == {"fast": False, "costly": True, "useless": True}
        assert fast_twin.ablated == "fast"
        assert fast_twin.values == {"fast": True, "costly": True, "useless": True}

    def test_empty_enumeration_raises(self):
        with pytest.raises(AblationError, match="empty switch selection"):
            enumerate_configs(components=())
        with pytest.raises(AblationError, match="empty switch selection"):
            enumerate_configs(())

    def test_switch_validation(self):
        with pytest.raises(AblationError, match="direction"):
            Switch(
                name="x",
                description="",
                primary_metric="m",
                direction="sideways",
            )
        with pytest.raises(AblationError, match="bad switch name"):
            Switch(name="not a name", description="", primary_metric="m")


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------
class TestRunner:
    def test_known_effects_rank_deterministically(self):
        report = run_synthetic()
        names = [entry.name for entry in report.importance]
        # |ln 4| > |ln 2| > |ln 1|: fast, costly, useless — exactly.
        assert names == ["fast", "costly", "useless"]
        by_name = {entry.name: entry for entry in report.importance}
        assert by_name["fast"].ratio == pytest.approx(4.0)
        assert by_name["fast"].kind == "speedup"
        assert by_name["costly"].ratio == pytest.approx(2.0)
        assert by_name["costly"].kind == "speedup"
        assert by_name["useless"].ratio == pytest.approx(1.0)
        assert by_name["useless"].kind == "neutral"
        assert by_name["useless"].impact == pytest.approx(0.0)

    def test_useless_component_always_ranks_last(self):
        report = run_synthetic()
        assert report.importance[-1].name == "useless"

    def test_two_runs_identical(self):
        first = run_synthetic()
        second = run_synthetic()
        assert [e.name for e in first.importance] == [
            e.name for e in second.importance
        ]
        assert [e.ratio for e in first.importance] == [
            e.ratio for e in second.importance
        ]

    def test_cost_switch_reports_cost_kind(self):
        def bench(values, *, seed, repeat):
            seconds = 2.0 if values["overhead"] else 1.0
            return BenchResult(metrics={"t_seconds": seconds})

        report = run_ablation(
            seed=1,
            repeat=1,
            switches=(
                Switch(
                    name="overhead",
                    description="pure tax",
                    primary_metric="t_seconds",
                ),
            ),
            benches={"b": bench},
            metrics=MetricsRegistry(),
        )
        entry = report.importance[0]
        assert entry.kind == "cost"
        assert entry.ratio == pytest.approx(0.5)
        assert entry.impact == pytest.approx(abs(math.log(0.5)))

    def test_components_subset_limits_matrix(self):
        report = run_synthetic(components=("fast",))
        assert len(report.results) == 2
        assert [entry.name for entry in report.importance] == ["fast"]

    def test_subset_baseline_values_equal_the_full_run(self):
        """A ``--components`` run measures against the production
        baseline, not against per-cell defaults for unselected switches."""
        full = run_synthetic().to_dict()["configs"][0]["values"]
        subset = run_synthetic(components=("costly",)).to_dict()["configs"][0]
        assert subset["values"] == full == {
            "fast": True,
            "costly": True,
            "useless": True,
        }

    def test_behavior_digest_divergence_raises(self):
        def treacherous(values, *, seed, repeat):
            result = synthetic_bench(values, seed=seed, repeat=repeat)
            result.digests["work"] = f"depends-on-{values['fast']}"
            return result

        with pytest.raises(AblationError, match="behavior-preserving"):
            run_synthetic(benches={"synthetic": treacherous})

    def test_metric_collision_between_benches_raises(self):
        benches = {
            "one": synthetic_bench,
            "two": lambda values, *, seed, repeat: BenchResult(
                metrics={"t_seconds": 1.0}
            ),
        }
        with pytest.raises(AblationError, match="re-emits metric"):
            run_synthetic(benches=benches)

    def test_missing_primary_metric_raises(self):
        def sparse(values, *, seed, repeat):
            return BenchResult(metrics={"t_seconds": 1.0})

        with pytest.raises(AblationError, match="primary metric"):
            run_synthetic(benches={"sparse": sparse})

    def test_repeat_must_be_positive(self):
        calls = []

        def counting(values, *, seed, repeat):
            calls.append(values)
            return synthetic_bench(values, seed=seed, repeat=repeat)

        with pytest.raises(AblationError, match="repeat"):
            run_synthetic(benches={"counting": counting}, repeat=0)
        assert calls == []

    def test_effect_ratio_semantics(self):
        assert effect_ratio("lower", 1.0, 4.0) == pytest.approx(4.0)
        assert effect_ratio("higher", 4.0, 1.0) == pytest.approx(4.0)
        assert effect_ratio("lower", 4.0, 1.0) == pytest.approx(0.25)
        with pytest.raises(AblationError, match="positive"):
            effect_ratio("lower", 0.0, 1.0)

    def test_emits_sor_ablation_metrics(self):
        metrics = MetricsRegistry()
        run_ablation(
            seed=7,
            repeat=1,
            switches=SYNTHETIC_SWITCHES,
            benches=SYNTHETIC_BENCHES,
            metrics=metrics,
        )
        assert metrics.counter(
            "sor_ablation_configs_total", ""
        ).value() == 4.0
        gauge = metrics.gauge(
            "sor_ablation_effect_ratio", "", labels=("switch",)
        )
        assert gauge.value(switch="fast") == pytest.approx(4.0)
        bench_gauge = metrics.gauge(
            "sor_ablation_bench_seconds", "", labels=("config", "bench")
        )
        assert bench_gauge.value(config="baseline", bench="synthetic") >= 0.0


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
class TestReport:
    def test_bench_json_round_trips_through_compare_bench(self, tmp_path):
        report = run_synthetic()
        document = to_bench_json(report)
        path = tmp_path / "BENCH_ablation.json"
        path.write_text(json.dumps(document))
        loaded = compare_bench.load_metrics(path, 20.0)
        # Every measured switch becomes a metric; all read back exactly.
        assert set(loaded) == {
            "ablation_effect_fast",
            "ablation_effect_costly",
            "ablation_effect_useless",
        }
        assert loaded["ablation_effect_fast"]["value"] == pytest.approx(4.0)
        assert loaded["ablation_effect_fast"]["direction"] == "higher"

    def test_fresh_run_passes_gate_against_committed_floors(self, tmp_path):
        assert gate_failures(tmp_path, run_synthetic()) == []

    def test_importance_inversion_fails_gate(self, tmp_path):
        failures = gate_failures(tmp_path, run_synthetic(invert="fast"))
        # fast's measured ratio collapses to 1/4 — far below its 2.0
        # floor even with 40% tolerance.
        assert any("ablation_effect_fast" in failure for failure in failures)

    def test_render_formats(self):
        report = run_synthetic()
        table = render(report, "table")
        assert "component importance" in table
        assert "fast" in table
        payload = json.loads(render(report, "json"))
        assert payload["seed"] == 7
        assert [e["name"] for e in payload["importance"]] == [
            "fast",
            "costly",
            "useless",
        ]
        with pytest.raises(ValueError, match="unknown"):
            render(report, "yaml")

    def test_ranking_listed_in_bench_json(self):
        report = run_synthetic()
        assert to_bench_json(report)["ranking"] == ["fast", "costly", "useless"]


# ----------------------------------------------------------------------
# the committed floor table
# ----------------------------------------------------------------------
class TestCommittedFloors:
    def test_one_floor_per_switch(self):
        """``BENCH_ablation.json`` is the only floor table: one
        ``ablation_effect_<name>`` gate per switch, nothing else, each
        higher-is-better with its own tolerance."""
        path = REPO_ROOT / "benchmarks" / "baselines" / "BENCH_ablation.json"
        floors = json.loads(path.read_text())["metrics"]
        assert sorted(floors) == sorted(
            f"{EFFECT_PREFIX}{switch.name}" for switch in SWITCHES
        )
        for name, entry in floors.items():
            assert entry["direction"] == "higher", name
            assert float(entry["tolerance_pct"]) > 0, name
            assert float(entry["value"]) > 0, name


# ----------------------------------------------------------------------
# CLI flags
# ----------------------------------------------------------------------
class TestAblateFlags:
    @pytest.mark.parametrize(
        "flags",
        [["--invert", "nope"], ["--components", ","], ["--repeat", "0"]],
        ids=["unknown-invert", "empty-components", "zero-repeat"],
    )
    def test_bad_flag_exits_2_with_one_line(self, flags, capsys, monkeypatch):
        def no_run(**kwargs):
            raise AssertionError("a cell ran despite a bad flag")

        monkeypatch.setattr("repro.ablation.run_ablation", no_run)
        with pytest.raises(SystemExit) as exit_info:
            main(["ablate", *flags])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.err.startswith("repro ablate: error:")
