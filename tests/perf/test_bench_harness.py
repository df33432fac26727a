"""The perf-regression harness: reports, comparison policy, CLI wiring."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.perf import bench
from repro.perf.bench import (
    HIGHER_IS_BETTER,
    bench_msg_throughput,
    bench_switch_rate,
    compare,
    format_table,
    load_report,
    make_report,
    save_report,
)

METRICS = {
    "msg_throughput_immutable": 100000.0,
    "msg_throughput_flat": 50000.0,
    "switch_rate_np64": 200000.0,
    "run_setup_ms": 0.05,
    "selfcheck_cold_wall_s": 0.07,
}


class TestComparePolicy:
    def test_identical_metrics_pass(self):
        assert compare(METRICS, METRICS) == []

    def test_small_dip_within_tolerance_passes(self):
        current = dict(METRICS,
                       switch_rate_np64=METRICS["switch_rate_np64"] * 0.75)
        assert compare(current, METRICS, tolerance=0.30) == []

    def test_throughput_collapse_fails(self):
        current = dict(METRICS,
                       switch_rate_np64=METRICS["switch_rate_np64"] * 0.5)
        failures = compare(current, METRICS, tolerance=0.30)
        assert len(failures) == 1
        assert "switch_rate_np64" in failures[0]

    def test_latency_regression_never_fails(self):
        # Wall/latency metrics are reported, not gated (too noisy in CI).
        current = dict(METRICS, run_setup_ms=METRICS["run_setup_ms"] * 100)
        assert compare(current, METRICS) == []

    def test_missing_metric_is_skipped(self):
        current = {k: v for k, v in METRICS.items() if k != "switch_rate_np64"}
        assert compare(current, METRICS) == []
        assert compare(METRICS, current) == []

    def test_tolerance_is_configurable(self):
        current = dict(METRICS,
                       switch_rate_np64=METRICS["switch_rate_np64"] * 0.75)
        assert compare(current, METRICS, tolerance=0.10) != []

    def test_only_throughput_metrics_can_gate(self):
        assert set(HIGHER_IS_BETTER) == {
            "msg_throughput_immutable",
            "msg_throughput_flat",
            "msg_throughput_pickle",
            "switch_rate_np64",
            "trace_emit_rate",
        }
        assert set(bench.LOWER_IS_BETTER) == {
            "bcast_ms_p32",
            "allreduce_ms_p64",
        }

    def test_gated_metric_absent_from_baseline_warns_but_passes(self):
        # An older baseline file predating a gated metric must not fail
        # the check — but the un-armed gate is reported, not silent.
        current = dict(METRICS, msg_throughput_pickle=1000.0)
        skips: list[str] = []
        assert compare(current, METRICS, on_skip=skips.append) == []
        assert len(skips) == 1
        assert "msg_throughput_pickle" in skips[0]
        assert "regenerate the baseline" in skips[0]

    def test_gated_metric_absent_from_this_run_warns_but_passes(self):
        # A gate the baseline arms but this run no longer measures (a
        # renamed or deleted bench) must surface, not pass silently.
        baseline = dict(METRICS, msg_throughput_pickle=1000.0)
        skips: list[str] = []
        assert compare(METRICS, baseline, on_skip=skips.append) == []
        assert skips == [
            "msg_throughput_pickle: absent from this run; gate skipped"
        ]
        baseline = dict(METRICS, bcast_ms_p32=2.0)
        skips.clear()
        assert compare(METRICS, baseline, on_skip=skips.append) == []
        assert skips == ["bcast_ms_p32: absent from this run; gate skipped"]

    @pytest.mark.parametrize("baseline", [{}, [], {"run_setup_ms": 0.05}])
    def test_comparing_nothing_fails(self, baseline):
        # No gated metric on both sides: the check compared nothing, so
        # an empty (or foreign) baseline must not read as a pass.
        failures = compare(METRICS, baseline)
        assert failures == [
            "no gated metric is on both sides; nothing was compared"
        ]
        assert compare({}, METRICS) == failures

    def test_no_skip_warning_when_baseline_has_the_metric(self):
        current = dict(METRICS, msg_throughput_pickle=1000.0)
        baseline = dict(METRICS, msg_throughput_pickle=900.0)
        skips: list[str] = []
        assert compare(current, baseline, on_skip=skips.append) == []
        assert skips == []

    def test_ungated_metrics_never_trigger_skip_warnings(self):
        current = dict(METRICS, brand_new_latency_ms=1.0)
        skips: list[str] = []
        assert compare(current, METRICS, on_skip=skips.append) == []
        assert skips == []


class TestReports:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "bench.json"
        save_report(str(path), make_report(METRICS, quick=True))
        report = load_report(str(path))
        assert report["schema"] == bench.SCHEMA
        assert report["quick"] is True
        assert report["metrics"] == METRICS

    def test_bare_metric_dict_is_accepted(self, tmp_path):
        # A hand-written baseline {metric: value} works as a --check target.
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(METRICS))
        report = load_report(str(path))
        assert report["metrics"] == METRICS
        assert report["schema"] == 0

    def test_saved_json_is_diff_stable(self, tmp_path):
        path = tmp_path / "bench.json"
        save_report(str(path), make_report(METRICS))
        text = path.read_text()
        assert text.endswith("\n")
        keys = list(json.loads(text)["metrics"])
        assert keys == sorted(keys)

    def test_format_table_shows_baseline_ratios(self):
        current = dict(METRICS,
                       switch_rate_np64=METRICS["switch_rate_np64"] * 2)
        lines = format_table(current, METRICS)
        assert any("2.00x baseline" in line for line in lines)
        assert len(lines) == len(current)


class TestMetricFunctions:
    def test_msg_throughput_is_positive(self):
        assert bench_msg_throughput(1, n=50) > 0

    def test_switch_rate_is_positive(self):
        assert bench_switch_rate(tasks=2, k=50) > 0

    def test_trace_emit_rate_leaves_no_recorder_or_label(self):
        from repro.sched.base import current_task_label
        from repro.trace import current_recorder

        assert bench.bench_trace_emit(runs=1) > 0
        assert current_recorder() is None
        assert current_task_label() is None

    def test_selfcheck_reports_one_live_wall(self):
        walls = bench.bench_selfcheck(rounds=1)
        assert set(walls) == {"selfcheck_cold_wall_s"}
        assert walls["selfcheck_cold_wall_s"] > 0


class TestCli:
    @pytest.fixture
    def fake_metrics(self, monkeypatch):
        # The CLI imports run_benchmarks at call time, so patching the
        # bench module swaps in instant fake numbers.
        monkeypatch.setattr(
            bench,
            "run_benchmarks",
            lambda *, quick, progress=None, topology=None: dict(METRICS),
        )
        return METRICS

    def test_bench_writes_report(self, fake_metrics, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["bench", "--quick", "--out", str(out)]) == 0
        assert load_report(str(out))["metrics"] == METRICS
        assert "msg_throughput_immutable" in capsys.readouterr().out

    def test_bench_check_passes_against_self(self, fake_metrics, tmp_path):
        baseline = tmp_path / "baseline.json"
        save_report(str(baseline), make_report(METRICS))
        assert main(["bench", "--quick", "--check", str(baseline)]) == 0

    def test_bench_check_fails_on_regression(self, fake_metrics, tmp_path):
        inflated = {
            k: v * 2 if k in HIGHER_IS_BETTER else v for k, v in METRICS.items()
        }
        baseline = tmp_path / "baseline.json"
        save_report(str(baseline), make_report(inflated))
        assert main(["bench", "--quick", "--check", str(baseline)]) == 1

    def test_bench_check_missing_baseline_errors(self, fake_metrics, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["bench", "--quick", "--check", str(missing)]) == 1

    def test_bench_check_warns_on_unarmed_gate(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(
            bench,
            "run_benchmarks",
            lambda *, quick, progress=None, topology=None: dict(
                METRICS, msg_throughput_pickle=1000.0
            ),
        )
        baseline = tmp_path / "baseline.json"
        save_report(str(baseline), make_report(METRICS))  # predates the metric
        assert main(["bench", "--quick", "--check", str(baseline)]) == 0
        err = capsys.readouterr().err
        assert "warning:" in err and "msg_throughput_pickle" in err
        assert "perf check passed" in err

    @pytest.mark.parametrize("text", ["{}", "[]", '{"metrics": {}}'])
    def test_bench_check_against_an_empty_baseline_fails(
            self, fake_metrics, tmp_path, capsys, text):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(text)
        assert main(["bench", "--quick", "--check", str(baseline)]) == 1
        err = capsys.readouterr().err
        assert "nothing was compared" in err
        assert "perf check passed" not in err
