"""The same-host A/B gate's verdict (``benchmarks/perf/ab_gate.py``)."""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "ab_gate", ROOT / "benchmarks" / "perf" / "ab_gate.py")
ab_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_gate)

BENCH_DOC = json.loads((ROOT / "BENCHMARK.json").read_text())

ENGINE = {
    "msg_throughput_immutable": 80000.0,
    "msg_throughput_flat": 70000.0,
    "msg_throughput_pickle": 50000.0,
    "switch_rate_np64": 75000.0,
    "trace_emit_rate": 400000.0,
    "bcast_ms_p32": 3.8,
    "allreduce_ms_p64": 12.0,
    "run_setup_ms": 0.9,
}


def _result(ops, p50, p99):
    return {"correct": True, "attempted": 5000, "failed": 0,
            "metrics": {"ops_per_s": {"value": ops, "unit": "ops/s"},
                        "p50_ms": {"value": p50, "unit": "ms"},
                        "p99_ms": {"value": p99, "unit": "ms"}}}


def _side(pairs=ab_gate.PAIRS):
    return [{"engine": dict(ENGINE),
             "grade-cold": _result(440.0, 800.0, 850.0),
             "grade-warm": _result(1400.0, 245.0, 280.0),
             "lab-serve": _result(1500.0, 0.63, 14.5)}
            for _ in range(pairs)]


def _verdict(head, base):
    return ab_gate.verdict(head, base, BENCH_DOC)


class TestVerdict:
    def test_identical_sides_pass(self):
        lines, failures = _verdict(_side(), _side())
        assert failures == []
        # 7 engine gates and 5 perfbench gates.
        assert sum(line.endswith("  ok") for line in lines) == 12
        assert "FAIL" not in "\n".join(lines)

    def test_switch_rate_drop_of_40_percent_fails(self):
        head = _side()
        for run in head:
            run["engine"]["switch_rate_np64"] *= 0.6
        _, failures = _verdict(head, _side())
        assert len(failures) == 1 and failures[0].startswith("switch_rate_np64:")

    def test_a_single_slow_pair_does_not_move_the_median(self):
        head = _side()
        head[0]["engine"]["switch_rate_np64"] *= 0.1
        assert _verdict(head, _side())[1] == []

    @pytest.mark.parametrize("rise, fails", [(1.24, False), (1.26, True)])
    def test_lab_serve_p99_rise_past_the_bound_fails(self, rise, fails):
        head = _side()
        for run in head:
            run["lab-serve"]["metrics"]["p99_ms"]["value"] *= rise
        _, failures = _verdict(head, _side())
        assert bool(failures) is fails
        if fails:
            assert failures[0].startswith("lab-serve p99_ms (was serve_p99_ms)")

    def test_grade_warm_throughput_drop_fails(self):
        head = _side()
        for run in head:
            run["grade-warm"]["metrics"]["ops_per_s"]["value"] *= 0.7
        _, failures = _verdict(head, _side())
        assert [f.split(":")[0] for f in failures] == [
            "grade-warm ops_per_s (was batch_throughput_runs_s)"]

    @pytest.mark.parametrize("drop", [0.7, 0.0])
    def test_grade_cold_throughput_drop_fails(self, drop):
        head = _side()
        for run in head:
            run["grade-cold"]["metrics"]["ops_per_s"]["value"] *= drop
        lines, failures = _verdict(head, _side())
        assert [f.split(":")[0] for f in failures] == ["grade-cold ops_per_s"]
        row = next(line for line in lines if line.startswith("grade-cold"))
        assert row.endswith("  FAIL")

    def test_trace_emit_rate_drop_fails(self):
        head = _side()
        for run in head:
            run["engine"]["trace_emit_rate"] *= 0.6
        _, failures = _verdict(head, _side())
        assert len(failures) == 1 and failures[0].startswith("trace_emit_rate:")

    def test_an_engine_gate_new_to_this_tree_shows_no_base(self):
        base = _side()
        for run in base:
            del run["engine"]["trace_emit_rate"]
        lines, failures = _verdict(_side(), base)
        assert failures == []
        row = next(line for line in lines if line.startswith("trace_emit_rate"))
        assert row.split()[1:4:2] == ["-", "-"]  # base, head/base
        assert row.endswith("  skipped")

    @pytest.mark.parametrize("side", ["head", "base"])
    def test_an_incorrect_perfbench_run_fails(self, side):
        runs = {"head": _side(), "base": _side()}
        runs[side][2]["lab-serve"]["correct"] = False
        _, failures = _verdict(runs["head"], runs["base"])
        assert failures == [f"lab-serve pair 2 ({side}): correct=False, failed=0"]

    def test_a_failed_operation_fails(self):
        head = _side()
        head[0]["grade-warm"]["failed"] = 3
        _, failures = _verdict(head, _side())
        assert failures == ["grade-warm pair 0 (head): correct=True, failed=3"]

    def test_an_empty_base_engine_report_fails(self):
        base = _side()
        for run in base:
            run["engine"] = {}
        _, failures = _verdict(_side(), base)
        assert failures == [
            "no gated metric is on both sides; nothing was compared"]

    def test_worst_gated_ratio_is_reported(self):
        head = _side()
        for run in head:
            run["engine"]["msg_throughput_flat"] *= 0.76
        lines, failures = _verdict(head, _side())
        assert failures == []
        assert lines[-1] == ("worst gated head/base: msg_throughput_flat "
                             "at 0.760 (limit 0.70)")


class TestPerPairRecord:
    def test_each_gate_row_lists_every_pair_in_order(self):
        head, base = _side(), _side()
        for pair, run in enumerate(head):
            run["lab-serve"]["metrics"]["p50_ms"]["value"] = 0.30 + pair / 100
        lines = ab_gate.pair_lines(head, base, BENCH_DOC)
        gates = ab_gate.perfbench_gates(BENCH_DOC)
        assert len(lines) == 1 + len(gates)
        row = next(line for line in lines if "lab-serve p50_ms:" in line)
        assert row.split(": ", 1)[1].split(" | ") == [
            f"0.63 -> {0.30 + pair / 100:.4g}" for pair in range(ab_gate.PAIRS)]

    def test_raw_results_are_written_per_pair(self, tmp_path):
        pairs = [{"pair": 1, "seed": 0, "first": "head",
                  "head": _side(1)[0], "base": _side(1)[0]}]
        path = tmp_path / ab_gate.PAIRS_FILE
        ab_gate.write_pairs(path, ROOT, tmp_path, pairs)
        doc = json.loads(path.read_text())
        assert doc["pairs"] == pairs
        assert (doc["head"], doc["base"]) == (str(ROOT), str(tmp_path))


class TestRetiredGates:
    #: Each ``patternlet bench`` gate the A/B replaced, with the
    #: direction and tolerance it was gated at.
    RETIRED = {
        "served_runs_s": ("higher", 0.30),
        "serve_p50_ms": ("lower", 0.30),
        "serve_p99_ms": ("lower", 0.30),
        "batch_throughput_runs_s": ("higher", 0.30),
    }

    #: Gates on a path no ``patternlet bench`` gate timed.
    NEW = {("grade-cold", "ops_per_s")}

    def test_each_retired_gate_maps_to_an_ab_gated_metric(self):
        specs = {m["name"]: m for m in BENCH_DOC["end_to_end"]}
        workloads = {w["name"] for w in BENCH_DOC["workloads"]}
        gates = {retired: (workload, metric, better, bound)
                 for workload, metric, retired, better, bound
                 in ab_gate.perfbench_gates(BENCH_DOC) if retired is not None}
        assert set(gates) == set(self.RETIRED)
        for retired, (workload, metric, better, bound) in gates.items():
            assert workload in workloads and workload in ab_gate.WORKLOADS
            # Name, direction and bound come from BENCHMARK.json...
            assert (better, bound) == (specs[metric]["better"],
                                       specs[metric]["bound"])
            # ...keep the retired gate's direction, and widen no bound.
            old_better, old_tolerance = self.RETIRED[retired]
            assert better == old_better
            assert bound <= old_tolerance

    def test_every_other_gate_is_new_and_reads_its_bound(self):
        specs = {m["name"]: m for m in BENCH_DOC["end_to_end"]}
        new = [(workload, metric, better, bound)
               for workload, metric, retired, better, bound
               in ab_gate.perfbench_gates(BENCH_DOC) if retired is None]
        assert {(w, m) for w, m, _, _ in new} == self.NEW
        for workload, metric, better, bound in new:
            assert workload in ab_gate.WORKLOADS
            assert (better, bound) == (specs[metric]["better"],
                                       specs[metric]["bound"])

    def test_the_bound_is_read_not_hardcoded(self):
        doc = copy.deepcopy(BENCH_DOC)
        for metric in doc["end_to_end"]:
            if metric["name"] == "p99_ms":
                metric["bound"] = 0.5
        head = _side()
        for run in head:
            run["lab-serve"]["metrics"]["p99_ms"]["value"] *= 1.4
        assert _verdict(head, _side())[1] != []
        assert ab_gate.verdict(head, _side(), doc)[1] == []


class TestArguments:
    def test_takes_exactly_one_second_tree(self, tmp_path, capsys):
        assert ab_gate.main([]) == 2
        assert ab_gate.main([str(tmp_path), str(tmp_path)]) == 2
        assert ab_gate.main([str(tmp_path)]) == 2  # no program there
        assert ab_gate.main([str(ROOT)]) == 2  # this tree against itself
        assert "usage:" in capsys.readouterr().err
