"""Post-hoc metric derivation from the trace spine."""

from repro.core.registry import run_patternlet
from repro.obs import blocked_intervals, derive_metrics, run_summary
from repro.trace import TraceRecorder


def _rec(*events):
    rec = TraceRecorder()
    for kind, task, payload in events:
        rec.emit(kind, task=task, **payload)
    return rec


class TestBlockedIntervals:
    def test_block_run_pair_is_one_interval(self):
        rec = _rec(
            ("sched.block", "omp:0", {}),
            ("sched.run", "omp:1", {}),
            ("sched.run", "omp:0", {}),
            ("barrier.depart", "omp:0", {}),
        )
        assert blocked_intervals(rec) == [("omp:0", 0, 2, "barrier")]

    def test_reason_comes_from_first_semantic_event(self):
        rec = _rec(
            ("sched.block", "mpi:1", {}),
            ("sched.run", "mpi:1", {}),
            ("msg.recv", "mpi:1", {"size": 8}),
        )
        assert blocked_intervals(rec)[0][3] == "recv"

    def test_unresolved_interval_is_other(self):
        rec = _rec(
            ("sched.block", "omp:0", {}),
            ("sched.run", "omp:0", {}),
        )
        assert blocked_intervals(rec) == [("omp:0", 0, 1, "other")]

    def test_no_blocks_no_intervals(self):
        rec = _rec(("sched.run", "main", {}), ("io.print", "main", {}))
        assert blocked_intervals(rec) == []


class TestDeriveMetrics:
    def test_counters_from_synthetic_stream(self):
        rec = _rec(
            ("sched.run", "omp:0", {}),
            ("msg.send", "omp:0", {"size": 40, "dest": 1}),
            ("io.print", "omp:0", {}),
            ("critical.acquire", "omp:0", {}),
            ("critical.release", "omp:0", {}),
            ("atomic.release", "omp:0", {}),
        )
        reg = derive_metrics(rec)
        t = {"task": "omp:0"}
        assert reg.get("sched_switches").value(t) == 1
        assert reg.get("messages_sent").value(t) == 1
        assert reg.get("message_bytes_sent").value(t) == 40
        assert reg.get("lines_printed").value(t) == 1
        assert reg.get("critical_acquisitions").value(t) == 1
        assert reg.get("atomic_updates").value(t) == 1
        # Hold time: release seq 4 minus acquire seq 3.
        assert reg.get("critical_hold_steps").value(t) == 1

    def test_counter_exemplars_link_the_trace(self):
        rec = _rec(("msg.send", "mpi:0", {"size": 8, "dest": 1}))
        reg = derive_metrics(rec)
        labels, _ = reg.get("messages_sent").exemplars[(("task", "mpi:0"),)]
        assert dict(labels) == {"trace_seq": "0"}

    def test_real_run_send_recv_balance(self):
        run = run_patternlet("mpi.messagePassing", tasks=4, seed=0)
        reg = derive_metrics(run.trace)
        assert reg.get("messages_sent").total() == 4
        assert reg.get("messages_received").total() == 4
        assert (
            reg.get("message_bytes_sent").total()
            == reg.get("message_bytes_received").total()
        )


class TestRunSummary:
    def test_speedup_and_efficiency(self):
        run = run_patternlet("openmp.parallelLoopEqualChunks", tasks=4, seed=0)
        s = run_summary(run.trace, tasks_hint=4)
        assert s["span"] > 0 and s["total_work"] >= s["span"]
        assert s["speedup"] > 1.0
        assert 0.0 < s["efficiency"] <= 1.0

    def test_message_matrix_is_rank_addressed(self):
        run = run_patternlet("mpi.messagePassing", tasks=4, seed=0)
        s = run_summary(run.trace, tasks_hint=4)
        # The ring pattern: each rank sends once to its neighbour.
        assert s["messages"]["total"] == 4
        assert set(s["messages"]["matrix"]) == {
            "0->1", "1->2", "2->3", "3->0"
        }

    def test_barrier_summary_counts_generations(self):
        run = run_patternlet(
            "openmp.barrier", tasks=4, toggles={"barrier": True}, seed=0
        )
        s = run_summary(run.trace, tasks_hint=4)
        assert s["barrier"]["generations"] >= 1
        assert 0.0 <= s["barrier"]["imbalance_fraction"] <= 1.0

    def test_critical_serialisation_fraction(self):
        run = run_patternlet(
            "openmp.critical", tasks=4, toggles={"critical": True}, seed=0
        )
        s = run_summary(run.trace, tasks_hint=4)
        assert s["critical"]["acquisitions"] >= 4
        assert 0.0 < s["critical"]["serialisation_fraction"] <= 1.0

    def test_race_verdict_rides_along(self):
        racy = run_patternlet(
            "openmp.reduction", toggles={"parallel_for": True}, seed=1
        )
        assert run_summary(racy.trace)["races"] > 0
        fixed = run_patternlet(
            "openmp.reduction",
            toggles={"parallel_for": True, "reduction": True},
            seed=1,
        )
        assert run_summary(fixed.trace)["races"] == 0


class TestMetricsDict:
    def test_summary_is_derived_once(self, monkeypatch):
        import repro.obs.derive as derive

        run = run_patternlet("openmp.reduction", toggles={"parallel_for": True}, seed=1)
        real = derive.run_summary
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(derive, "run_summary", counting)
        doc = derive.metrics_dict(run)
        assert len(calls) == 1
        assert doc["summary"] == real(run.trace, tasks_hint=run.meta.get("tasks"))


class TestLoopScheduleHistograms:
    """The three loop-schedule patternlets, as per-rank work numbers —
    the quantitative form of the paper's Fig. 15/16/17 comparison."""

    def test_equal_chunks_is_perfectly_balanced(self):
        run = run_patternlet(
            "openmp.parallelLoopEqualChunks", tasks=4, seed=0
        )
        s = run_summary(run.trace, tasks_hint=4)
        iters = s["loop"]["iterations"]
        assert s["loop"]["schedules"] == ["static"]
        assert set(iters.values()) == {2}  # 8 iterations, 4 tasks, 2 each

    def test_chunks_of_1_is_balanced_but_interleaved(self):
        run = run_patternlet("openmp.parallelLoopChunksOf1", tasks=4, seed=0)
        s = run_summary(run.trace, tasks_hint=4)
        assert set(s["loop"]["iterations"].values()) == {2}

    def test_dynamic_balances_unevenly_by_demand(self):
        run = run_patternlet("openmp.parallelLoopDynamic", tasks=4, seed=0)
        s = run_summary(run.trace, tasks_hint=4)
        iters = s["loop"]["iterations"]
        assert s["loop"]["schedules"] == ["dynamic"]
        assert sum(iters.values()) == 12
        # Demand-driven: the split differs across tasks for this seed.
        assert len(set(iters.values())) > 1

    def test_dynamic_split_varies_with_seed(self):
        splits = set()
        for seed in range(6):
            run = run_patternlet(
                "openmp.parallelLoopDynamic", tasks=4, seed=seed
            )
            s = run_summary(run.trace, tasks_hint=4)
            splits.add(tuple(sorted(s["loop"]["iterations"].items())))
        assert len(splits) > 1  # scheduling order actually matters
