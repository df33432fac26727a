"""Executor contract tests, run against both implementations."""

import pytest

from repro.errors import DeadlockError, ParallelError, SchedulerError
from repro.mp import MpRuntime, mpirun
from repro.sched import LockstepExecutor, ThreadExecutor, make_executor
from repro.sched.base import current_task_label
from repro.trace import using_recorder


def make(mode):
    if mode == "thread":
        return make_executor("thread", deadlock_timeout=5.0)
    return make_executor("lockstep", seed=0)


class TestForkJoin:
    def test_results_in_task_order(self, any_mode):
        ex = make(any_mode)
        g = ex.run_tasks(
            [lambda i=i: i * i for i in range(5)], [f"t{i}" for i in range(5)]
        )
        assert g.results() == [0, 1, 4, 9, 16]

    def test_labels_visible_inside_tasks(self, any_mode):
        ex = make(any_mode)
        g = ex.run_tasks([current_task_label] * 3, ["a", "b", "c"])
        assert g.results() == ["a", "b", "c"]

    def test_label_cleared_after_run(self, any_mode):
        ex = make(any_mode)
        ex.run_tasks([lambda: None], ["x"])
        assert current_task_label() is None

    def test_empty_group(self, any_mode):
        ex = make(any_mode)
        g = ex.run_tasks([], [])
        assert g.results() == []

    def test_mismatched_lengths_raise(self, any_mode):
        ex = make(any_mode)
        with pytest.raises(ValueError):
            ex.run_tasks([lambda: 1], ["a", "b"])

    def test_single_task(self, any_mode):
        ex = make(any_mode)
        assert make(any_mode).run_tasks([lambda: 42], ["only"]).results() == [42]

    def test_on_group_called_before_tasks_start(self, any_mode):
        ex = make(any_mode)
        seen = {}

        def on_group(group):
            seen["failed_at_publish"] = group.failed
            seen["group"] = group

        def task():
            # The group must already be published when tasks run.
            return seen["group"].label

        g = ex.run_tasks([task], ["t"], group_label="pub", on_group=on_group)
        assert seen["failed_at_publish"] is False
        assert g.results() == ["pub"]


class TestFailures:
    def test_exception_aggregated(self, any_mode):
        ex = make(any_mode)

        def boom():
            raise ValueError("pow")

        with pytest.raises(ParallelError) as ei:
            ex.run_tasks([boom, lambda: 1], ["bad", "good"])
        assert [type(c) for c in ei.value.causes] == [ValueError]

    def test_multiple_failures_all_reported(self, any_mode):
        ex = make(any_mode)

        def boom(msg):
            def inner():
                raise RuntimeError(msg)

            return inner

        with pytest.raises(ParallelError) as ei:
            ex.run_tasks([boom("a"), boom("b")], ["x", "y"])
        assert len(ei.value.failures) == 2

    def test_survivor_results_still_recorded(self, any_mode):
        ex = make(any_mode)

        def boom():
            raise ValueError()

        with pytest.raises(ParallelError) as ei:
            ex.run_tasks([boom, lambda: "ok"], ["bad", "good"])
        # The group is inside the error's failures; survivors finished.
        assert ei.value.failures[0].label == "bad"

    def test_group_failed_flag_set(self, any_mode):
        ex = make(any_mode)
        holder = {}

        def on_group(g):
            holder["g"] = g

        def boom():
            raise ValueError()

        with pytest.raises(ParallelError):
            ex.run_tasks([boom], ["bad"], on_group=on_group)
        assert holder["g"].failed is True


class TestWaitNotify:
    def test_producer_consumer(self, any_mode):
        ex = make(any_mode)
        box = []

        def producer():
            box.append(1)
            ex.notify()

        def consumer():
            ex.wait_until(lambda: box, describe="item")
            return box[0]

        g = ex.run_tasks([consumer, producer], ["c", "p"])
        assert g.results()[0] == 1

    def test_deadlock_detected(self, any_mode):
        ex = make(any_mode)

        def stuck():
            ex.wait_until(lambda: False, describe="godot")

        with pytest.raises((DeadlockError, ParallelError)) as ei:
            ex.run_tasks([stuck], ["waiter"])
        err = ei.value
        if isinstance(err, ParallelError):
            assert isinstance(err.causes[0], DeadlockError)

    def test_lockstep_deadlock_names_blocked_tasks(self):
        ex = make_executor("lockstep", seed=0)

        def stuck():
            ex.wait_until(lambda: False, describe="the impossible")

        with pytest.raises(DeadlockError) as ei:
            ex.run_tasks([stuck, stuck], ["a", "b"])
        assert set(ei.value.blocked) == {"a", "b"}
        assert "the impossible" in ei.value.blocked["a"]


class TestNested:
    def test_nested_groups(self, any_mode):
        ex = make(any_mode)

        def outer():
            inner = ex.run_tasks([lambda: "x", lambda: "y"], ["i0", "i1"])
            return inner.results()

        g = ex.run_tasks([outer, lambda: "z"], ["o", "p"])
        assert g.results() == [["x", "y"], "z"]

    def test_deeply_nested(self, any_mode):
        ex = make(any_mode)

        def level(depth):
            if depth == 0:
                return 1
            g = ex.run_tasks(
                [lambda: level(depth - 1)] * 2, [f"d{depth}a", f"d{depth}b"]
            )
            return sum(g.results())

        g = ex.run_tasks([lambda: level(3)], ["root"])
        assert g.results() == [8]


class TestSpawn:
    def test_spawn_join_returns_result(self, any_mode):
        ex = make(any_mode)

        def program():
            h = ex.spawn(lambda: 99, "child")
            return h.join()

        assert ex.run_tasks([program], ["main"]).results() == [99]

    def test_spawn_failure_raised_at_join(self, any_mode):
        ex = make(any_mode)

        def bad():
            raise KeyError("nope")

        def program():
            h = ex.spawn(bad, "child")
            with pytest.raises(Exception) as ei:
                h.join()
            return type(ei.value).__name__

        got = ex.run_tasks([program], ["main"]).results()[0]
        assert got == "TaskFailedError"

    def test_lockstep_spawn_from_unmanaged_rejected(self):
        ex = make_executor("lockstep", seed=0)
        with pytest.raises(SchedulerError, match="managed caller"):
            ex.spawn(lambda: 1, "orphan")

    def test_many_spawns(self, any_mode):
        ex = make(any_mode)

        def program():
            handles = [ex.spawn(lambda i=i: i, f"c{i}") for i in range(8)]
            return [h.join() for h in handles]

        assert ex.run_tasks([program], ["main"]).results()[0] == list(range(8))


class TestLockstepDeterminism:
    def _interleaving(self, seed, policy="random"):
        ex = make_executor("lockstep", seed=seed, policy=policy)
        log = []

        def mk(i):
            def body():
                for k in range(4):
                    log.append((i, k))
                    ex.checkpoint()

            return body

        ex.run_tasks([mk(i) for i in range(3)], [f"t{i}" for i in range(3)])
        return log

    def test_same_seed_identical(self):
        assert self._interleaving(11) == self._interleaving(11)

    def test_different_seed_differs(self):
        runs = {tuple(self._interleaving(s)) for s in range(6)}
        assert len(runs) > 1

    def test_fifo_serialises(self):
        log = self._interleaving(0, policy="fifo")
        # Under FIFO each task runs to completion before the next starts.
        assert log == [(i, k) for i in range(3) for k in range(4)]

    def test_trace_records_events(self):
        ex = make_executor("lockstep", seed=3)
        with using_recorder() as rec:
            ex.run_tasks([lambda: None] * 2, ["a", "b"])
        events = [(ev.kind, ev.task) for ev in rec.events()]
        assert ("sched.done", "a") in events and ("sched.done", "b") in events

    @pytest.mark.parametrize("workload", ["spinners", "producer-consumer"])
    def test_step_count_counts_every_token_handoff(self, workload):
        # Every switch that hands the token to another task is one step
        # and one sched.run event; switch_rate_np64 divides by the count.
        ex = make_executor("lockstep", seed=5)
        box = []

        def spinner():
            for _ in range(40):
                ex.checkpoint()

        def producer():
            for i in range(20):
                box.append(i)
                ex.notify()

        def consumer():
            for i in range(20):
                ex.wait_until(lambda i=i: len(box) > i, describe="item")

        bodies = {
            "spinners": [spinner] * 3,
            "producer-consumer": [consumer, producer],
        }[workload]
        with using_recorder() as rec:
            ex.run_tasks(bodies, [f"t{i}" for i in range(len(bodies))])
        runs = sum(1 for ev in rec.events() if ev.kind == "sched.run")
        assert ex.step_count == runs > len(bodies)

    def test_step_limit_aborts_livelock(self):
        ex = LockstepExecutor(max_steps=100)

        def spinner():
            while True:
                ex.checkpoint()

        with pytest.raises(SchedulerError, match="step limit"):
            ex.run_tasks([spinner, spinner], ["s1", "s2"])


class TestThreadWatchdog:
    def test_watchdog_fires_without_progress(self):
        ex = ThreadExecutor(deadlock_timeout=0.6)
        with pytest.raises(ParallelError) as ei:
            ex.run_tasks(
                [lambda: ex.wait_until(lambda: False, describe="never")], ["w"]
            )
        assert isinstance(ei.value.causes[0], DeadlockError)

    def test_notify_resets_watchdog(self):
        ex = ThreadExecutor(deadlock_timeout=1.5)
        state = {"n": 0}

        def ticker():
            import time

            for _ in range(4):
                time.sleep(0.5)
                state["n"] += 1
                ex.notify()

        def waiter():
            # Needs ~2s total but progress arrives every 0.5s, so the
            # 1.5s notify-free watchdog must not fire.
            ex.wait_until(lambda: state["n"] >= 4, describe="four ticks")
            return state["n"]

        g = ex.run_tasks([waiter, ticker], ["w", "t"])
        assert g.results()[0] == 4

    def test_bad_timeout_rejected(self):
        with pytest.raises(ValueError):
            ThreadExecutor(deadlock_timeout=0)


class TestFactory:
    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown executor mode"):
            make_executor("fibers")

    def test_modes_expose_name(self):
        assert make_executor("thread").mode == "thread"
        assert make_executor("lockstep").mode == "lockstep"

    @pytest.mark.parametrize(
        "build",
        [
            lambda: LockstepExecutor(batch=4),
            lambda: make_executor("lockstep", batch=4),
            lambda: MpRuntime(mode="lockstep", batch=4),
        ],
        ids=["LockstepExecutor", "make_executor", "MpRuntime"],
    )
    def test_lockstep_has_no_batch_knob(self, build):
        # One policy decision per switch point is the only arbitration.
        with pytest.raises(TypeError, match="batch"):
            build()

    def test_mpirun_hands_batch_to_main_like_any_keyword(self):
        def main(comm, batch):
            return batch

        assert mpirun(2, main, mode="lockstep", batch=4).results == [4, 4]


class TestLabelUtilities:
    def test_task_label_scope_restores(self):
        from repro.sched.base import current_task_label, task_label_scope

        assert current_task_label() is None
        with task_label_scope("custom:0"):
            assert current_task_label() == "custom:0"
            with task_label_scope("custom:0/inner"):
                assert current_task_label() == "custom:0/inner"
            assert current_task_label() == "custom:0"
        assert current_task_label() is None

    def test_scope_attributes_captured_output(self):
        from repro.core.capture import OutputRecorder
        from repro.sched.base import task_label_scope

        with OutputRecorder() as rec:
            with task_label_scope("narrator"):
                print("attributed line")
        assert rec.run.records == [("narrator", "attributed line")]

    def test_task_record_ok_flag(self):
        from repro.sched.base import TaskRecord

        rec = TaskRecord(0, "x")
        assert rec.ok
        rec.exception = ValueError()
        assert not rec.ok
