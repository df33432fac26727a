"""An aborted lockstep world unwinds one task at a time, in task order.

When a deadlock or the step limit aborts a world, the task that hit the
abort unwinds first, by itself; every task that finishes then wakes the
lowest-tid task still parked.  No two tasks unwind at once, so the
unwind's ``sched.done`` events land in the same order on every run of
the same spec, as every other event does.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import DeadlockError, ParallelError, SchedulerError
from repro.sched import make_executor
from repro.sched.lockstep import LockstepExecutor
from repro.sched.policy import RandomPolicy
from repro.trace import using_recorder


def _run(ex, bodies):
    """Run ``bodies`` as ``t0..tN``; return the error and the sched events."""
    labels = [f"t{i}" for i in range(len(bodies))]
    with using_recorder() as rec:
        with pytest.raises((DeadlockError, SchedulerError, ParallelError)) as ei:
            ex.run_tasks(bodies, labels)
    events = [(ev.kind, ev.task) for ev in rec.events() if ev.kind.startswith("sched.")]
    return ei.value, events


def _done(events):
    return [task for kind, task in events if kind == "sched.done"]


def _tid(label):
    return int(label[1:])


class TestDeadlock:
    @pytest.mark.parametrize("np_", [2, 3, 5, 8])
    def test_detector_first_then_task_order(self, np_):
        # Under FIFO the tasks block in tid order, so the last one finds
        # the runnable set empty and detects the deadlock.  It unwinds
        # first; the parked tasks follow from t0 up.
        ex = make_executor("lockstep", policy="fifo")

        def stuck():
            ex.wait_until(lambda: False, describe="never")

        err, events = _run(ex, [stuck] * np_)
        assert isinstance(err, DeadlockError)
        last = f"t{np_ - 1}"
        assert _done(events) == [last] + [f"t{i}" for i in range(np_ - 1)]

    def test_random_block_order_still_unwinds_in_task_order(self):
        for seed in range(8):
            ex = LockstepExecutor(policy=RandomPolicy(seed))

            def stuck():
                ex.checkpoint()
                ex.wait_until(lambda: False, describe="never")

            err, events = _run(ex, [stuck] * 6)
            assert isinstance(err, DeadlockError)
            blocks = [task for kind, task in events if kind == "sched.block"]
            done = _done(events)
            assert done[0] == blocks[-1], seed
            assert done[1:] == sorted(done[1:], key=_tid), seed
            assert sorted(done, key=_tid) == [f"t{i}" for i in range(6)]

    def test_nested_group_unwinds_in_task_order(self):
        # A hybrid world: the outer task t0 waits on its nested group,
        # whose children all block.  The last child to block detects the
        # deadlock; then t0 (lowest tid) unwinds, then the other children.
        ex = make_executor("lockstep", policy="fifo")

        def stuck():
            ex.wait_until(lambda: False, describe="never")

        def parent():
            ex.run_tasks([stuck] * 3, ["c0", "c1", "c2"], group_label="inner")

        with using_recorder() as rec:
            with pytest.raises((DeadlockError, ParallelError)):
                ex.run_tasks([parent], ["p"])
        done = [ev.task for ev in rec.events() if ev.kind == "sched.done"]
        assert done == ["c2", "p", "c0", "c1"]

    def test_spawned_tasks_unwind_before_the_run_returns(self):
        # Spawned workers have higher tids than main, so they unwind
        # after it; the run waits for them, and their sched.done events
        # land in this run's recorder, not in whatever comes next.
        for seed in range(10):
            ex = LockstepExecutor(policy=RandomPolicy(seed))

            def stuck():
                ex.wait_until(lambda: False, describe="never")

            def main():
                handles = [ex.spawn(stuck, f"w{k}") for k in range(3)]
                for h in handles:
                    h.join()

            with using_recorder() as rec:
                with pytest.raises((DeadlockError, ParallelError)):
                    ex.run_tasks([main], ["main"])
            events = [(ev.kind, ev.task) for ev in rec.events()]
            blocks = [task for kind, task in events if kind == "sched.block"]
            done = _done(events)
            tid_order = ["main", "w0", "w1", "w2"]
            assert done[0] == blocks[-1], seed
            assert done[1:] == [t for t in tid_order if t != done[0]], seed

    def test_unwinding_tasks_run_one_at_a_time(self):
        # Each task's unwind holds a window open; a second task unwinding
        # concurrently would find the window taken.
        ex = LockstepExecutor()
        lock = threading.Lock()
        inside = [0]
        overlaps = []

        def stuck():
            try:
                ex.wait_until(lambda: False, describe="never")
            finally:
                with lock:
                    inside[0] += 1
                    overlaps.append(inside[0])
                time.sleep(0.002)
                with lock:
                    inside[0] -= 1

        err, events = _run(ex, [stuck] * 8)
        assert isinstance(err, DeadlockError)
        assert len(overlaps) == 8
        assert max(overlaps) == 1


class TestStepLimit:
    def test_caller_first_then_task_order(self):
        # The task holding the token when the limit is crossed unwinds
        # first (it was the last one handed the token); the rest follow
        # in tid order.
        for seed in range(5):
            ex = LockstepExecutor(policy=RandomPolicy(seed), max_steps=30)

            def spin():
                while True:
                    ex.checkpoint()

            err, events = _run(ex, [spin] * 5)
            assert isinstance(err, SchedulerError), seed
            runs = [task for kind, task in events if kind == "sched.run"]
            done = _done(events)
            assert done[0] == runs[-1], seed
            assert done[1:] == sorted(done[1:], key=_tid), seed
            assert len(done) == 5

    def test_never_started_tasks_unwind_in_task_order(self):
        # The limit is crossed at the first switch: only one body ever
        # ran.  The never-started bodies are started to unwind, one at a
        # time, without running.
        ex = LockstepExecutor(max_steps=1)
        started = []

        def spin():
            started.append(1)
            while True:
                ex.checkpoint()

        err, events = _run(ex, [spin] * 6)
        assert isinstance(err, SchedulerError)
        assert len(started) == 1
        done = _done(events)
        assert len(done) == 6
        assert done[1:] == sorted(done[1:], key=_tid)
