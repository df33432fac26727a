"""Batched switch-point arbitration: determinism, equivalence, liveness.

``LockstepExecutor(batch=k)`` services ``k`` switch points per full policy
decision by granting the chosen task a quantum of free checkpoint passes.
The contract pinned here: the interleaving is a pure function of
``(seed, batch)``; computed *values* are batch-invariant for race-free
programs; blocking always cancels the quantum (no starvation, deadlocks
still detected); and the default ``batch=1`` remains the golden-pinned
classroom stream (``test_golden_interleavings.py`` holds that pin).
"""

from __future__ import annotations

import pytest

from repro.errors import DeadlockError, ParallelError
from repro.mp import mpirun
from repro.sched.lockstep import LockstepExecutor
from repro.sched.policy import RandomPolicy
from repro.trace import using_recorder


def _spinner_trace(seed: int, batch: int, tasks: int = 3, k: int = 40):
    ex = LockstepExecutor(policy=RandomPolicy(seed), batch=batch)

    def body():
        for _ in range(k):
            ex.checkpoint()

    with using_recorder() as rec:
        ex.run_tasks([body] * tasks, [f"t{i}" for i in range(tasks)])
    steps = [(ev.kind, ev.task) for ev in rec.events() if ev.kind.startswith("sched.")]
    return steps, ex.step_count


class TestDeterminism:
    @pytest.mark.parametrize("batch", [1, 4, 16])
    def test_same_seed_and_batch_identical(self, batch):
        a = _spinner_trace(7, batch)
        b = _spinner_trace(7, batch)
        assert a == b

    def test_different_batch_may_differ_but_both_replay(self):
        # Not asserting inequality of streams (small runs can coincide) —
        # only that each (seed, batch) pair is individually stable.
        for batch in (1, 2, 8):
            assert _spinner_trace(3, batch) == _spinner_trace(3, batch)

    def test_steps_count_serviced_switch_points(self):
        # Every checkpoint is a serviced switch point whether it was a
        # full arbitration or a free quantum pass: the counter must not
        # shrink with batch (it feeds the switch_rate benchmark).
        _, steps_b1 = _spinner_trace(0, 1)
        _, steps_b16 = _spinner_trace(0, 16)
        assert steps_b16 >= steps_b1 - 16  # final-arbitration slack only


class TestValueEquivalence:
    @pytest.mark.parametrize("batch", [1, 4, 16, 64])
    def test_allreduce_values_batch_invariant(self, batch):
        def main(comm):
            return comm.allreduce(comm.rank)

        res = mpirun(8, main, mode="lockstep", seed=0, batch=batch)
        assert res.results == [28] * 8

    @pytest.mark.parametrize("batch", [1, 16])
    def test_p2p_stream_batch_invariant(self, batch):
        def main(comm):
            if comm.rank == 0:
                for i in range(20):
                    comm.send([i], dest=1, tag=0)
                return None
            return [comm.recv(source=0, tag=0)[0] for _ in range(20)]

        res = mpirun(2, main, mode="lockstep", seed=0, batch=batch)
        assert res.results[1] == list(range(20))


class TestLiveness:
    @pytest.mark.parametrize("batch", [4, 16])
    def test_deadlock_still_detected_under_batch(self, batch):
        def main(comm):
            # Everyone receives, nobody sends.
            comm.recv(source=(comm.rank + 1) % comm.size, tag=0)

        with pytest.raises((DeadlockError, ParallelError)):
            mpirun(3, main, mode="lockstep", seed=0, batch=batch)

    def test_blocking_cancels_quantum(self):
        # Producer/consumer with batch far larger than the run: if a
        # blocked task kept (or was charged) its quantum, the consumer
        # would spin on a false predicate or the producer would starve.
        def main(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, dest=1, tag=0)
                return None
            return [comm.recv(source=0, tag=0) for _ in range(5)]

        res = mpirun(2, main, mode="lockstep", seed=0, batch=1000)
        assert res.results[1] == [0, 1, 2, 3, 4]


class TestValidation:
    @pytest.mark.parametrize("bad", [0, -1, 1.5, "2", None])
    def test_invalid_batch_rejected(self, bad):
        with pytest.raises((ValueError, TypeError)):
            LockstepExecutor(batch=bad)

    def test_batch_reaches_executor_through_mpirun(self):
        def main(comm):
            return comm.rank

        res = mpirun(2, main, mode="lockstep", seed=0, batch=8)
        assert res.world.executor.batch == 8
