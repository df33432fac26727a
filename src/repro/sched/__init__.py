"""Execution substrate shared by the SMP and MP runtimes.

The parallel-pattern runtimes in this library (``repro.smp``, ``repro.mp``)
are written once against the small :class:`~repro.sched.base.Executor`
interface defined here, and can therefore run in either of two modes:

- :class:`~repro.sched.threaded.ThreadExecutor` — each task is a real OS
  thread.  Interleavings are genuinely nondeterministic, exactly like the C
  programs in the paper; a watchdog converts silent deadlocks into
  :class:`~repro.errors.DeadlockError`.

- :class:`~repro.sched.lockstep.LockstepExecutor` — tasks are still threads,
  but exactly one runs at a time and control transfers only at explicit
  *checkpoints* (prints, synchronisation operations, message sends, injected
  race points), chosen by a seeded policy.  The same seed always produces
  the same interleaving, which makes race conditions, barrier orderings and
  deadlocks *replayable* — the property the paper's live-coding pedagogy
  relies on the projector for.

Both executors run task bodies on threads **leased** from the process-wide
rank pool (:mod:`repro.sched.pool`), so back-to-back runs — the batch
runner's bread and butter — reuse parked OS threads instead of paying
thread creation/teardown per rank per run.

Use :func:`make_executor` to construct one from a mode string.
"""

from __future__ import annotations

from repro.sched.base import (
    Executor,
    TaskGroup,
    current_task_label,
    set_task_label,
)
from repro.sched.lockstep import LockstepExecutor
from repro.sched.policy import (
    FifoPolicy,
    LifoPolicy,
    Policy,
    RandomPolicy,
    RoundRobinPolicy,
    make_policy,
)
from repro.sched.pool import (
    RankThreadPool,
    pool_stats,
    reset_pool,
    shutdown_pool,
)
from repro.sched.threaded import ThreadExecutor

__all__ = [
    "Executor",
    "TaskGroup",
    "ThreadExecutor",
    "LockstepExecutor",
    "Policy",
    "RandomPolicy",
    "RoundRobinPolicy",
    "FifoPolicy",
    "LifoPolicy",
    "make_policy",
    "make_executor",
    "current_task_label",
    "set_task_label",
    "RankThreadPool",
    "pool_stats",
    "reset_pool",
    "shutdown_pool",
]


def make_executor(
    mode: str = "thread",
    *,
    seed: int = 0,
    policy: str = "random",
    deadlock_timeout: float = 30.0,
) -> Executor:
    """Build an executor from a mode string.

    Parameters
    ----------
    mode:
        ``"thread"`` for real OS threads (nondeterministic, like the paper's
        C programs) or ``"lockstep"`` for the deterministic seeded scheduler.
    seed:
        Interleaving seed (lockstep mode only).
    policy:
        Switch policy name for lockstep mode: ``"random"``, ``"roundrobin"``,
        ``"fifo"`` or ``"lifo"``.
    deadlock_timeout:
        Seconds of global inactivity after which the threaded executor's
        watchdog raises :class:`~repro.errors.DeadlockError`.
    """
    if mode == "thread":
        return ThreadExecutor(deadlock_timeout=deadlock_timeout)
    if mode == "lockstep":
        return LockstepExecutor(policy=make_policy(policy, seed=seed))
    raise ValueError(f"unknown executor mode {mode!r} (use 'thread' or 'lockstep')")
