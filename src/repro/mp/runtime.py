"""World lifecycle: the ``mpirun`` analogue.

Where the paper runs::

    mpirun -np 4 ./spmd

this library runs::

    from repro.mp import mpirun

    def main(comm):
        print(f"Hello from process {comm.rank} of {comm.size} "
              f"on {comm.Get_processor_name()}")

    mpirun(4, main)

Each rank is a task on the configured executor with private state enforced
by copy-on-send messaging; the :class:`WorldResult` carries per-rank return
values, the wall time, and the LogP *span* (critical-path virtual time).

A failed rank marks the world broken, which promptly unblocks every rank
waiting in a receive or collective; the launcher then raises a
:class:`~repro.errors.ParallelError` carrying the original exception(s).
Deadlocks surface as :class:`~repro.errors.DeadlockError` — immediately
under the lockstep executor, via watchdog under real threads.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Callable

from repro import trace as _trace
from repro.mp.cluster import Cluster
from repro.mp.comm import Comm
from repro.mp.communicators import create_communicator, default_topology
from repro.mp.mailbox import Mailbox
from repro.mp.vtime import LogPCosts, NetworkModel, RankClock, network_profile
from repro.sched import Executor, make_executor
from repro.sched.base import TaskGroup, current_task_label

__all__ = ["World", "WorldResult", "MpRuntime", "mpirun"]


class World:
    """Shared bookkeeping of one launched world (one ``mpirun``)."""

    def __init__(self, runtime: "MpRuntime", size: int, label: str):
        if size <= 0:
            raise ValueError("world size must be positive")
        self.runtime = runtime
        self.size = size
        self.label = label
        # Lockstep worlds run one task at a time: their mailboxes can
        # never see concurrent access, so they drop the per-op lock.
        locked = runtime.executor.mode != "lockstep"
        self.mailboxes = [Mailbox(r, locked=locked) for r in range(size)]
        #: Message uids: the world's arrival order, which wildcard
        #: receives follow, numbered per world so a run's trace does not
        #: depend on the runs before it.
        self.msg_ids = itertools.count()
        self.clocks = [RankClock() for _ in range(size)]
        self.costs = runtime.costs
        self.cluster = runtime.cluster
        self.network = runtime.network
        self.communicator = runtime.communicator
        self.topology = runtime.topology
        # Each rank's hosting node: the hierarchical communicator groups
        # by it, and heterogeneous transports index per-destination link
        # costs with it.  ``hetero`` gates the scalar fast path in Comm.
        self.hetero = not runtime.network.uniform
        cluster = self.cluster
        self.rank_nodes = [cluster.node_of(r, size) for r in range(size)]
        #: One shared world-rank list handed to every rank's Comm (which
        #: adopts plain lists without copying): building np copies of a
        #: length-np list made world setup O(np^2) — ruinous at np=1024.
        self.ranks = list(range(size))
        self.group: TaskGroup | None = None
        #: Trace scope naming this world's events (set by the launcher).
        self.scope = label

    @property
    def executor(self) -> Executor:
        return self.runtime.executor

    @property
    def broken(self) -> bool:
        return self.group is not None and self.group.failed

    @property
    def span(self) -> float:
        """Critical-path virtual time so far (max rank clock)."""
        return max(c.now for c in self.clocks)

    def undelivered_messages(self) -> int:
        """Messages never received (leak diagnostics for tests)."""
        return sum(m.pending() for m in self.mailboxes)


class WorldResult:
    """Outcome of one world run."""

    def __init__(
        self,
        *,
        world: World,
        results: list[Any],
        span: float,
        wall: float,
    ):
        #: Per-rank return values of ``main``, indexed by rank.
        self.results = results
        #: Critical-path virtual time (LogP units).
        self.span = span
        #: Real elapsed seconds.
        self.wall = wall
        self.world = world

    @property
    def size(self) -> int:
        return self.world.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WorldResult(np={self.world.size}, span={self.span:.3g}, "
            f"wall={self.wall:.3g}s)"
        )


class MpRuntime:
    """Factory for worlds: holds the executor, cost model, and cluster shape.

    Parameters mirror :class:`~repro.smp.runtime.SmpRuntime`: ``mode`` is
    ``"thread"`` (real threads, nondeterministic) or ``"lockstep"``
    (deterministic seeded interleavings); ``costs`` is the LogP model;
    ``cluster`` maps ranks onto named nodes.

    ``network`` generalises ``costs``: a :class:`NetworkModel` instance,
    or a profile name from :data:`~repro.mp.vtime.NETWORK_PROFILES`
    (``"hetero2"``, ...) which may also imply a cluster shape.  When both
    ``network`` and ``costs`` are given, ``network`` wins (its own
    ``costs`` become the processor-level model).  ``topology`` names the
    communicator algorithm set (:func:`repro.mp.communicators.create_communicator`);
    ``None`` follows ``REPRO_TOPOLOGY``/binomial.
    """

    def __init__(
        self,
        *,
        mode: str = "thread",
        seed: int = 0,
        policy: str = "random",
        deadlock_timeout: float = 30.0,
        costs: LogPCosts | None = None,
        cluster: Cluster | None = None,
        network: "NetworkModel | str | None" = None,
        topology: str | None = None,
        executor: Executor | None = None,
        batch: int = 1,
    ):
        self.executor = executor or make_executor(
            mode,
            seed=seed,
            policy=policy,
            deadlock_timeout=deadlock_timeout,
            batch=batch,
        )
        if isinstance(network, str):
            network, profile_cluster = network_profile(network)
            cluster = cluster or profile_cluster
        elif network is None:
            network = NetworkModel.from_costs(costs)
        self.network = network
        self.costs = network.costs
        self.cluster = cluster or Cluster()
        self.topology = topology or default_topology()
        self.communicator = create_communicator(self.topology)
        #: Event spine of the most recent run (or the ambient recorder).
        self.trace = _trace.TraceRecorder()
        self._world_counter = 0
        self._counter_lock = threading.Lock()

    def run(
        self,
        size: int,
        main: Callable[..., Any],
        *args: Any,
        label: str | None = None,
        **kwargs: Any,
    ) -> WorldResult:
        """Launch ``main(comm, *args, **kwargs)`` on ``size`` ranks; join all."""
        with self._counter_lock:
            self._world_counter += 1
            wid = self._world_counter
        world_label = label or f"world{wid}"
        world = World(self, size, world_label)
        parent = current_task_label()
        prefix = f"{parent}/" if parent else ""

        def make_thunk(rank: int) -> Callable[[], Any]:
            def thunk() -> Any:
                _trace.emit("task.start", scope=scope, hb_acq=("fork", scope))
                comm = Comm(world, rank, world.ranks, ctx=("world", wid))
                try:
                    return main(comm, *args, **kwargs)
                finally:
                    _trace.emit(
                        "task.end",
                        scope=scope,
                        vtime=world.clocks[rank].now,
                        hb_rel=("join", scope),
                    )

            return thunk

        labels = [f"{prefix}mpi:{r}" for r in range(size)]
        t0 = time.perf_counter()
        def publish(group: TaskGroup) -> None:
            world.group = group

        # Emission goes to the ambient recorder; install this runtime's
        # own spine only when no harness (capture_run, ...) put one up.
        # The recorder numbers the world's scope, so two worlds of one
        # run never share a scope (their message uids both start at 0).
        recorder = _trace.current_recorder()
        pushed = recorder is None
        if pushed:
            recorder = _trace.TraceRecorder()
            _trace.push_recorder(recorder)
        self.trace = recorder
        try:
            scope = world.scope = f"{world_label}#{_trace.next_id('scope')}"
            _trace.emit(
                "world.fork",
                scope=scope,
                label=world_label,
                tasks=size,
                hb_rel=("fork", scope),
            )
            group = self.executor.run_tasks(
                [make_thunk(r) for r in range(size)],
                labels,
                group_label=world_label,
                on_group=publish,
            )
            _trace.emit(
                "world.join", scope=scope, label=world_label, hb_acq=("join", scope)
            )
        finally:
            if pushed:
                _trace.pop_recorder(recorder)
        wall = time.perf_counter() - t0
        return WorldResult(
            world=world,
            results=group.results(),
            span=_trace.span_of(recorder, scope=scope),
            wall=wall,
        )


def mpirun(
    size: int,
    main: Callable[..., Any],
    *args: Any,
    mode: str = "thread",
    seed: int = 0,
    policy: str = "random",
    deadlock_timeout: float = 30.0,
    costs: LogPCosts | None = None,
    cluster: Cluster | None = None,
    network: "NetworkModel | str | None" = None,
    topology: str | None = None,
    batch: int = 1,
    **kwargs: Any,
) -> WorldResult:
    """One-shot launcher (the ``mpirun -np <size>`` analogue).

    Builds a fresh :class:`MpRuntime` and runs ``main`` on ``size`` ranks.
    For repeated runs sharing an executor/cost model, construct an
    :class:`MpRuntime` once and call :meth:`MpRuntime.run`.  ``batch``
    selects the lockstep arbitration quantum (see
    :class:`~repro.sched.lockstep.LockstepExecutor`).
    """
    runtime = MpRuntime(
        mode=mode,
        seed=seed,
        policy=policy,
        deadlock_timeout=deadlock_timeout,
        costs=costs,
        cluster=cluster,
        network=network,
        topology=topology,
        batch=batch,
    )
    return runtime.run(size, main, *args, **kwargs)
