"""The shared-memory (OpenMP-analogue) runtime: teams, regions, loops.

This is the substrate the OpenMP patternlets run on.  Where the paper's C
programs write::

    #pragma omp parallel
    {
        int id = omp_get_thread_num();
        ...
    }

the Python analogue is::

    rt = SmpRuntime(num_threads=4)

    def region(ctx):
        print(f"Hello from thread {ctx.thread_num} of {ctx.num_threads}")

    rt.parallel(region)

The :class:`ExecutionContext` passed to each team thread carries the whole
directive vocabulary as methods: ``barrier()``, ``critical()``, ``atomic()``,
``single()``, ``master()``, ``for_range()`` (with every OpenMP schedule),
``reduce()`` and ``sections()``.  The *comment/uncomment* pedagogy maps to
plain keyword arguments: running a region with ``num_threads=1`` is the
commented-out pragma; flipping a patternlet's ``barrier=True`` toggle is
uncommenting ``#pragma omp barrier``.

Every context also carries a **virtual clock** advanced by ``work(cost)``
and synchronised at barriers; a team's *span* (max final clock) is the
critical-path length under the declared cost model, which is how the
scaling figures are reproduced deterministically on a single-core host.

Team threads are leased from the process-wide rank pool
(:mod:`repro.sched.pool`) by whichever executor backs the runtime, so
large teams (``num_threads=64`` and beyond, for classroom scaling demos)
and back-to-back regions reuse parked OS threads rather than paying
thread creation per fork-join.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from repro import trace as _trace
from repro.errors import ReductionError, ScheduleError
from repro.ops import Op, resolve_op
from repro.sched import Executor, make_executor
from repro.sched.base import TaskGroup, current_task_label
from repro.smp.race import thread_race_window
from repro.smp.schedule import Schedule, static_iterations
from repro.smp.sync import AtomicGuard, OrderedCursor, TeamBarrier, TicketLock

__all__ = [
    "SmpCosts",
    "SmpRuntime",
    "Team",
    "TeamResult",
    "ExecutionContext",
    "get_wtime",
]

_NO_VALUE = object()

def get_wtime() -> float:
    """Wall-clock seconds (the ``omp_get_wtime()`` analogue)."""
    return time.perf_counter()


@dataclass(frozen=True)
class SmpCosts:
    """Virtual-time costs charged by the runtime's own operations.

    Units are arbitrary "work units"; user compute is charged explicitly
    via ``ctx.work(cost)``.  Defaults make one barrier or one reduction
    combine cost one unit, matching the unit-cost model of Figure 19.
    """

    barrier: float = 1.0
    combine: float = 1.0
    critical: float = 0.0
    atomic: float = 0.0


class TeamResult:
    """Outcome of one fork-join region."""

    def __init__(
        self,
        *,
        label: str,
        size: int,
        results: list[Any],
        span: float,
        wall: float,
        reduction: Any = None,
    ):
        #: Per-thread return values of the region body, indexed by thread id.
        self.results = results
        #: Critical-path length in virtual work units (max final clock).
        self.span = span
        #: Real elapsed seconds for the whole region.
        self.wall = wall
        self.label = label
        self.size = size
        #: Combined value when the region ran with a reduction, else None.
        self.reduction = reduction

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TeamResult(label={self.label!r}, size={self.size}, "
            f"span={self.span:.3g}, wall={self.wall:.3g}s)"
        )


class Team:
    """Shared state of one thread team (one parallel region)."""

    def __init__(self, runtime: "SmpRuntime", size: int, label: str):
        if size <= 0:
            raise ValueError("team size must be positive")
        self.runtime = runtime
        self.size = size
        self.label = label
        #: Trace scope id for this region's events (unique within the
        #: run: numbered by its recorder; see repro.trace.span).
        self.scope = f"{label}#{_trace.next_id('scope')}"
        self.barrier = TeamBarrier(self)
        self.atomic_guard = AtomicGuard(self)
        self.group: TaskGroup | None = None  # set once tasks launch
        self._lock = threading.Lock()
        self._criticals: dict[str, TicketLock] = {}
        self._reduce_slots: dict[int, list[Any]] = {}
        self._single_states: dict[int, dict[str, Any]] = {}
        self._loop_states: dict[int, dict[str, int]] = {}

    @property
    def executor(self) -> Executor:
        return self.runtime.executor

    @property
    def broken(self) -> bool:
        return self.group is not None and self.group.failed

    def critical_lock(self, name: str) -> TicketLock:
        """The team's named critical-section lock, created on first use."""
        with self._lock:
            lock = self._criticals.get(name)
            if lock is None:
                lock = TicketLock(self, name)
                self._criticals[name] = lock
            return lock


class ExecutionContext:
    """Per-thread handle inside a parallel region (the ``ctx`` argument).

    Mirrors the OpenMP runtime-library + directive vocabulary; see the
    module docstring for the mapping.
    """

    def __init__(self, team: Team, thread_num: int):
        self._team = team
        #: This thread's id within the team (``omp_get_thread_num()``).
        self.thread_num = thread_num
        #: The team size (``omp_get_num_threads()``).
        self.num_threads = team.size
        self._vclock = 0.0
        self._single_seq = 0
        self._reduce_seq = 0
        self._loop_seq = 0

    # -- identity & time ----------------------------------------------------

    @property
    def team(self) -> Team:
        return self._team

    @property
    def vtime(self) -> float:
        """This thread's virtual clock, in work units."""
        return self._vclock

    def work(self, cost: float = 1.0) -> None:
        """Charge ``cost`` virtual work units of compute to this thread."""
        if cost < 0:
            raise ValueError("work cost must be non-negative")
        self._vclock += cost

    def _advance_by(self, cost: float) -> None:
        self._vclock += cost

    def _advance_to(self, t: float) -> None:
        if t > self._vclock:
            self._vclock = t

    def wtime(self) -> float:
        """Wall-clock seconds (``omp_get_wtime()``)."""
        return get_wtime()

    # -- scheduling hooks -----------------------------------------------------

    def checkpoint(self) -> None:
        """Offer the scheduler a switch point (no-op under real threads)."""
        self._team.executor.checkpoint()

    def race_window(self) -> None:
        """The injectable gap inside an unprotected read-modify-write."""
        if self._team.executor.mode == "lockstep":
            self._team.executor.checkpoint()
        else:
            thread_race_window(self._team.runtime.race_jitter)

    # -- synchronisation directives -------------------------------------------

    def barrier(self) -> None:
        """``#pragma omp barrier``: wait for the whole team."""
        self._team.barrier.wait(self)

    @contextmanager
    def critical(self, name: str = "") -> Iterator[None]:
        """``#pragma omp critical [(name)]``: FIFO-fair named mutual exclusion."""
        lock = self._team.critical_lock(name)
        lock.acquire(self)
        try:
            yield
        finally:
            lock.release(self)

    @contextmanager
    def atomic(self) -> Iterator[None]:
        """``#pragma omp atomic``: cheapest mutual exclusion for one update.

        Like the directive, the guarded body must be a single small update:
        no prints, no blocking, no nested synchronisation.
        """
        guard = self._team.atomic_guard
        guard.acquire(self)
        try:
            yield
        finally:
            guard.release(self)

    def ordered_cursor(self, start: int = 0, step: int = 1) -> OrderedCursor:
        """``#pragma omp ordered``: a shared in-iteration-order turnstile.

        Collective: every team thread must call it at the same point; all
        receive the same cursor.  Wrap order-sensitive loop code in
        ``with cursor.turn(i):`` and iterations execute that code in
        ``start, start+step, ...`` order even though the loop itself runs
        out of order.
        """
        return self.single(lambda: OrderedCursor(self._team, start, step))

    def master(self, fn: Callable[[], Any]) -> Any:
        """``#pragma omp master``: thread 0 runs ``fn``; no implied barrier."""
        if self.thread_num == 0:
            return fn()
        return None

    def single(self, fn: Callable[[], Any], *, nowait: bool = False) -> Any:
        """``#pragma omp single``: first arrival runs ``fn``; others skip.

        Unless ``nowait``, an implied barrier follows and — like OpenMP's
        ``copyprivate`` extension — every thread returns ``fn``'s result.
        With ``nowait``, non-executing threads return ``None`` immediately.
        """
        team = self._team
        seq = self._single_seq
        self._single_seq += 1
        with team._lock:
            state = team._single_states.setdefault(
                seq, {"owner": None, "result": None}
            )
            if state["owner"] is None:
                state["owner"] = self.thread_num
            owner = state["owner"]
        result = None
        if owner == self.thread_num:
            result = fn()
            state["result"] = result
            team.executor.notify()
        if nowait:
            return result
        self.barrier()
        result = state["result"]
        self.barrier()  # nobody re-reads state after the owner cleans up
        if owner == self.thread_num:
            with team._lock:
                team._single_states.pop(seq, None)
        return result

    # -- worksharing ------------------------------------------------------------

    def for_range(
        self,
        n: int,
        schedule: Schedule | str | None = None,
    ) -> Iterator[int]:
        """``#pragma omp for``: this thread's share of ``range(n)``.

        Static schedules are computed arithmetically; dynamic and guided
        schedules pull chunks from a team-shared counter in arrival order.
        Every team thread must execute the same ``for_range`` calls in the
        same order (the usual OpenMP worksharing rule).
        """
        sched = self._resolve_schedule(schedule)
        seq = self._loop_seq
        self._loop_seq += 1
        if sched.is_static:
            mine = static_iterations(sched, n, self.num_threads, self.thread_num)
            if mine:
                _trace.emit(
                    "loop.assign",
                    scope=self._team.scope,
                    loop=seq,
                    schedule=sched.kind,
                    first=mine[0],
                    last=mine[-1],
                    count=len(mine),
                )
            return iter(mine)
        return self._dynamic_iter(n, sched, seq)

    def _resolve_schedule(self, schedule: Schedule | str | None) -> Schedule:
        if schedule is None:
            return Schedule.static()
        if isinstance(schedule, str):
            return Schedule.parse(schedule)
        if isinstance(schedule, Schedule):
            return schedule
        raise ScheduleError(f"bad schedule {schedule!r}")

    def _dynamic_iter(self, n: int, sched: Schedule, seq: int) -> Iterator[int]:
        team = self._team
        with team._lock:
            state = team._loop_states.setdefault(seq, {"next": 0, "done": 0})
        while True:
            with team._lock:
                start = state["next"]
                if start >= n:
                    state["done"] += 1
                    if state["done"] == team.size:
                        team._loop_states.pop(seq, None)
                    break
                if sched.kind == "guided":
                    grab = max(sched.chunk or 1, math.ceil((n - start) / team.size))
                else:
                    grab = sched.chunk or 1
                stop = min(n, start + grab)
                state["next"] = stop
            _trace.emit(
                "loop.chunk",
                scope=team.scope,
                loop=seq,
                schedule=sched.kind,
                first=start,
                last=stop - 1,
                count=stop - start,
            )
            for i in range(start, stop):
                yield i
            team.executor.checkpoint()

    def sections(self, fns: Sequence[Callable[[], Any]]) -> list[Any]:
        """``#pragma omp sections``: deal the given tasks out dynamically.

        Returns the per-section results (same order as ``fns``) on every
        thread, after an implied barrier.
        """
        team = self._team
        seq = self._loop_seq  # share the worksharing sequence space
        self._loop_seq += 1
        with team._lock:
            state = team._loop_states.setdefault(
                seq, {"next": 0, "done": 0}
            )
            if "results" not in state:
                state["results"] = [None] * len(fns)
        results = state["results"]
        while True:
            with team._lock:
                k = state["next"]
                if k >= len(fns):
                    break
                state["next"] = k + 1
            results[k] = fns[k]()
            team.executor.checkpoint()
        self.barrier()
        out = list(results)
        self.barrier()
        with team._lock:
            team._loop_states.pop(seq, None)
        return out

    # -- reduction ---------------------------------------------------------------

    def reduce(self, value: Any, op: Op | str = "+") -> Any:
        """The *Reduction* pattern: tree-combine one value per thread.

        All threads must call this collectively; all receive the combined
        result.  Combines happen pairwise up a binary tree — ``⌈lg t⌉``
        levels separated by barriers — so the span cost is
        ``O(lg t) · (combine + barrier)`` exactly as Figure 19 depicts,
        while the total number of combines is ``t - 1``, the same as a
        sequential sum ("the Reduction pattern performs the same number of
        total additions as a sequential summing").
        """
        rop = resolve_op(op)
        team = self._team
        t = team.size
        tid = self.thread_num
        seq = self._reduce_seq
        self._reduce_seq += 1
        with team._lock:
            slots = team._reduce_slots.setdefault(seq, [_NO_VALUE] * t)
        slots[tid] = value
        self.barrier()
        step = 1
        while step < t:
            if tid % (2 * step) == 0 and tid + step < t:
                left, right = slots[tid], slots[tid + step]
                if left is _NO_VALUE or right is _NO_VALUE:
                    raise ReductionError("reduction slot missing a contribution")
                slots[tid] = rop(left, right)
                self.work(team.runtime.costs.combine)
                _trace.emit(
                    "reduce.combine",
                    scope=team.scope,
                    left=tid,
                    right=tid + step,
                    step=step,
                    vtime=self.vtime,
                )
            step *= 2
            self.barrier()
        result = slots[0]
        self.barrier()
        if tid == 0:
            with team._lock:
                team._reduce_slots.pop(seq, None)
        return result


class SmpRuntime:
    """Factory and policy holder for SMP parallel regions.

    Parameters
    ----------
    num_threads:
        Default team size (``OMP_NUM_THREADS``); overridable per region.
    mode / seed / policy:
        Execution mode: ``"thread"`` for real OS threads, ``"lockstep"``
        for the deterministic seeded scheduler (see ``repro.sched``).
    deadlock_timeout:
        Watchdog for thread mode.
    race_jitter:
        Thread-mode race-window nap in seconds (0 = bare GIL yield).
    costs:
        Virtual-time cost model (see :class:`SmpCosts`).
    """

    def __init__(
        self,
        num_threads: int = 4,
        *,
        mode: str = "thread",
        seed: int = 0,
        policy: str = "random",
        deadlock_timeout: float = 30.0,
        race_jitter: float = 0.0,
        costs: SmpCosts | None = None,
        executor: Executor | None = None,
    ):
        if num_threads <= 0:
            raise ValueError("num_threads must be positive")
        self.executor = executor or make_executor(
            mode, seed=seed, policy=policy, deadlock_timeout=deadlock_timeout
        )
        self.default_num_threads = num_threads
        self.race_jitter = race_jitter
        self.costs = costs or SmpCosts()
        #: The event spine of the most recent run: the ambient recorder if
        #: one was installed (e.g. by capture_run), else this private one.
        self.trace = _trace.TraceRecorder()
        self._region_counter = 0
        self._counter_lock = threading.Lock()

    # -- OpenMP runtime-library analogues ------------------------------------

    def set_num_threads(self, n: int) -> None:
        """``omp_set_num_threads()``."""
        if n <= 0:
            raise ValueError("num_threads must be positive")
        self.default_num_threads = n

    def get_max_threads(self) -> int:
        """``omp_get_max_threads()``."""
        return self.default_num_threads

    # -- regions ---------------------------------------------------------------

    def parallel(
        self,
        body: Callable[[ExecutionContext], Any],
        *,
        num_threads: int | None = None,
        label: str | None = None,
    ) -> TeamResult:
        """``#pragma omp parallel``: fork a team, run ``body(ctx)`` in each.

        Joins the whole team before returning.  Thread labels nest under
        the caller's task label, so SMP regions forked inside MP ranks are
        attributed ``"mpi:1/omp:0"`` in captured output.
        """
        size = num_threads if num_threads is not None else self.default_num_threads
        if size <= 0:
            raise ValueError("num_threads must be positive")
        with self._counter_lock:
            self._region_counter += 1
            region_id = self._region_counter
        team_label = label or f"region{region_id}"
        parent = current_task_label()
        prefix = f"{parent}/" if parent else ""

        def make_thunk(tid: int) -> Callable[[], Any]:
            def thunk() -> Any:
                _trace.emit("task.start", scope=scope, hb_acq=("fork", scope))
                ctx = ExecutionContext(team, tid)
                try:
                    return body(ctx)
                finally:
                    _trace.emit(
                        "task.end",
                        scope=scope,
                        vtime=ctx.vtime,
                        hb_rel=("join", scope),
                    )

            return thunk

        labels = [f"{prefix}omp:{tid}" for tid in range(size)]
        t0 = get_wtime()
        def publish(group: TaskGroup) -> None:
            team.group = group

        # Emission goes to the ambient recorder; install this runtime's
        # private one only when no harness (capture_run, an enclosing MP
        # world, ...) has already installed a spine for this run.  The
        # recorder numbers the team's scope, so it goes up first.
        recorder = _trace.current_recorder()
        pushed = recorder is None
        if pushed:
            recorder = _trace.TraceRecorder()
            _trace.push_recorder(recorder)
        self.trace = recorder
        try:
            team = Team(self, size, team_label)
            scope = team.scope
            _trace.emit(
                "region.fork",
                scope=scope,
                label=team_label,
                tasks=size,
                hb_rel=("fork", scope),
            )
            group = self.executor.run_tasks(
                [make_thunk(tid) for tid in range(size)],
                labels,
                group_label=team_label,
                on_group=publish,
            )
            _trace.emit(
                "region.join", scope=scope, label=team_label, hb_acq=("join", scope)
            )
        finally:
            if pushed:
                _trace.pop_recorder(recorder)
        wall = get_wtime() - t0
        return TeamResult(
            label=team_label,
            size=size,
            results=group.results(),
            span=_trace.span_of(recorder, scope=scope),
            wall=wall,
        )

    def parallel_for(
        self,
        n: int,
        body: Callable[[int, ExecutionContext], Any],
        *,
        num_threads: int | None = None,
        schedule: Schedule | str | None = None,
        reduction: Op | str | None = None,
        work_per_iteration: float = 1.0,
        label: str | None = None,
    ) -> TeamResult:
        """``#pragma omp parallel for [schedule(...)] [reduction(op: x)]``.

        Runs ``body(i, ctx)`` for every ``i in range(n)``, divided among the
        team per ``schedule``.  With ``reduction=op`` the per-iteration
        return values are combined — thread-locally first, then by the team
        tree — and the total is available as ``TeamResult.reduction`` (this
        is precisely the two-level structure students are led to discover
        in Section III.D).  Each iteration charges ``work_per_iteration``
        virtual units.
        """
        rop = resolve_op(reduction) if reduction is not None else None

        def region(ctx: ExecutionContext) -> Any:
            local: Any = _NO_VALUE
            for i in ctx.for_range(n, schedule):
                v = body(i, ctx)
                ctx.work(work_per_iteration)
                if rop is not None:
                    local = v if local is _NO_VALUE else rop(local, v)
            if rop is None:
                return None
            return ctx.reduce(_Partial(local), _partial_op(rop)).value

        result = self.parallel(region, num_threads=num_threads, label=label)
        if rop is not None:
            combined = result.results[0]
            result.reduction = combined
        return result

    def sections(
        self,
        fns: Sequence[Callable[[], Any]],
        *,
        num_threads: int | None = None,
        label: str | None = None,
    ) -> list[Any]:
        """``#pragma omp parallel sections`` in one call."""
        out: list[Any] = []

        def region(ctx: ExecutionContext) -> None:
            results = ctx.sections(list(fns))
            if ctx.thread_num == 0:
                out.extend(results)

        self.parallel(region, num_threads=num_threads, label=label)
        return out


class _Partial:
    """Wrapper distinguishing "no contribution" from a real value.

    Threads that draw zero iterations under a skewed schedule must not
    poison a reduction that lacks an identity element.
    """

    __slots__ = ("value", "empty")

    def __init__(self, value: Any):
        self.empty = value is _NO_VALUE
        self.value = None if self.empty else value


def _partial_op(op: Op) -> Op:
    def combine(a: _Partial, b: _Partial) -> _Partial:
        if a.empty:
            return b
        if b.empty:
            return a
        return _Partial(op(a.value, b.value))

    return Op(name=f"partial({op.name})", fn=combine, commutative=op.commutative)
