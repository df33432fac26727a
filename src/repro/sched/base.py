"""Executor interface and task bookkeeping shared by both execution modes.

An :class:`Executor` runs *fork-join groups* of tasks (an SMP thread team, or
the ranks of an MP world) and supplies the three primitives every blocking
synchronisation construct in this library is written in terms of:

``checkpoint()``
    A point at which the scheduler may switch tasks.  A no-op under real
    threads (the OS preempts wherever it likes); the *only* switch points
    under the lockstep executor.

``wait_until(pred)``
    Block the calling task until ``pred()`` is true.  Predicates must be
    cheap, side-effect free functions of runtime state protected by the
    caller; they may be evaluated any number of times.

``notify()``
    Signal that shared runtime state changed, so blocked predicates should
    be re-evaluated.  Under lockstep this is also a preemption opportunity.

    This is a *contract*, not a courtesy: any state change that can turn a
    blocked predicate true MUST be followed by ``notify()`` before the
    changing task next blocks or finishes.  The lockstep executor relies on
    it to skip predicate re-evaluation on switches where nothing changed
    (its dirty-flag fast path), and the threaded executor's watchdog only
    resets on notified progress.  Every synchronisation primitive in this
    library honours it (release/deposit/arrive are each followed by a
    ``notify()``).

Everything else — barriers, critical sections, mailboxes, collectives — is
plain data plus these three calls, which is what lets a single
implementation behave identically (modulo interleavings) under both
executors.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.errors import ParallelError, TaskFailedError

# The task-label thread-local belongs to the trace layer, which reads it
# on every emission; the executors set it through these re-exports.
from repro.trace.events import current_task_label, set_task_label

__all__ = [
    "Executor",
    "TaskGroup",
    "TaskRecord",
    "TaskHandle",
    "current_task_label",
    "resolve_describe",
    "set_task_label",
    "task_label_scope",
]


def resolve_describe(describe: "str | Callable[[], str]") -> str:
    """Materialise a wait description.

    Hot blocking paths (every message receive) pass ``describe`` as a
    zero-argument callable so the diagnostic string is only formatted on
    the rare path that actually reports it (deadlock, watchdog timeout).
    """
    return describe() if callable(describe) else describe


class task_label_scope:
    """Context manager that temporarily overrides the current task label.

    Used by nested runtimes: an SMP region forked from inside an MP rank
    relabels its threads ``"<rank label>/omp:<tid>"`` for the duration of
    the region.
    """

    def __init__(self, label: str | None):
        self._label = label
        self._saved: str | None = None

    def __enter__(self) -> "task_label_scope":
        self._saved = current_task_label()
        set_task_label(self._label)
        return self

    def __exit__(self, *exc: object) -> None:
        set_task_label(self._saved)


@dataclass
class TaskRecord:
    """Result slot for one task of a fork-join group."""

    index: int
    label: str
    result: Any = None
    exception: BaseException | None = None

    @property
    def ok(self) -> bool:
        return self.exception is None


@dataclass
class TaskGroup:
    """A fork-join group: shared failure flag plus per-task records.

    Synchronisation primitives capture a reference to their group and fold
    ``group.failed`` into their wait predicates, so a crash in one task
    promptly unblocks its teammates (who then raise
    :class:`~repro.errors.TeamBrokenError` / ``RankFailedError`` instead of
    hanging).
    """

    label: str
    records: list[TaskRecord] = field(default_factory=list)
    failed: bool = False

    @property
    def size(self) -> int:
        return len(self.records)

    def failures(self) -> list[TaskFailedError]:
        """Per-task failures, wrapped with their labels, in task order."""
        return [
            TaskFailedError(r.label, r.exception)
            for r in self.records
            if r.exception is not None
        ]

    def results(self) -> list[Any]:
        """Per-task return values, in task order."""
        return [r.result for r in self.records]


class TaskHandle:
    """Join handle for one dynamically spawned task (pthread analogue).

    ``join`` blocks until the task completes, then returns its result or
    re-raises its failure wrapped in
    :class:`~repro.errors.TaskFailedError`.  Joining twice is allowed and
    idempotent.
    """

    def __init__(self, record: TaskRecord, waiter: Callable[[], None]):
        self.record = record
        self._waiter = waiter
        self._joined = False

    @property
    def label(self) -> str:
        return self.record.label

    def join(self) -> Any:
        """Wait for the task; return its result or raise TaskFailedError."""
        self._waiter()
        self._joined = True
        if self.record.exception is not None:
            raise TaskFailedError(self.record.label, self.record.exception)
        return self.record.result


class Executor(ABC):
    """Abstract execution substrate for fork-join task groups."""

    #: Human-readable mode name ("thread" or "lockstep").
    mode: str = "abstract"

    @abstractmethod
    def run_tasks(
        self,
        thunks: Sequence[Callable[[], Any]],
        labels: Sequence[str],
        *,
        group_label: str = "group",
        on_group: Callable[[TaskGroup], None] | None = None,
    ) -> TaskGroup:
        """Run ``thunks[i]`` as task ``labels[i]``; join them all.

        ``on_group`` is invoked with the freshly created group *before* any
        task starts, so runtimes can publish it (a team's or world's
        ``broken`` flag must be observable by blocked teammates while the
        run is still in flight).

        Returns the completed :class:`TaskGroup`.  If any task raised, a
        :class:`~repro.errors.ParallelError` aggregating every failure is
        raised instead (after all tasks have been joined).  May be called
        from an unmanaged thread or, for nested parallelism, from inside a
        managed task.
        """

    @abstractmethod
    def spawn(self, thunk: Callable[[], Any], label: str) -> TaskHandle:
        """Start one task dynamically (the ``pthread_create`` analogue).

        The task runs concurrently with its spawner; collect it with
        ``handle.join()``.  Under the lockstep executor the spawner must
        itself be a managed task (wrap the program's main in
        ``run_tasks``), since an unmanaged thread cannot take part in
        deterministic scheduling.
        """

    @abstractmethod
    def checkpoint(self) -> None:
        """A possible task-switch point (no-op under real threads)."""

    @abstractmethod
    def wait_until(
        self,
        pred: Callable[[], bool],
        *,
        describe: str | Callable[[], str] = "condition",
    ) -> None:
        """Block the calling task until ``pred()`` is true.

        ``describe`` appears in deadlock diagnostics ("rank 2 waiting for:
        message from rank 1").  It may be a zero-argument callable, which
        is only invoked if the description is actually reported — blocking
        sites on hot paths use this to avoid formatting a string per wait.
        """

    @abstractmethod
    def notify(self) -> None:
        """Declare that shared state changed; re-evaluate blocked predicates."""

    # -- shared helpers ----------------------------------------------------

    def _raise_group_failures(self, group: TaskGroup) -> None:
        failures = group.failures()
        if failures:
            raise ParallelError(failures)
