"""Exception hierarchy for the patternlets reproduction library.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
letting genuine programming errors (``TypeError`` and friends) propagate.

The hierarchy mirrors the system inventory in ``DESIGN.md``:

- :class:`SchedulerError` and friends come from the execution substrate
  (``repro.sched``).
- :class:`SmpError` subclasses come from the shared-memory (OpenMP-analogue)
  runtime (``repro.smp``).
- :class:`MpError` subclasses come from the message-passing (MPI-analogue)
  runtime (``repro.mp``).
- :class:`RegistryError` comes from the patternlet registry (``repro.core``).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SchedulerError",
    "DeadlockError",
    "TaskFailedError",
    "ParallelError",
    "SmpError",
    "TeamBrokenError",
    "ScheduleError",
    "ReductionError",
    "MpError",
    "RankFailedError",
    "CommError",
    "IsolationError",
    "TruncationError",
    "CollectiveError",
    "RegistryError",
    "ToggleError",
    "BatchError",
    "CacheUnserializable",
]


class ReproError(Exception):
    """Base class for every exception raised by this library."""


# ---------------------------------------------------------------------------
# Execution substrate (repro.sched)
# ---------------------------------------------------------------------------


class SchedulerError(ReproError):
    """A failure inside the task-execution substrate."""


class DeadlockError(SchedulerError):
    """Every live task is blocked and no progress is possible.

    Raised by the lockstep executor when its runnable set empties, and by the
    threaded executor's watchdog when no task makes progress within the
    configured timeout.  The message names the blocked tasks and what each
    one was waiting for, which is itself a teaching aid: the paper's
    ``messagePassing2``/deadlock patternlets exist to provoke exactly this.
    """

    def __init__(self, message: str, blocked: dict[str, str] | None = None):
        super().__init__(message)
        #: Mapping of task label -> human-readable description of its wait.
        self.blocked: dict[str, str] = dict(blocked or {})


class TaskFailedError(SchedulerError):
    """A single task raised; carries the original exception."""

    def __init__(self, label: str, cause: BaseException):
        super().__init__(f"task {label!r} failed: {cause!r}")
        self.label = label
        self.cause = cause


class ParallelError(SchedulerError):
    """One or more tasks in a fork-join group raised.

    Aggregates every per-task failure so a crash in thread 3 is not masked
    by a secondary :class:`TeamBrokenError` in thread 0.
    """

    def __init__(self, failures: list[TaskFailedError]):
        self.failures = list(failures)
        lines = ", ".join(f.label for f in self.failures)
        super().__init__(
            f"{len(self.failures)} task(s) failed: {lines}"
        )

    @property
    def causes(self) -> list[BaseException]:
        """The original exceptions, in task order."""
        return [f.cause for f in self.failures]


# ---------------------------------------------------------------------------
# Shared-memory runtime (repro.smp)
# ---------------------------------------------------------------------------


class SmpError(ReproError):
    """A failure inside the shared-memory (OpenMP-analogue) runtime."""


class TeamBrokenError(SmpError):
    """A collective operation aborted because a teammate died.

    When one thread of a team raises, any teammate blocked in a barrier,
    reduction, or ``single`` region would otherwise wait forever; instead
    the synchronisation primitives observe the team's failed flag and raise
    this error so the whole region unwinds promptly.
    """


class ScheduleError(SmpError):
    """An invalid loop schedule specification (unknown kind, chunk <= 0, ...)."""


class ReductionError(SmpError):
    """An invalid reduction (unknown operator, inconsistent identity, ...)."""


# ---------------------------------------------------------------------------
# Message-passing runtime (repro.mp)
# ---------------------------------------------------------------------------


class MpError(ReproError):
    """A failure inside the message-passing (MPI-analogue) runtime."""


class RankFailedError(MpError):
    """A rank's main function raised; carries rank and original exception."""

    def __init__(self, rank: int, cause: BaseException):
        super().__init__(f"rank {rank} failed: {cause!r}")
        self.rank = rank
        self.cause = cause


class CommError(MpError):
    """Misuse of the communicator API (bad rank, bad tag, use after free)."""


class IsolationError(MpError):
    """A message payload could not be copied by value.

    The runtime enforces distributed-memory semantics by pickling every
    payload; objects that cannot be pickled (open files, locks, ...) would
    silently share state between ranks, so they are rejected eagerly.
    """


class TruncationError(MpError):
    """A receive buffer was too small for the matched message (MPI_ERR_TRUNCATE)."""


class CollectiveError(MpError):
    """Inconsistent participation in a collective (mismatched root, counts...)."""


# ---------------------------------------------------------------------------
# Patternlet framework (repro.core)
# ---------------------------------------------------------------------------


class RegistryError(ReproError):
    """Unknown patternlet, duplicate registration, or bad metadata."""


class ToggleError(ReproError):
    """Unknown toggle name passed to a patternlet run."""


# ---------------------------------------------------------------------------
# Batch execution layer (repro.batch)
# ---------------------------------------------------------------------------


class BatchError(ReproError):
    """A failure in the batch runner (bad spec grid, broken worker pool)."""


class CacheUnserializable(BatchError):
    """A run (or spec) cannot be expressed as a cache record.

    Raised when the trace is incomplete (dropped events), so verdicts
    derived from it would not be the run's, and by
    :func:`repro.batch.results.run_from_record`, since a record stores
    no events.  A spec whose extras defeat key derivation takes the same
    path, as a spec with no key.  Callers treat either as "execute live,
    don't cache" — never as a run failure.
    """
