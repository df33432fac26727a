"""The event spine: one structured record stream per run.

Every substrate in this library — the lockstep scheduler, the SMP (OpenMP)
runtime, the MP (MPI) runtime, and the pthreads layer — emits its observable
actions into a single :class:`TraceRecorder` as :class:`Event` records: task
starts and ends, prints, barrier arrivals, lock hand-offs, message sends and
receives, shared-memory accesses.  Everything that used to be a separate
bookkeeping mechanism (output capture, virtual-time span accounting, the
lockstep scheduling trace) is a *view* over this one stream:

- :mod:`repro.core.capture` reads the ``io.print`` events;
- :mod:`repro.trace.span` computes critical-path span from ``task.end``
  virtual timestamps;
- :mod:`repro.trace.hb` grows vector clocks from the ``hb_rel``/``hb_acq``
  edges and proves (or refutes) data races;
- :mod:`repro.trace.export` serialises the stream for Chrome's trace viewer;
- :func:`repro.core.timeline.render_trace` draws the lockstep scheduler's
  ``sched.*`` events, and :mod:`repro.obs.derive` counts every run metric
  from the stream.

Recorders are *ambient*: a module-level stack names the recorder currently
collecting events, and :func:`emit` appends to the top of that stack (or
does nothing when no recorder is installed, so untraced library use costs
one ``if``).  Run harnesses push a recorder for the duration of a run
(:class:`~repro.core.capture.OutputRecorder` does this); each runtime pushes
its own private recorder as a fallback, so spans remain computable even for
bare API calls.  The stack is shared across threads on purpose — a run's
worker tasks must all land in the same stream.

Happens-before edges are declared at the emission site with two optional
keys: ``hb_rel=key`` publishes the emitting task's causal knowledge to the
synchronisation object ``key`` (a lock release, a message send, a barrier
arrival), and ``hb_acq=key`` absorbs everything previously published to
``key`` (a lock acquire, a message receive, a barrier departure).  This is
the classic vector-clock sync-object model; :mod:`repro.trace.hb` gives it
teeth.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Iterator

__all__ = [
    "Event",
    "TraceRecorder",
    "current_recorder",
    "push_recorder",
    "pop_recorder",
    "reset_ambient",
    "using_recorder",
    "muted",
    "active",
    "emit",
    "next_id",
]


def _current_task() -> str:
    # Imported lazily: repro.sched imports this module (the lockstep
    # executor forwards its scheduling events here), so a top-level import
    # would be circular.
    from repro.sched.base import current_task_label

    return current_task_label() or "main"


@dataclass(frozen=True, slots=True)
class Event:
    """One observable action of one task.

    ``seq`` is the event's position in its recorder's stream — a total
    order consistent with real time (appends are serialised by the
    recorder's lock).  ``vtime`` is the emitting task's virtual clock at
    the time of the action, when the substrate tracks one (SMP work units,
    MP LogP units); ``None`` otherwise.  ``hb_acq``/``hb_rel`` are the
    happens-before edge declarations described in the module docstring,
    and ``payload`` carries kind-specific detail (the printed line, the
    message uid, the barrier generation, ...).
    """

    seq: int
    task: str
    kind: str
    vtime: float | None = None
    hb_acq: Hashable | None = None
    hb_rel: Hashable | None = None
    payload: dict[str, Any] = field(default_factory=dict)

    @property
    def scope(self) -> str | None:
        """The run scope (region/world id) this event belongs to, if any."""
        return self.payload.get("scope")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        vt = f", vtime={self.vtime:g}" if self.vtime is not None else ""
        return f"Event({self.seq}, {self.task!r}, {self.kind!r}{vt})"


class TraceRecorder:
    """Thread-safe sink for one run's events.

    ``limit`` bounds memory for pathological runs (a trace is an analysis
    artifact, not an unbounded log): events past the limit are counted in
    ``dropped`` rather than stored, so the stream keeps its *head*, and
    analyses should treat a trace with drops as incomplete.

    The class attribute ``recording`` is the muting flip: :func:`emit`'s
    module-level fast path reads exactly one attribute off the ambient
    recorder to decide whether to build an event at all, so a muted run
    pays a pointer read plus an attribute read per would-be emission.
    """

    #: Read by the :func:`emit` fast path; ``_MutedRecorder`` overrides.
    recording = True

    def __init__(self, *, limit: int = 1_000_000):
        if limit <= 0:
            raise ValueError("limit must be positive")
        self.limit = limit
        #: Events rejected once the limit was reached.
        self.dropped = 0
        self._lock = threading.Lock()
        self._events: list[Event] = []
        self._n = 0  # total events ever emitted (stream position / seq)
        self._ids: dict[str, int] = {}  # next id per namespace (next_id)

    def next_id(self, space: str) -> int:
        """The next id in namespace ``space`` for this run: 0, 1, 2, ..."""
        with self._lock:
            n = self._ids.get(space, 0)
            self._ids[space] = n + 1
        return n

    def emit(
        self,
        kind: str,
        *,
        task: str | None = None,
        vtime: float | None = None,
        hb_acq: Hashable | None = None,
        hb_rel: Hashable | None = None,
        **payload: Any,
    ) -> Event | None:
        """Record one event; returns it (or ``None`` when the limit drops it).

        ``task`` defaults to the calling thread's task label, so emission
        sites inside the runtimes rarely need to name themselves; scheduler
        code emitting *about* another task passes ``task=`` explicitly.
        """
        if task is None:
            task = _current_task()
        with self._lock:
            n = self._n
            if len(self._events) >= self.limit:
                self.dropped += 1
                return None
            ev = Event(
                seq=n,
                task=task,
                kind=kind,
                vtime=vtime,
                hb_acq=hb_acq,
                hb_rel=hb_rel,
                payload=payload,
            )
            self._events.append(ev)
            self._n = n + 1
        return ev

    def events(
        self, kind: str | None = None, *, scope: str | None = None
    ) -> list[Event]:
        """Snapshot of the stream, optionally filtered by kind and/or scope."""
        with self._lock:
            evs = list(self._events)
        if kind is not None:
            evs = [e for e in evs if e.kind == kind]
        if scope is not None:
            evs = [e for e in evs if e.payload.get("scope") == scope]
        return evs

    def preload(self, events: "Iterable[Event]") -> None:
        """Replace the stream with ``events`` (the deserialisation path).

        Used when a recorded run is rebuilt from a cache record or a wire
        transfer: the events arrive fully formed (``seq`` already
        assigned), so they are installed verbatim rather than re-emitted.
        """
        evs = list(events)
        if len(evs) > self.limit:
            self.limit = len(evs)
        with self._lock:
            self._events = evs
            self._n = evs[-1].seq + 1 if evs else 0

    def __getstate__(self) -> dict[str, Any]:
        # Locks cannot cross process boundaries; a recorder travels as its
        # plain state and grows a fresh (necessarily uncontended) lock on
        # arrival.  Worker processes therefore never inherit a lock that a
        # parent thread might have held at fork/pickle time.
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def kinds(self) -> dict[str, int]:
        """Event counts per kind (diagnostics)."""
        out: dict[str, int] = {}
        for e in self.events():
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TraceRecorder({len(self)} events)"


# -- the ambient recorder stack ---------------------------------------------

_stack: list[TraceRecorder] = []
_stack_lock = threading.Lock()

#: Cache of ``_stack[-1]`` (or ``None``), maintained under ``_stack_lock``
#: by push/pop.  The emission fast paths read this single module global
#: instead of indexing the list and catching IndexError — on a muted or
#: untraced run that makes every would-be emission one pointer read plus
#: one attribute read.  Reads are lock-free on purpose: a shared lock here
#: would serialise (and so distort) exactly the code whose costs the
#: library exists to demonstrate.  Torn reads are impossible under the
#: GIL; a push/pop racing a read just means the event lands on (or misses)
#: the recorder by one action, same as any unsynchronised observer.
_top: TraceRecorder | None = None


def current_recorder() -> TraceRecorder | None:
    """The recorder currently collecting events, or ``None``."""
    return _top


def push_recorder(rec: TraceRecorder) -> TraceRecorder:
    """Install ``rec`` as the ambient recorder (stacked; see module doc)."""
    global _top
    with _stack_lock:
        _stack.append(rec)
        _top = rec
    return rec


def pop_recorder(rec: TraceRecorder) -> None:
    """Remove the most recent installation of ``rec`` from the stack.

    Removal is by identity rather than strictly LIFO position because
    nested runs may uninstall out of order when tasks of different
    runtimes finish interleaved.
    """
    global _top
    with _stack_lock:
        for i in range(len(_stack) - 1, -1, -1):
            if _stack[i] is rec:
                del _stack[i]
                break
        _top = _stack[-1] if _stack else None


class using_recorder:
    """Context manager installing a recorder for the duration of a block.

    ``using_recorder()`` with no argument creates a fresh recorder; either
    way the recorder is available as the ``as`` target::

        with using_recorder() as rec:
            rt.parallel(body)
        print(rec.kinds())
    """

    def __init__(self, rec: TraceRecorder | None = None):
        self.recorder = rec if rec is not None else TraceRecorder()

    def __enter__(self) -> TraceRecorder:
        push_recorder(self.recorder)
        return self.recorder

    def __exit__(self, *exc: object) -> None:
        pop_recorder(self.recorder)


def reset_ambient() -> None:
    """Forget every installed recorder: a process-fresh ambient state.

    Batch worker processes call this (and a fork hook calls it for them,
    see below) so a child never emits into — or blocks on — a recorder
    stack inherited from its parent: the parent's run harness may have a
    recorder installed at fork time, and its events belong to the parent's
    run, not the worker's.  The stack *lock* is also replaced, because the
    inherited copy may have been held by a parent thread at fork time and
    would then never be released in the child.
    """
    global _top, _stack_lock
    _stack_lock = threading.Lock()
    _stack.clear()
    _top = None


if hasattr(os, "register_at_fork"):  # POSIX; a no-op concern elsewhere
    os.register_at_fork(after_in_child=reset_ambient)


class _MutedRecorder(TraceRecorder):
    """A recorder that drops everything — the top of the stack under
    :func:`muted`, shadowing whatever run harness installed below it."""

    recording = False

    def emit(self, kind: str, **kwargs: Any) -> Event | None:  # noqa: ARG002
        return None


class muted:
    """Suppress all trace emission for the duration of a block.

    For wall-clock microbenchmarks (the Figure 30 atomic-vs-critical
    timing): recording an event costs a lock round trip, which is the
    same order as the uncontended atomic update being measured — the
    observer would dominate the observation.  Code under ``muted()``
    runs the untraced fast path; spans and captures derived from the
    trace will not see the muted region.

    Each entry pushes its own fresh muted recorder, so one ``muted``
    instance is re-entrant (nested ``with`` blocks, reuse across threads
    or across forked worker processes) and never shares lock state with
    any other entry.
    """

    def __init__(self) -> None:
        self._local = threading.local()

    def __enter__(self) -> None:
        rec = _MutedRecorder()
        pushed = getattr(self._local, "pushed", None)
        if pushed is None:
            pushed = self._local.pushed = []
        pushed.append(rec)
        push_recorder(rec)

    def __exit__(self, *exc: object) -> None:
        pushed = getattr(self._local, "pushed", None)
        if pushed:
            pop_recorder(pushed.pop())


def active() -> bool:
    """True when an unmuted recorder is collecting events.

    Hot emission sites (per-iteration cell accesses, atomic guards, the
    message-transport and scheduler inner loops) check this before building
    an :func:`emit` call, so a muted or untraced run pays one global read
    plus one attribute read per would-be event instead of argument
    packing — the difference matters inside held locks, where emission
    overhead multiplies into contention.
    """
    rec = _top
    return rec is not None and rec.recording


#: Numbers ids made while no recorder is installed (bare API use).
_UNRECORDED = TraceRecorder()


def next_id(space: str) -> int:
    """The next id in namespace ``space`` for the run being recorded.

    Ids that land in events (region scopes, shared-cell names, pthreads
    sync-object keys) count per recorder, so a run's event stream does
    not depend on how many runs its process did before.  With no
    recorder installed they count process-wide: still unique, not
    per run.
    """
    rec = _top
    return (rec if rec is not None else _UNRECORDED).next_id(space)


def emit(
    kind: str,
    *,
    task: str | None = None,
    vtime: float | None = None,
    hb_acq: Hashable | None = None,
    hb_rel: Hashable | None = None,
    **payload: Any,
) -> Event | None:
    """Emit to the ambient recorder; a cheap no-op when none is installed."""
    rec = _top
    if rec is None or not rec.recording:
        return None
    return rec.emit(
        kind, task=task, vtime=vtime, hb_acq=hb_acq, hb_rel=hb_rel, **payload
    )


def as_events(source: "Iterable[Event] | TraceRecorder") -> list[Event]:
    """Normalise a recorder-or-iterable argument to an event list."""
    if isinstance(source, TraceRecorder):
        return source.events()
    return list(source)
