"""Visualising parallelism: ASCII timelines of captured runs.

The patternlets teach by *showing* concurrent behaviour; raw interleaved
output is the paper's medium, but a lane-per-task timeline makes the same
behaviour visible at a glance — who printed when, where the barrier
aligned everyone, how a race window interleaved two updates.

Three renderers:

- :func:`render_run` — lanes from a :class:`~repro.core.capture.CapturedRun`:
  one column per global output event, one row per task, event numbers in
  the producing task's lane.
- :func:`render_events` — the same lane layout over the run's full trace
  (any :class:`~repro.trace.Event` stream), so barrier arrivals, lock
  hand-offs and message edges appear between the prints.
- :func:`render_trace` — lanes from the scheduler's ``sched.*`` events
  in a lockstep run's trace: ``#`` for running, ``b`` for blocked, so
  students can see the token move between tasks and where everyone piled
  up at a barrier.

All are pure functions returning strings (printable anywhere, assertable
in tests).  ``patternlet trace`` prints :func:`render_run`, or
:func:`render_events` with ``--events``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.core.capture import CapturedRun

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace import Event, TraceRecorder

__all__ = ["render_run", "render_events", "render_trace", "lane_order"]


def lane_order(run: CapturedRun) -> list[str]:
    """Stable lane ordering: sorted task labels, ``main`` last."""
    tasks = sorted(set(label for label, _ in run.records))
    if "main" in tasks:
        tasks.remove("main")
        tasks.append("main")
    return tasks


def render_run(
    run: CapturedRun,
    *,
    max_events: int = 60,
    legend: bool = True,
) -> str:
    """One lane per task; event k marks the task that printed line k.

    Example (barrier patternlet, 3 threads)::

        omp:0 | 1 . . 4 . .
        omp:1 | . 2 . . 5 .
        omp:2 | . . 3 . . 6

    Numbers wider than one digit widen their column; ``max_events`` caps
    the width for very chatty runs (the tail is elided with a note).
    """
    records = run.records[:max_events]
    elided = len(run.records) - len(records)
    tasks = lane_order(run)
    if not tasks:
        return "(no output)"
    label_w = max(len(t) for t in tasks)
    cells: dict[str, list[str]] = {t: [] for t in tasks}
    for k, (label, _line) in enumerate(records, start=1):
        mark = str(k)
        for t in tasks:
            cells[t].append(mark if t == label else "." * len(mark))
    lanes = [
        f"{t:<{label_w}} | " + " ".join(cells[t]) for t in tasks
    ]
    out = "\n".join(lanes)
    if elided > 0:
        out += f"\n({elided} later events elided)"
    if legend:
        out += "\n" + "-" * (label_w + 3)
        for k, (label, line) in enumerate(records, start=1):
            out += f"\n{k:>3}. [{label}] {line}"
    return out


def _event_detail(ev: "Event") -> str:
    parts = [f"{k}={v}" for k, v in ev.payload.items() if k != "scope"]
    if ev.vtime is not None:
        parts.append(f"vtime={ev.vtime:g}")
    return f" ({', '.join(parts)})" if parts else ""


def render_events(
    source: "Iterable[Event] | TraceRecorder",
    *,
    max_events: int = 60,
    legend: bool = True,
) -> str:
    """Lanes over a full trace: event k marks the task that emitted it.

    Same layout as :func:`render_run`, but every spine event gets a
    column — a barrier patternlet shows the ``barrier.arrive`` cluster
    between the two print phases, a mutual-exclusion one shows the lock
    hand-off order.  The legend lists each event's kind and payload.
    """
    from repro.trace import as_events

    events = as_events(source)
    shown = events[:max_events]
    elided = len(events) - len(shown)
    tasks: list[str] = []
    for ev in shown:
        if ev.task not in tasks:
            tasks.append(ev.task)
    if not tasks:
        return "(no events)"
    label_w = max(len(t) for t in tasks)
    cells: dict[str, list[str]] = {t: [] for t in tasks}
    for k, ev in enumerate(shown, start=1):
        mark = str(k)
        for t in tasks:
            cells[t].append(mark if t == ev.task else "." * len(mark))
    out = "\n".join(
        f"{t:<{label_w}} | " + " ".join(cells[t]) for t in tasks
    )
    if elided > 0:
        out += f"\n({elided} later events elided)"
    if legend:
        out += "\n" + "-" * (label_w + 3)
        for k, ev in enumerate(shown, start=1):
            out += f"\n{k:>3}. [{ev.task}] {ev.kind}{_event_detail(ev)}"
    return out


def render_trace(
    source: "Iterable[Event] | TraceRecorder",
    *,
    max_steps: int = 120,
) -> str:
    """Lanes from the scheduling events of a lockstep run's trace.

    Reads the ``sched.*`` events of any trace (``render_trace(run.trace)``
    for a captured run).  Each ``sched.run`` paints one ``#`` step in the
    chosen task's lane and a space in the others; ``sched.block`` paints
    ``b`` at the moment a task parked, ``sched.wake`` paints ``w``,
    ``sched.done`` paints ``x``.  Reading a barrier run, every lane shows
    ``b``s accumulating until the last arrival, then a burst of ``w``s —
    the barrier made visible.
    """
    from repro.trace import as_events

    mark = {"sched.run": "#", "sched.block": "b", "sched.wake": "w",
            "sched.done": "x"}
    steps = [ev for ev in as_events(source) if ev.kind in mark][:max_steps]
    tasks: list[str] = []
    for ev in steps:
        if ev.task not in tasks:
            tasks.append(ev.task)
    if not tasks:
        return "(empty trace)"
    label_w = max(len(t) for t in tasks)
    lanes = {t: [] for t in tasks}
    for ev in steps:
        for t in tasks:
            lanes[t].append(mark[ev.kind] if t == ev.task else " ")
    body = "\n".join(f"{t:<{label_w}} | {''.join(lanes[t])}" for t in tasks)
    key = "key: # running   b blocked   w woken   x finished"
    return body + "\n" + key
