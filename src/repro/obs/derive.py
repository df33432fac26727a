"""Post-hoc metric derivation: a pure function of the event trace.

Everything here reads a finished event stream (any
:class:`~repro.trace.events.TraceRecorder` or event iterable) and never
touches live runtime state.  That purity is the layer's core invariant:
a cache-served or pickled run rebuilds its trace byte-identically (the
batch codec guarantees it), so :func:`derive_metrics` /
:func:`run_summary` yield **byte-identical metrics** for serial, pooled,
and cache-served executions of the same spec — asserted by tests, relied
on by graders and CI.

Wall-clock time is deliberately *not* a canonical metric: it differs
between a live run and a cache serve by construction.  It appears only
informationally in reports.

Derived quantities:

- per-task scheduler counters (switches in, blocks, wakes) from the
  ``sched.*`` stream;
- per-task message counters and byte volumes (LogP packet sizes) from
  ``msg.send``/``msg.recv``, plus the source→destination message matrix;
- blocked-time accounting: a ``sched.block`` → next ``sched.run`` pair
  for the same task is one blocked interval, measured in trace steps
  (the deterministic timeline) and classified by the first semantic
  event the task emits after resuming (barrier / message / critical /
  semaphore / ...);
- critical-section hold time and the serialisation fraction it implies;
- barrier imbalance from per-generation arrival-clock spread;
- per-task work histograms for worksharing loops (``loop.assign`` /
  ``loop.chunk`` iteration counts — the Fig. 15/16/17 load-balance
  comparison, as numbers);
- span/LogP speedup and efficiency estimates from final virtual clocks.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.obs.registry import MetricsRegistry
from repro.trace.events import Event, TraceRecorder, as_events
from repro.trace.span import final_vtimes

__all__ = [
    "blocked_intervals",
    "derive_metrics",
    "metrics_dict",
    "run_metrics",
    "run_summary",
]

#: Blocked-interval classification: first path component of the first
#: semantic (non-``sched.*``) event a task emits after resuming.
_REASONS = {
    "barrier": "barrier",
    "pbar": "barrier",
    "msg": "recv",
    "critical": "critical",
    "atomic": "atomic",
    "sem": "semaphore",
    "mutex": "mutex",
    "cond": "condvar",
    "ordered": "ordered",
}


def _classify(kind: str) -> str:
    return _REASONS.get(kind.split(".", 1)[0], "other")


def blocked_intervals(
    source: "Iterable[Event] | TraceRecorder",
) -> list[tuple[str, int, int, str]]:
    """Every blocked interval as ``(task, start_seq, end_seq, reason)``.

    An interval opens at a task's ``sched.block`` and closes at its next
    ``sched.run``; its length in trace steps is the deterministic analog
    of time spent waiting.  The reason is the classification of the
    first semantic event the task emits after resuming (a task that
    blocks at a barrier departs through ``barrier.depart`` first, a
    blocked receive completes through ``msg.recv``, ...).
    """
    events = as_events(source)
    open_block: dict[str, int] = {}
    pending: list[tuple[str, int, int]] = []  # closed, reason not yet known
    out: list[tuple[str, int, int, str]] = []
    awaiting: dict[str, int] = {}  # task -> index into pending
    for ev in events:
        if ev.kind == "sched.block":
            open_block[ev.task] = ev.seq
        elif ev.kind == "sched.run":
            start = open_block.pop(ev.task, None)
            if start is not None:
                awaiting[ev.task] = len(pending)
                pending.append((ev.task, start, ev.seq))
        elif not ev.kind.startswith("sched."):
            idx = awaiting.pop(ev.task, None)
            if idx is not None:
                task, start, end = pending[idx]
                out.append((task, start, end, _classify(ev.kind)))
                pending[idx] = ("", -1, -1)  # consumed
    for task, idx in sorted(awaiting.items()):
        t, start, end = pending[idx]
        if start >= 0:
            out.append((t, start, end, "other"))
    out.sort(key=lambda iv: iv[1])
    return out


def _rank_pair(ev: Event) -> tuple[str, str] | None:
    """(src, dst) rank indices for a ``msg.send`` event, as strings."""
    dest = ev.payload.get("dest")
    if dest is None:
        return None
    # The sender's rank is the trailing mpi:N component of its label.
    src = None
    for part in reversed(ev.task.split("/")):
        if part.startswith("mpi:"):
            src = part[4:]
            break
    if src is None:
        src = ev.task
    return src, str(dest)


def derive_metrics(
    source: "Iterable[Event] | TraceRecorder",
    *,
    registry: MetricsRegistry | None = None,
) -> MetricsRegistry:
    """Populate a :class:`MetricsRegistry` purely from an event stream."""
    reg = registry if registry is not None else MetricsRegistry()
    events = as_events(source)

    switches = reg.counter(
        "sched_switches", "Scheduler switches into each task (sched.run events)."
    )
    blocks = reg.counter("sched_blocks", "Times each task blocked at a switch point.")
    wakes = reg.counter("sched_wakes", "Times each blocked task was woken.")
    msgs_sent = reg.counter("messages_sent", "Point-to-point messages sent per task.")
    bytes_sent = reg.counter(
        "message_bytes_sent", "Message payload bytes sent per task (LogP sizes).",
        unit="bytes",
    )
    msgs_recvd = reg.counter(
        "messages_received", "Point-to-point messages received per task."
    )
    bytes_recvd = reg.counter(
        "message_bytes_received",
        "Message payload bytes received per task (LogP sizes).",
        unit="bytes",
    )
    barriers = reg.counter("barrier_arrivals", "Barrier arrivals per task.")
    criticals = reg.counter(
        "critical_acquisitions", "Critical-section acquisitions per task."
    )
    atomics = reg.counter("atomic_updates", "Atomic guarded updates per task.")
    loop_iters = reg.counter(
        "loop_iterations", "Worksharing-loop iterations executed per task."
    )
    prints = reg.counter("lines_printed", "Completed stdout lines per task.")
    blocked = reg.gauge(
        "blocked_steps",
        "Trace steps spent blocked, by task and wait reason.",
        unit="steps",
    )
    hold = reg.gauge(
        "critical_hold_steps",
        "Trace steps spent inside critical sections, per task.",
        unit="steps",
    )
    sizes = reg.histogram(
        "message_size_bytes", "Distribution of sent message sizes.", unit="bytes"
    )
    waits = reg.histogram(
        "blocked_interval_steps",
        "Distribution of blocked-interval lengths, by wait reason.",
        unit="steps",
    )

    crit_open: dict[str, int] = {}
    for ev in events:
        kind = ev.kind
        task = {"task": ev.task}
        if kind == "sched.run":
            switches.inc(task)
        elif kind == "sched.block":
            blocks.inc(task)
        elif kind == "sched.wake":
            wakes.inc(task)
        elif kind == "msg.send":
            size = ev.payload.get("size", 0)
            msgs_sent.inc(task, exemplar={"trace_seq": ev.seq})
            bytes_sent.inc(task, size)
            sizes.observe(size, {"task": ev.task})
        elif kind == "msg.recv":
            msgs_recvd.inc(task, exemplar={"trace_seq": ev.seq})
            bytes_recvd.inc(task, ev.payload.get("size", 0))
        elif kind == "barrier.arrive":
            barriers.inc(task)
        elif kind == "critical.acquire":
            criticals.inc(task, exemplar={"trace_seq": ev.seq})
            crit_open[ev.task] = ev.seq
        elif kind == "critical.release":
            start = crit_open.pop(ev.task, None)
            if start is not None:
                hold.add(ev.seq - start, task)
        elif kind == "atomic.release":
            atomics.inc(task)
        elif kind in ("loop.assign", "loop.chunk"):
            loop_iters.inc(
                {"task": ev.task, "schedule": ev.payload.get("schedule", "?")},
                ev.payload.get("count", 0),
                exemplar={"trace_seq": ev.seq},
            )
        elif kind == "io.print":
            prints.inc(task)

    for task_label, start, end, reason in blocked_intervals(events):
        steps = end - start
        blocked.add(steps, {"task": task_label, "reason": reason})
        waits.observe(steps, {"reason": reason})
    return reg


def run_summary(
    source: "Iterable[Event] | TraceRecorder",
    *,
    tasks_hint: int | None = None,
) -> dict[str, Any]:
    """Parallel-performance summary of one run, as one ordered plain dict.

    All values are pure functions of the trace (wall time is excluded on
    purpose — see the module docstring).  ``tasks_hint`` supplies the
    configured task count for the efficiency estimate when the trace
    alone cannot name it (e.g. a run whose region never forked).
    """
    events = as_events(source)
    finals = final_vtimes(events)
    span = max(finals.values()) if finals else 0.0
    total_work = sum(finals.values())
    n_tasks = tasks_hint if tasks_hint else len(finals)
    speedup = (total_work / span) if span > 0 else 1.0
    efficiency = (speedup / n_tasks) if n_tasks else 1.0

    # Barrier imbalance: arrival-clock spread per (scope, generation).
    arrivals: dict[tuple[Any, Any], list[float]] = {}
    for ev in events:
        if ev.kind == "barrier.arrive" and ev.vtime is not None:
            key = (ev.payload.get("scope"), ev.payload.get("generation"))
            arrivals.setdefault(key, []).append(ev.vtime)
    spreads = [max(v) - min(v) for v in arrivals.values() if len(v) > 1]
    mean_spread = sum(spreads) / len(spreads) if spreads else 0.0
    imbalance = (mean_spread / span) if span > 0 else 0.0

    # Critical-section serialisation: held trace steps over stream extent.
    crit_open: dict[str, int] = {}
    hold_steps = 0
    acquisitions = 0
    for ev in events:
        if ev.kind == "critical.acquire":
            acquisitions += 1
            crit_open[ev.task] = ev.seq
        elif ev.kind == "critical.release":
            start = crit_open.pop(ev.task, None)
            if start is not None:
                hold_steps += ev.seq - start
    extent = (events[-1].seq - events[0].seq) if len(events) > 1 else 0
    serial_fraction = (hold_steps / extent) if extent > 0 else 0.0

    # Worksharing loops: the per-task work histogram.
    loop_counts: dict[str, int] = {}
    schedules: set[str] = set()
    for ev in events:
        if ev.kind in ("loop.assign", "loop.chunk"):
            loop_counts[ev.task] = loop_counts.get(ev.task, 0) + int(
                ev.payload.get("count", 0)
            )
            schedules.add(str(ev.payload.get("schedule", "?")))

    # Message matrix: src rank -> dst rank, message and byte counts.
    matrix: dict[str, dict[str, int]] = {}
    total_msgs = 0
    total_bytes = 0
    for ev in events:
        if ev.kind != "msg.send":
            continue
        pair = _rank_pair(ev)
        if pair is None:
            continue
        cell = matrix.setdefault(f"{pair[0]}->{pair[1]}", {"msgs": 0, "bytes": 0})
        size = int(ev.payload.get("size", 0))
        cell["msgs"] += 1
        cell["bytes"] += size
        total_msgs += 1
        total_bytes += size

    blocked: dict[str, dict[str, int]] = {}
    for task_label, start, end, reason in blocked_intervals(events):
        per = blocked.setdefault(task_label, {})
        per[reason] = per.get(reason, 0) + (end - start)

    from repro.trace import detect_races

    races = len(detect_races(events))

    return {
        "tasks": sorted(finals),
        "span": span,
        "total_work": total_work,
        "speedup": round(speedup, 6),
        "efficiency": round(efficiency, 6),
        "barrier": {
            "generations": len(arrivals),
            "mean_arrival_spread": round(mean_spread, 6),
            "imbalance_fraction": round(imbalance, 6),
        },
        "critical": {
            "acquisitions": acquisitions,
            "hold_steps": hold_steps,
            "serialisation_fraction": round(serial_fraction, 6),
        },
        "loop": {
            "schedules": sorted(schedules),
            "iterations": {k: loop_counts[k] for k in sorted(loop_counts)},
        },
        "messages": {
            "total": total_msgs,
            "bytes": total_bytes,
            "matrix": {k: matrix[k] for k in sorted(matrix)},
        },
        "blocked": {
            t: {r: blocked[t][r] for r in sorted(blocked[t])}
            for t in sorted(blocked)
        },
        "races": races,
    }


#: run.meta fields that may label metrics.  ``cached`` (and anything else
#: that differs between a live and a served run) must never appear here —
#: the serial / pooled / cache-served byte-identity depends on it.
_IDENTITY_META = ("patternlet", "backend", "tasks", "mode", "seed", "topology")


def run_metrics(run: Any) -> MetricsRegistry:
    """The full metrics registry for one :class:`CapturedRun`.

    Derived counters and histograms from the trace, summary gauges, and
    the engine-identity info labels (version + fingerprint) every
    metrics artifact must carry.
    """
    return _run_registry(run, run_summary(run.trace, tasks_hint=run.meta.get("tasks")))


def _run_registry(run: Any, summary: Mapping[str, Any]) -> MetricsRegistry:
    from repro._version import __version__
    from repro.batch.specs import engine_fingerprint

    reg = MetricsRegistry()
    reg.info["version"] = __version__
    reg.info["fingerprint"] = engine_fingerprint()
    for field in _IDENTITY_META:
        value = run.meta.get(field)
        if value is not None:
            reg.info[field] = str(value)
    derive_metrics(run.trace, registry=reg)
    g = reg.gauge("run_span", "Critical-path virtual time of the run.", unit="work")
    g.set(summary["span"])
    reg.gauge("run_total_work", "Sum of final task clocks.", unit="work").set(
        summary["total_work"]
    )
    reg.gauge("run_speedup", "Estimated speedup: total work over span.").set(
        summary["speedup"]
    )
    reg.gauge("run_efficiency", "Speedup over task count.").set(
        summary["efficiency"]
    )
    reg.gauge(
        "barrier_imbalance_fraction",
        "Mean barrier arrival spread over span.",
    ).set(summary["barrier"]["imbalance_fraction"])
    reg.gauge(
        "critical_serialisation_fraction",
        "Trace steps inside critical sections over stream extent.",
    ).set(summary["critical"]["serialisation_fraction"])
    reg.gauge("races_detected", "Happens-before race verdict count.").set(
        summary["races"]
    )
    return reg


def metrics_dict(run: Any) -> dict[str, Any]:
    """Canonical JSON-able metrics document for one run.

    This is the object the determinism tests compare byte-for-byte
    (after ``json.dumps(..., sort_keys=True)``): registry families,
    engine identity, and the summary — and nothing wall-clock-shaped.
    """
    summary = run_summary(run.trace, tasks_hint=run.meta.get("tasks"))
    doc = _run_registry(run, summary).to_json()
    doc["summary"] = summary
    return doc
