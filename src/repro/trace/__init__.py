"""``repro.trace`` — the unified event spine of the library.

One run, one stream: every substrate (scheduler, SMP, MP, pthreads) emits
its observable actions — prints, task lifetimes, barrier generations, lock
hand-offs, message edges, shared-memory accesses — into a single
:class:`TraceRecorder`.  The former per-substrate mechanisms are now views
over this stream:

====================  ====================================================
view                  module
====================  ====================================================
captured output       :mod:`repro.core.capture` (``io.print`` events)
critical-path span    :mod:`repro.trace.span` (``task.end`` virtual times)
race proofs           :mod:`repro.trace.hb` (vector clocks over HB edges)
timeline rendering    :mod:`repro.core.timeline` (lanes over any events)
trace files           :mod:`repro.trace.export` (Chrome trace JSON)
====================  ====================================================

Event-kind vocabulary (payload keys in parentheses):

- ``io.print`` (line) — one completed stdout line
- ``task.start`` / ``task.end`` (scope; end carries final ``vtime``)
- ``region.fork`` / ``region.join`` — an SMP parallel region's fork-join
- ``world.fork`` / ``world.join`` — an MP world launch
- ``barrier.arrive`` / ``barrier.depart`` (scope, generation)
- ``critical.acquire`` / ``critical.release`` (scope, name)
- ``atomic.acquire`` / ``atomic.release`` (scope)
- ``ordered.enter`` / ``ordered.exit`` (iteration)
- ``loop.assign`` / ``loop.chunk`` (scope, first, last, count) — iteration
  ownership under static / dynamic-guided schedules
- ``reduce.combine`` (scope, left, right, step) — one tree-combine
- ``msg.send`` / ``msg.recv`` (scope, uid, peer, tag, size) and
  ``msg.ack`` / ``msg.ssend_done`` for rendezvous completion
- ``mem.read`` / ``mem.write`` (cell) — a :class:`~repro.smp.race.SharedCell`
  access, the race detector's subject
- ``mutex.* / cond.* / sem.* / rwlock.* / pbar.*`` — pthreads primitives
- ``sched.run / sched.block / sched.wake / sched.done`` — lockstep
  scheduling decisions
- ``task.spawn`` / ``task.join`` — dynamic (pthread-style) lifecycles

Ambient state is fork-safe: :func:`reset_ambient` is registered via
``os.register_at_fork`` so forked batch workers never emit into their
parent's recorder — the same pattern :mod:`repro.sched.pool` uses to
replace the parent's parked rank threads with a fresh pool in children.
"""

from repro.trace.events import (
    Event,
    TraceRecorder,
    active,
    as_events,
    current_recorder,
    emit,
    muted,
    next_id,
    pop_recorder,
    push_recorder,
    reset_ambient,
    using_recorder,
)
from repro.trace.export import dumps, to_chrome_trace, write_chrome_trace
from repro.trace.hb import (
    Race,
    clock_leq,
    clocks_concurrent,
    detect_races,
    hb_edges,
    race_summary,
    vector_clocks,
)
from repro.trace.span import critical_task, final_vtimes, span_of, span_profile

__all__ = [
    "Event",
    "TraceRecorder",
    "as_events",
    "current_recorder",
    "push_recorder",
    "pop_recorder",
    "reset_ambient",
    "using_recorder",
    "muted",
    "active",
    "emit",
    "next_id",
    "final_vtimes",
    "span_of",
    "critical_task",
    "span_profile",
    "Race",
    "vector_clocks",
    "clock_leq",
    "clocks_concurrent",
    "hb_edges",
    "detect_races",
    "race_summary",
    "to_chrome_trace",
    "dumps",
    "write_chrome_trace",
]
