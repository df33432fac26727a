"""Shared mutable state with honest data races.

The paper uses races twice: the reduction patternlet's wrong sums when the
``reduction`` clause is commented out (Figure 22), and the bank-balance
mutual-exclusion patternlets ("the resulting race condition costs them
imaginary money").  Both hinge on an unprotected read-modify-write of a
shared variable.

:class:`SharedCell` keeps that RMW genuinely unprotected — ``unsafe_add``
really does ``tmp = value; ...; value = tmp + delta`` — and inserts a *race
window* between the read and the write:

- under the lockstep executor the window is a scheduler checkpoint, so a
  seeded run interleaves two threads inside each other's RMW and the lost
  update is **deterministically reproducible**;
- under real threads the window optionally yields the GIL
  (``race_jitter``), which makes lost updates overwhelmingly likely at the
  iteration counts the patternlets use — just like the C original on a
  multicore machine.

The protected counterparts (``atomic_add``, ``critical_add``) route through
the team's :class:`~repro.smp.sync.AtomicGuard` / named
:class:`~repro.smp.sync.TicketLock` and always produce the correct total.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any

from repro.trace.events import active as _trace_active, emit as _trace_emit, next_id

if TYPE_CHECKING:  # pragma: no cover
    from repro.smp.runtime import ExecutionContext

__all__ = ["SharedCell"]


class SharedCell:
    """A shared variable whose update discipline is chosen per call.

    Every access is mirrored onto the run's trace as a ``mem.read`` /
    ``mem.write`` event tagged with the cell's ``name``, which is what the
    happens-before race detector (:mod:`repro.trace.hb`) analyses.
    """

    def __init__(self, value: Any = 0, *, name: str | None = None):
        self.value = value
        self.name = name if name is not None else f"cell{next_id('cell')}"
        self._fallback_lock = threading.Lock()
        #: How many times a race window was actually crossed by another
        #: writer (detected post hoc: the value moved while we held tmp).
        self.torn_updates = 0

    def read(self) -> Any:
        """Plain read (itself unsynchronised, like the demos)."""
        if _trace_active():
            _trace_emit("mem.read", cell=self.name)
        return self.value

    def unsafe_add(self, delta: Any, ctx: "ExecutionContext | None" = None) -> None:
        """The bug the patternlets demonstrate: unprotected read-modify-write."""
        if _trace_active():
            _trace_emit("mem.read", cell=self.name)
        tmp = self.value
        if ctx is not None:
            ctx.race_window()
        if self.value != tmp:
            # Another writer got in between our read and our write; our
            # store below will clobber its update.  Count it so tests can
            # assert the race actually happened rather than inferring it
            # from the final total alone.
            self.torn_updates += 1
        if _trace_active():
            _trace_emit("mem.write", cell=self.name)
        self.value = tmp + delta

    def atomic_add(self, delta: Any, ctx: "ExecutionContext | None" = None) -> None:
        """The ``#pragma omp atomic`` fix: cheapest correct update."""
        if ctx is not None:
            with ctx.atomic():
                if _trace_active():
                    _trace_emit("mem.read", cell=self.name)
                    _trace_emit("mem.write", cell=self.name)
                self.value = self.value + delta
        else:
            with self._fallback_lock:
                self.value = self.value + delta

    def critical_add(
        self,
        delta: Any,
        ctx: "ExecutionContext",
        name: str = "",
    ) -> None:
        """The ``#pragma omp critical`` fix: named-lock protected update."""
        with ctx.critical(name):
            if _trace_active():
                _trace_emit("mem.read", cell=self.name)
                _trace_emit("mem.write", cell=self.name)
            self.value = self.value + delta


def thread_race_window(jitter: float) -> None:
    """Real-thread race window: yield the GIL, optionally nap.

    ``jitter <= 0`` still does a bare ``sleep(0)`` — enough to invite a
    context switch without distorting timings much; positive jitter sleeps
    that many seconds, making lost updates near-certain for demos.
    """
    if jitter > 0:
        time.sleep(jitter)
    else:
        time.sleep(0)
