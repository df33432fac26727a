"""Pthreads-flavoured synchronisation objects.

Unlike the SMP layer's team-scoped primitives, these are free-standing
objects created by the program and passed to threads explicitly — the
pthreads idiom.  All of them are executor-aware (blocking goes through
``wait_until``), so they work identically under real threads and under the
deterministic lockstep scheduler, and they appear by name in deadlock
diagnostics.
"""

from __future__ import annotations

import threading

from repro.errors import SmpError
from repro.sched import Executor
from repro.trace.events import emit as _trace_emit, next_id

__all__ = ["Mutex", "CondVar", "Semaphore", "PthreadBarrier", "RWLock"]


class Mutex:
    """``pthread_mutex_t``: a FIFO-fair lock usable as a context manager."""

    def __init__(self, executor: Executor, name: str = "mutex"):
        self._executor = executor
        self.name = name
        # Tells same-named objects apart in happens-before keys; numbered
        # per run, like every id that lands in a trace.
        self._uid = next_id("pthreads")
        self._lock = threading.Lock()
        self._next_ticket = 0
        self._now_serving = 0

    def lock(self) -> None:
        """``pthread_mutex_lock``: take a ticket and wait your turn."""
        with self._lock:
            ticket = self._next_ticket
            self._next_ticket += 1
        self._executor.wait_until(
            lambda: self._now_serving == ticket,
            describe=f"mutex {self.name!r} (ticket {ticket})",
        )
        _trace_emit(
            "mutex.acquire", name=self.name, hb_acq=("mutex", self._uid)
        )

    def unlock(self) -> None:
        """``pthread_mutex_unlock``: serve the next ticket."""
        with self._lock:
            if self._now_serving >= self._next_ticket:
                raise SmpError(f"mutex {self.name!r} unlocked while not held")
            # Emit before serving the next ticket so the successor's
            # acquire event follows this one in stream order.
            _trace_emit(
                "mutex.release", name=self.name, hb_rel=("mutex", self._uid)
            )
            self._now_serving += 1
        self._executor.notify()

    def __enter__(self) -> "Mutex":
        self.lock()
        return self

    def __exit__(self, *exc: object) -> None:
        self.unlock()

    @property
    def locked(self) -> bool:
        with self._lock:
            return self._now_serving < self._next_ticket


class CondVar:
    """``pthread_cond_t``: wait/signal/broadcast tied to a :class:`Mutex`.

    As with POSIX, ``wait`` must be called with the mutex held; it releases
    the mutex while waiting and reacquires it before returning.  Waiters
    are released in FIFO order by ``signal`` and all at once by
    ``broadcast``.  Spurious wakeups do not occur, but portable callers
    should still re-check their predicate in a loop.
    """

    def __init__(self, executor: Executor, mutex: Mutex, name: str = "cond"):
        self._executor = executor
        self._mutex = mutex
        self.name = name
        self._uid = next_id("pthreads")
        self._lock = threading.Lock()
        self._arrivals = 0
        self._releases = 0

    def wait(self) -> None:
        """``pthread_cond_wait``: release the mutex, sleep, reacquire."""
        if not self._mutex.locked:
            raise SmpError(f"cond {self.name!r}: wait() without holding the mutex")
        with self._lock:
            my_slot = self._arrivals
            self._arrivals += 1
        self._mutex.unlock()
        self._executor.wait_until(
            lambda: self._releases > my_slot,
            describe=f"condition variable {self.name!r}",
        )
        _trace_emit("cond.wake", name=self.name, hb_acq=("cond", self._uid))
        self._mutex.lock()

    def signal(self) -> None:
        """Release one waiter (if any)."""
        with self._lock:
            if self._releases < self._arrivals:
                # Emit before bumping releases: the wake event it orders
                # must come later in the stream.
                _trace_emit(
                    "cond.signal", name=self.name, hb_rel=("cond", self._uid)
                )
                self._releases += 1
        self._executor.notify()

    def broadcast(self) -> None:
        """Release every current waiter."""
        with self._lock:
            _trace_emit(
                "cond.broadcast", name=self.name, hb_rel=("cond", self._uid)
            )
            self._releases = self._arrivals
        self._executor.notify()

    @property
    def waiting(self) -> int:
        with self._lock:
            return self._arrivals - self._releases


class Semaphore:
    """``sem_t``: counting semaphore with executor-visible blocking."""

    def __init__(self, executor: Executor, value: int = 0, name: str = "sem"):
        if value < 0:
            raise ValueError("semaphore value must be non-negative")
        self._executor = executor
        self.name = name
        self._uid = next_id("pthreads")
        self._lock = threading.Lock()
        self._value = value

    def post(self) -> None:
        """``sem_post``: increment and wake a waiter."""
        with self._lock:
            # Emit before the count becomes visible: any waiter's acquire
            # event must follow this one in stream order.
            _trace_emit("sem.post", name=self.name, hb_rel=("sem", self._uid))
            self._value += 1
        self._executor.notify()

    def acquire_slot(self) -> bool:
        """Nonblocking decrement; True on success (shared by wait/trywait)."""
        with self._lock:
            if self._value > 0:
                self._value -= 1
                _trace_emit(
                    "sem.wait", name=self.name, hb_acq=("sem", self._uid)
                )
                return True
            return False

    def wait(self) -> None:
        """``sem_wait``: block until the count is positive, then decrement."""
        while True:
            if self.acquire_slot():
                return
            self._executor.wait_until(
                lambda: self._value > 0,
                describe=f"semaphore {self.name!r}",
            )

    def trywait(self) -> bool:
        """``sem_trywait``: nonblocking decrement attempt."""
        return self.acquire_slot()

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class PthreadBarrier:
    """``pthread_barrier_t``: reusable barrier for a fixed party count.

    ``wait`` returns ``True`` on exactly one thread per cycle (the
    ``PTHREAD_BARRIER_SERIAL_THREAD`` convention) and ``False`` on the
    rest.
    """

    def __init__(self, executor: Executor, parties: int, name: str = "barrier"):
        if parties <= 0:
            raise ValueError("parties must be positive")
        self._executor = executor
        self.parties = parties
        self.name = name
        self._uid = next_id("pthreads")
        self._lock = threading.Lock()
        self._count = 0
        self._generation = 0

    def wait(self) -> bool:
        """Arrive; True on exactly the serial thread once all are in."""
        with self._lock:
            gen = self._generation
            # Arrivals are recorded before the generation can flip, so
            # every departure of this generation follows every arrival.
            _trace_emit(
                "pbar.arrive",
                name=self.name,
                generation=gen,
                hb_rel=("pbar", self._uid, gen),
            )
            self._count += 1
            serial = self._count == self.parties
            if serial:
                self._count = 0
                self._generation += 1
        if serial:
            self._executor.notify()
        else:
            self._executor.wait_until(
                lambda: self._generation != gen,
                describe=f"pthread barrier {self.name!r} (generation {gen})",
            )
        _trace_emit(
            "pbar.depart",
            name=self.name,
            generation=gen,
            hb_acq=("pbar", self._uid, gen),
        )
        return serial


class RWLock:
    """``pthread_rwlock_t``: many concurrent readers or one writer.

    Writer-preferring: once a writer is waiting, new readers queue behind
    it (no writer starvation).  Exposed as two context-manager views,
    ``read_locked()`` and ``write_locked()``.
    """

    def __init__(self, executor: Executor, name: str = "rwlock"):
        self._executor = executor
        self.name = name
        self._uid = next_id("pthreads")
        self._lock = threading.Lock()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def _try_read(self) -> bool:
        with self._lock:
            if not self._writer and self._writers_waiting == 0:
                self._readers += 1
                _trace_emit(
                    "rwlock.rdlock", name=self.name, hb_acq=("rwlock", self._uid)
                )
                return True
            return False

    def read_lock(self) -> None:
        """Acquire shared (read) access; queues behind waiting writers."""
        while not self._try_read():
            self._executor.wait_until(
                lambda: not self._writer and self._writers_waiting == 0,
                describe=f"rwlock {self.name!r} (read)",
            )

    def read_unlock(self) -> None:
        """Release shared access."""
        with self._lock:
            if self._readers <= 0:
                raise SmpError(f"rwlock {self.name!r}: read_unlock without lock")
            _trace_emit(
                "rwlock.rdunlock", name=self.name, hb_rel=("rwlock", self._uid)
            )
            self._readers -= 1
        self._executor.notify()

    def _try_write(self) -> bool:
        with self._lock:
            if not self._writer and self._readers == 0:
                self._writer = True
                self._writers_waiting -= 1
                _trace_emit(
                    "rwlock.wrlock", name=self.name, hb_acq=("rwlock", self._uid)
                )
                return True
            return False

    def write_lock(self) -> None:
        """Acquire exclusive (write) access, draining active readers first."""
        with self._lock:
            self._writers_waiting += 1
        while not self._try_write():
            self._executor.wait_until(
                lambda: not self._writer and self._readers == 0,
                describe=f"rwlock {self.name!r} (write)",
            )

    def write_unlock(self) -> None:
        """Release exclusive access."""
        with self._lock:
            if not self._writer:
                raise SmpError(f"rwlock {self.name!r}: write_unlock without lock")
            _trace_emit(
                "rwlock.wrunlock", name=self.name, hb_rel=("rwlock", self._uid)
            )
            self._writer = False
        self._executor.notify()

    def read_locked(self) -> "_RWView":
        """Context-manager view of the shared side."""
        return _RWView(self.read_lock, self.read_unlock)

    def write_locked(self) -> "_RWView":
        """Context-manager view of the exclusive side."""
        return _RWView(self.write_lock, self.write_unlock)

    @property
    def state(self) -> tuple[int, bool, int]:
        """(active readers, writer active, writers waiting) — diagnostics."""
        with self._lock:
            return (self._readers, self._writer, self._writers_waiting)


class _RWView:
    __slots__ = ("_enter", "_exit")

    def __init__(self, enter, exit_):
        self._enter = enter
        self._exit = exit_

    def __enter__(self) -> None:
        self._enter()

    def __exit__(self, *exc: object) -> None:
        self._exit()
