"""Per-rank mailboxes with MPI matching semantics.

Every rank owns one :class:`Mailbox`.  A message carries its communicator
*context key* (so traffic on split/dup'd communicators and internal
collective traffic can never cross-match), the sender's communicator-local
rank, a non-negative tag, the pickled payload, and its virtual arrival
time under the LogP model.

Matching follows MPI's rules:

- a receive names ``(source, tag)`` where either may be a wildcard
  (``ANY_SOURCE`` / ``ANY_TAG``);
- candidates are considered in arrival order, so messages between one
  (sender, receiver, tag) pair are *non-overtaking*;
- synchronous sends (``ssend``) park a rendezvous flag on the message; the
  sender's clock and control only resume once the receive matched it.

The store is **indexed by exact** ``(context, source, tag)`` key: the
overwhelmingly common exact receive touches one deque — O(1) at any
in-flight message count, where the old flat list scanned every queued
message per match (O(messages), quadratic across a busy run at np=256).
Wildcard receives pick the lowest-``uid`` candidate across matching
buckets; ``uid`` is the world's arrival counter, so this is exactly the
arrival order the flat scan honoured and non-overtaking is preserved.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Hashable

from repro.errors import CommError
from repro.mp.serialize import Packet

__all__ = ["ANY_SOURCE", "ANY_TAG", "Message", "Mailbox", "Status"]

#: Wildcard source for receives (MPI_ANY_SOURCE).
ANY_SOURCE = -2
#: Wildcard tag for receives (MPI_ANY_TAG).
ANY_TAG = -1


class Message:
    """One in-flight message.

    The payload lives in a :class:`~repro.mp.serialize.Packet` (pickled
    bytes, or an immutable travelling by reference); ``data`` and ``size``
    remain available as views for callers that think in pickle terms.
    A slotted plain class rather than a dataclass: one of these is built
    per send, on the transport hot path.
    """

    __slots__ = ("context", "source", "tag", "packet", "arrival", "sync", "consumed", "uid")

    def __init__(
        self,
        context: Hashable,
        source: int,
        tag: int,
        packet: Packet | None = None,
        arrival: float = 0.0,  # virtual time at which it becomes receivable
        sync: bool = False,  # ssend rendezvous?
        data: bytes | None = None,
        size: int | None = None,
    ):
        self.context = context
        self.source = source
        self.tag = tag
        self.packet = packet if packet is not None else Packet(data=data, size=size)
        self.arrival = arrival
        self.sync = sync
        self.consumed = False  # set when matched (releases a waiting ssend)
        self.uid = 0  # the sender numbers it from World.msg_ids

    @property
    def data(self) -> bytes | None:
        """The pickled payload (``None`` for by-reference packets)."""
        return self.packet.data

    @property
    def size(self) -> int:
        """Pickle length in bytes (lazily computed for by-ref packets)."""
        return self.packet.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Message(src={self.source}, tag={self.tag}, uid={self.uid}, "
            f"sync={self.sync})"
        )


@dataclass(frozen=True)
class Status:
    """Receive status (MPI_Status): who sent it, with what tag, how big."""

    source: int
    tag: int
    size: int

    def Get_source(self) -> int:
        """MPI spelling of :attr:`source`."""
        return self.source

    def Get_tag(self) -> int:
        """MPI spelling of :attr:`tag`."""
        return self.tag

    def Get_count(self) -> int:
        """Message size in bytes (the pickle length)."""
        return self.size


class Mailbox:
    """One rank's incoming-message store, indexed for O(1) matching.

    Messages are bucketed by exact ``(context, source, tag)`` key in a
    ``dict`` of deques; each bucket is FIFO, so per-pair non-overtaking
    is structural and an exact-key receive is a dict probe plus a
    ``popleft``.  Wildcard receives scan the (few) live buckets and pick
    the lowest ``uid`` — the world's arrival order — among bucket heads.

    ``locked=False`` drops the internal lock entirely: lockstep worlds
    run exactly one task at a time, so their mailboxes can never be
    accessed concurrently.  The default keeps the lock for real-thread
    worlds, where the indexed store (bucket creation, empty-bucket GC)
    is not safe under bare GIL atomicity the way the old flat
    ``list.append`` was.
    """

    __slots__ = ("owner_rank", "_lock", "_queues")

    def __init__(self, owner_rank: int, *, locked: bool = True):
        self.owner_rank = owner_rank
        self._lock = threading.Lock() if locked else None
        self._queues: dict[tuple, deque[Message]] = {}

    def deposit(self, msg: Message) -> None:
        """File an in-flight message under its key (called by the sender)."""
        lock = self._lock
        if lock is None:
            self._deposit(msg)
        else:
            with lock:
                self._deposit(msg)

    def _deposit(self, msg: Message) -> None:
        queues = self._queues
        key = (msg.context, msg.source, msg.tag)
        q = queues.get(key)
        if q is None:
            queues[key] = q = deque((msg,))
        else:
            q.append(msg)

    def _match(
        self, context: Hashable, source: int, tag: int
    ) -> tuple[tuple, "deque[Message]", Message] | None:
        """First matching ``(key, bucket, message)`` in arrival order."""
        queues = self._queues
        if source != ANY_SOURCE and tag != ANY_TAG:
            key = (context, source, tag)
            q = queues.get(key)
            if q:
                for msg in q:
                    if not msg.consumed:
                        return key, q, msg
            return None
        best = None
        for key, q in queues.items():
            if key[0] != context:
                continue
            if source != ANY_SOURCE and key[1] != source:
                continue
            if tag != ANY_TAG and key[2] != tag:
                continue
            for msg in q:
                if not msg.consumed:
                    if best is None or msg.uid < best[2].uid:
                        best = (key, q, msg)
                    break
        return best

    def peek(self, context: Hashable, source: int, tag: int) -> Message | None:
        """First matching message in arrival order, not removed (probe)."""
        lock = self._lock
        if lock is None:
            hit = self._match(context, source, tag)
        else:
            with lock:
                hit = self._match(context, source, tag)
        return hit[2] if hit is not None else None

    def take(self, context: Hashable, source: int, tag: int) -> Message | None:
        """Remove and return the first matching message, or ``None``.

        Marks the message consumed so a rendezvous (``ssend``) sender is
        released.
        """
        lock = self._lock
        if lock is None:
            return self._take(context, source, tag)
        with lock:
            return self._take(context, source, tag)

    def _take(self, context: Hashable, source: int, tag: int) -> Message | None:
        hit = self._match(context, source, tag)
        if hit is None:
            return None
        key, q, msg = hit
        # msg is the first unconsumed entry of its bucket: purge any
        # consumed stragglers ahead of it, then pop it.
        while q[0].consumed and q[0] is not msg:
            q.popleft()
        if q[0] is msg:
            q.popleft()
        else:  # pragma: no cover - unreachable; _match picks the head
            q.remove(msg)
        msg.consumed = True
        if not q:
            # Empty-bucket GC keeps the wildcard scan proportional to the
            # number of *live* (sender, tag) pairs, not all pairs ever
            # seen.  Safe: this runs under the lock or (lockstep) with no
            # concurrency at all.
            del self._queues[key]
        return msg

    def pending(self) -> int:
        """Number of undelivered messages (diagnostics / leak tests)."""
        lock = self._lock
        if lock is None:
            return sum(len(q) for q in self._queues.values())
        with lock:
            return sum(len(q) for q in self._queues.values())

    def drain(self) -> list[Message]:
        """Remove and return everything, in arrival order (world teardown)."""
        lock = self._lock
        if lock is None:
            return self._drain()
        with lock:
            return self._drain()

    def _drain(self) -> list[Message]:
        out = [msg for q in self._queues.values() for msg in q]
        out.sort(key=lambda m: m.uid)
        self._queues.clear()
        return out


def validate_tag(tag: int) -> None:
    """User-facing tags must be non-negative (wildcards are receive-only)."""
    if not isinstance(tag, int) or isinstance(tag, bool):
        raise CommError(f"tag must be an int, got {type(tag).__name__}")
    if tag < 0:
        raise CommError(f"send tag must be >= 0, got {tag}")
