"""Communicators: point-to-point messaging, requests, and comm management.

A :class:`Comm` is a rank's handle on one communication context, mirroring
mpi4py's lowercase (pickle-based) API:

    def main(comm):
        if comm.rank == 0:
            comm.send({"a": 7}, dest=1, tag=11)
        elif comm.rank == 1:
            data = comm.recv(source=0, tag=11)

Payloads cross by value (see :mod:`repro.mp.serialize`), matching follows
MPI rules (see :mod:`repro.mp.mailbox`), and every operation advances the
rank's logical clock under the LogP cost model (see :mod:`repro.mp.vtime`).

Send flavours:

- :meth:`Comm.send` — *eager/buffered*: deposits and returns immediately,
  like ``MPI_Send`` of a small message on a real implementation.
- :meth:`Comm.ssend` — *synchronous*: returns only once the matching
  receive has started.  This is the flavour whose naive head-to-head use
  deadlocks, which the ``messagePassing2``/deadlock patternlets exploit.
- :meth:`Comm.isend` / :meth:`Comm.irecv` — nonblocking, returning a
  :class:`Request` with ``test``/``wait``.

Collective operations live in :mod:`repro.mp.collectives`; ``Comm`` exposes
them as methods (``bcast``, ``scatter``, ``gather``, ``reduce``, ...).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Hashable, Sequence

from repro.errors import CommError, MpError
from repro.mp import collectives as _coll
from repro.trace import events as _trace_events
from repro.trace.events import active as _trace_active, emit as _trace_emit
from repro.mp.mailbox import (
    ANY_SOURCE,
    ANY_TAG,
    Mailbox,
    Message,
    Status,
    validate_tag,
)
from repro.mp.serialize import (
    KIND_COW_FLAT,
    KIND_COW_MOVE,
    KIND_REF,
    Packet,
    pack_packet,
)
from repro.ops import Op

if TYPE_CHECKING:  # pragma: no cover
    from repro.mp.runtime import World

__all__ = ["Comm", "Request", "ANY_SOURCE", "ANY_TAG", "Status", "waitall", "waitany", "testall"]

#: Unique sentinel for the per-communicator packet memo ("no entry yet");
#: distinct from any user payload, including None.
_NO_MEMO = object()

#: Allocator for the unrolled Message construction in :meth:`Comm.send`.
_new_message = object.__new__


class Request:
    """Handle for a nonblocking operation (MPI_Request analogue)."""

    def __init__(
        self,
        comm: "Comm",
        *,
        completed: bool = False,
        value: Any = None,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
    ):
        self._comm = comm
        self._done = completed
        self._value = value
        self._source = source
        self._tag = tag

    def test(self) -> tuple[bool, Any]:
        """Nonblocking completion check: ``(done, value_or_None)``."""
        if self._done:
            return True, self._value
        msg = self._comm._mailbox.peek(self._comm._ctx, self._source, self._tag)
        if msg is None:
            # Give teammates a chance to make progress between polls (this
            # is what makes test-loops live under the lockstep executor).
            self._comm._world.executor.checkpoint()
            return False, None
        self._value = self._comm._complete_recv(self._source, self._tag)
        self._done = True
        return True, self._value

    def wait(self) -> Any:
        """Block until complete; return the received payload (None for sends)."""
        if self._done:
            return self._value
        self._value = self._comm.recv(source=self._source, tag=self._tag)
        self._done = True
        return self._value


def waitall(requests: "Sequence[Request]") -> list[Any]:
    """``MPI_Waitall``: complete every request; return their payloads in order."""
    return [req.wait() for req in requests]


def waitany(requests: "Sequence[Request]") -> tuple[int, Any]:
    """``MPI_Waitany``: block until *some* request completes.

    Returns ``(index, payload)`` of the first completion found.  Polls the
    request set through nonblocking tests (which are scheduler checkpoints,
    so lockstep worlds keep making progress).
    """
    if not requests:
        raise CommError("waitany on an empty request list")
    comm = requests[0]._comm
    while True:
        for i, req in enumerate(requests):
            done, value = req.test()
            if done:
                return i, value
        comm._check_world()


def testall(requests: "Sequence[Request]") -> tuple[bool, list[Any] | None]:
    """``MPI_Testall``: ``(True, payloads)`` if all complete, else ``(False, None)``."""
    values = []
    for req in requests:
        done, value = req.test()
        if not done:
            return False, None
        values.append(value)
    return True, values


class Comm:
    """One rank's communicator handle.

    Exposes both pythonic (``comm.rank``) and MPI-spelled
    (``comm.Get_rank()``) accessors, since the paper's audience will have
    seen the latter.
    """

    def __init__(
        self,
        world: "World",
        local_rank: int,
        global_ranks: Sequence[int],
        ctx: Hashable,
        name: str = "COMM_WORLD",
    ):
        self._world = world
        # A plain-list ``global_ranks`` is adopted without copying: rank
        # maps are immutable by contract once a communicator exists, and
        # the world-sized copy per rank made world construction O(np^2).
        self._ranks = (
            global_ranks if type(global_ranks) is list else list(global_ranks)
        )
        self._rank = local_rank
        self._ctx = ctx
        self._name = name
        self._coll_seq = 0
        self._split_seq = 0
        # Hot-path caches: every send/recv needs this rank's clock and
        # mailbox; resolving them through the world per operation is pure
        # overhead, and a communicator's rank mapping never changes.
        gid = self._ranks[local_rank]
        self._my_clock = world.clocks[gid]
        self._my_mailbox = world.mailboxes[gid]
        self._msg_ids = world.msg_ids
        # LogP constants are frozen for the world's lifetime; fold the
        # per-message arithmetic down to one add when bandwidth is off.
        costs = world.costs
        self._ovh = costs.overhead
        self._hop0 = costs.transit(0)
        self._pb = costs.per_byte
        # Which algorithm set comm.bcast()/reduce()/... dispatch to.
        self._topo = world.communicator
        # Heterogeneous networks replace the scalar constants with
        # per-destination arrays indexed by local rank: the sender pays
        # the *link's* overhead, and transit varies by (src, dst) node
        # pair.  ``_hop0s is None`` keeps the uniform fast path exact.
        if world.hetero:
            net = world.network
            nodes = world.rank_nodes
            my_node = nodes[gid]
            links = [net.link(my_node, nodes[g]) for g in self._ranks]
            self._sovhs = [l.overhead for l in links]
            self._hop0s = [l.overhead + l.latency for l in links]
            self._pbs = [l.per_byte for l in links]
        else:
            self._hop0s = None
        self._executor = world.executor
        self._lockstep = self._executor.mode == "lockstep"
        self._mailboxes = world.mailboxes
        # Packet memo for repeated sends of the *same* immutable object
        # (loop counters, sentinel tokens, broadcast constants): identity
        # plus immutability make reusing the packed form safe, and the memo
        # keeps the object alive so its id cannot be recycled.
        self._pk_obj: Any = _NO_MEMO
        self._pk: Packet | None = None

    # -- identity -------------------------------------------------------------

    @property
    def rank(self) -> int:
        """This process's rank within the communicator."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of processes in the communicator."""
        return len(self._ranks)

    def Get_rank(self) -> int:
        """MPI spelling of :attr:`rank`."""
        return self._rank

    def Get_size(self) -> int:
        """MPI spelling of :attr:`size`."""
        return len(self._ranks)

    @property
    def name(self) -> str:
        return self._name

    @property
    def world(self) -> "World":
        return self._world

    def Get_processor_name(self) -> str:
        """Name of the simulated cluster node hosting this rank (Figure 6)."""
        return self._world.cluster.processor_name(
            self._global(self._rank), self._world.size
        )

    # -- virtual time -----------------------------------------------------------

    @property
    def vtime(self) -> float:
        """This rank's logical clock (LogP work units)."""
        return self._my_clock.now

    def work(self, cost: float = 1.0) -> None:
        """Charge local compute to this rank's clock."""
        self._my_clock.advance(cost)

    def wtime(self) -> float:
        """Wall-clock seconds (``MPI_Wtime`` analogue)."""
        import time

        return time.perf_counter()

    def abort(self, reason: str = "MPI_Abort called") -> None:
        """``MPI_Abort``: tear the whole world down from one rank.

        Marks the world broken (unblocking every rank waiting in a
        receive or collective) and raises in the calling rank.
        """
        if self._world.group is not None:
            self._world.group.failed = True
        self._world.executor.notify()
        raise MpError(f"rank {self._rank} aborted the world: {reason}")

    # -- internals ----------------------------------------------------------------

    def _global(self, local: int) -> int:
        if not 0 <= local < len(self._ranks):
            raise CommError(
                f"rank {local} out of range for communicator {self._name!r} "
                f"of size {len(self._ranks)}"
            )
        return self._ranks[local]

    @property
    def _mailbox(self) -> Mailbox:
        return self._my_mailbox

    def _check_world(self) -> None:
        if self._world.broken:
            raise MpError(
                f"communication aborted: another rank in world "
                f"{self._world.label!r} failed"
            )

    # -- point-to-point -------------------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Eager (buffered) send: deposits the message and returns.

        This duplicates :meth:`_post_packet` (which remains the shared
        path for ``ssend``/``isend`` and the collectives): ``send`` is the
        single hottest entry point of the transport, and the extra frames
        were measurable against the message-throughput benchmark.
        """
        if obj is self._pk_obj:
            packet = self._pk
        else:
            packet = pack_packet(obj)
            # Only by-ref packets are memoisable: identity plus immutability
            # make reuse safe.  A copying packet must NOT be memoised — it
            # captures send-time state, and the sender may mutate the
            # (same-identity) container between two sends.
            if packet.kind is KIND_REF:
                self._pk_obj = obj
                self._pk = packet
            elif packet.kind is KIND_COW_FLAT:
                # Born here, delivered to exactly one recv (collectives
                # post through _post_packet, never this path): mark the
                # snapshot movable so that recv can take it without the
                # receiver-side copy.
                packet.kind = KIND_COW_MOVE
        if tag.__class__ is not int or tag < 0:
            validate_tag(tag)
        ranks = self._ranks
        if not 0 <= dest < len(ranks):
            self._global(dest)  # raises with the full diagnostic
        clock = self._my_clock
        depart = clock.now
        hops = self._hop0s
        if hops is None:
            clock.now = depart + self._ovh
            pb = self._pb
            if pb:
                arrival = depart + (self._hop0 + packet.size * pb)
            else:
                arrival = depart + self._hop0
        else:
            # Heterogeneous: sender pays this link's overhead; transit is
            # the (src, dst) link's.  Receive cost stays processor-level.
            clock.now = depart + self._sovhs[dest]
            pb = self._pbs[dest]
            arrival = depart + hops[dest] + (packet.size * pb if pb else 0.0)
        # Message.__init__ unrolled: eight slot stores beat the ctor frame
        # on the hottest send path (every other site uses the ctor).
        msg = _new_message(Message)
        msg.context = self._ctx
        msg.source = self._rank
        msg.tag = tag
        msg.packet = packet
        msg.arrival = arrival
        msg.sync = False
        msg.consumed = False
        msg.uid = next(self._msg_ids)
        rec = _trace_events._top
        if rec is not None and rec.recording:
            rec.emit(
                "msg.send",
                scope=self._world.scope,
                uid=msg.uid,
                dest=dest,
                tag=tag,
                size=msg.size,
                vtime=clock.now,
                hb_rel=("msg", self._world.scope, msg.uid),
            )
        # Indexed deposit: files the message under its (context, source,
        # tag) bucket so the receiver matches it O(1).  Lockstep mailboxes
        # carry no lock at all (one task runs at a time); thread-mode
        # mailboxes take theirs inside deposit().
        self._mailboxes[ranks[dest]].deposit(msg)
        ex = self._executor
        if self._lockstep:
            # LockstepExecutor.notify inlined (dirty flag + external-waiter
            # wakeup + preemption point): one frame fewer per send.
            ex._dirty = True
            if ex._ext_waiters:
                with ex._cond:
                    ex._cond.notify_all()
            ex.checkpoint()
        else:
            ex.notify()

    def ssend(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Synchronous send: blocks until the matching receive matches it."""
        msg = self._post(obj, dest, tag, sync=True)
        self._world.executor.wait_until(
            lambda: msg.consumed or self._world.broken,
            describe=lambda: (
                f"{self._who()} ssend to rank {dest} tag {tag}: waiting for "
                "matching recv"
            ),
        )
        self._check_world()
        # Rendezvous completes when the receiver matched; causality flows
        # back to the sender.
        self._my_clock.merge(msg.arrival)
        _trace_emit(
            "msg.ssend_done",
            scope=self._world.scope,
            uid=msg.uid,
            vtime=self._my_clock.now,
            hb_acq=("msg-ack", self._world.scope, msg.uid),
        )

    def _post(self, obj: Any, dest: int, tag: int, *, sync: bool) -> Message:
        return self._post_packet(pack_packet(obj), dest, tag, sync=sync)

    def _post_packet(
        self, packet: Packet, dest: int, tag: int, *, sync: bool = False
    ) -> Message:
        """Deposit an already-packed payload (the pack-once transport core)."""
        if tag.__class__ is not int or tag < 0:
            validate_tag(tag)
        ranks = self._ranks
        if not 0 <= dest < len(ranks):
            self._global(dest)  # raises with the full diagnostic
        gdest = ranks[dest]
        clock = self._my_clock
        depart = clock.now
        # The LogP transit term only needs the pickle size when bandwidth
        # is being modelled; with per_byte == 0 the by-ref fast path never
        # has to serialise at all.
        hops = self._hop0s
        if hops is None:
            clock.now = depart + self._ovh
            pb = self._pb
            if pb:
                arrival = depart + (self._hop0 + packet.size * pb)
            else:
                arrival = depart + self._hop0
        else:
            clock.now = depart + self._sovhs[dest]
            pb = self._pbs[dest]
            arrival = depart + hops[dest] + (packet.size * pb if pb else 0.0)
        msg = Message(self._ctx, self._rank, tag, packet, arrival, sync)
        msg.uid = next(self._msg_ids)
        # Emit before depositing: the receiver's ``msg.recv`` must follow
        # this event in stream order for the HB edge to point forward.
        if _trace_active():
            _trace_emit(
                "msg.send",
                scope=self._world.scope,
                uid=msg.uid,
                dest=dest,
                tag=tag,
                size=msg.size,
                vtime=clock.now,
                hb_rel=("msg", self._world.scope, msg.uid),
            )
        self._world.mailboxes[gdest].deposit(msg)
        self._executor.notify()
        return msg

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        *,
        status: bool = False,
    ) -> Any:
        """Blocking receive; returns the payload (or ``(payload, Status)``).

        ``source``/``tag`` accept the wildcards ``ANY_SOURCE``/``ANY_TAG``.
        """
        if source != ANY_SOURCE and not 0 <= source < len(self._ranks):
            self._global(source)  # raises with the full diagnostic
        self._wait_for_message(source, tag)
        msg = self._complete_recv_msg(source, tag)
        packet = msg.packet
        k = packet.kind
        if k is KIND_REF or k is KIND_COW_MOVE:
            # By-ref immutable, or a single-consumer flat snapshot
            # (cow-move): this recv owns it — no copy either way.
            payload = packet.obj
        else:
            payload = packet.unpack()
        if status:
            return payload, Status(source=msg.source, tag=msg.tag, size=msg.size)
        return payload

    def _wait_for_message(self, source: int, tag: int) -> None:
        """Block until a matching message is queued (or the world broke)."""
        mbox = self._my_mailbox
        world = self._world
        grp = world.group
        if grp is not None and self._lockstep:
            # A match already queued needs no wait: ``wait_until`` on a
            # true predicate emits nothing and only checks for an aborted
            # world, so an aborted one takes the full wait below, which
            # unwinds the caller.
            if (
                self._executor._aborted is None
                and mbox._match(self._ctx, source, tag) is not None
            ):
                if grp.failed:
                    self._check_world()  # raises with the full diagnostic
                return
            # The common case inside a lockstep world: the predicate is
            # re-evaluated on every scheduler wakeup, so it probes the
            # mailbox index directly (no lock exists on a lockstep
            # mailbox; only one task runs at a time) and reads the
            # group's failed flag instead of the ``broken`` property.
            if source != ANY_SOURCE and tag != ANY_TAG:
                # Exact-key receive: the predicate is one dict probe.
                def pred(
                    _queues=mbox._queues,
                    _key=(self._ctx, source, tag),
                    _grp=grp,
                ):
                    q = _queues.get(_key)
                    if q:
                        for m in q:
                            if not m.consumed:
                                return True
                    return _grp.failed

            else:

                def pred(_match=mbox._match, _ctx=self._ctx, _grp=grp):
                    return (
                        _match(_ctx, source, tag) is not None or _grp.failed
                    )

        elif grp is not None:
            # Real threads: go through the locked peek.
            ctx = self._ctx

            def pred(_peek=mbox.peek, _ctx=ctx, _grp=grp):
                return _peek(_ctx, source, tag) is not None or _grp.failed

        else:
            ctx = self._ctx
            pred = lambda: mbox.peek(ctx, source, tag) is not None or world.broken
        world.executor.wait_until(
            pred, describe=lambda: self._recv_describe(source, tag)
        )
        if grp.failed if grp is not None else world.broken:
            self._check_world()  # raises with the full diagnostic

    def _complete_recv_msg(self, source: int, tag: int) -> Message:
        """Consume a matching queued message, charging receive costs."""
        traced = _trace_active()
        if traced:
            matched = self._my_mailbox.peek(self._ctx, source, tag)
            if matched is not None and matched.sync:
                # The rendezvous ack must be on the stream before ``take``
                # flips ``consumed`` and unblocks the sender, whose
                # ``msg.ssend_done`` acquires this edge.
                _trace_emit(
                    "msg.ack",
                    scope=self._world.scope,
                    uid=matched.uid,
                    hb_rel=("msg-ack", self._world.scope, matched.uid),
                )
        msg = self._my_mailbox.take(self._ctx, source, tag)
        if msg is None:  # pragma: no cover - single consumer per mailbox
            raise CommError("matched message vanished (mailbox misuse)")
        clock = self._my_clock
        now = clock.now
        arrival = msg.arrival
        clock.now = (arrival if arrival > now else now) + self._ovh
        if traced:
            _trace_emit(
                "msg.recv",
                scope=self._world.scope,
                uid=msg.uid,
                source=msg.source,
                tag=msg.tag,
                size=msg.size,
                vtime=clock.now,
                hb_acq=("msg", self._world.scope, msg.uid),
            )
        if msg.sync:
            self._world.executor.notify()  # release the rendezvous sender
        return msg

    def _complete_recv(
        self, source: int, tag: int, *, with_status: bool = False
    ) -> Any:
        msg = self._complete_recv_msg(source, tag)
        payload = msg.packet.unpack()
        if with_status:
            return payload, Status(source=msg.source, tag=msg.tag, size=msg.size)
        return payload

    def _recv_packet(self, source: int, tag: int) -> Packet:
        """Blocking receive of the raw :class:`Packet` (pack-once forwarding).

        Collectives use this to relay a payload through intermediate tree
        hops without ever unpacking it; isolation is preserved because
        every final ``Packet.unpack`` still yields a private copy.
        """
        self._wait_for_message(source, tag)
        return self._complete_recv_msg(source, tag).packet

    def sendrecv(
        self,
        sendobj: Any,
        dest: int,
        sendtag: int = 0,
        source: int = ANY_SOURCE,
        recvtag: int = ANY_TAG,
    ) -> Any:
        """Combined send+receive (deadlock-free even head-to-head)."""
        self.send(sendobj, dest, sendtag)
        return self.recv(source=source, tag=recvtag)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking send (eager, so it completes immediately)."""
        self._post(obj, dest, tag, sync=False)
        return Request(self, completed=True, value=None)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Nonblocking receive; complete it with ``req.wait()``/``req.test()``."""
        if source != ANY_SOURCE:
            self._global(source)
        return Request(self, source=source, tag=tag)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status:
        """Block until a matching message is available; return its Status."""
        mbox = self._mailbox
        self._world.executor.wait_until(
            lambda: mbox.peek(self._ctx, source, tag) is not None
            or self._world.broken,
            describe=lambda: self._recv_describe(source, tag, verb="probe"),
        )
        self._check_world()
        msg = mbox.peek(self._ctx, source, tag)
        assert msg is not None
        return Status(source=msg.source, tag=msg.tag, size=msg.size)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status | None:
        """Nonblocking probe: Status if a matching message is queued, else None."""
        msg = self._mailbox.peek(self._ctx, source, tag)
        if msg is None:
            return None
        return Status(source=msg.source, tag=msg.tag, size=msg.size)

    def _recv_describe(self, source: int, tag: int, verb: str = "recv") -> str:
        s = "ANY_SOURCE" if source == ANY_SOURCE else f"rank {source}"
        t = "ANY_TAG" if tag == ANY_TAG else str(tag)
        return f"{self._who()} {verb} from {s} tag {t}"

    def _who(self) -> str:
        return f"rank {self._rank} ({self._name})"

    # -- collectives (delegating to repro.mp.collectives) -------------------------

    def _next_coll_ctx(self) -> Hashable:
        seq = self._coll_seq
        self._coll_seq += 1
        return (self._ctx, "coll", seq)

    def barrier(self) -> None:
        """Block until every rank of the communicator has entered (Fig. 10-12)."""
        self._topo.barrier(self)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast root's object to all ranks (topology-dependent tree)."""
        return self._topo.bcast(self, obj, root)

    def scatter(self, sendobj: Sequence[Any] | None, root: int = 0) -> Any:
        """Deal one element of root's sequence to each rank."""
        return self._topo.scatter(self, sendobj, root)

    def scatterv(
        self,
        sendobj: Sequence[Any] | None,
        counts: Sequence[int],
        root: int = 0,
    ) -> list[Any]:
        """Deal ``counts[i]`` items of root's flat sequence to rank ``i``."""
        return _coll.scatterv(self, sendobj, counts, root)

    def gather(self, sendobj: Any, root: int = 0) -> list[Any] | None:
        """Collect one object per rank at root, in rank order (Fig. 25-28)."""
        return self._topo.gather(self, sendobj, root)

    def gatherv(self, sendobj: Sequence[Any], root: int = 0) -> list[Any] | None:
        """Collect variable-length sequences at root, flattened rank-major."""
        return _coll.gatherv(self, sendobj, root)

    def allgather(self, sendobj: Any) -> list[Any]:
        """Gather to all ranks."""
        return self._topo.allgather(self, sendobj)

    def alltoall(self, sendobjs: Sequence[Any]) -> list[Any]:
        """Personalised all-to-all exchange."""
        return _coll.alltoall(self, sendobjs)

    def reduce_scatter(self, sendobj: Sequence[Any], op: "Op | str" = "SUM") -> Any:
        """Elementwise-reduce p vectors, dealing element i to rank i."""
        return _coll.reduce_scatter(self, sendobj, op)

    def reduce(self, sendobj: Any, op: Op | str = "SUM", root: int = 0) -> Any:
        """Combine one value per rank at root (topology-dependent; Fig. 23-24)."""
        return self._topo.reduce(self, sendobj, op, root)

    def allreduce(
        self, sendobj: Any, op: Op | str = "SUM", *, algorithm: str | None = None
    ) -> Any:
        """Combine and distribute to all ranks.

        ``algorithm`` (``"tree"``/``"doubling"``) forces a specific base
        algorithm regardless of topology; ``None`` (the default) lets the
        world's communicator topology choose.
        """
        return self._topo.allreduce(self, sendobj, op, algorithm=algorithm)

    def scan(self, sendobj: Any, op: Op | str = "SUM") -> Any:
        """Inclusive prefix reduction over ranks."""
        return _coll.scan(self, sendobj, op)

    def exscan(self, sendobj: Any, op: Op | str = "SUM") -> Any:
        """Exclusive prefix reduction (rank 0 receives ``None``)."""
        return _coll.exscan(self, sendobj, op)

    # -- communicator management ---------------------------------------------------

    def dup(self, name: str | None = None) -> "Comm":
        """A congruent communicator with an isolated message context."""
        seq = self._split_seq
        self._split_seq += 1
        return Comm(
            self._world,
            self._rank,
            self._ranks,
            ctx=(self._ctx, "dup", seq),
            name=name or f"{self._name}+dup{seq}",
        )

    def split(self, color: int | None, key: int = 0) -> "Comm | None":
        """Partition the communicator by ``color``; order new ranks by ``key``.

        Ranks passing ``color=None`` (MPI_UNDEFINED) get ``None`` back.
        Collective: every rank of this communicator must call it.
        """
        seq = self._split_seq
        self._split_seq += 1
        triples = _coll.allgather(self, (color, key, self._rank))
        if color is None:
            return None
        members = sorted(
            (k, r) for c, k, r in triples if c == color
        )
        local_ranks = [r for _, r in members]
        new_rank = local_ranks.index(self._rank)
        new_globals = [self._ranks[r] for r in local_ranks]
        return Comm(
            self._world,
            new_rank,
            new_globals,
            ctx=(self._ctx, "split", seq, color),
            name=f"{self._name}.split{seq}[{color}]",
        )

    def create_cart(
        self,
        dims: "Sequence[int] | int",
        *,
        periods: "Sequence[bool] | bool" = False,
        allow_smaller: bool = False,
    ) -> Any:
        """Attach a Cartesian grid (``MPI_Cart_create``); see repro.mp.topology."""
        from repro.mp.topology import create_cart

        return create_cart(
            self, dims, periods=periods, allow_smaller=allow_smaller
        )

    # -- hybrid (MPI+OpenMP) support -------------------------------------------------

    def smp_runtime(self, num_threads: int | None = None) -> Any:
        """An :class:`~repro.smp.runtime.SmpRuntime` for *this node*.

        Shares this world's executor (so lockstep determinism spans both
        levels) and defaults the team size to the node's core count — the
        MPI+OpenMP heterogeneous patternlets fork per-node thread teams
        through this.
        """
        from repro.smp.runtime import SmpRuntime

        if num_threads is None:
            num_threads = max(1, self._world.cluster.cores_per_node)
        return SmpRuntime(
            num_threads=num_threads,
            executor=self._world.executor,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Comm({self._name!r}, rank={self._rank}/{self.size})"
