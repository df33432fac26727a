"""Copy-on-send payload isolation, down the cheapest sound lane.

Distributed memory is an *isolation* property: ranks share no address
space, so a message received is always a private copy.  Rank threads here
share one interpreter, so the runtime enforces that property at the
transport layer — mutating a received object can never be observed by the
sender, exactly as on the paper's Beowulf cluster.

Unpicklable payloads (open files, locks, thread handles, a
``memoryview`` into the sender's buffer) would be the moral equivalent of
sending a pointer across the network; they are rejected eagerly with
:class:`~repro.errors.IsolationError`.

The byte size of the payload's pickle doubles as the message size for the
LogP cost model, so "bigger payloads cost more virtual time" falls out for
free.

:func:`pack_packet` picks a lane from the payload's type alone.  Objects
travel as serialised copies, with two shortcuts that each beat the pickle
fallback on the payload shape they serve.  Each reason below is a
lane-vs-pickle ablation on a message-stream benchmark (2-vCPU KVM, Python
3.11.7; medians of 12 alternating pairs, best of 3 per sample; DESIGN.md
§3.11 has the table, including the retired copy-on-write and buffer
lanes):

============  =========================================  ===================================
Lane          Payload shape                              Why it stays
============  =========================================  ===================================
``ref``       ``int``/``float``/``str``/``bytes``/       Zero cost: the receiver cannot
              ``bool``/``complex``/``None``, ``range``,  mutate the object, so the
              and ``tuple``/``frozenset`` trees of       reference is the copy.  An ``int``
              those                                      stream runs 70.2k msgs/s vs 60.6k
                                                         pickled.
``cow-flat``  ``list`` whose items are all the scalars   One shallow copy per side is the
              above                                      deep copy: 184k vs 159k msgs/s on
                                                         ``[1, 2, 3]``, 103k vs 87k on a
                                                         64-item list (under the retired
                                                         batched arbitration).
``cow-move``  a ``cow-flat`` packet born in              The receiver takes the snapshot
              :meth:`~repro.mp.comm.Comm.send`           instead of copying it (counted in
                                                         the ``cow-flat`` numbers).
``pickle``    everything else: nested containers,        The fallback, and the definition
              ``bytearray``, ``array.array``, custom     of isolation.
              classes, container subclasses
============  =========================================  ===================================

Exact-type checks only: a *subclass* of ``int`` or ``list`` may carry
mutable attributes and pays the pickle.  Every lane packs exactly once
per send, and the packet is forwarded hop to hop (:class:`Packet`),
unpacking only at each final receiver.  The ``cow-*`` names survive from
a retired copy-on-write lane for nested containers; the benchmark counts
lanes by these strings.
"""

from __future__ import annotations

import pickle
import threading
from typing import Any

from repro.errors import IsolationError

__all__ = [
    "pack",
    "unpack",
    "deep_copy_by_value",
    "is_immutable",
    "Packet",
    "pack_packet",
    "KIND_REF",
    "KIND_PICKLE",
    "KIND_COW_FLAT",
    "KIND_COW_MOVE",
]

#: Exact types that are safely shareable across the rank boundary.
#: Subclasses are deliberately excluded (a ``class Evil(int)`` can carry a
#: mutable ``__dict__``), which is why membership tests use ``type(obj)``.
_IMMUTABLE_SCALARS = frozenset((int, float, str, bytes, bool, complex, type(None)))

#: Transport lanes (``Packet.kind``).  ``cow-flat`` carries a flat list of
#: immutable scalars — the single most common mutable payload shape —
#: where one shallow copy per side *is* the deep copy.
KIND_REF = "ref"
KIND_PICKLE = "pickle"
KIND_COW_FLAT = "cow-flat"
#: A ``cow-flat`` packet that the point-to-point send path has marked as
#: single-consumer (born in ``comm.send``, taken by exactly one ``recv``):
#: the receiver may take the snapshot itself — ownership transfer — instead
#: of copying it.  ``unpack`` still copies (any path that *might* unpack
#: twice stays conservative); only :meth:`~repro.mp.comm.Comm.recv` moves.
KIND_COW_MOVE = "cow-move"

#: Guards lazy ``Packet.size`` memoisation.  A forwarded by-ref or
#: flat-list packet is shared by several receiver ranks; under the threaded
#: executor two of them can resolve ``_size`` concurrently.  One
#: process-wide lock (sizing is rare and cheap) makes the pack run exactly
#: once per packet.
_SIZE_LOCK = threading.Lock()


def is_immutable(payload: Any) -> bool:
    """True when sharing ``payload`` by reference cannot violate isolation.

    Covers the immutable scalars, ``range`` (its bounds are always plain
    ints), and ``tuple``/``frozenset`` containers — arbitrarily nested —
    whose elements are all themselves immutable by this definition.  The
    walk is iterative: a 100k-deep tuple nest must not hit the interpreter
    recursion limit just to be classified.
    """
    t = type(payload)
    if t in _IMMUTABLE_SCALARS or t is range:
        return True
    if t is not tuple and t is not frozenset:
        return False
    stack = [payload]
    while stack:
        node = stack.pop()
        for item in node:
            ti = type(item)
            if ti in _IMMUTABLE_SCALARS or ti is range:
                continue
            if ti is tuple or ti is frozenset:
                stack.append(item)
            else:
                return False
    return True


def pack(payload: Any) -> bytes:
    """Serialise a payload for transport; raises IsolationError if impossible."""
    try:
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise IsolationError(
            f"payload of type {type(payload).__name__} cannot cross a "
            f"distributed-memory boundary: {exc}"
        ) from exc


def unpack(data: bytes) -> Any:
    """Materialise a received payload as a fresh private copy."""
    return pickle.loads(data)


class Packet:
    """One payload in transport form, packed at most once.

    ``kind`` names the lane: ``"ref"`` (``obj`` is the immutable payload
    itself), ``"pickle"`` (``data`` holds the pickle) or ``"cow-flat"``
    (``obj`` is a flat scalar-list snapshot; each receiver takes a
    shallow — hence deep — copy).  ``size`` is the LogP message size: the
    pickle length, computed lazily for by-ref and flat-list packets,
    since the LogP model only needs it when ``per_byte`` costs are nonzero
    or a receive asks for its :class:`~repro.mp.mailbox.Status`.

    A packet may be forwarded through any number of hops (each ``unpack``
    yields a fresh private copy), which is what the tree collectives
    exploit: one copy or pickle at the root, zero per hop.
    """

    __slots__ = ("kind", "obj", "data", "_size")

    def __init__(
        self,
        obj: Any = None,
        data: bytes | None = None,
        size: int | None = None,
        kind: str | None = None,
    ):
        if kind is None:
            kind = KIND_REF if data is None else KIND_PICKLE
        self.kind = kind
        self.obj = obj
        self.data = data
        self._size = size if size is not None else (len(data) if data is not None else None)

    @property
    def by_ref(self) -> bool:
        """True when the payload travels by reference (immutable fast path)."""
        return self.kind == KIND_REF

    @property
    def size(self) -> int:
        """LogP message size in bytes (lazy for by-ref and flat-list packets).

        Memoised under a lock: two receiver ranks sizing the same forwarded
        packet concurrently must not both pay the pickle (and must agree).
        """
        size = self._size
        if size is None:
            with _SIZE_LOCK:
                size = self._size
                if size is None:
                    size = len(pack(self.obj))
                    self._size = size
        return size

    def unpack(self) -> Any:
        """The received payload: a private copy, or the shared immutable."""
        kind = self.kind
        if kind == KIND_REF:
            return self.obj
        if kind == KIND_COW_FLAT or kind == KIND_COW_MOVE:
            # Flat scalar list: the shallow copy is the deep copy.  (A
            # cow-move packet copies here too: unpack's contract is a fresh
            # copy per call; the zero-copy take lives in Comm.recv, which
            # knows the message is single-consumer.)
            return self.obj.copy()
        return unpack(self.data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.kind == KIND_REF:
            return f"Packet(by_ref, {type(self.obj).__name__})"
        if self.kind == KIND_COW_FLAT:
            return f"Packet(cow-flat, {len(self.obj)} items)"
        return f"Packet({self._size} bytes)"


_new_packet = object.__new__
_all_scalars = _IMMUTABLE_SCALARS.issuperset


def pack_packet(payload: Any) -> Packet:
    """Pack a payload for transport down the cheapest sound lane.

    Payloads outside the by-ref and flat-list vocabularies are pickled
    eagerly, so unpicklable ones still raise
    :class:`~repro.errors.IsolationError` at the send site (never later at
    some receive deep inside a collective).
    """
    t = type(payload)
    if t in _IMMUTABLE_SCALARS or t is range:  # inline scalar case: every send
        return Packet(obj=payload)
    if t is list and _all_scalars(map(type, payload)):
        # Flat list of immutable scalars — the single most common mutable
        # payload shape — snapshots as one shallow copy (the element scan
        # runs at C speed; four slot stores beat the Packet ctor frame on
        # the hottest mutable-send path, as with Message in comm.send).
        pkt = _new_packet(Packet)
        pkt.kind = KIND_COW_FLAT
        pkt.obj = payload.copy()
        pkt.data = None
        pkt._size = None
        return pkt
    if (t is tuple or t is frozenset) and is_immutable(payload):
        return Packet(obj=payload)
    return Packet(data=pack(payload))


def deep_copy_by_value(payload: Any) -> Any:
    """Isolating copy (used by self-sends, collective root copies, tests).

    Immutable payloads come back as themselves — a rank sending itself an
    ``int`` no longer pays two pickles for a copy that cannot be told
    apart from the original.  Anything else comes back as a private copy
    through its transport lane: a shallow copy of a flat scalar list or a
    pickle round trip.
    """
    if is_immutable(payload):
        return payload
    return pack_packet(payload).unpack()
