"""Isolation invariants of the immutable by-reference fast path.

The transport fast path hands immutable payloads across the rank boundary
by reference instead of round-tripping them through pickle.  That is only
sound if three invariants hold for *every* payload:

1. mutable payloads are always copied (the receiver's mutation can never
   reach the sender);
2. immutable payloads never leak aliased mutability (nothing reachable
   from a by-reference payload is mutable);
3. unpicklable payloads still fail *eagerly* at the send site with
   :class:`~repro.errors.IsolationError` — the fast path must not defer
   the error to some receive deep inside a collective.

Property-based tests pin each invariant at the serialize layer, then
end-to-end tests confirm the same behaviour through a real lockstep run
(including self-sends, which route through :func:`deep_copy_by_value`).

The lane tests below pin the copying lanes through
``pack_packet(...).unpack()``: which lane each payload shape takes,
isolation in both directions, aliasing and cycles, and received
containers that behave as plain containers.  Whole-runtime isolation
across topologies lives in ``test_isolation.py``.
"""

from __future__ import annotations

import copy
import pickle
import threading
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IsolationError, ParallelError
from repro.mp import mpirun
from repro.mp.serialize import (
    KIND_COW_FLAT,
    KIND_PICKLE,
    deep_copy_by_value,
    is_immutable,
    pack_packet,
)

# Arbitrarily nested tuples of the immutable scalars: everything here is
# eligible for by-reference transport.
immutable_payloads = st.recursive(
    st.one_of(
        st.integers(),
        st.floats(allow_nan=False),
        st.text(max_size=20),
        st.binary(max_size=20),
        st.booleans(),
        st.none(),
        st.complex_numbers(allow_nan=False),
    ),
    lambda children: st.lists(children, max_size=3).map(tuple),
    max_leaves=6,
)

# Payloads that must round-trip through pickle for isolation.
mutable_payloads = st.one_of(
    st.lists(st.integers(), max_size=5),
    st.dictionaries(st.text(max_size=5), st.integers(), max_size=4),
    st.sets(st.integers(), max_size=5),
    st.binary(max_size=10).map(bytearray),
    # A tuple is only immutable if everything inside it is: one mutable
    # element poisons the whole container.
    st.tuples(st.integers(), st.lists(st.integers(), max_size=3)),
)


class _EvilInt(int):
    """Module-level (so picklable) int subclass carrying mutable state."""


class TestByReferenceInvariants:
    @settings(max_examples=60, deadline=None)
    @given(payload=immutable_payloads)
    def test_immutable_travels_by_reference(self, payload):
        packet = pack_packet(payload)
        assert packet.by_ref
        assert packet.unpack() is payload
        assert deep_copy_by_value(payload) is payload
        # The lazy size must agree with what the LogP model would have
        # charged on the pickling path.
        assert packet.size == len(
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        )

    @settings(max_examples=60, deadline=None)
    @given(payload=mutable_payloads)
    def test_mutable_is_always_copied(self, payload):
        assert not is_immutable(payload)
        packet = pack_packet(payload)
        assert not packet.by_ref
        copy = packet.unpack()
        assert copy == payload
        assert copy is not payload
        # Each unpack is a fresh private copy — two receivers of the same
        # forwarded packet must not share state either.
        assert packet.unpack() is not copy
        assert deep_copy_by_value(payload) is not payload

    @settings(max_examples=60, deadline=None)
    @given(payload=immutable_payloads)
    def test_no_aliased_mutability_reachable(self, payload):
        # Everything reachable from a by-reference payload is itself
        # immutable by the fast path's definition.
        def all_immutable(obj):
            if type(obj) is tuple:
                return all(all_immutable(item) for item in obj)
            return type(obj) in (int, float, str, bytes, bool, complex, type(None))

        if pack_packet(payload).by_ref:
            assert all_immutable(payload)

    def test_scalar_subclass_pays_the_pickle(self):
        evil = _EvilInt(7)
        evil.mutable_attr = []  # a subclass can smuggle mutable state
        packet = pack_packet(evil)
        assert not packet.by_ref
        assert packet.unpack() is not evil

    def test_unpicklable_raises_eagerly(self):
        with pytest.raises(IsolationError, match="cannot cross"):
            pack_packet(threading.Lock())


class TestExtendedByRefVocabulary:
    def test_frozenset_of_scalars_travels_by_reference(self):
        payload = frozenset({1, "a", (2, 3)})
        packet = pack_packet(payload)
        assert packet.by_ref
        assert packet.unpack() is payload

    def test_range_travels_by_reference(self):
        payload = range(0, 100, 3)
        assert is_immutable(payload)
        packet = pack_packet(payload)
        assert packet.by_ref
        assert packet.unpack() is payload

    def test_frozenset_with_subclassed_member_pays_the_pickle(self):
        # Hashable is not immutable: a scalar subclass inside a frozenset
        # can smuggle mutable attributes, so exact-type checks apply to
        # members too.
        payload = frozenset({_EvilInt(3)})
        assert not is_immutable(payload)
        packet = pack_packet(payload)
        assert not packet.by_ref
        assert packet.unpack() == payload

    def test_deeply_nested_tuple_classified_without_recursion_error(self):
        # is_immutable walks iteratively: a nest deeper than the
        # interpreter recursion limit must classify, not crash.
        payload = (1,)
        for _ in range(5000):
            payload = (payload,)
        assert is_immutable(payload)
        assert pack_packet(payload).by_ref

    @pytest.mark.parametrize("depth", [600, 5000])
    def test_pathological_nesting_fails_eagerly_at_the_send_site(self, depth):
        # A nest past pickle's depth limit must raise the eager
        # IsolationError at the send site, never fail later at a receive
        # deep inside a collective.  The limit is the interpreter's: 600
        # levels is past it on CPython 3.10/3.11, inside it from 3.12
        # (where the nest must then travel intact); 5000 is past it on
        # every supported version.
        payload: list = [1]
        for _ in range(depth):
            payload = [payload]
        try:
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        except RecursionError:
            with pytest.raises(IsolationError, match="cannot cross"):
                pack_packet(payload)
            return
        got = pack_packet(payload).unpack()
        for _ in range(depth):
            got = got[0]
        assert got == [1]


class TestBufferTypes:
    """Buffer-protocol payloads get no lane of their own.

    ``bytearray`` and ``array.array`` pickle correctly, so they take the
    pickle lane.  A ``memoryview`` points into the sender's memory and does
    not pickle, so its send fails at the send site.
    """

    def test_bytearray_takes_the_pickle_lane(self):
        payload = bytearray(b"abc" * 100)
        packet = pack_packet(payload)
        assert packet.kind == KIND_PICKLE
        got = packet.unpack()
        assert type(got) is bytearray
        assert got == payload and got is not payload
        got.append(0)  # the receiver mutates its copy
        assert payload == bytearray(b"abc" * 100)

    def test_array_takes_the_pickle_lane_and_keeps_its_typecode(self):
        payload = array("d", [1.5, 2.5])
        packet = pack_packet(payload)
        assert packet.kind == KIND_PICKLE
        got = packet.unpack()
        assert type(got) is array and got.typecode == "d"
        assert got == payload and got is not payload
        got[0] = 9.0  # the receiver mutates its copy
        assert payload == array("d", [1.5, 2.5])

    def test_memoryview_send_fails_at_the_send_site(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(memoryview(bytearray(b"hello")), 1)
            else:
                comm.recv(source=0)

        with pytest.raises(ParallelError) as ei:
            mpirun(2, main, mode="lockstep", seed=0)
        sender = ei.value.failures[0]
        assert sender.label == "mpi:0"
        assert isinstance(sender.cause, IsolationError)
        assert "memoryview" in str(sender.cause)


class TestLazySizeRace:
    def test_concurrent_sizing_packs_exactly_once(self, monkeypatch):
        """Regression: two receivers sizing one forwarded packet raced.

        ``Packet.size`` is computed lazily for by-ref and flat-list
        packets; under the threaded executor several receiver ranks can ask
        for it concurrently.  The memoisation must be guarded so the pickle
        runs exactly once and every thread agrees on the answer.
        """
        import repro.mp.serialize as serialize

        gate = threading.Barrier(8)
        calls = []
        real_pack = serialize.pack

        def slow_pack(payload):
            calls.append(1)
            return real_pack(payload)

        monkeypatch.setattr(serialize, "pack", slow_pack)
        packet = pack_packet((1, "shared", 3.0))
        sizes = []

        def reader():
            gate.wait()
            sizes.append(packet.size)

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1
        assert len(set(sizes)) == 1


class TestEndToEndAliasing:
    def test_immutable_send_is_zero_copy(self):
        token = ("shared", 42, b"bytes")
        out = {}

        def main(comm):
            if comm.rank == 0:
                comm.send(token, 1)
            else:
                out["got"] = comm.recv(source=0)

        mpirun(2, main, mode="lockstep", seed=0)
        assert out["got"] is token

    def test_mutable_send_isolates_the_sender(self):
        payload = [1, 2, 3]
        out = {}

        def main(comm):
            if comm.rank == 0:
                comm.send(payload, 1)
            else:
                got = comm.recv(source=0)
                got.append(99)
                out["got"] = got

        mpirun(2, main, mode="lockstep", seed=0)
        assert out["got"] == [1, 2, 3, 99]
        assert payload == [1, 2, 3]

    def test_self_send_takes_the_fast_path(self):
        token = (1, "two", 3.0)
        out = {}

        def main(comm):
            comm.send(token, comm.rank)
            out["got"] = comm.recv(source=comm.rank)

        mpirun(1, main, mode="lockstep", seed=0)
        assert out["got"] is token

    def test_unpicklable_send_fails_at_the_send_site(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(threading.Lock(), 1)
            else:
                comm.recv(source=0)

        with pytest.raises(ParallelError) as ei:
            mpirun(2, main, mode="lockstep", seed=0)
        assert any(isinstance(c, IsolationError) for c in ei.value.causes)


class TestPackOnceForwarding:
    def test_bcast_pickles_exactly_once(self, monkeypatch):
        """An 8-rank bcast of a mutable payload serialises at the root only.

        The binomial tree does 7 sends over 3 rounds; each hop forwards the
        root's :class:`Packet` rather than re-pickling, so the total count
        of :func:`repro.mp.serialize.pack` calls is exactly one.
        """
        import repro.mp.serialize as serialize

        calls = []
        real_pack = serialize.pack

        def counting_pack(payload):
            calls.append(type(payload).__name__)
            return real_pack(payload)

        monkeypatch.setattr(serialize, "pack", counting_pack)

        out = {}

        def main(comm):
            got = comm.bcast(list(range(64)), root=0)
            out[comm.rank] = got

        mpirun(8, main, mode="lockstep", seed=0)
        # Other traffic may lazily size by-ref packets (which pickles small
        # scalars); the payload list itself is serialised exactly once.
        assert calls.count("list") == 1
        assert all(out[r] == list(range(64)) for r in range(8))
        # Receivers each got a private copy, not the root's object.
        assert len({id(v) for v in out.values()}) == 8


def receive(payload):
    """One sender→receiver trip through the packet layer."""
    return pack_packet(payload).unpack()


class Box:
    """Module-level (so picklable) class outside the by-ref vocabulary."""

    def __init__(self, x):
        self.x = x


class MyList(list):
    """Module-level list subclass: pays the pickle like any subclass."""


class TestLanes:
    def test_nested_list_dict_set_travel_on_the_pickle_lane(self):
        for payload in ([1, [2], 3], {"a": 1}, {1, 2}):
            pkt = pack_packet(payload)
            assert pkt.kind == KIND_PICKLE
            assert pkt.size == len(pkt.data)

    def test_flat_scalar_list_takes_the_flat_lane(self):
        # A flat list of scalars snapshots as one shallow copy, which is
        # already a deep copy: no pickle.
        pkt = pack_packet([1, 2, 3])
        assert pkt.kind == KIND_COW_FLAT
        assert pkt.data is None
        got = pkt.unpack()
        assert type(got) is list and got == [1, 2, 3]
        assert pkt.unpack() is not got  # fresh private copy per receiver

    def test_flat_lane_isolation_both_directions(self):
        payload = [1, 2, 3]
        pkt = pack_packet(payload)
        payload.append(4)  # sender mutates after the send
        got = pkt.unpack()
        assert got == [1, 2, 3]
        got.append(9)  # receiver mutates
        assert pkt.unpack() == [1, 2, 3]  # siblings unaffected

    def test_received_nested_containers_are_plain(self):
        assert type(receive([[1]])) is list
        assert type(receive({"a": [1]})) is dict

    def test_received_set_is_a_plain_private_copy(self):
        got = receive({1, 2})
        assert type(got) is set
        assert got == {1, 2}

    def test_custom_class_falls_back_to_pickle(self):
        got = receive([Box(7)])
        assert got[0].x == 7
        assert type(got) is list  # pickle lane: plain containers

    def test_container_subclass_falls_back_to_pickle(self):
        pkt = pack_packet(MyList([1]))
        assert pkt.kind == KIND_PICKLE
        assert pkt.unpack() == [1]


class TestIsolation:
    def test_receiver_mutation_invisible_to_sender(self):
        payload = [1, [2, 3]]
        got = receive(payload)
        got[1].append(99)
        got.append(0)
        assert payload == [1, [2, 3]]

    def test_sender_mutation_after_send_invisible_to_receiver(self):
        payload = [1, [2, 3]]
        pkt = pack_packet(payload)
        payload[1].append(99)
        payload.append(0)
        assert pkt.unpack() == [1, [2, 3]]

    def test_sibling_receivers_are_isolated(self):
        pkt = pack_packet({"k": [1]})
        a, b = pkt.unpack(), pkt.unpack()
        a["k"].append(2)
        assert b["k"] == [1]

    def test_deep_nesting_isolated(self):
        payload = {"a": [{"b": {1, 2}}, (3, [4])]}
        got = receive(payload)
        got["a"][0]["b"].add(9)
        got["a"][1][1].append(9)
        assert payload == {"a": [{"b": {1, 2}}, (3, [4])]}


class TestStructure:
    def test_aliasing_preserved_across_the_boundary(self):
        shared = [1, 2]
        got = receive([shared, shared])
        assert got[0] is got[1]
        got[0].append(3)
        assert got[1] == [1, 2, 3]

    def test_cycles_preserved(self):
        payload: list = [1]
        payload.append(payload)
        got = receive(payload)
        assert got[1] is got

    def test_tuple_with_mutables_travels_as_a_private_tuple(self):
        big = "x" * 64
        payload = ([1], big)
        got = receive(payload)
        assert type(got) is tuple
        assert got == payload
        got[0].append(2)
        assert payload == ([1], big)

    def test_equality_both_directions_and_with_plain(self):
        got = receive([1, [2]])
        assert got == [1, [2]]
        assert [1, [2]] == got
        a, b = pack_packet({"x": 1}).unpack(), pack_packet({"x": 1}).unpack()
        assert a == b


class TestBehavesLikeRealContainer:
    def test_common_dict_operations(self):
        got = receive({"a": 1, "b": 2})
        assert sorted(got) == ["a", "b"]
        assert got.get("a") == 1
        assert got.pop("b") == 2
        assert dict(got) == {"a": 1}

    def test_common_set_operations(self):
        got = receive({1, 2})
        assert got | {3} == {1, 2, 3}
        got.add(4)
        assert got == {1, 2, 4}

    def test_pickle_and_deepcopy_produce_plain_containers(self):
        for payload in ([1, [2]], {"a": [1]}, {1, 2}):
            got = receive(payload)
            for twin in (pickle.loads(pickle.dumps(got)), copy.deepcopy(got)):
                assert type(twin) is type(payload)
                assert twin == payload

    def test_nested_payload_size_is_its_pickle_length(self):
        # Hetero-network span fixtures depend on LogP sizes: a nested
        # payload is charged exactly its pickle's byte length.
        shared = [1, 2]
        payload = {"a": [shared, shared], "b": (1, [2])}
        assert pack_packet(payload).size == len(
            pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        )


class TestCFastPathArguments:
    """A received container passed as an argument to C-level shortcuts.

    CPython has fast paths that read another container's internal storage
    without calling any of its Python-visible methods, so a received
    container must be a real one whose storage those paths can read.
    """

    def test_set_constructor_from_received_set(self):
        assert set(receive({1, 2})) == {1, 2}

    def test_frozenset_constructor_from_received_set(self):
        assert frozenset(receive({1, 2})) == {1, 2}

    def test_plain_set_update_with_received_set(self):
        s = {0}
        s.update(receive({1, 2}))
        assert s == {0, 1, 2}

    def test_plain_set_union_with_received_set(self):
        assert {0}.union(receive({1, 2})) == {0, 1, 2}

    def test_dict_merge_with_received_dict(self):
        got = receive({"a": 1})
        assert {**got, "b": 2} == {"a": 1, "b": 2}
        d = {"z": 0}
        d.update(got)
        assert d == {"z": 0, "a": 1}
        assert {"z": 0} | got == {"z": 0, "a": 1}
