"""Hypothesis escape-hatch suite: receivers can never leak mutations.

A broadcast packs its payload once at the root and forwards that one
packet to every receiver, each of which unpacks a private copy;
distributed-memory semantics survive only if *no* way of mutating a
received container — directly, through nesting, through aliased
substructure, or mid-iteration — is ever visible to the sender or to a
sibling receiver.  These properties drive randomly shaped payloads through
real broadcasts over all four communicator topologies from the registry and
assert bytewise-deep equality of what everyone else still sees.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mp import mpirun

TOPOLOGIES = ("flat", "binomial", "ring", "hierarchical")

#: Randomly shaped payloads: nested lists/dicts/sets/tuples over immutable
#: scalars.  Kept small — the value is shape diversity, not volume.
scalars = st.one_of(st.integers(-9, 9), st.text(max_size=3), st.booleans())
payloads = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=2), children, max_size=3),
        st.sets(scalars, max_size=3),
        st.tuples(children, children),
    ),
    max_leaves=8,
)


def _mutate(obj, how: int) -> None:
    """Apply one of several mutation styles to every mutable node of obj.

    Walks iteratively (cycles are impossible: hypothesis payloads are
    trees) and mutates lists in several distinct ways — append, in-place
    assignment, and mutation *during* iteration via a captured iterator —
    so the escape hatches cover more than the obvious ``.append``.
    """
    stack = [obj]
    while stack:
        node = stack.pop()
        if isinstance(node, list):
            stack.extend(node)
            if how == 0:
                node.append("leak")
            elif how == 1 and node:
                node[0] = "leak"
            else:
                it = iter(node)
                node.append("leak")
                list(it)  # drain the pre-mutation iterator
        elif isinstance(node, dict):
            stack.extend(node.values())
            node["__leak__"] = "leak"
        elif isinstance(node, set):
            node.add("leak")
        elif isinstance(node, tuple):
            stack.extend(node)


class TestBroadcastIsolation:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @settings(max_examples=10, deadline=None)
    @given(payload=payloads, how=st.integers(0, 2))
    def test_one_mutating_receiver_leaks_nowhere(self, topology, payload, how):
        # Wrap so even scalar draws travel inside a mutable container.
        payload = [payload]
        pristine = copy.deepcopy(payload)

        def main(comm):
            got = comm.bcast(payload, root=0)
            if comm.rank == 2:  # exactly one receiver mutates its copy
                _mutate(got, how)
            comm.barrier()  # mutation happens-before everyone re-reads
            if comm.rank == 0:
                return payload  # the sender's original
            if comm.rank == 2:
                return None
            return got  # a sibling receiver's view

        res = mpirun(4, main, mode="lockstep", seed=0, topology=topology)
        assert res.results[0] == pristine, "sender saw a receiver's mutation"
        for rank in (1, 3):
            assert res.results[rank] == pristine, (
                f"sibling rank {rank} saw rank 2's mutation"
            )

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @settings(max_examples=5, deadline=None)
    @given(payload=payloads)
    def test_aliased_substructure_stays_private_per_receiver(
        self, topology, payload
    ):
        # The same inner list aliased twice: mutating through one alias on
        # one rank must update its twin *there* and nowhere else.
        inner = [payload]
        root_payload = {"a": inner, "b": inner}

        def main(comm):
            got = comm.bcast(root_payload, root=0)
            if comm.rank != 0:
                assert got["a"] is got["b"], "aliasing lost in transport"
                got["a"].append(comm.rank)
                return (got["b"][-1], len(got["b"]))
            return None

        res = mpirun(4, main, mode="lockstep", seed=0, topology=topology)
        for rank in (1, 2, 3):
            last, n = res.results[rank]
            assert last == rank and n == 2, "alias twin missed the mutation"
        assert root_payload == {"a": [payload], "b": [payload]}
        assert root_payload["a"] is root_payload["b"]

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_sender_mutating_between_isends_is_safe(self, topology):
        # The classic MPI_Isend aliasing bug: the pack is an eager snapshot,
        # so each receiver sees the value at *its* send, not the final one.
        def main(comm):
            if comm.rank == 0:
                buf = [0]
                for dst in range(1, comm.size):
                    comm.send(buf, dest=dst, tag=0)
                    buf[0] += 1
                return None
            return comm.recv(source=0, tag=0)

        res = mpirun(4, main, mode="lockstep", seed=0, topology=topology)
        assert res.results[1:] == [[0], [1], [2]]
