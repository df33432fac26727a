"""A muted receive takes the path a traced receive takes.

Every receive waits for its message and then completes it; muting the
recorder only drops the events.  So a world run under ``muted()`` must
compute what the same world computes traced: the same values, the same
per-rank virtual clocks and the same number of scheduler switches.
"""

from __future__ import annotations

from array import array

import pytest

from repro.mp import ANY_SOURCE, MpRuntime
from repro.trace import muted, using_recorder

PAYLOADS = [
    7,
    "text",
    (1, 2.5),
    [1, 2, 3],
    [[i] * 4 for i in range(4)],
    {"k": [1, 2]},
    bytearray(b"abc"),
    array("d", [1.0, 2.5]),
]


def _p2p(comm):
    if comm.rank == 0:
        for p in PAYLOADS:
            comm.send(p, dest=1, tag=3)
        return None
    return [comm.recv(source=0, tag=3) for _ in PAYLOADS]


def _rendezvous(comm):
    # ssend completes only when the receiver acks: the receive's notify
    # is what releases the sender.
    peer = 1 - comm.rank
    if comm.rank == 0:
        comm.ssend([comm.rank], dest=peer, tag=1)
        return comm.recv(source=peer, tag=2)
    got = comm.recv(source=peer, tag=1)
    comm.ssend(got + [comm.rank], dest=peer, tag=2)
    return got


def _any_source(comm):
    if comm.rank == 0:
        got = [comm.recv(source=ANY_SOURCE, tag=5, status=True)
               for _ in range(comm.size - 1)]
        return sorted((payload, st.source) for payload, st in got)
    comm.send(comm.rank * 10, dest=0, tag=5)
    return None


def _collectives(comm):
    # bcast relays its payload through tree hops as raw packets.
    data = comm.bcast([[1, 2], [3]] if comm.rank == 0 else None, root=0)
    return data, comm.allreduce(comm.rank), comm.scan(comm.rank)


def _run(main, np_, quiet):
    rt = MpRuntime(mode="lockstep", seed=3)
    if quiet:
        with muted():
            res = rt.run(np_, main)
    else:
        with using_recorder():
            res = rt.run(np_, main)
    clocks = [c.now for c in res.world.clocks]
    return res.results, clocks, rt.executor.step_count


@pytest.mark.parametrize(
    "main, np_",
    [(_p2p, 2), (_rendezvous, 2), (_any_source, 4), (_collectives, 8)],
    ids=["p2p", "rendezvous", "any-source", "collectives"],
)
def test_muted_world_matches_traced_world(main, np_):
    results, clocks, steps = _run(main, np_, quiet=True)
    assert (results, clocks, steps) == _run(main, np_, quiet=False)
    assert max(clocks) > 0


def test_muted_receiver_owns_its_copy():
    sent = {}

    def main(comm):
        if comm.rank == 0:
            sent["flat"] = [1, 2, 3]
            sent["nested"] = [[1], [2]]
            sent["buf"] = bytearray(b"ab")
            for key in ("flat", "nested", "buf"):
                comm.send(sent[key], dest=1, tag=0)
            comm.barrier()
            return None
        got = [comm.recv(source=0, tag=0) for _ in range(3)]
        got[0].append(4)
        got[1][0].append(9)
        got[2].extend(b"cd")
        comm.barrier()
        return got

    with muted():
        res = MpRuntime(mode="lockstep", seed=0).run(2, main)
    assert res.results[1] == [[1, 2, 3, 4], [[1, 9], [2]], bytearray(b"abcd")]
    assert sent == {"flat": [1, 2, 3], "nested": [[1], [2]], "buf": bytearray(b"ab")}
