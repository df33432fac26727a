"""MPI_Abort analogue."""

import pytest

from repro.errors import DeadlockError, MpError, ParallelError
from repro.mp import ANY_SOURCE, ANY_TAG, mpirun


class TestAbort:
    def test_abort_raises_in_caller(self, any_mode):
        def main(comm):
            comm.abort("going down")

        with pytest.raises(ParallelError) as ei:
            mpirun(1, main, mode=any_mode)
        assert "going down" in str(ei.value.causes[0])

    def test_abort_unblocks_other_ranks(self, any_mode):
        def main(comm):
            if comm.rank == 0:
                comm.abort("rank 0 bails")
            comm.recv(source=0)  # would otherwise hang forever

        with pytest.raises(ParallelError) as ei:
            mpirun(3, main, mode=any_mode, deadlock_timeout=5.0)
        assert all(isinstance(c, MpError) for c in ei.value.causes)

    def test_abort_breaks_collectives(self, any_mode):
        def main(comm):
            if comm.rank == 1:
                comm.abort("mid-collective")
            comm.barrier()

        with pytest.raises(ParallelError):
            mpirun(4, main, mode=any_mode, deadlock_timeout=5.0)


class TestQueuedReceive:
    """A receive whose message is already queued skips the wait, but not
    the checks the wait made: an aborted or failed world still stops it."""

    @pytest.mark.parametrize("source, tag", [(0, 0), (ANY_SOURCE, ANY_TAG)],
                             ids=["exact", "wildcard"])
    @pytest.mark.parametrize("seed", range(4))
    def test_a_queued_message_does_not_outlive_an_abort(self, source, tag, seed):
        # Rank 0 queues a message for rank 1 and both then block on
        # messages nobody sends: a deadlock aborts the world.  Rank 1's
        # unwind runs a ``finally`` that receives the queued message; the
        # receive must unwind too, not hand it to user code.
        got = []

        def main(comm):
            if comm.rank == 0:
                comm.send("queued", dest=1, tag=0)
                comm.recv(source=1, tag=0)
                return
            try:
                comm.recv(source=0, tag=1)
            finally:
                got.append(comm.recv(source=source, tag=tag))

        with pytest.raises(DeadlockError):
            mpirun(2, main, mode="lockstep", seed=seed)
        assert got == []

    @pytest.mark.parametrize("seed", range(4))
    def test_a_queued_message_does_not_outlive_a_failed_rank(self, seed):
        def main(comm):
            if comm.rank == 0:
                comm.send("queued", dest=1, tag=0)
                raise ValueError("rank 0 fails")
            while not comm.world.broken:
                comm.send(None, dest=1, tag=9)  # a switch point per send
            return comm.recv(source=0, tag=0)

        with pytest.raises(ParallelError) as ei:
            mpirun(2, main, mode="lockstep", seed=seed)
        assert [type(c) for c in ei.value.causes] == [ValueError, MpError]
