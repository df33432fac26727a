"""Point-to-point messaging semantics (repro.mp.comm)."""

import pytest

from repro.errors import CommError, DeadlockError, IsolationError, ParallelError
from repro.mp import ANY_SOURCE, ANY_TAG, MpRuntime, mpirun


def run(n, main, mode="lockstep", seed=0, **kw):
    if mode == "thread":
        kw.setdefault("deadlock_timeout", 5.0)
    return mpirun(n, main, mode=mode, seed=seed, **kw)


class TestSendRecv:
    def test_basic_pair(self, any_mode):
        def main(comm):
            if comm.rank == 0:
                comm.send({"a": 7, "b": 3.14}, dest=1, tag=11)
                return None
            return comm.recv(source=0, tag=11)

        res = run(2, main, mode=any_mode)
        assert res.results[1] == {"a": 7, "b": 3.14}

    def test_self_send(self, any_mode):
        def main(comm):
            comm.send("note to self", dest=comm.rank, tag=1)
            return comm.recv(source=comm.rank, tag=1)

        assert run(1, main, mode=any_mode).results == ["note to self"]

    def test_tag_matching_selects_correct_message(self, any_mode):
        def main(comm):
            if comm.rank == 0:
                comm.send("for tag 5", dest=1, tag=5)
                comm.send("for tag 6", dest=1, tag=6)
                return None
            six = comm.recv(source=0, tag=6)
            five = comm.recv(source=0, tag=5)
            return (five, six)

        res = run(2, main, mode=any_mode)
        assert res.results[1] == ("for tag 5", "for tag 6")

    def test_fifo_per_channel(self, any_mode):
        def main(comm):
            if comm.rank == 0:
                for k in range(10):
                    comm.send(k, dest=1, tag=2)
                return None
            return [comm.recv(source=0, tag=2) for _ in range(10)]

        assert run(2, main, mode=any_mode).results[1] == list(range(10))

    def test_flat_list_stream_arrives_in_order(self, any_mode):
        # Flat lists take the cow-flat lane, which send hands to the one
        # receiver as a cow-move packet.
        def main(comm):
            if comm.rank == 0:
                for i in range(20):
                    comm.send([i], dest=1, tag=0)
                return None
            return [comm.recv(source=0, tag=0)[0] for _ in range(20)]

        assert run(2, main, mode=any_mode).results[1] == list(range(20))

    def test_any_source_wildcard(self, any_mode):
        def main(comm):
            if comm.rank == 0:
                got = set()
                for _ in range(comm.size - 1):
                    got.add(comm.recv(source=ANY_SOURCE, tag=1))
                return got
            comm.send(comm.rank, dest=0, tag=1)
            return None

        assert run(4, main, mode=any_mode).results[0] == {1, 2, 3}

    def test_any_tag_wildcard(self, any_mode):
        def main(comm):
            if comm.rank == 0:
                comm.send("x", dest=1, tag=42)
                return None
            payload, status = comm.recv(source=0, tag=ANY_TAG, status=True)
            return (payload, status.tag)

        assert run(2, main, mode=any_mode).results[1] == ("x", 42)

    def test_status_fields(self, any_mode):
        def main(comm):
            if comm.rank == 0:
                comm.send([1, 2, 3], dest=1, tag=9)
                return None
            payload, status = comm.recv(status=True)
            return (status.Get_source(), status.Get_tag(), status.Get_count() > 0)

        assert run(2, main, mode=any_mode).results[1] == (0, 9, True)

    def test_sendrecv_head_to_head(self, any_mode):
        def main(comm):
            partner = 1 - comm.rank
            return comm.sendrecv(comm.rank * 100, dest=partner, sendtag=3,
                                 source=partner, recvtag=3)

        assert run(2, main, mode=any_mode).results == [100, 0]

    def test_bad_dest_raises(self, any_mode):
        def main(comm):
            comm.send("x", dest=5)

        with pytest.raises(ParallelError) as ei:
            run(2, main, mode=any_mode)
        assert any(isinstance(c, CommError) for c in ei.value.causes)

    def test_negative_tag_rejected_on_send(self, any_mode):
        def main(comm):
            comm.send("x", dest=0, tag=-3)

        with pytest.raises(ParallelError) as ei:
            run(1, main, mode=any_mode)
        assert any(isinstance(c, CommError) for c in ei.value.causes)


class TestIsolation:
    def test_received_object_is_a_copy(self, any_mode):
        def main(comm):
            data = [1, 2, 3]
            if comm.rank == 0:
                comm.send(data, dest=1)
                comm.recv(source=1)  # wait until rank 1 mutated its copy
                return data
            got = comm.recv(source=0)
            got.append(99)
            comm.send("done", dest=0)
            return got

        res = run(2, main, mode=any_mode)
        assert res.results[0] == [1, 2, 3]
        assert res.results[1] == [1, 2, 3, 99]

    def test_unpicklable_payload_rejected(self, any_mode):
        import threading

        def main(comm):
            comm.send(threading.Lock(), dest=comm.rank)

        with pytest.raises(ParallelError) as ei:
            run(1, main, mode=any_mode)
        assert any(isinstance(c, IsolationError) for c in ei.value.causes)


class TestSsend:
    def test_ssend_completes_with_matching_recv(self, any_mode):
        def main(comm):
            if comm.rank == 0:
                comm.ssend("sync hello", dest=1)
                return "sender done"
            return comm.recv(source=0)

        res = run(2, main, mode=any_mode)
        assert res.results == ["sender done", "sync hello"]

    def test_head_to_head_ssend_deadlocks_lockstep(self):
        def main(comm):
            partner = 1 - comm.rank
            comm.ssend("x", dest=partner)
            comm.recv(source=partner)

        with pytest.raises(DeadlockError) as ei:
            run(2, main, mode="lockstep")
        assert len(ei.value.blocked) == 2

    def test_ordered_ssend_pair_works(self, any_mode):
        def main(comm):
            partner = 1 - comm.rank
            if comm.rank == 0:
                comm.ssend("zero first", dest=partner)
                return comm.recv(source=partner)
            got = comm.recv(source=partner)
            comm.ssend("one second", dest=partner)
            return got

        res = run(2, main, mode=any_mode)
        assert res.results == ["one second", "zero first"]


class TestProbe:
    def test_probe_does_not_consume(self, any_mode):
        def main(comm):
            if comm.rank == 0:
                comm.send("payload", dest=1, tag=8)
                return None
            st = comm.probe(source=ANY_SOURCE, tag=ANY_TAG)
            value = comm.recv(source=st.source, tag=st.tag)
            return (st.source, st.tag, value)

        assert run(2, main, mode=any_mode).results[1] == (0, 8, "payload")

    def test_iprobe_empty_returns_none(self, any_mode):
        def main(comm):
            return comm.iprobe(source=ANY_SOURCE)

        assert run(1, main, mode=any_mode).results == [None]

    def test_iprobe_sees_queued_message(self, any_mode):
        def main(comm):
            comm.send("here", dest=comm.rank, tag=2)
            st = comm.iprobe(tag=2)
            return st is not None and st.tag == 2

        assert run(1, main, mode=any_mode).results == [True]


class TestRequests:
    def test_irecv_wait(self, any_mode):
        def main(comm):
            if comm.rank == 0:
                comm.send("async", dest=1, tag=1)
                return None
            req = comm.irecv(source=0, tag=1)
            return req.wait()

        assert run(2, main, mode=any_mode).results[1] == "async"

    def test_isend_completes_immediately(self, any_mode):
        def main(comm):
            if comm.rank == 0:
                req = comm.isend("eager", dest=1)
                done, _ = req.test()
                comm.recv(source=1)  # sync before exit
                return done
            got = comm.recv(source=0)
            comm.send("ack", dest=0)
            return got

        res = run(2, main, mode=any_mode)
        assert res.results == [True, "eager"]

    def test_test_polls_until_available(self, any_mode):
        def main(comm):
            if comm.rank == 0:
                req = comm.irecv(source=1, tag=7)
                polls = 0
                while True:
                    done, value = req.test()
                    polls += 1
                    if done:
                        return (value, polls >= 1)
            comm.send("finally", dest=0, tag=7)
            return None

        res = run(2, main, mode=any_mode)
        assert res.results[0] == ("finally", True)

    def test_wait_idempotent(self, any_mode):
        def main(comm):
            comm.send(5, dest=comm.rank)
            req = comm.irecv(source=comm.rank)
            assert req.wait() == 5
            return req.wait()  # second wait returns the cached value

        assert run(1, main, mode=any_mode).results == [5]


class TestWorldLifecycle:
    def test_rank_failure_unblocks_receivers(self, any_mode):
        def main(comm):
            if comm.rank == 0:
                raise RuntimeError("rank 0 dies")
            comm.recv(source=0)  # would wait forever

        with pytest.raises(ParallelError) as ei:
            run(2, main, mode=any_mode)
        assert any(isinstance(c, RuntimeError) for c in ei.value.causes)

    def test_undelivered_messages_counted(self, any_mode):
        def main(comm):
            if comm.rank == 0:
                comm.send("never read", dest=1, tag=1)
                comm.send("also never", dest=1, tag=1)
            comm.barrier()

        res = run(2, main, mode=any_mode)
        assert res.world.undelivered_messages() == 2

    def test_results_per_rank(self, any_mode):
        res = run(5, lambda comm: comm.rank ** 2, mode=any_mode)
        assert res.results == [0, 1, 4, 9, 16]

    def test_world_size_validation(self):
        with pytest.raises(ValueError):
            mpirun(0, lambda comm: None)
