"""The event spine: recorder, ambient stack, muting, emission contract."""

import builtins
import dataclasses
import pickle
import threading

import pytest

from repro.sched.base import set_task_label
from repro.trace import (
    TraceRecorder,
    active,
    as_events,
    current_recorder,
    emit,
    muted,
    pop_recorder,
    push_recorder,
    using_recorder,
)


class TestRecorder:
    def test_emit_assigns_monotonic_seq(self):
        rec = TraceRecorder()
        events = [rec.emit(f"k{i}", task="t") for i in range(5)]
        assert [e.seq for e in events] == [0, 1, 2, 3, 4]

    def test_payload_and_accessors(self):
        rec = TraceRecorder()
        ev = rec.emit("io.print", task="omp:0", line="hi", scope="r#1")
        assert ev.payload["line"] == "hi"
        assert ev.scope == "r#1"
        assert len(rec) == 1
        assert rec.events("io.print") == [ev]
        assert rec.events("other") == []

    def test_scope_filter(self):
        rec = TraceRecorder()
        rec.emit("task.end", task="a", scope="s1")
        rec.emit("task.end", task="b", scope="s2")
        assert [e.task for e in rec.events(scope="s1")] == ["a"]

    def test_kinds_counts(self):
        rec = TraceRecorder()
        rec.emit("a", task="t")
        rec.emit("a", task="t")
        rec.emit("b", task="t")
        assert rec.kinds() == {"a": 2, "b": 1}

    def test_limit_drops_and_counts(self):
        rec = TraceRecorder(limit=2)
        assert rec.emit("a", task="t") is not None
        assert rec.emit("b", task="t") is not None
        assert rec.emit("c", task="t") is None
        assert len(rec) == 2 and rec.dropped == 1

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceRecorder(limit=0)

    def test_thread_safe_append(self):
        rec = TraceRecorder()

        def spam():
            for _ in range(200):
                rec.emit("k", task="t")

        threads = [threading.Thread(target=spam) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        events = rec.events()
        assert len(events) == 800
        assert [e.seq for e in events] == list(range(800))

    def test_as_events_accepts_recorder_or_list(self):
        rec = TraceRecorder()
        ev = rec.emit("k", task="t")
        assert as_events(rec) == [ev]
        assert as_events([ev]) == [ev]


class TestAmbientStack:
    def test_module_emit_is_noop_without_recorder(self):
        assert current_recorder() is None
        assert emit("k") is None
        assert not active()

    def test_push_pop(self):
        rec = TraceRecorder()
        push_recorder(rec)
        try:
            assert current_recorder() is rec
            assert active()
            emit("k", detail=1)
        finally:
            pop_recorder(rec)
        assert current_recorder() is None
        assert rec.events("k")[0].payload["detail"] == 1

    def test_using_recorder_context(self):
        with using_recorder() as rec:
            emit("inside")
        assert len(rec.events("inside")) == 1
        assert current_recorder() is None

    def test_pop_removes_by_identity_out_of_order(self):
        a, b = TraceRecorder(), TraceRecorder()
        push_recorder(a)
        push_recorder(b)
        pop_recorder(a)  # out of LIFO order
        assert current_recorder() is b
        pop_recorder(b)
        assert current_recorder() is None

    def test_emit_defaults_task_to_main(self):
        with using_recorder() as rec:
            emit("k")
        assert rec.events("k")[0].task == "main"


class TestMuted:
    def test_muted_drops_emissions(self):
        with using_recorder() as rec:
            emit("before")
            with muted():
                assert not active()
                emit("during")
            emit("after")
        assert sorted(rec.kinds()) == ["after", "before"]

    def test_muted_without_recorder_is_harmless(self):
        with muted():
            assert emit("k") is None

    def test_direct_recorder_emit_bypasses_mute(self):
        # Output capture must keep working inside muted blocks.
        rec = TraceRecorder()
        with muted():
            rec.emit("io.print", task="main", line="still captured")
        assert len(rec) == 1


class TestEmissionContract:
    def _event(self):
        rec = TraceRecorder()
        return rec.emit("msg.send", task="mpi:0", vtime=2.5,
                        hb_rel=("msg", "w#1", 3), uid=3, scope="w#1")

    @pytest.mark.parametrize("field", ["seq", "task", "kind", "vtime",
                                       "hb_acq", "hb_rel", "payload"])
    def test_fields_cannot_be_assigned_or_deleted(self, field):
        ev = self._event()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ev, field, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(ev, field)
        assert ev == self._event()

    def test_equality_is_by_all_seven_fields(self):
        ev = self._event()
        assert ev == self._event()
        rec = TraceRecorder()
        rec.emit("other")
        other = rec.emit("msg.send", task="mpi:0", vtime=2.5,
                         hb_rel=("msg", "w#1", 3), uid=3, scope="w#1")
        assert other.seq == 1 and other != ev
        assert ev != (0, "mpi:0", "msg.send")

    def test_an_event_pickles_equal(self):
        ev = self._event()
        back = pickle.loads(pickle.dumps(ev))
        assert back == ev and back is not ev
        assert (back.seq, back.task, back.kind, back.vtime, back.hb_acq,
                back.hb_rel, back.payload) == (0, "mpi:0", "msg.send", 2.5,
                                               None, ("msg", "w#1", 3),
                                               {"uid": 3, "scope": "w#1"})
        assert back.scope == "w#1" and repr(back) == repr(ev)
        with pytest.raises(dataclasses.FrozenInstanceError):
            back.seq = 1

    def test_a_recorder_pickles_equal(self):
        rec = TraceRecorder(limit=3)
        for i in range(4):
            rec.emit("k", task=f"t{i}", vtime=float(i), n=i)
        rec.next_id("cell")
        back = pickle.loads(pickle.dumps(rec))
        assert back.events() == rec.events()
        assert (back.limit, back.dropped, back.next_id("cell")) == (3, 1, 1)
        # The copy records on its own, from where the original stopped.
        back.limit = 5
        assert back.emit("k", task="t").seq == 3
        assert len(rec) == 3

    def test_module_emit_records_the_thread_label(self):
        seen = {}

        def body(label):
            if label is not None:
                set_task_label(label)
            seen[label] = emit("mem.read", cell="x").task

        with using_recorder():
            threads = [threading.Thread(target=body, args=(label,))
                       for label in ("omp:1", "mpi:2/omp:0", None)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
                assert not t.is_alive()
        assert seen == {"omp:1": "omp:1", "mpi:2/omp:0": "mpi:2/omp:0",
                        None: "main"}

    def test_an_emission_imports_nothing(self, monkeypatch):
        calls = []
        real = builtins.__import__

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        recorded = []

        def body():
            set_task_label("omp:0")
            with using_recorder() as rec:
                monkeypatch.setattr(builtins, "__import__", counting)
                try:
                    for _ in range(1000):
                        emit("mem.read", cell="x")
                finally:
                    monkeypatch.undo()
            recorded.append(len(rec))

        t = threading.Thread(target=body)
        t.start()
        t.join(timeout=30)
        assert not t.is_alive()
        assert recorded == [1000]
        assert calls == []
