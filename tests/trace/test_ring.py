"""The recorder's head-keeping limit and the one-attribute-read muting
fast path."""

from repro.trace import TraceRecorder, muted, using_recorder
from repro.trace import events as events_mod


class TestRingMode:
    def test_head_mode_still_drops(self):
        rec = TraceRecorder(limit=2)
        rec.emit("a", task="t")
        rec.emit("b", task="t")
        assert rec.emit("c", task="t") is None
        assert rec.dropped == 1


class TestEmitFastPath:
    def test_top_cache_tracks_push_pop(self):
        assert events_mod._top is events_mod.current_recorder()
        with using_recorder() as rec:
            assert events_mod._top is rec
            with using_recorder() as inner:
                assert events_mod._top is inner
            assert events_mod._top is rec

    def test_recording_attr_is_the_muting_flip(self):
        assert TraceRecorder.recording is True
        with using_recorder() as rec:
            with muted():
                top = events_mod._top
                assert top.recording is False
                events_mod.emit("invisible", task="t")
            events_mod.emit("visible", task="t")
        assert [e.kind for e in rec.events()] == ["visible"]

    def test_muted_emit_does_not_touch_the_shadowed_recorder(self):
        # The emit fast path must bail on the recording attribute alone —
        # if it reached the shadowed recorder's lock, the muted() guard
        # would not be "one attribute read per would-be emission".
        with using_recorder() as rec:
            entered = []
            real_emit = rec.emit
            rec.emit = lambda *a, **k: (entered.append(1), real_emit(*a, **k))[1]
            with muted():
                for _ in range(10):
                    events_mod.emit("k", task="t")
            assert entered == []
