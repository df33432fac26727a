"""ASCII timeline rendering (repro.core.timeline)."""

from repro.core.capture import CapturedRun, capture_run
from repro.core.timeline import lane_order, render_events, render_run, render_trace
from repro.sched import make_executor
from repro.smp import SmpRuntime
from repro.trace import TraceRecorder, using_recorder


def fake_run(records):
    run = CapturedRun()
    run.records = records
    return run


class TestRenderRun:
    def test_one_lane_per_task(self):
        run = fake_run([("a", "x"), ("b", "y"), ("a", "z")])
        out = render_run(run, legend=False)
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("a") and lines[1].startswith("b")

    def test_event_numbers_land_in_producing_lane(self):
        run = fake_run([("a", "x"), ("b", "y")])
        out = render_run(run, legend=False).splitlines()
        assert "1" in out[0] and "1" not in out[1].replace("b |", "")
        assert "2" in out[1]

    def test_main_lane_sorts_last(self):
        run = fake_run([("main", "m"), ("omp:0", "x")])
        assert lane_order(run) == ["omp:0", "main"]

    def test_legend_lists_lines(self):
        run = fake_run([("a", "hello world")])
        out = render_run(run, legend=True)
        assert "1. [a] hello world" in out

    def test_max_events_elides(self):
        run = fake_run([("a", str(i)) for i in range(100)])
        out = render_run(run, max_events=10, legend=False)
        assert "90 later events elided" in out

    def test_empty_run(self):
        assert render_run(fake_run([])) == "(no output)"

    def test_real_patternlet_run(self):
        rt = SmpRuntime(num_threads=3, mode="lockstep", seed=4)
        run = capture_run(lambda: rt.parallel(lambda ctx: print(ctx.thread_num)))
        out = render_run(run, legend=False)
        assert out.count("|") == 3


class TestRenderEvents:
    def test_lanes_in_first_appearance_order(self):
        rec = TraceRecorder()
        rec.emit("task.start", task="omp:1", scope="s")
        rec.emit("task.start", task="omp:0", scope="s")
        rec.emit("io.print", task="omp:1", line="hi")
        out = render_events(rec, legend=False).splitlines()
        assert out[0].startswith("omp:1") and out[1].startswith("omp:0")

    def test_marks_land_in_emitting_lane(self):
        rec = TraceRecorder()
        rec.emit("a.one", task="p")
        rec.emit("b.two", task="q")
        out = render_events(rec, legend=False).splitlines()
        assert "1" in out[0] and "2" in out[1]
        assert "2" not in out[0].replace("p |", "")

    def test_legend_shows_kind_and_payload(self):
        rec = TraceRecorder()
        rec.emit("barrier.arrive", task="omp:0", scope="s", generation=3)
        out = render_events(rec, legend=True)
        assert "1. [omp:0] barrier.arrive" in out
        assert "generation=3" in out
        assert "scope=" not in out  # scope is lane context, not detail

    def test_elision_note(self):
        rec = TraceRecorder()
        for _ in range(30):
            rec.emit("k", task="t")
        out = render_events(rec, max_events=10, legend=False)
        assert "20 later events elided" in out

    def test_empty(self):
        assert render_events(TraceRecorder()) == "(no events)"

    def test_real_run_shows_barrier_between_print_phases(self):
        from repro.core.registry import run_patternlet

        run = run_patternlet("openmp.barrier", tasks=2, seed=0,
                             toggles={"barrier": True})
        out = render_events(run.trace, max_events=200)
        assert "barrier.arrive" in out and "io.print" in out


class TestLockstepTraceDeterminism:
    """Fixed seed => identical lane assignment and event order."""

    def _trace_events(self, seed):
        rt = SmpRuntime(num_threads=3, mode="lockstep", seed=seed)
        run = capture_run(
            lambda: rt.parallel(lambda ctx: print(f"hi {ctx.thread_num}"))
        )
        return run

    def test_same_seed_same_stream(self):
        a = self._trace_events(7)
        b = self._trace_events(7)
        sig_a = [(e.task, e.kind) for e in a.trace]
        sig_b = [(e.task, e.kind) for e in b.trace]
        assert sig_a == sig_b
        assert render_events(a.trace) == render_events(b.trace)

    def test_scheduling_decisions_reach_the_spine(self):
        run = self._trace_events(0)
        kinds = run.trace.kinds()
        assert kinds.get("sched.run", 0) > 0
        assert kinds.get("sched.done", 0) == 3
        # every sched event is attributed to a worker task
        tasks = {e.task for e in run.trace.events("sched.done")}
        assert len(tasks) == 3

    def test_seed_zero_lane_assignment_pinned(self):
        # Regression pin: the seed-0 interleaving is part of the teaching
        # material (documented sessions must stay reproducible).
        run = self._trace_events(0)
        order = [e.task for e in run.trace.events("io.print")]
        assert order == ["omp:1", "omp:2", "omp:0"]
        out = render_events(run.trace, max_events=200, legend=False)
        lanes = [line.split(" |")[0].strip() for line in out.splitlines()]
        assert lanes[0] == "main"  # region.fork is the first event


def sched_trace(*steps):
    rec = TraceRecorder()
    for kind, task in steps:
        rec.emit(f"sched.{kind}", task=task)
    return rec


class TestRenderTrace:
    def test_marks(self):
        rec = sched_trace(("run", "a"), ("block", "a"), ("run", "b"),
                          ("wake", "a"), ("run", "a"), ("done", "a"),
                          ("done", "b"))
        out = render_trace(rec)
        a_lane = next(l for l in out.splitlines() if l.startswith("a"))
        assert "#" in a_lane and "b" in a_lane and "x" in a_lane

    def test_empty(self):
        assert render_trace([]) == "(empty trace)"

    def test_real_lockstep_trace(self):
        ex = make_executor("lockstep", seed=2)
        with using_recorder() as rec:
            ex.run_tasks([lambda: None] * 2, ["t0", "t1"])
        out = render_trace(rec)
        assert "t0" in out and "t1" in out and "key:" in out

    def test_max_steps_cap(self):
        out = render_trace(sched_trace(*[("run", "a")] * 500), max_steps=20)
        lane = out.splitlines()[0]
        assert lane.count("#") == 20

    def test_non_scheduling_events_draw_nothing(self):
        rec = sched_trace(("run", "a"))
        rec.emit("io.print", task="b", line="hi")
        assert render_trace(rec).splitlines()[0] == "a | #"

    def test_captured_barrier_run(self):
        # The students' recipe: no executor built by hand, the run's own
        # trace carries the schedule.  Pinned lanes for seed 0.
        from repro.core.registry import run_patternlet

        run = run_patternlet(
            "openmp.barrier", tasks=3, toggles={"barrier": True}, seed=0
        )
        assert render_trace(run.trace).splitlines()[:3] == [
            "omp:1 | #b    w #x     ",
            "omp:0 |   #  #     #x  ",
            "omp:2 |    #b  w  #  #x",
        ]
