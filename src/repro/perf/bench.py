"""Engine microbenchmarks and same-host report comparison.

Six metric families, each timing one engine path that no perfbench
workload isolates (the serve and batch paths are timed end to end by
``perfbench/``'s ``lab-serve``, ``grade-warm`` and ``grade-cold``):

``msg_throughput_immutable`` / ``msg_throughput_flat`` /
``msg_throughput_pickle``
    One-directional rank0→rank1 message stream under the lockstep
    executor, messages per second — one metric per transport lane
    (:func:`repro.mp.serialize.pack_packet`'s decision ladder).  The
    immutable variant sends an ``int`` (the by-reference ``ref`` lane),
    ``flat`` a small flat ``list`` (the ``cow-flat`` shallow-snapshot
    lane, received as ``cow-move``) and ``pickle`` a nested 8×8 list (the
    ``pickle`` lane, which carries every nested payload).  Each stream is
    a classroom run: one policy decision per switch point, so every
    message costs a token handoff as well as its lane.

``switch_rate_np64``
    Lockstep task switches per second: 64 spinners on bare
    ``checkpoint()`` calls, measured over the executor's own step
    counter.  This isolates the switch-point primitive from transport
    costs: it guards both the token-handoff floor and the O(log np)
    ready index — a per-switch table scan craters exactly this metric.

``np1024_spmd_wall_s`` / ``run_setup_ms``
    Wall seconds for one warm np=1024 spmd world (no communication): the
    world setup + serial rank chain cost at the executor's scaling
    ceiling; and wall milliseconds per empty 4-rank lockstep world with
    a warm rank pool — the thread-spawn amortisation the rank pool
    (:mod:`repro.sched.pool`) buys.  Both reported, not gated.

``bcast_ms_p32`` / ``allreduce_ms_p64``
    Wall milliseconds per 64-element broadcast at 32 ranks (the
    pack-once forwarding path, where mailbox matching and switch
    selection would dominate if they were O(np)) and per scalar
    allreduce at 64 ranks (the many-rank combining path).  Each is the
    *fastest registered communicator topology* (pin one with
    ``bench --topology``), so the metric tracks the engine's best
    collective path as topologies evolve.  Gated (see below).

``figure_suite_np64_wall_s`` / ``selfcheck_cold_wall_s``
    Wall seconds for the scaling demo (spmd, broadcast and reduction
    once each at np=64), and for one figure self-check pass (every check
    runs live).  Reported, not gated.

``trace_emit_rate``
    Events per second recorded by the module-level ``emit`` of a
    ``mem.read`` from a labelled task into an installed recorder: the
    emission every cold run pays about 145 times a cell, since each run
    records its full stream.  Gated.

Every other engine benchmark runs under ``muted()``, so it measures the
engine, not the trace recorder; the untraced fast path is itself covered
because muting is exactly the one-attribute-read guard the emit sites
take.  ``trace_emit_rate`` is the one that records.

Comparison policy: wall-clock numbers only compare on the machine that
took them, so a baseline is a report from ``bench --out`` on the same
host — a student's before/after, or ``benchmarks/perf/ab_gate.py``,
which measures a base tree and this one in alternating pairs and gates
the per-side medians.  Throughput metrics (:data:`HIGHER_IS_BETTER`)
fail a check when they drop more than ``tolerance`` (default 30%) below
the baseline; the fastest-topology collective latencies
(:data:`LOWER_IS_BETTER`) fail when they *rise* more than ``tolerance``
above it — these are best-of minima over several topologies, which
bounds their noise enough to gate.  A gated metric missing from either
side is skipped with a warning, and a check in which no gated metric is
on both sides fails: it compared nothing.  The remaining metrics are
reported but never fail a check.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Any, Callable, Mapping

from repro.trace import emit, muted, using_recorder

__all__ = [
    "HIGHER_IS_BETTER",
    "LOWER_IS_BETTER",
    "SCHEMA",
    "bench_allreduce_latency",
    "bench_bcast_latency",
    "bench_large_np_suite",
    "bench_msg_throughput",
    "bench_np1024_spmd",
    "bench_run_setup",
    "bench_selfcheck",
    "bench_switch_rate",
    "bench_trace_emit",
    "compare",
    "format_table",
    "load_report",
    "make_report",
    "run_benchmarks",
    "save_report",
]

SCHEMA = 1

#: Metrics where bigger numbers are better; these fail a check when they
#: drop more than ``tolerance`` below the baseline.
HIGHER_IS_BETTER = (
    "msg_throughput_immutable",
    "msg_throughput_flat",
    "msg_throughput_pickle",
    "switch_rate_np64",
    "trace_emit_rate",
)

#: Latency metrics where smaller numbers are better; these fail a check
#: when they rise more than ``tolerance`` above the baseline.  Only
#: best-of-several minima qualify (the fastest-topology collectives): a
#: min over several independently-run samples is stable enough to gate,
#: where a single raw latency is not.
LOWER_IS_BETTER = (
    "bcast_ms_p32",
    "allreduce_ms_p64",
)


def bench_msg_throughput(payload: Any = 12345, *, n: int = 3000) -> float:
    """Messages/second for a rank0→rank1 stream of ``payload`` copies.

    The clock runs *inside* the world, from the post-barrier start of the
    stream to the receiver draining its last message.  World setup and
    teardown (pool lease, executor construction) are ``run_setup_ms``'s
    job; folding them in here made the measured rate depend on ``n`` —
    at current transport speeds setup was ~25% of a ``--quick`` run —
    so quick and full runs disagreed about the same engine.
    """
    from repro.mp.runtime import MpRuntime

    start = [0.0]

    def main(comm):
        comm.barrier()
        if comm.rank == 0:
            start[0] = time.perf_counter()
            for _ in range(n):
                comm.send(payload, 1, tag=0)
            return None
        for _ in range(n):
            comm.recv(source=0, tag=0)
        # Draining message n proves rank 0 already stamped the start.
        return time.perf_counter() - start[0]

    rt = MpRuntime(mode="lockstep", seed=0)
    with muted():
        dt = rt.run(2, main).results[1]
    return n / dt


def bench_switch_rate(*, tasks: int = 4, k: int = 20000) -> float:
    """Lockstep task switches/second: ``tasks`` spinners × ``k`` checkpoints."""
    from repro.sched.lockstep import LockstepExecutor

    ex = LockstepExecutor()

    def body():
        for _ in range(k):
            ex.checkpoint()

    with muted():
        t0 = time.perf_counter()
        ex.run_tasks([body] * tasks, [f"t{i}" for i in range(tasks)])
        dt = time.perf_counter() - t0
    return ex.step_count / dt


def bench_trace_emit(*, runs: int = 200) -> float:
    """Events/second recorded by module-level ``emit`` from a labelled task.

    Not muted: this is the recording itself.  Each call emits the
    ``mem.read`` a shared-cell access emits, takes its task from the
    thread's label (``omp:0``, restored afterwards) and appends to the
    installed recorder, so the rate covers the label read, the event
    build and the locked append.  Each of ``runs`` fresh recorders
    takes 250 events, about one lab-grid run's stream (145 on average),
    so the garbage collector sees the live set a run has rather than
    one stream of every event, which read up to 30% slower.
    """
    from repro.sched.base import task_label_scope

    per_run = 250
    with task_label_scope("omp:0"):
        t0 = time.perf_counter()
        for _ in range(runs):
            with using_recorder():
                for _ in range(per_run):
                    emit("mem.read", cell="cell0")
        dt = time.perf_counter() - t0
    return runs * per_run / dt


def bench_run_setup(*, np: int = 4, runs: int = 100) -> float:
    """Fixed per-run overhead: wall ms per empty ``np``-rank lockstep run.

    Each iteration builds a fresh :class:`~repro.mp.runtime.MpRuntime`
    and runs a no-op world — the setup/teardown a ``patternlet run`` or
    a batch cache miss pays before any patternlet code executes.  One
    warm-up run first, so the measurement sees the steady state a run
    loop actually lives in (rank pool populated, imports warm).
    """
    from repro.mp.runtime import MpRuntime

    def main(comm):
        return None

    with muted():
        MpRuntime(mode="lockstep", seed=0).run(np, main)  # warm the pool
        t0 = time.perf_counter()
        for _ in range(runs):
            MpRuntime(mode="lockstep", seed=0).run(np, main)
        dt = time.perf_counter() - t0
    return dt / runs * 1000


def bench_np1024_spmd(*, np: int = 1024, repeats: int = 3) -> float:
    """Wall seconds for one warm ``np``-rank spmd world (no communication).

    One warm-up run populates the rank pool (its MAX_IDLE is sized to
    park a whole np=1024 team); the best of ``repeats`` is reported —
    world setup can only be slowed by interference, never sped up.
    """
    from repro.mp.runtime import MpRuntime

    def main(comm):
        return comm.rank

    with muted():
        MpRuntime(mode="lockstep", seed=0).run(np, main)  # warm the pool
        best = float("inf")
        for _ in range(repeats):
            best = min(best, MpRuntime(mode="lockstep", seed=0).run(np, main).wall)
    return best


def bench_large_np_suite(*, np: int = 64) -> float:
    """Wall seconds to run the three classroom patternlets at ``np`` tasks.

    spmd, broadcast and reduction (the "crank the task count" demos) run
    once each at ``np`` under the seeded lockstep scheduler — the
    end-to-end cost of the scaling mechanic the paper's patternlets are
    built around.
    """
    from repro.core.registry import run_patternlet

    t0 = time.perf_counter()
    for name in ("mpi.spmd", "mpi.broadcast", "openmp.reduction"):
        run_patternlet(name, tasks=np, mode="lockstep", seed=0)
    return time.perf_counter() - t0


def bench_bcast_latency(
    p: int, *, iters: int = 50, topology: str | None = None
) -> float:
    """Wall milliseconds per 64-element broadcast across ``p`` ranks.

    ``topology`` pins the communicator algorithm set (``None`` = the
    process default); :func:`run_benchmarks` reports the fastest across
    every registered topology.

    Timed in-world between two barriers (same reasoning as
    :func:`bench_msg_throughput`): folding world setup into ``dt/iters``
    made the per-op latency depend on ``iters``, so quick and full runs
    disagreed about the same collective.
    """
    from repro.mp.runtime import MpRuntime

    start = [0.0]

    def main(comm):
        comm.barrier()
        if comm.rank == 0:
            start[0] = time.perf_counter()
        for _ in range(iters):
            comm.bcast(list(range(64)), root=0)
        comm.barrier()
        if comm.rank == 0:
            return time.perf_counter() - start[0]
        return None

    rt = MpRuntime(mode="lockstep", seed=0, topology=topology)
    with muted():
        dt = rt.run(p, main).results[0]
    return dt / iters * 1000


def bench_allreduce_latency(
    p: int = 64, *, iters: int = 20, topology: str | None = None
) -> float:
    """Wall milliseconds per scalar allreduce across ``p`` ranks.

    In-world timing, like :func:`bench_bcast_latency`.
    """
    from repro.mp.runtime import MpRuntime

    start = [0.0]

    def main(comm):
        comm.barrier()
        if comm.rank == 0:
            start[0] = time.perf_counter()
        for _ in range(iters):
            comm.allreduce(comm.rank)
        comm.barrier()
        if comm.rank == 0:
            return time.perf_counter() - start[0]
        return None

    rt = MpRuntime(mode="lockstep", seed=0, topology=topology)
    with muted():
        dt = rt.run(p, main).results[0]
    return dt / iters * 1000


def bench_selfcheck(*, rounds: int = 3) -> dict[str, float]:
    """Wall seconds of the full figure self-check (best of ``rounds``).

    Every check runs live, so this is the compute cost of the suite —
    the number a classroom feels on every run.  One untimed pass first
    takes the process's one-time costs (patternlet imports, the rank
    pool's first threads) out of the sample.
    """
    from repro.core.selfcheck import run_selfcheck

    run_selfcheck()
    walls: list[float] = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        run_selfcheck()
        walls.append(time.perf_counter() - t0)
    return {"selfcheck_cold_wall_s": round(min(walls), 3)}


def run_benchmarks(
    *,
    quick: bool = False,
    progress: Callable[[str], None] | None = None,
    topology: str | None = None,
) -> dict[str, float]:
    """Run the full metric set; returns ``{metric: value}``.

    ``quick`` shrinks iteration counts ~5× (``switch_rate_np64`` 50×)
    for CI smoke runs — noisier, but each metric stays well above timer
    resolution.

    ``topology`` pins the collective-latency benches to one communicator
    topology; by default each reports the fastest registered topology at
    its rank count.

    The gated throughput metrics are each the best of three repetitions:
    a rate sample can only be depressed by interference (GC, a noisy
    neighbour on a shared runner), never inflated, so the maximum is the
    best estimate of the engine's actual speed.
    """
    from repro.mp.communicators import available_topologies

    scale = 5 if quick else 1
    note = progress or (lambda _msg: None)
    out: dict[str, float] = {}

    def best_of_3(sample: Callable[[], float]) -> float:
        return round(max(sample() for _ in range(3)), 1)

    note("msg throughput (int, ref lane)")
    out["msg_throughput_immutable"] = best_of_3(
        lambda: bench_msg_throughput(12345, n=3000 // scale))
    note("msg throughput (flat list, cow-flat lane)")
    out["msg_throughput_flat"] = best_of_3(
        lambda: bench_msg_throughput([1, 2, 3], n=3000 // scale))
    note("msg throughput (nested 8x8 list, pickle lane)")
    nested_payload = [list(range(8)) for _ in range(8)]
    out["msg_throughput_pickle"] = best_of_3(
        lambda: bench_msg_throughput(nested_payload, n=3000 // scale))
    note("lockstep switch rate at np=64")
    # Every switch here is an OS thread handoff, so the quick run cuts
    # the count 50x, not 5x: 64 x 400 switches read the same rate as
    # 64 x 4,000 and take a second instead of ten.
    out["switch_rate_np64"] = best_of_3(
        lambda: bench_switch_rate(tasks=64, k=400 if quick else 20000))
    note("trace emission rate (mem.read, un-muted)")
    out["trace_emit_rate"] = best_of_3(
        lambda: bench_trace_emit(runs=200 // scale))
    note("np=1024 spmd world wall clock")
    out["np1024_spmd_wall_s"] = round(
        bench_np1024_spmd(repeats=1 if quick else 3), 4
    )
    note("per-run setup cost (pool-amortised)")
    out["run_setup_ms"] = round(bench_run_setup(runs=100 // scale), 3)
    topos = [topology] if topology else available_topologies()
    names = "/".join(t or "default" for t in topos)
    note(f"bcast latency at 32 ranks ({names})")
    out["bcast_ms_p32"] = round(
        min(bench_bcast_latency(32, iters=50 // scale, topology=t)
            for t in topos), 3)
    note(f"allreduce latency at 64 ranks ({names})")
    out["allreduce_ms_p64"] = round(
        min(bench_allreduce_latency(64, iters=20 // scale, topology=t)
            for t in topos), 3)
    note("large-np patternlet suite at 64 tasks")
    out["figure_suite_np64_wall_s"] = round(bench_large_np_suite(), 3)
    note("figure self-check")
    out.update(bench_selfcheck(rounds=1 if quick else 3))
    return out


# -- reports and baseline comparison -----------------------------------------


def make_report(metrics: Mapping[str, float], *, quick: bool = False) -> dict:
    """Wrap raw metrics in the versioned report envelope."""
    return {
        "schema": SCHEMA,
        "quick": quick,
        "python": platform.python_version(),
        "metrics": dict(metrics),
    }


def save_report(path: str, report: Mapping[str, Any]) -> None:
    """Write a report as stable, diff-friendly JSON (sorted keys)."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_report(path: str) -> dict:
    """Load a report; a bare ``{metric: value}`` dict is also accepted."""
    with open(path) as fh:
        data = json.load(fh)
    if "metrics" not in data:
        data = {"schema": 0, "metrics": data}
    return data


def compare(
    current: Mapping[str, float],
    baseline: Mapping[str, float],
    *,
    tolerance: float = 0.30,
    on_skip: Callable[[str], None] | None = None,
) -> list[str]:
    """Failure messages for gated metrics that regressed past tolerance.

    Empty list means the check passes.  Metrics missing from either side
    are skipped — a newly added metric has no baseline to regress
    against, and gating on its absence would break every older baseline
    file.  Each skip of a *gated* metric that one side has is reported
    through ``on_skip`` (the CLI prints it as a warning), whether the
    baseline predates it or this run no longer measures it, so a
    silently un-gated metric is visible rather than mistaken for a
    passing check.  When no gated metric is on both sides the check
    compared nothing, and that is a failure: an empty or foreign
    baseline must not read as a pass.
    """
    gated = (*HIGHER_IS_BETTER, *LOWER_IS_BETTER)
    if not any(name in current and name in baseline for name in gated):
        return ["no gated metric is on both sides; nothing was compared"]
    failures: list[str] = []
    for name in gated:
        if name not in current or name not in baseline:
            if on_skip is not None and name in current:
                on_skip(
                    f"{name}: absent from baseline; gate skipped "
                    f"(regenerate the baseline to arm it)"
                )
            elif on_skip is not None and name in baseline:
                on_skip(f"{name}: absent from this run; gate skipped")
            continue
        base = baseline[name]
        if base <= 0:
            continue
        if name in LOWER_IS_BETTER:
            if current[name] > base * (1.0 + tolerance):
                failures.append(
                    f"{name}: {current[name]:.3f}ms is "
                    f"{current[name] / base - 1:.0%} above baseline "
                    f"{base:.3f}ms (tolerance {tolerance:.0%})"
                )
        elif current[name] < base * (1.0 - tolerance):
            failures.append(
                f"{name}: {current[name]:.1f} is {1 - current[name] / base:.0%} "
                f"below baseline {base:.1f} (tolerance {tolerance:.0%})"
            )
    return failures


def format_table(
    current: Mapping[str, float], baseline: Mapping[str, float] | None = None
) -> list[str]:
    """Human-readable metric rows, with deltas when a baseline is given."""
    lines = []
    width = max(len(k) for k in current)
    for name, value in current.items():
        row = f"{name:<{width}}  {value:>12g}"
        if baseline and name in baseline and baseline[name]:
            ratio = value / baseline[name]
            row += f"  ({ratio:.2f}x baseline)"
        lines.append(row)
    return lines
