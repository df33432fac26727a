"""Figures 29-30: atomic vs critical — same balance, different cost.

The paper reports both directives produce the exact 1,000,000 balance but
critical is ~16.5x slower per deposit on their 8-thread machine.  The
reproduction target is the *shape*: both balances exact, ratio > 1 (our
critical is a FIFO ticket lock over a condition variable; our atomic is a
bare lock — the same cheap-vs-general trade the directives make).
"""

from repro.core import run_patternlet


def run_critical2(reps=1500, tasks=4):
    return run_patternlet("openmp.critical2", tasks=tasks, reps=reps, mode="thread")


def test_fig30_balances_exact_and_ratio(benchmark, report_table):
    run = benchmark.pedantic(run_critical2, rounds=1, iterations=1)
    result = run.result
    report_table("Figure 30: critical2.c", run.lines)
    atomic_balance, atomic_time = result["atomic"]
    critical_balance, critical_time = result["critical"]
    assert atomic_balance == critical_balance == float(result["reps"])
    assert result["ratio"] > 1.0


def test_fig30_per_op_costs(benchmark, report_table):
    """Directly benchmark one guarded deposit of each flavour.

    Both loops run under ``muted()``, as the ``openmp.critical2``
    patternlet's do: traced, each deposit of either flavour records the
    same four events, which cost more than the constructs and hide the
    difference.  Each flavour's cost is the median of ``rounds`` rounds,
    and every round is reported so the spread is visible.
    """
    import statistics
    import time

    from repro.smp import SharedCell, SmpRuntime
    from repro.trace import muted

    deposits, rounds = 2000, 5
    rt = SmpRuntime(num_threads=1, mode="thread")
    cell = SharedCell(0.0)

    def region(ctx):
        atomic, critical = [], []
        with muted():
            for _ in range(rounds):
                t0 = time.perf_counter()
                for _ in range(deposits):
                    cell.atomic_add(1.0, ctx)
                atomic.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                for _ in range(deposits):
                    cell.critical_add(1.0, ctx)
                critical.append(time.perf_counter() - t0)
        return atomic, critical

    atomic_rounds, critical_rounds = benchmark.pedantic(
        lambda: rt.parallel(region, num_threads=1).results[0],
        rounds=1,
        iterations=1,
    )
    atomic = statistics.median(atomic_rounds)
    critical = statistics.median(critical_rounds)

    def per_op(walls):
        return ", ".join(f"{w / deposits:.2e}" for w in walls)

    report_table(
        "Figure 30 per-op: uncontended cost of one deposit (muted)",
        [
            f"atomic rounds:   {per_op(atomic_rounds)} s/deposit",
            f"critical rounds: {per_op(critical_rounds)} s/deposit",
            f"atomic:   {atomic / deposits:.3e} s/deposit (median)",
            f"critical: {critical / deposits:.3e} s/deposit (median)",
            f"ratio:    {critical / atomic:.2f}x (paper: 16.5x on 8 cores)",
        ],
    )
    assert critical > atomic
