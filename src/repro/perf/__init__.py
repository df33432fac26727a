"""Performance-regression harness for the execution engine.

The engine's value is pedagogical *and* quantitative: spans, speedup
curves, and the figure suite all assume the runtime itself is cheap
enough not to drown the effects being taught.  This package measures the
engine's hot paths — message transport, lockstep task switching,
collective latency, and the figure self-check — and compares two reports
taken on one machine, so a refactor that quietly halves throughput shows
up as a failed check instead of shipping.

Use from the command line, before and after a change::

    patternlet bench --quick --out before.json
    patternlet bench --quick --check before.json

or programmatically via :func:`repro.perf.bench.run_benchmarks`.  CI
runs ``benchmarks/perf/ab_gate.py``, which measures the merge-base and
the change in alternating pairs on one runner.
"""

from repro.perf.bench import (
    HIGHER_IS_BETTER,
    compare,
    load_report,
    make_report,
    run_benchmarks,
    save_report,
)

__all__ = [
    "HIGHER_IS_BETTER",
    "compare",
    "load_report",
    "make_report",
    "run_benchmarks",
    "save_report",
]
