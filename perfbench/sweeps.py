"""``grade-cold`` and ``grade-warm``: a grader sweeping the lab grid.

Both drive ``repro.batch.run_specs`` with its default worker count, as
``patternlet sweep`` does.  A measured pass is one sweep of the whole
grid; passes repeat until ``--seconds`` of pass time has been measured.

- ``grade-cold``: every pass sweeps into a fresh, private cache
  directory, so every cell executes and is stored.  The pool is started
  in set-up and kept, as one sweep process keeps it.
- ``grade-warm``: set-up fills one cache directory with the grid; every
  pass then starts fresh pool workers (as a second ``patternlet sweep``
  process would), so every cell is a disk hit and no decoded-record memo
  carries over from an earlier pass.
"""

from __future__ import annotations

import os
import shutil
import time
from pathlib import Path
from typing import Any

from common import (
    SERVE_METRICS,
    HostNoise,
    cell_spec,
    fresh_dir,
    lab_configs,
    median,
    percentile,
    pool_processes,
    proc_cpu_s,
    proc_hwm_mb,
    reference,
    stop_pool,
    time_import,
)

#: Cells per configuration: 173 configurations x 2 = 346 cells per pass.
GRID_SEEDS = 2
#: Passes per latency chunk (see ``Sweep.metrics``).
CHUNK_PASSES = 3


def build_grid(rng, tiny: bool) -> list[tuple]:
    """Every configuration at ``GRID_SEEDS`` lockstep seeds, in seeded order.

    Each cell draws its own lockstep seed, so the cost of one unlucky
    interleaving averages out over the grid instead of repeating in
    every configuration.
    """
    configs = lab_configs()
    if tiny:
        configs = configs[::12]
    cells = [cfg + (rng.randrange(1 << 20),) for _ in range(GRID_SEEDS) for cfg in configs]
    rng.shuffle(cells)
    return cells


class Sweep:
    def __init__(self, kind: str, rng, seconds: float, tiny: bool) -> None:
        self.kind = kind
        self.seconds = seconds
        self.cells = build_grid(rng, tiny)
        self.specs = [cell_spec(c) for c in self.cells]
        self.reps = 1 if tiny else 3
        self.noise = HostNoise()
        self.warm_dir = None
        self._pass_no = 0

    # -- set-up ----------------------------------------------------------------

    def setup_pool(self) -> float:
        """Start the sweep's worker pool; returns the seconds it took."""
        from repro.batch import default_workers, map_calls

        workers = default_workers(len(self.specs))
        t0 = time.perf_counter()
        map_calls(abs, range(workers), max_workers=workers, use_cache=False)
        return time.perf_counter() - t0

    def setup(self) -> dict[str, float]:
        """Set up ``reps`` times; the last set-up serves the measured phase.

        Cold: import, then pool start (``setup.boot_s``).  Warm: import,
        then a full sweep that fills a fresh cache (``setup.prime_s``).
        """
        from repro.batch import run_specs

        totals, imports, boots, primes = [], [], [], []
        for rep in range(self.reps):
            imp = time_import()
            boot = prime = 0.0
            stop_pool()
            if self.kind == "grade-cold":
                boot = self.setup_pool()
            else:
                if self.warm_dir is not None:
                    shutil.rmtree(self.warm_dir, ignore_errors=True)
                self.warm_dir = fresh_dir(f"warm-{rep}")
                t0 = time.perf_counter()
                report = run_specs(self.specs, use_cache=True, cache_dir=str(self.warm_dir))
                stop_pool()
                prime = time.perf_counter() - t0
                if report.errors or report.hits:
                    raise RuntimeError("cache fill did not execute every cell cleanly")
            imports.append(imp)
            boots.append(boot)
            primes.append(prime)
            totals.append(imp + boot + prime)
        return {
            "setup_s": median(totals),
            "setup.import_s": median(imports),
            "setup.boot_s": median(boots),
            "setup.prime_s": median(primes),
        }

    # -- measured phase --------------------------------------------------------

    def measure(self) -> dict[str, Any]:
        """Sweep passes for ``seconds``; returns raw pass results."""
        from repro.batch import run_specs

        passes = []
        measured = 0.0
        cpu = 0.0
        peak = 0.0
        self.noise.begin()
        while measured < self.seconds or not passes:
            if self.kind == "grade-cold":
                self._pass_no += 1
                cache_dir = fresh_dir(f"cold-{self._pass_no}")
                workers_before = {p.pid: proc_cpu_s(p.pid) for p in pool_processes()}
            else:
                cache_dir = self.warm_dir
                stop_pool()
                workers_before = {}
            cpu0 = time.process_time()
            t0 = time.perf_counter_ns()
            report = run_specs(self.specs, use_cache=True, cache_dir=str(cache_dir))
            t1 = time.perf_counter_ns()
            cpu += time.process_time() - cpu0
            procs = pool_processes()
            for proc in procs:
                cpu += proc_cpu_s(proc.pid) - workers_before.get(proc.pid, 0.0)
            peak = max(peak, proc_hwm_mb(os.getpid()) + sum(proc_hwm_mb(p.pid) for p in procs))
            passes.append({
                "t0": t0, "t1": t1, "workers": report.workers,
                "outcomes": [(o.error, o.text, o.races, o.span, o.cached)
                             for o in report.outcomes],
            })
            measured += (t1 - t0) / 1e9
            if self.kind == "grade-cold":
                shutil.rmtree(cache_dir, ignore_errors=True)
        self.noise.end(cpu)
        return {"passes": passes, "peak_rss_mb": peak}

    def finish(self) -> None:
        stop_pool()

    # -- the traced phase ------------------------------------------------------

    #: Span whose threads are the execution lanes (see ``layers.aggregate``).
    LANE_SPAN = "batch.entry"

    def start_traced(self, trace_dir: Path) -> None:
        """Install the wrappers; workers forked from now on inherit them."""
        import tracer

        stop_pool()
        tracer.install(trace_dir)
        if self.kind == "grade-cold":
            self.setup_pool()

    def stop_traced(self) -> None:
        """Let the workers write their spans, then remove the wrappers."""
        import tracer

        stop_pool()
        tracer.flush()
        tracer.uninstall()

    def layer(self, run: dict[str, Any]) -> dict[str, float]:
        """Per-layer numbers visible without wrappers: the daemon's, so 0."""
        return dict.fromkeys(SERVE_METRICS, 0.0)

    # -- checks and metrics ----------------------------------------------------

    def check(self, runs: list[dict[str, Any]]) -> dict[str, Any]:
        """Compare every outcome of every pass with the serial reference."""
        ref = reference(self.cells)
        attempted = failed = 0
        mismatches: list[str] = []
        wrong_tier = 0
        want_cached = self.kind == "grade-warm"
        for run in runs:
            for p in run["passes"]:
                for cell, (error, text, races, span, cached) in zip(self.cells, p["outcomes"]):
                    attempted += 1
                    if cached != want_cached:
                        wrong_tier += 1
                    if error is not None or (text, races, span) != ref[cell]:
                        failed += 1
                        if len(mismatches) < 5:
                            mismatches.append(f"{cell}: {error or 'output differs'}")
        return {"attempted": attempted, "failed": failed, "mismatches": mismatches,
                "wrong_tier": wrong_tier, "ok": failed == 0 and wrong_tier == 0}

    def metrics(self, run: dict[str, Any]) -> dict[str, float]:
        """Medians over passes; p99 as the median over chunks of
        ``CHUNK_PASSES`` consecutive passes of each chunk's p99 (its
        slowest pass), so one pass caught by a host stall does not set it.
        """
        n = len(self.cells)
        walls = [(p["t1"] - p["t0"]) / 1e9 for p in run["passes"]]
        chunks = [walls[i:i + CHUNK_PASSES]
                  for i in range(0, len(walls) - CHUNK_PASSES + 1, CHUNK_PASSES)]
        return {
            "ops_per_s": median([n / w for w in walls]),
            "p50_ms": median(walls) * 1000.0,
            "p99_ms": median([percentile(c, 99) for c in chunks or [walls]]) * 1000.0,
            "peak_rss_mb": run["peak_rss_mb"],
        }

    def record(self, run: dict[str, Any]) -> dict[str, Any]:
        walls = [(p["t1"] - p["t0"]) / 1e9 for p in run["passes"]]
        return {
            "cells_per_pass": len(self.cells),
            "passes": len(walls),
            "pass_walls_s": walls,
            "workers": run["passes"][0]["workers"],
            "host": self.noise.doc,
        }

    def windows(self, run: dict[str, Any]) -> list[tuple[int, int, int]]:
        """(start ns, end ns, lanes) of every measured pass."""
        return [(p["t0"], p["t1"], p["workers"]) for p in run["passes"]]

    def ops(self, run: dict[str, Any]) -> int:
        return len(self.cells) * len(run["passes"])

