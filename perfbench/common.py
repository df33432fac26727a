"""Shared pieces of the benchmark: the lab grid, the output reference,
host-noise readings and small statistics.

Nothing here changes what the program does.  The reference is taken
from the serial, uncached ``run_patternlet`` path, so every served or
pooled output can be checked against a run that no cache or pool has
touched.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Iterable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for caches and trace files; removed at the end of a run.
WORK = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
#: Attribute that marks a span wrapper (see ``tracer.py``).
MARK = "__perfbench_span__"

#: Patternlets left out of every workload, and why.
EXCLUDED = {
    "openmp.critical2": "runs real threads and prints wall-clock times, so "
                        "its text is not reproducible",
}
#: Patternlets that only run at some task counts, and why.
NP_ONLY = {
    "mpi.messagePassing2": ((2,), "raises ParallelError at np != 2"),
}
NP_GRID = (2, 4, 8)

#: Entry modules a grader's or instructor's process imports.
ENTRY_MODULES = "repro.cli, repro.batch, repro.serve, repro.patternlets"
#: Per-layer metrics read from the daemon without wrappers (``lab-serve``).
SERVE_METRICS = (
    "serve.handle_ms", "serve.wire_ms",
    "serve.tier.memo", "serve.tier.coalesce", "serve.tier.cache", "serve.tier.execute",
    "serve.counter.executions", "serve.counter.coalesce_hits", "serve.counter.cache_hits",
    "serve.counter.cache_misses", "serve.counter.shed", "serve.counter.deadline_expired",
)


def installed_wrappers() -> list[str]:
    """Names of span wrappers bound anywhere in the ``repro`` package."""
    found = []
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for value in list(vars(module).values()):
            members = vars(value).values() if isinstance(value, type) else (value,)
            found.extend(f"{module.__name__}: {getattr(m, MARK)}"
                         for m in members if hasattr(m, MARK))
    return found


def program_env() -> dict[str, str]:
    """Environment for child processes of the program under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE"] = "1"
    env["REPRO_CACHE_DIR"] = str(WORK / "default-cache")
    return env


# -- the lab grid -------------------------------------------------------------

Cell = tuple  # (patternlet, ((toggle, on), ...), np, seed)


def lab_configs() -> list[tuple[str, tuple, int]]:
    """Every deterministic patternlet x toggle combination x np."""
    from repro.core.registry import all_patternlets

    out = []
    for p in all_patternlets():
        if p.name in EXCLUDED:
            continue
        nps = NP_ONLY.get(p.name, (NP_GRID, ""))[0]
        names = [t.name for t in p.toggles]
        for combo in itertools.product((False, True), repeat=len(names)):
            for np_ in nps:
                out.append((p.name, tuple(zip(names, combo)), np_))
    return out


def cell_spec(cell: Cell):
    from repro.batch import RunSpec

    name, toggles, np_, seed = cell
    return RunSpec.make(name, tasks=np_, toggles=dict(toggles) or None, seed=seed)


def cell_body(cell: Cell) -> bytes:
    """The ``POST /run`` body a student sends for ``cell``."""
    name, toggles, np_, seed = cell
    doc = {"patternlet": name, "np": np_, "seed": seed}
    if toggles:
        doc["toggles"] = dict(toggles)
    return json.dumps(doc).encode()


def reference(cells: Iterable[Cell]) -> dict[Cell, tuple[str, int, Any]]:
    """(text, race count, span) per cell from serial, uncached runs."""
    from repro.core.registry import run_patternlet
    from repro.trace import detect_races

    out = {}
    for cell in cells:
        if cell in out:
            continue
        name, toggles, np_, seed = cell
        run = run_patternlet(name, tasks=np_, toggles=dict(toggles) or None, seed=seed)
        out[cell] = (run.text, len(detect_races(run.trace)), run.span)
    return out


# -- processes ----------------------------------------------------------------

_CLK = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process (0.0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLK


def proc_hwm_mb(pid: int) -> float:
    """Peak resident memory (VmHWM) of a live process, in MB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def pool_processes() -> list:
    """The batch pool's live worker processes (empty when no pool)."""
    from repro.batch import pool as bp

    executor = bp._POOL
    if executor is None or not executor._processes:
        return []
    return list(executor._processes.values())


def stop_pool() -> None:
    """Shut the batch pool down and wait until its workers have exited."""
    from repro.batch import shutdown_pool

    procs = pool_processes()
    shutdown_pool()
    for proc in procs:
        proc.join(60)


def time_import() -> float:
    """Seconds a fresh interpreter takes to import the entry modules."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {ENTRY_MODULES}"],
                   env=program_env(), cwd=ROOT, check=True)
    return time.perf_counter() - t0


def fresh_dir(name: str) -> Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- host noise ---------------------------------------------------------------


def _steal_ticks() -> int:
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


def _calibrate() -> float:
    """Median ms of a fixed pure-Python loop (five samples)."""
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        samples.append((time.perf_counter() - t0) * 1000.0)
    return median(samples)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class HostNoise:
    """Readings that attribute an unsteady run to the host.

    They never adjust a metric.  ``begin``/``end`` bracket one measured
    phase; ``cpu_s`` is filled by the workload with the CPU seconds of
    the program's processes over that phase.
    """

    def __init__(self) -> None:
        self.doc: dict[str, Any] = {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "cpu_model": _cpu_model(),
        }

    def begin(self) -> None:
        self.doc["calibration_ms_before"] = _calibrate()
        self._steal0 = _steal_ticks()
        self._t0 = time.perf_counter()

    def end(self, cpu_s: float) -> None:
        wall = time.perf_counter() - self._t0
        self.doc["steal_ticks"] = _steal_ticks() - self._steal0
        self.doc["program_cpu_s"] = cpu_s
        self.doc["measured_wall_s"] = wall
        self.doc["program_cpu_per_wall"] = cpu_s / wall if wall > 0 else 0.0
        self.doc["calibration_ms_after"] = _calibrate()


# -- statistics ---------------------------------------------------------------


def median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-int(q * len(ordered)) // 100))
    return ordered[min(rank, len(ordered)) - 1]
