"""Same-host A/B perf gate: this tree against a base tree.

Usage (from the repository root)::

    git worktree add --detach .ab-base "$(git merge-base HEAD origin/main)"
    python benchmarks/perf/ab_gate.py .ab-base

Wall-clock numbers only compare on the machine that took them, so the
gate measures both trees here, in :data:`PAIRS` alternating pairs: the
side that runs first alternates from pair to pair, and pair *i* runs
perfbench at seed *i* on both sides.  Each side of a pair runs

- ``patternlet bench --quick --out`` (the engine microbenches), and
- ``perfbench/run.py`` ``grade-cold``, ``grade-warm`` and ``lab-serve``
  at ``--trace 0`` for :data:`SECONDS` measured seconds each.

This tree's ``perfbench/`` and ``BENCHMARK.json`` are first copied into
the base tree, so both sides run identical benchmark code.

The gate fails (exit 1) when a per-side median regresses past its bound
— the engine gates through :func:`repro.perf.bench.compare` at 30%, the
perfbench metrics of :data:`PERFBENCH_GATES` at the bound and direction
``BENCHMARK.json`` declares — or when any perfbench run is not
``correct`` or reports a failed operation.  The table of medians, each
pair's values for every perfbench gate, and the verdict go to standard
output, progress to standard error.  Every side's raw results, pair by
pair, are rewritten to :data:`PAIRS_FILE` in the working directory as
each run finishes, so a failed gate can be traced to the pair that
moved it even when a later run fails.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HEAD = Path(__file__).resolve().parents[2]
if str(HEAD / "src") not in sys.path:
    sys.path.insert(0, str(HEAD / "src"))

from repro.perf.bench import HIGHER_IS_BETTER, LOWER_IS_BETTER, compare  # noqa: E402

#: Alternating pairs per gate run.
PAIRS = 6
#: Measured seconds of each perfbench run.
SECONDS = 5
#: Longest any one benchmark command may take before the gate fails.
TIMEOUT_S = 900
WORKLOADS = ("grade-cold", "grade-warm", "lab-serve")
#: Per-pair raw results, written to the working directory.
PAIRS_FILE = "ab-gate-pairs.json"

#: The perfbench metrics this gate holds, each with the ``patternlet
#: bench`` gate it replaced (which timed the same path with its own
#: client swarm or batch grid), or ``None`` where no bench gate timed
#: the path: grade-cold's execute path (runs, transport, recording).
PERFBENCH_GATES = {
    ("lab-serve", "ops_per_s"): "served_runs_s",
    ("lab-serve", "p50_ms"): "serve_p50_ms",
    ("lab-serve", "p99_ms"): "serve_p99_ms",
    ("grade-warm", "ops_per_s"): "batch_throughput_runs_s",
    ("grade-cold", "ops_per_s"): None,
}
#: Largest engine-gate regression ``compare`` lets through.
ENGINE_BOUND = 0.30


class GateError(RuntimeError):
    """A benchmark command failed, so one side has no numbers."""


def _run(argv: list[str], tree: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    try:
        proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise GateError(f"{' '.join(argv)} in {tree} ran past "
                        f"{TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise GateError(f"{' '.join(argv)} in {tree} exited "
                        f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def measure(tree: Path, seed: int, out: Path) -> dict:
    """One side of one pair: engine metrics and perfbench results."""
    _run([sys.executable, "-m", "repro.cli", "bench", "--quick",
          "--out", str(out)], tree)
    side = {"engine": json.loads(out.read_text())["metrics"]}
    for workload in WORKLOADS:
        stdout = _run([sys.executable, "perfbench/run.py",
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(SECONDS), "--trace", "0"], tree)
        side[workload] = json.loads(stdout.splitlines()[-1])
    return side


def perfbench_gates(
        bench_doc: dict) -> list[tuple[str, str, str | None, str, float]]:
    """``(workload, metric, retired gate or None, better, bound)`` per
    perfbench gate, with direction and bound read from ``BENCHMARK.json``."""
    specs = {m["name"]: m for m in bench_doc["end_to_end"]}
    return [(workload, metric, retired, specs[metric]["better"],
             specs[metric]["bound"])
            for (workload, metric), retired in PERFBENCH_GATES.items()]


def _median(values) -> float | None:
    present = [v for v in values if v is not None]
    return statistics.median(present) if present else None


def _limit(better: str, bound: float) -> float:
    """The worst head/base ratio a gate allows."""
    return 1.0 - bound if better == "higher" else 1.0 + bound


def verdict(head: list[dict], base: list[dict],
            bench_doc: dict) -> tuple[list[str], list[str]]:
    """``(table lines, failures)`` for the per-pair results of each side."""
    failures: list[str] = []
    for side, runs in (("head", head), ("base", base)):
        for pair, run in enumerate(runs):
            for workload in WORKLOADS:
                result = run[workload]
                if not result["correct"] or result["failed"]:
                    failures.append(
                        f"{workload} pair {pair} ({side}): correct="
                        f"{result['correct']}, failed={result['failed']}")

    # (name, base median, head median, better, bound, ok) per table row.
    rows: list[tuple] = []
    names = list(dict.fromkeys(n for run in head for n in run["engine"]))
    h_engine = {n: _median(r["engine"].get(n) for r in head) for n in names}
    b_engine = {n: _median(r["engine"].get(n) for r in base) for n in names}
    b_engine = {n: v for n, v in b_engine.items() if v is not None}
    engine_failures = compare(h_engine, b_engine, tolerance=ENGINE_BOUND)
    failures += engine_failures
    failed = {f.split(":", 1)[0] for f in engine_failures}
    for name in names:
        better = ("higher" if name in HIGHER_IS_BETTER else
                  "lower" if name in LOWER_IS_BETTER else None)
        rows.append((name, b_engine.get(name), h_engine[name], better,
                     ENGINE_BOUND if better else None, name not in failed))
    for workload, metric, retired, better, bound in perfbench_gates(bench_doc):
        h = _median(r[workload]["metrics"][metric]["value"] for r in head)
        b = _median(r[workload]["metrics"][metric]["value"] for r in base)
        name = f"{workload} {metric}" + (f" (was {retired})" if retired
                                         else "")
        worse = (h < b * (1 - bound)) if better == "higher" else \
            (h > b * (1 + bound))
        if worse:
            failures.append(f"{name}: {h:.4g} against base {b:.4g} "
                            f"(bound {bound:.0%}, {better} is better)")
        rows.append((name, b, h, better, bound, not worse))
    return _table(rows), failures


def pair_lines(head: list[dict], base: list[dict],
               bench_doc: dict) -> list[str]:
    """Each pair's base and head value for every perfbench gate row."""
    lines = ["per pair, base -> head (head runs first in pairs 1, 3, 5, ...):"]
    for workload, metric, _, _, _ in perfbench_gates(bench_doc):
        values = [f"{_fmt(b[workload]['metrics'][metric]['value'])} -> "
                  f"{_fmt(h[workload]['metrics'][metric]['value'])}"
                  for h, b in zip(head, base)]
        lines.append(f"  {workload} {metric}: " + " | ".join(values))
    return lines


def write_pairs(path: Path, head: Path, base: Path, pairs: list[dict]) -> None:
    """Write every side's raw results so far, pair by pair."""
    doc = {"head": str(head), "base": str(base), "seconds": SECONDS,
           "pairs": pairs}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _fmt(value: float | None) -> str:
    if value is None:
        return "-"
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def _table(rows: list[tuple]) -> list[str]:
    width = max(len(row[0]) for row in rows)
    lines = [f"{'metric':<{width}}  {'base':>12}  {'head':>12}  "
             f"{'head/base':>9}  limit"]
    worst: tuple[float, str] | None = None
    for name, b, h, better, bound, ok in rows:
        ratio = h / b if b and h is not None else None
        shown = "-" if ratio is None else f"{ratio:.3f}"
        line = f"{name:<{width}}  {_fmt(b):>12}  {_fmt(h):>12}  {shown:>9}"
        if bound is not None:
            limit = _limit(better, bound)
            sign = ">=" if better == "higher" else "<="
            # compare() skips a gate that one side does not measure.
            state = "FAIL" if not ok else "skipped" if ratio is None else "ok"
            line += f"  {sign}{limit:.2f}  {state}"
            if ratio:
                room = ratio / limit if better == "higher" else limit / ratio
                if worst is None or room < worst[0]:
                    worst = (room, f"{name} at {ratio:.3f} (limit {limit:.2f})")
        lines.append(line)
    if worst is not None:
        lines.append(f"worst gated head/base: {worst[1]}")
    return lines


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python benchmarks/perf/ab_gate.py BASE_TREE",
              file=sys.stderr)
        return 2
    base = Path(args[0]).resolve()
    if not (base / "src" / "repro").is_dir() or base == HEAD:
        print(f"error: {base} is not a second tree of this program",
              file=sys.stderr)
        return 2
    shutil.rmtree(base / "perfbench", ignore_errors=True)
    shutil.copytree(HEAD / "perfbench", base / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(HEAD / "BENCHMARK.json", base / "BENCHMARK.json")
    bench_doc = json.loads((HEAD / "BENCHMARK.json").read_text())

    runs: dict[str, list[dict]] = {"head": [], "base": []}
    pairs: list[dict] = []
    pairs_file = Path(PAIRS_FILE).resolve()
    trees = [("head", HEAD), ("base", base)]
    with tempfile.TemporaryDirectory(prefix="ab-gate-") as scratch:
        for pair in range(PAIRS):
            order = trees if pair % 2 == 0 else trees[::-1]
            record = {"pair": pair + 1, "seed": pair,
                      "first": order[0][0]}
            pairs.append(record)
            for side, tree in order:
                print(f"pair {pair + 1}/{PAIRS}: {side}", file=sys.stderr)
                try:
                    record[side] = measure(
                        tree, pair, Path(scratch) / f"{side}-{pair}.json")
                except GateError as exc:
                    print(f"A/B GATE FAILED: {exc}")
                    return 1
                runs[side].append(record[side])
                write_pairs(pairs_file, HEAD, base, pairs)
    lines, failures = verdict(runs["head"], runs["base"], bench_doc)
    print(f"A/B of {HEAD} (head) against {base} (base): median of "
          f"{PAIRS} alternating pairs")
    print("\n".join(lines))
    print("\n".join(pair_lines(runs["head"], runs["base"], bench_doc)))
    print(f"raw results per pair: {pairs_file}")
    if failures:
        print("\nA/B GATE FAILED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("\nA/B gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
