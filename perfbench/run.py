"""Run one benchmark workload and print its result as the last line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grade-cold --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same workload untraced and then traced, and
reports the per-layer metrics, including the tracing overhead.  The line
before the result is a JSON record of the run: host-noise readings,
excluded cells, realised serving tiers and counter deltas.  Traced runs
also leave their span files under ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a small grid and one set-up (smoke tests only)")
    return parser.parse_args(argv)


def make_workload(name: str, rng: random.Random, seconds: float, tiny: bool):
    if name == "lab-serve":
        from labserve import LabServe

        return LabServe(rng, seconds, tiny)
    from sweeps import Sweep

    return Sweep(name, rng, seconds, tiny)


def run(args: argparse.Namespace, bench: dict) -> tuple[dict, dict]:
    """(result, record) of one run."""
    from common import EXCLUDED, NP_ONLY, WORK, installed_wrappers, stop_pool

    wl = make_workload(args.workload, random.Random(args.seed), args.seconds, args.tiny)
    record: dict = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "excluded": EXCLUDED,
        "np_only": {k: {"np": v[0], "why": v[1]} for k, v in NP_ONLY.items()},
    }
    runs = []
    phases = record["phase_s"] = {}
    t0 = time.perf_counter()
    try:
        setup = wl.setup()
        phases["setup"] = time.perf_counter() - t0
        runs.append(wl.measure())
        phases["measure"] = time.perf_counter() - t0 - phases["setup"]
        record["untraced"] = wl.record(runs[0])
        if args.trace:
            trace_dir = WORK / "trace"
            wl.start_traced(trace_dir)
            runs.append(wl.measure())
            wl.stop_traced()
            record["traced"] = wl.record(runs[1])
        wl.finish()
        record["wrappers_left"] = installed_wrappers()
        t1 = time.perf_counter()
        check = wl.check(runs)
        phases["check"] = time.perf_counter() - t1
    finally:
        wl.finish()
        stop_pool()
    record["check"] = check
    untraced = wl.metrics(runs[0])
    if args.trace:
        import layers

        docs = layers.load(trace_dir)
        per_layer, summary = layers.aggregate(
            docs, wl.windows(runs[1]), wl.ops(runs[1]), wl.LANE_SPAN)
        traced_ops = wl.metrics(runs[1])["ops_per_s"]
        per_layer.update({k: v for k, v in setup.items() if k != "setup_s"})
        per_layer.update(wl.layer(runs[1]))
        per_layer["trace.overhead_ops_per_s"] = untraced["ops_per_s"] - traced_ops
        per_layer["trace.overhead_share"] = 1.0 - traced_ops / untraced["ops_per_s"]
        record["spans"] = summary
        keep = ROOT / ".perfbench_runs" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
        keep.parent.mkdir(exist_ok=True)
        shutil.move(str(trace_dir), keep)
        record["span_files"] = str(keep.relative_to(ROOT))
        wanted, values = bench["per_layer"], per_layer
    else:
        wanted, values = bench["end_to_end"], {"setup_s": setup["setup_s"], **untraced}
    names = {m["name"] for m in wanted}
    if set(values) != names:
        raise RuntimeError(f"metric mismatch: missing {sorted(names - set(values))}, "
                           f"extra {sorted(set(values) - names)}")
    correct = check["ok"] and not record["wrappers_left"] and check["attempted"] > 0
    result = {
        "correct": correct,
        "attempted": check["attempted"],
        "failed": check["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not bench_file.is_file():
        print(f"error: no program to measure under {ROOT}", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from common import WORK, program_env

    os.environ.update({k: v for k, v in program_env().items()
                       if k.startswith("REPRO_")})
    t0 = time.perf_counter()
    try:
        result, record = run(args, bench)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:
            pass
    record["run_s"] = time.perf_counter() - t0
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
