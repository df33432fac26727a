"""The ``patternlet`` command-line tool.

The classroom front-end: list the collection, show a patternlet's card
(patterns, toggles with their C pragmas, the student exercise), and run
one — scaling tasks, flipping toggles, choosing the executor and seed —
exactly the workflow of the paper's live-coding demos:

    patternlet list
    patternlet list --backend openmp
    patternlet show openmp.barrier
    patternlet run openmp.barrier --tasks 4
    patternlet run openmp.barrier --tasks 4 --on barrier
    patternlet run mpi.deadlock --tasks 4 --mode lockstep --seed 7
    patternlet run mpi.broadcast --np 8 --topology ring
    patternlet sweep openmp.reduction --on parallel_for --seeds 0-15
    patternlet sweep mpi.broadcast --np 2,4,8,16,32 --topology flat,binomial
    patternlet bench --quick --out before.json
    patternlet bench --quick --check before.json
    patternlet catalog

``sweep`` and ``selfcheck`` go through :mod:`repro.batch`: runs fan
across a persistent worker pool (``--jobs``).  ``sweep`` also serves
deterministic runs from the content-addressed run cache (``--no-cache``
or ``REPRO_CACHE=0`` to opt out); ``selfcheck`` always runs live.

``bench`` times the engine itself.  Wall clocks only compare on the
machine that took them, so ``--check`` reads a report that ``--out``
wrote on the same host: measure before a change, then check after it.

MPI runs accept ``--topology`` (communicator algorithm set: ``flat``,
``binomial``, ``ring``, ``hierarchical``; default from the
``REPRO_TOPOLOGY`` env var, else binomial) and ``--network`` (link-cost
profile: ``uniform``, ``hetero2``, ``hetero4``).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from repro._version import __version__
from repro.core.patterns import CATALOG, LAYERS, patterns_by_layer
from repro.core.registry import all_patternlets, get_patternlet, inventory, run_patternlet
from repro.errors import ReproError

__all__ = ["main", "build_parser"]


class _VersionAction(argparse.Action):
    """``--version`` with the engine fingerprint.

    The fingerprint (a hash over the engine sources, the same one the
    run-cache keys embed) is resolved lazily so plain parses never pay
    for it; it makes every version string attributable to an exact
    engine build, matching the header of metrics and report artifacts.
    """

    def __init__(self, option_strings, dest, **kwargs):
        kwargs.setdefault("nargs", 0)
        kwargs.setdefault("help", "show version and engine fingerprint, then exit")
        super().__init__(option_strings, dest, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        from repro.batch.specs import engine_fingerprint

        print(f"{parser.prog} {__version__} (engine {engine_fingerprint()})")
        parser.exit(0)


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for the ``patternlet`` tool (see module docstring)."""
    parser = argparse.ArgumentParser(
        prog="patternlet",
        description="Run and explore the patternlet collection.",
    )
    parser.add_argument("--version", action=_VersionAction, dest="version")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list patternlets (optionally by backend)")
    p_list.add_argument("--backend", choices=("openmp", "mpi", "pthreads", "hybrid"))

    p_show = sub.add_parser("show", help="show one patternlet's card")
    p_show.add_argument("name")

    p_run = sub.add_parser("run", help="run a patternlet")
    p_run.add_argument("name")
    p_run.add_argument("--tasks", "-n", "--np", type=int, default=None,
                       help="thread/process count (default: the patternlet's own)")
    p_run.add_argument("--on", action="append", default=[], metavar="TOGGLE",
                       help="uncomment a toggle (repeatable)")
    p_run.add_argument("--off", action="append", default=[], metavar="TOGGLE",
                       help="comment a toggle out (repeatable)")
    p_run.add_argument("--mode", choices=("thread", "lockstep"), default="lockstep",
                       help="executor: real threads or deterministic lockstep")
    p_run.add_argument("--seed", type=int, default=0, help="lockstep interleaving seed")
    p_run.add_argument("--repeat", type=int, default=1, metavar="N",
                       help="run N times back-to-back (reusing the rank-thread "
                            "pool) and report per-run timing; output shown once")
    p_run.add_argument("--policy", default="random",
                       choices=("random", "roundrobin", "fifo", "lifo"))
    p_run.add_argument("--topology", default=None, metavar="NAME",
                       help="communicator topology for MPI worlds (flat, "
                            "binomial, ring, hierarchical; default: "
                            "$REPRO_TOPOLOGY or binomial)")
    p_run.add_argument("--network", default=None, metavar="PROFILE",
                       help="network cost profile (uniform, hetero2, hetero4)")
    p_run.add_argument("--attribute", action="store_true",
                       help="prefix every line with the task that printed it")
    p_run.add_argument("--detect-races", action="store_true",
                       help="prove (or refute) data races on shared cells "
                            "via happens-before analysis of the run's trace")
    p_run.add_argument("--metrics", action="store_true",
                       help="print the run's metrics as OpenMetrics text")
    p_run.add_argument("--metrics-out", metavar="FILE", default=None,
                       help="write run metrics to FILE (.json for the JSON "
                            "document, anything else for OpenMetrics text)")

    p_trace = sub.add_parser(
        "trace", help="run a patternlet and draw its interleaving timeline"
    )
    p_trace.add_argument("name")
    p_trace.add_argument("--tasks", "-n", "--np", type=int, default=None)
    p_trace.add_argument("--on", action="append", default=[], metavar="TOGGLE")
    p_trace.add_argument("--off", action="append", default=[], metavar="TOGGLE")
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--policy", default="random",
                         choices=("random", "roundrobin", "fifo", "lifo"))
    p_trace.add_argument("--no-legend", action="store_true",
                         help="omit the numbered line legend")
    p_trace.add_argument("--events", action="store_true",
                         help="draw lanes over the full event trace, not "
                              "just the printed lines")
    p_trace.add_argument("--json", action="store_true",
                         help="print the run's trace as Chrome trace-event "
                              "JSON instead of drawing lanes")
    p_trace.add_argument("--out", metavar="FILE", default=None,
                         help="write the Chrome trace-event JSON to FILE "
                              "(open in a trace viewer)")

    p_report = sub.add_parser(
        "report", help="run a patternlet and write a self-contained HTML "
                       "run report (Gantt, message heatmap, blocked time, "
                       "load balance, race verdict)"
    )
    p_report.add_argument("name")
    p_report.add_argument("--tasks", "-n", "--np", type=int, default=None,
                          help="thread/process count (default: the patternlet's own)")
    p_report.add_argument("--on", action="append", default=[], metavar="TOGGLE")
    p_report.add_argument("--off", action="append", default=[], metavar="TOGGLE")
    p_report.add_argument("--seed", type=int, default=0)
    p_report.add_argument("--policy", default="random",
                          choices=("random", "roundrobin", "fifo", "lifo"))
    p_report.add_argument("--out", metavar="FILE", default=None,
                          help="output path (default <name>_report.html)")

    p_source = sub.add_parser(
        "source", help="print a patternlet's source (its module, like cat-ing the .c file)"
    )
    p_source.add_argument("name")

    p_check = sub.add_parser(
        "selfcheck", help="verify the collection reproduces the paper's figures"
    )
    p_check.add_argument("--figure", default=None, help='e.g. "Fig. 9"')
    p_check.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes for the check batch "
                              "(default 1 = in-process)")

    p_sweep = sub.add_parser(
        "sweep", help="run a seeds x tasks grid through the batch runner "
                      "(race scan / exam study / lab grading)"
    )
    p_sweep.add_argument("names", nargs="*", metavar="NAME",
                         help="patternlet ids (default: the deterministic "
                              "figure-suite grid)")
    p_sweep.add_argument("--seeds", default="0-7", metavar="SPEC",
                         help='seed set, e.g. "0-7" or "0,3,11" (default 0-7)')
    p_sweep.add_argument("--tasks", "--np", default=None, metavar="LIST",
                         help='comma-separated task counts, e.g. "2,4,8" '
                              "(default: each patternlet's own)")
    p_sweep.add_argument("--topology", default=None, metavar="LIST",
                         help='comma-separated communicator topologies, e.g. '
                              '"flat,binomial" — crossed with the grid '
                              "(default: $REPRO_TOPOLOGY or binomial)")
    p_sweep.add_argument("--network", default=None, metavar="PROFILE",
                         help="network cost profile for every run "
                              "(uniform, hetero2, hetero4)")
    p_sweep.add_argument("--on", action="append", default=[], metavar="TOGGLE",
                         help="uncomment a toggle for every run (repeatable)")
    p_sweep.add_argument("--off", action="append", default=[], metavar="TOGGLE",
                         help="comment a toggle out for every run (repeatable)")
    p_sweep.add_argument("--policy", default="random",
                         choices=("random", "roundrobin", "fifo", "lifo"))
    p_sweep.add_argument("--jobs", type=int, default=None, metavar="N",
                         help="worker processes (default: auto; REPRO_JOBS "
                              "overrides the auto heuristic)")
    p_sweep.add_argument("--no-cache", action="store_true",
                         help="recompute every run; skip the run cache")
    p_sweep.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="run-cache location (default ~/.cache/repro-runs)")
    p_sweep.add_argument("--per-run", action="store_true",
                         help="print one line per run, not per group")
    p_sweep.add_argument("--quick", action="store_true",
                         help="small canned grid (CI smoke: seeds 0-3)")
    p_sweep.add_argument("--stats-out", metavar="FILE", default=None,
                         help="write batch/cache statistics as JSON")

    p_bench = sub.add_parser(
        "bench", help="measure engine throughput (msgs/s, switches/s, "
                      "collective latency, self-check wall clock)"
    )
    p_bench.add_argument("--quick", action="store_true",
                         help="~5x fewer iterations (CI smoke runs)")
    p_bench.add_argument("--out", metavar="FILE", default=None,
                         help="write results as JSON (a baseline for --check)")
    p_bench.add_argument("--check", metavar="BASELINE", default=None,
                         help="compare against a report written by --out on "
                              "this machine; exit 1 if a gated metric "
                              "regressed more than 30%%")
    p_bench.add_argument("--topology", default=None, metavar="NAME",
                         help="pin the collective-latency benches to one "
                              "communicator topology (default: report the "
                              "fastest per np)")

    p_daemon = sub.add_parser(
        "serve",
        help="run the patternlet service daemon: POST /run and /sweep with "
             "request coalescing and admission control over the shared run "
             "cache (SIGTERM/Ctrl-C drains in-flight runs)",
    )
    p_daemon.add_argument("--host", default="127.0.0.1")
    p_daemon.add_argument("--port", type=int, default=8097,
                          help="listen port (default 8097; 0 = ephemeral)")
    p_daemon.add_argument("--queue-limit", type=_nonnegative_int, default=32,
                          metavar="N",
                          help="admitted executions that may wait behind the "
                               "running one before 429 shedding (default 32)")
    p_daemon.add_argument("--deadline-ms", type=_positive_float,
                          default=10_000.0,
                          help="max milliseconds an admitted execution may "
                               "queue before 503 (default 10000)")
    p_daemon.add_argument("--no-cache", action="store_true",
                          help="bypass the run cache (every distinct request "
                               "executes; identical concurrent requests still "
                               "coalesce)")
    p_daemon.add_argument("--cache-dir", default=None, metavar="DIR",
                          help="run-cache root (default: REPRO_CACHE_DIR or "
                               "~/.cache/repro-runs)")
    p_daemon.add_argument("--max-cells", type=_positive_int, default=256,
                          metavar="N",
                          help="largest grid one POST /sweep may expand to "
                               "(default 256)")
    p_daemon.add_argument("--drain-timeout", type=_nonnegative_float,
                          default=10.0, metavar="S",
                          help="seconds shutdown waits for in-flight runs "
                               "(default 10)")

    p_quiz = sub.add_parser(
        "quiz", help="print the four-question parallel-week exam (and, with --key, its computed answers)"
    )
    p_quiz.add_argument("--key", action="store_true", help="show the autograded answer key")

    sub.add_parser("catalog", help="print the design-pattern catalog by layer")
    sub.add_parser("inventory", help="print collection counts per backend")
    return parser


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _cmd_list(backend: str | None) -> int:
    for p in all_patternlets(backend):
        toggles = ",".join(t.name for t in p.toggles) or "-"
        print(f"{p.name:35s} [{p.backend:8s}] toggles: {toggles:24s} {p.summary}")
    return 0


def _cmd_show(name: str) -> int:
    p = get_patternlet(name)
    print(f"{p.name} ({p.backend})")
    print(f"  {p.summary}")
    print(f"  patterns: {', '.join(p.patterns)}")
    if p.figures:
        print(f"  reproduces: {', '.join(p.figures)}")
    print(f"  default tasks: {p.default_tasks}")
    if p.toggles:
        print("  toggles:")
        for t in p.toggles:
            state = "on" if t.default else "off"
            print(f"    {t.name} (default {state}): {t.description}")
            print(f"      C site: {t.pragma}")
    print("  exercise:")
    print(f"    {p.exercise}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    toggles = {name: True for name in args.on}
    toggles.update({name: False for name in args.off})
    repeat = max(1, args.repeat)
    # ``network`` rides in extras only when explicitly requested, so runs
    # that never name one keep their historical cache keys.
    extra = {"network": args.network} if args.network else {}
    t0 = time.perf_counter()
    for _ in range(repeat):
        run = run_patternlet(
            args.name,
            tasks=args.tasks,
            toggles=toggles or None,
            mode=args.mode,
            seed=args.seed,
            policy=args.policy,
            topology=args.topology,
            **extra,
        )
    elapsed = time.perf_counter() - t0
    if repeat > 1:
        print(
            f"(repeat: {repeat} runs in {elapsed:.3f}s, "
            f"{elapsed / repeat * 1000:.2f} ms/run)",
            file=sys.stderr,
        )
    if args.attribute:
        for label, line in run.records:
            print(f"[{label:12s}] {line}")
    else:
        print(run.text)
    if run.span is not None:
        print(f"(virtual span: {run.span:g} work units; wall: {run.wall:.4f}s)",
              file=sys.stderr)
    if args.metrics or args.metrics_out:
        from repro.obs import metrics_dict, run_metrics

        as_json = bool(args.metrics_out) and args.metrics_out.endswith(".json")
        text = (
            run_metrics(run).to_openmetrics()
            if args.metrics or not as_json
            else ""
        )
        if args.metrics:
            print(text, end="")
        if args.metrics_out:
            import json

            try:
                with open(args.metrics_out, "w", encoding="utf-8") as fh:
                    if as_json:
                        json.dump(metrics_dict(run), fh, indent=1, sort_keys=True)
                        fh.write("\n")
                    else:
                        fh.write(text)
            except OSError as exc:
                print(f"error: cannot write {args.metrics_out}: {exc}",
                      file=sys.stderr)
                return 1
            print(f"wrote {args.metrics_out}", file=sys.stderr)
    if args.detect_races:
        from repro.trace import detect_races, race_summary

        races = detect_races(run.trace)
        print()
        print(race_summary(races))
        return 2 if races else 0
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.timeline import render_events, render_run

    toggles = {name: True for name in args.on}
    toggles.update({name: False for name in args.off})
    run = run_patternlet(
        args.name,
        tasks=args.tasks,
        toggles=toggles or None,
        mode="lockstep",
        seed=args.seed,
        policy=args.policy,
    )
    if args.json or args.out:
        from repro.trace import dumps, write_chrome_trace

        if args.out:
            try:
                count = write_chrome_trace(args.out, run.trace)
            except OSError as exc:
                print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
                return 1
            print(f"wrote {count} events to {args.out}")
        else:
            print(dumps(run.trace, indent=2))
        return 0
    if args.events:
        print(render_events(run.trace, legend=not args.no_legend))
    else:
        print(render_run(run, legend=not args.no_legend))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import write_report

    toggles = {name: True for name in args.on}
    toggles.update({name: False for name in args.off})
    run = run_patternlet(
        args.name,
        tasks=args.tasks,
        toggles=toggles or None,
        mode="lockstep",
        seed=args.seed,
        policy=args.policy,
    )
    out = args.out
    if out is None:
        slug = args.name.replace("/", ".").replace(".", "_")
        out = f"{slug}_report.html"
    try:
        write_report(run, out)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {out}")
    return 0


def _cmd_source(name: str) -> int:
    import importlib
    import inspect

    p = get_patternlet(name)
    module = importlib.import_module(p.source)
    print(inspect.getsource(module), end="")
    return 0


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    from repro.core.selfcheck import run_selfcheck

    results = run_selfcheck(only=args.figure, jobs=args.jobs)
    if not results:
        print(f"error: unknown figure {args.figure!r}", file=sys.stderr)
        return 1
    width = max(len(r.figure) for r in results)
    failures = 0
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        failures += 0 if r.passed else 1
        print(f"{r.figure:<{width}}  {mark}  {r.description}  [{r.detail}]")
    print(f"\n{len(results) - failures}/{len(results)} figure checks passed")
    return 0 if failures == 0 else 1


def _parse_seed_spec(spec: str) -> list[int]:
    seeds: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if "-" in part[1:]:  # "0-7" (but allow a lone negative number)
            lo, hi = part.split("-", 1) if not part.startswith("-") else (part, part)
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json

    from repro.batch import RunSpec, figure_suite_specs, run_specs

    try:
        seeds = _parse_seed_spec(args.seeds)
    except ValueError:
        print(f"error: bad --seeds spec {args.seeds!r}", file=sys.stderr)
        return 1
    if args.quick:
        seeds = [s for s in seeds if s < 4] or [0, 1, 2, 3]

    toggles = {name: True for name in args.on}
    toggles.update({name: False for name in args.off})
    topologies: list[str | None]
    if args.topology:
        topologies = [t.strip() for t in args.topology.split(",") if t.strip()]
        from repro.mp.communicators import available_topologies

        known = available_topologies()
        bad = [t for t in topologies if t not in known]
        if bad:
            print(f"error: unknown topology {', '.join(bad)} "
                  f"(available: {', '.join(known)})", file=sys.stderr)
            return 1
    else:
        topologies = [None]
    extra = {"network": args.network} if args.network else {}
    if args.names:
        task_counts: list[int | None]
        if args.tasks:
            try:
                task_counts = [int(t) for t in args.tasks.split(",")]
            except ValueError:
                print(f"error: bad --tasks list {args.tasks!r}", file=sys.stderr)
                return 1
        else:
            task_counts = [None]
        specs = [
            RunSpec.make(name, tasks=tasks, toggles=toggles or None,
                         seed=seed, policy=args.policy, topology=topo, **extra)
            for name in args.names
            for tasks in task_counts
            for topo in topologies
            for seed in seeds
        ]
    else:
        specs = figure_suite_specs(seeds=seeds)
        if args.topology or args.network:
            import dataclasses

            specs = [
                dataclasses.replace(
                    s,
                    topology=topo,
                    extra=tuple(sorted({**s.extra_dict, **extra}.items())),
                )
                for s in specs
                for topo in topologies
            ]

    report = run_specs(
        specs,
        max_workers=args.jobs,
        use_cache=False if args.no_cache else None,
        cache_dir=args.cache_dir,
    )

    if args.per_run:
        for o in report.outcomes:
            status = "ERROR" if o.error else ("hit " if o.cached else "run ")
            races = f"races={o.races}" if not o.error else o.error
            span = f"span={o.span:g}" if o.span is not None else "span=-"
            print(f"{status} {o.spec.label():48s} {races:12s} {span}")
    else:
        # One line per (patternlet, tasks, toggles, topology) group: the
        # seed scan's verdict — how many seeds raced, how many distinct
        # outputs.
        groups: dict[tuple, list] = {}
        for o in report.outcomes:
            g = (o.spec.patternlet, o.spec.tasks, o.spec.toggles, o.spec.topology)
            groups.setdefault(g, []).append(o)
        for (name, tasks, tgl, topo), outs in groups.items():
            label = name + (f" np={tasks}" if tasks is not None else "")
            for t, on in tgl:
                label += f" {t}={'on' if on else 'off'}"
            if topo is not None:
                label += f" topo={topo}"
            racy = sum(1 for o in outs if o.races > 0)
            distinct = len({o.text for o in outs})
            hits = sum(1 for o in outs if o.cached)
            errors = sum(1 for o in outs if o.error)
            line = (f"{label:56s} seeds={len(outs):<3d} "
                    f"distinct-outputs={distinct:<3d} racy-seeds={racy}/{len(outs)} "
                    f"cached={hits}/{len(outs)}")
            if errors:
                line += f" ERRORS={errors}"
            print(line)

    stats = report.stats()
    tail = f", {stats['workers']} workers" if stats["pooled"] else ", in-process"
    print(
        f"\n{stats['runs']} runs in {stats['wall_s']:.3f}s "
        f"({stats['throughput_runs_s']:.0f} runs/s) — "
        f"cache hits {stats['hits']}/{stats['runs']} "
        f"(hit rate {stats['hit_rate']:.0%})" + tail,
        file=sys.stderr,
    )
    if args.stats_out:
        try:
            with open(args.stats_out, "w") as fh:
                json.dump(stats, fh, indent=1, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            print(f"error: cannot write {args.stats_out}: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {args.stats_out}", file=sys.stderr)
    return 1 if report.errors else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf.bench import (
        compare,
        format_table,
        load_report,
        make_report,
        run_benchmarks,
        save_report,
    )

    def note(msg: str) -> None:
        print(f"  ... {msg}", file=sys.stderr)

    print(f"running engine benchmarks ({'quick' if args.quick else 'full'})",
          file=sys.stderr)
    metrics = run_benchmarks(quick=args.quick, progress=note,
                             topology=args.topology)

    baseline = None
    if args.check:
        try:
            baseline = load_report(args.check)["metrics"]
        except OSError as exc:
            print(f"error: cannot read baseline {args.check}: {exc}",
                  file=sys.stderr)
            return 1
    for line in format_table(metrics, baseline):
        print(line)

    if args.out:
        try:
            save_report(args.out, make_report(metrics, quick=args.quick))
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {args.out}", file=sys.stderr)

    if baseline is not None:
        failures = compare(
            metrics,
            baseline,
            on_skip=lambda msg: print(f"warning: {msg}", file=sys.stderr),
        )
        if failures:
            print("\nPERF CHECK FAILED:", file=sys.stderr)
            for f in failures:
                print(f"  {f}", file=sys.stderr)
            return 1
        print("\nperf check passed (tolerance 30%)", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ServeConfig, serve_forever

    cfg = ServeConfig(
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        deadline_ms=args.deadline_ms,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        max_cells=args.max_cells,
        drain_timeout_s=args.drain_timeout,
    )

    def announce(url: str) -> None:
        print(f"patternlet daemon serving at {url} "
              f"(cache={'on' if cfg.use_cache else 'off'}; "
              "SIGTERM/Ctrl-C drains and exits)", file=sys.stderr)

    try:
        clean = asyncio.run(serve_forever(cfg, announce=announce))
    except OSError as exc:
        print(f"error: cannot bind {cfg.host}:{cfg.port}: {exc}",
              file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 0
    if not clean:
        print("warning: drain timed out with runs still in flight",
              file=sys.stderr)
        return 1
    return 0


def _cmd_quiz(show_key: bool) -> int:
    from repro.education.quiz import EXAM, correct_answers

    key = correct_answers() if show_key else None
    for qno, q in enumerate(EXAM, start=1):
        print(f"Q{qno} [{q.topic}]")
        print(f"  {q.prompt}")
        for i, choice in enumerate(q.choices):
            marker = "*" if key is not None and key[qno - 1] == i else " "
            print(f"   {marker} ({chr(ord('a') + i)}) {choice}")
        print()
    if key is None:
        print("(answers: patternlet quiz --key — every answer is computed")
        print(" live from the runtime, so the key cannot rot)")
    return 0


def _cmd_catalog() -> int:
    for layer in LAYERS:
        print(f"== {layer} ==")
        for pat in patterns_by_layer(layer):
            alias = ""
            if pat.opl_name or pat.uiuc_name:
                names = [n for n in (pat.uiuc_name, pat.opl_name) if n]
                alias = f" (a.k.a. {', '.join(names)})"
            print(f"  {pat.name}{alias}")
            print(f"    {pat.description}")
    print(f"({len(CATALOG)} patterns catalogued)")
    return 0


def _cmd_inventory() -> int:
    inv = inventory()
    for backend in ("openmp", "mpi", "pthreads", "hybrid"):
        print(f"{backend:10s} {inv[backend]:3d}")
    print(f"{'total':10s} {inv['total']:3d}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point: parse, dispatch, translate ReproError to exit code 1."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args.backend)
        if args.command == "show":
            return _cmd_show(args.name)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "source":
            return _cmd_source(args.name)
        if args.command == "selfcheck":
            return _cmd_selfcheck(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "quiz":
            return _cmd_quiz(args.key)
        if args.command == "catalog":
            return _cmd_catalog()
        if args.command == "inventory":
            return _cmd_inventory()
        raise AssertionError(f"unhandled command {args.command}")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
