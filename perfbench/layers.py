"""Per-layer metrics from the span files a traced run writes.

Each file holds one process's spans and counts (see ``tracer.py``).
Only spans that start inside a measured window count; the counts cover
the traced phase, in which the program does nothing but the measured
work.  A layer's self time is its span minus the part of that interval
its child spans cover.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Any

#: Spans that wrap one operation on an execution lane rather than a
#: layer: the pool worker's call (and the serve lane's, which runs the
#: same function).
ENVELOPE = "batch.entry"
LANES = ("ref", "cow-flat", "cow", "buffer", "pickle", "cow-move")


def load(trace_dir: Path) -> list[dict[str, Any]]:
    return [json.loads(p.read_text()) for p in sorted(trace_dir.glob("spans-*.json"))]


def _union(intervals: list[tuple[int, int]]) -> int:
    total = 0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def aggregate(docs: list[dict[str, Any]], windows: list[tuple[int, int, int]],
              ops: int, lane_span: str) -> tuple[dict[str, float], dict[str, Any]]:
    """(per-layer metrics, per-span summary) over the measured windows.

    ``lane_span`` names the span whose threads are the execution lanes
    (``batch.entry`` for pool workers, ``serve.run`` for the daemon's
    event loop); unattributed time is lane time not covered by any
    top-level layer span on those threads.
    """
    def clip(t0: int, t1: int) -> tuple[int, int] | None:
        for a, b, _ in windows:
            if a <= t0 <= b:
                return t0, min(t1, b)
        return None

    lane_ns = sum((b - a) * lanes for a, b, lanes in windows)
    durations: dict[tuple[str, str | None], list[int]] = defaultdict(list)
    self_ns: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    spawned = 0
    lane_threads: set[tuple[int, int]] = set()
    top: dict[tuple[int, int], list[tuple[int, int]]] = defaultdict(list)
    envelope_ns = 0
    for doc in docs:
        for key, value in doc["counts"].items():
            counts[key] += value
        spawned += doc["threads_spawned"]
        spans = {row[0]: row[1:] for row in doc["spans"]}
        child_ns: dict[int, int] = defaultdict(int)
        for name, t0, t1, parent, tid, _op, tag in spans.values():
            if parent >= 0:
                child_ns[parent] += t1 - t0
        for index, (name, t0, t1, parent, tid, _op, tag) in spans.items():
            kept = clip(t0, t1)
            if kept is None:
                continue
            thread = (doc["pid"], tid)
            if name == lane_span:
                lane_threads.add(thread)
            if name == ENVELOPE:
                envelope_ns += kept[1] - kept[0]
                continue
            durations[(name, None)].append(t1 - t0)
            if tag is not None:
                durations[(name, tag)].append(t1 - t0)
            self_ns[name] += (t1 - t0) - child_ns.get(index, 0)
            if parent < 0 or spans.get(parent, (ENVELOPE,))[0] == ENVELOPE:
                top[thread].append(kept)

    def mean(name: str, tag: str | None = None, scale: float = 1e-6) -> float:
        values = durations.get((name, tag), [])
        return sum(values) / len(values) * scale if values else 0.0

    def calls(name: str) -> int:
        return len(durations.get((name, None), []))

    live = counts["live_runs"]
    runs = live + counts["decoded_runs"]
    covered = sum(_union(top[t]) for t in lane_threads)
    metrics = {
        "serve.parse_us": mean("serve.parse", scale=1e-3),
        "serve.execute_ms": mean("serve.run", "execute"),
        "serve.metrics_render_ms": mean("serve.metrics_render"),
        "batch.spec_key_us": mean("batch.spec_key", scale=1e-3),
        "batch.spec_key_calls": calls("batch.spec_key") / ops if ops else 0.0,
        "batch.put_ms": mean("batch.put"),
        "batch.prune_ms": mean("batch.prune"),
        "batch.prunes": float(calls("batch.prune")),
        "batch.encode_ms": mean("batch.encode"),
        "batch.get_ms": mean("batch.get", "hit"),
        "batch.decode_ms": mean("batch.decode"),
        "batch.pool_idle_share": 1.0 - envelope_ns / lane_ns if lane_ns else 0.0,
        "core.execute_ms": mean("core.execute"),
        "sched.offcpu_share": (1.0 - counts["execute_cpu_ns"] / counts["execute_wall_ns"]
                               if counts["execute_wall_ns"] else 0.0),
        "sched.switches_per_cell": counts["sched.run"] / live if live else 0.0,
        "sched.threads_spawned": float(spawned),
        "mp.msgs_per_cell": counts["msg.send"] / live if live else 0.0,
        "mp.pack_us": mean("mp.pack", scale=1e-3),
        "trace.events_per_cell": counts["events"] / runs if runs else 0.0,
        "trace.race_scan_ms": mean("trace.race_scan"),
        "trace.race_scans_per_cell": calls("trace.race_scan") / ops if ops else 0.0,
        "obs.summary_ms": mean("obs.summary"),
        "unattributed_share": 1.0 - covered / lane_ns if lane_ns else 0.0,
    }
    for kind in LANES:
        metrics[f"mp.lane.{kind}"] = counts[f"lane.{kind}"] / live if live else 0.0
    summary = {
        name: {"calls": len(values), "total_ms": sum(values) / 1e6,
               "self_ms": self_ns[name] / 1e6}
        for (name, tag), values in durations.items() if tag is None
    }
    summary["_counts"] = dict(counts)
    return metrics, summary
