"""Run records and batch results: how a captured run crosses a boundary.

A run record is one JSON document per content-addressed cache entry
(schema 3).  It holds the verdicts a sweep or the serve daemon reports
— the printed ``text``, the :func:`~repro.obs.derive.run_summary` dict
(kept as its own JSON text) and its ``races`` count — derived once when
the record is written, plus the run's ``span`` and ``wall`` time, and
nothing else.  :func:`outcome_from_record` builds a :class:`RunOutcome`
from the stored verdicts; it is the only way any sweep or serve read
uses a record.

A record stores no event stream: no path reads one back, and on the
173-configuration lab grid the stream was about nine tenths of a
record's bytes (mean 10.9 KB with it, 0.9 KB without).  A client that
needs a whole trace runs the spec live.

:class:`RunOutcome` / :class:`BatchReport` are the batch runner's
per-run and per-batch summaries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.capture import CapturedRun
from repro.errors import CacheUnserializable
from repro.obs.derive import run_summary

__all__ = [
    "RECORD_SCHEMA",
    "BatchReport",
    "RunOutcome",
    "outcome_from_record",
    "outcome_from_run",
    "run_to_record",
]

#: Bumped whenever the record layout changes; mismatched records are
#: treated as cache misses, never as errors.  Schema 3 keeps only the
#: verdicts: it dropped the event stream, metadata and result that
#: schema 2 stored beside them.
RECORD_SCHEMA = 3


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile (deterministic; no interpolation)."""
    ordered = sorted(values)
    rank = max(1, -(-int(q * 100) * len(ordered) // 100))  # ceil(q*n)
    return ordered[min(rank, len(ordered)) - 1]


def run_to_record(run: CapturedRun, *, key: str) -> dict[str, Any]:
    """A captured run's verdicts as one content-addressed cache record.

    Raises :class:`~repro.errors.CacheUnserializable` when the trace is
    incomplete (events were dropped): verdicts derived from a partial
    stream must not masquerade as the run's.

    The run's summary is derived here, once, and stored with its race
    count and printed text: a sweep served from this record reports
    them without running anything.  A stored verdict cannot outlive the
    code that derived it, because the engine fingerprint in every key
    hashes ``obs/derive.py`` and ``trace/hb.py``.
    """
    trace = run.trace
    if trace.dropped:
        raise CacheUnserializable("trace is incomplete (dropped events)")
    summary = run_summary(trace, tasks_hint=run.meta.get("tasks"))
    return {
        "schema": RECORD_SCHEMA,
        "key": key,
        "wall": run.wall,
        "span": run.span,
        "text": run.text,
        "summary": json.dumps(summary, separators=(",", ":")),
        "races": summary["races"],
    }


def run_from_record(record: Mapping[str, Any]) -> CapturedRun:
    """Always raises :class:`~repro.errors.CacheUnserializable`.

    A record stores no event stream, so no run can be rebuilt from one.
    The name is kept only for the benchmark's ``batch.decode`` binding
    in ``perfbench/tracer.py``, which fails to install without it;
    delete it together with that binding.
    """
    raise CacheUnserializable("a run record stores no events to rebuild a run from")


def outcome_from_record(
    spec: Any, key: str, record: Mapping[str, Any], *, cached: bool = True
) -> "RunOutcome":
    """The :class:`RunOutcome` a record's stored verdicts describe.

    The one record → outcome path: sweep hits, executed cells (from the
    record their write just derived, ``cached=False``) and the serve
    daemon's cache tier all report through it.  Raises ``KeyError``,
    ``TypeError`` or ``ValueError`` for a malformed record.
    """
    return RunOutcome(
        spec=spec,
        key=key,
        cached=cached,
        text=record["text"],
        span=record["span"],
        wall=record["wall"],
        races=record["races"],
        metrics=json.loads(record["summary"]),
    )


def outcome_from_run(spec: Any, key: str | None, run: CapturedRun) -> "RunOutcome":
    """The :class:`RunOutcome` of a run that has no record (uncached).

    Derives the summary once and takes the race count from it.
    """
    summary = run_summary(run.trace, tasks_hint=run.meta.get("tasks"))
    return RunOutcome(
        spec=spec,
        key=key,
        cached=False,
        text=run.text,
        span=run.span,
        wall=run.wall,
        races=summary["races"],
        metrics=summary,
    )


# -- batch summaries ----------------------------------------------------------


@dataclass
class RunOutcome:
    """One spec's outcome inside a batch: output, verdicts, provenance."""

    spec: Any  # RunSpec; typed loosely to avoid an import cycle
    key: str | None
    cached: bool
    text: str
    span: float | None
    wall: float
    races: int
    error: str | None = None
    #: The run's :func:`repro.obs.derive.run_summary` dict (pure function
    #: of the trace — identical whether the run executed or was served).
    metrics: dict[str, Any] | None = None

    @property
    def ok(self) -> bool:
        """True when the run completed (racy output still counts as ran)."""
        return self.error is None


@dataclass
class BatchReport:
    """Everything a batch produced, plus the numbers the CLI/bench report."""

    outcomes: list[RunOutcome] = field(default_factory=list)
    wall_s: float = 0.0
    workers: int = 1
    pooled: bool = False
    #: Aggregated run-cache counters (hits/misses/stores) across every
    #: process that served this batch, when the runner collected them.
    cache_stats: dict[str, int] | None = None

    @property
    def runs(self) -> int:
        """Total specs processed."""
        return len(self.outcomes)

    @property
    def hits(self) -> int:
        """Runs served from the content-addressed cache."""
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def executed(self) -> int:
        """Runs actually computed (misses plus uncacheable specs)."""
        return self.runs - self.hits

    @property
    def errors(self) -> list[RunOutcome]:
        """Outcomes whose run raised."""
        return [o for o in self.outcomes if not o.ok]

    @property
    def hit_rate(self) -> float:
        """Cache hits over total runs (0.0 for an empty batch)."""
        return self.hits / self.runs if self.runs else 0.0

    @property
    def throughput_runs_s(self) -> float:
        """Completed runs per wall second."""
        return self.runs / self.wall_s if self.wall_s > 0 else 0.0

    def cell_stats(self) -> dict[str, dict[str, Any]]:
        """Per-grid-cell metric percentiles across seeds.

        A *cell* is one (patternlet, tasks, toggles, topology, extras)
        combination; the seeds inside it form the sample.  For each
        derived metric the cell reports nearest-rank p50/p90 and the max
        — the numbers a grader scans to spot the one seed whose schedule
        collapsed, or (in a ``--topology a,b`` sweep) to compare span
        across communicator topologies at one np.
        """
        cells: dict[str, list[RunOutcome]] = {}
        for o in self.outcomes:
            if o.metrics is None:
                continue
            label = o.spec.patternlet
            if o.spec.tasks is not None:
                label += f" np={o.spec.tasks}"
            for t, on in o.spec.toggles:
                label += f" {t}={'on' if on else 'off'}"
            if o.spec.topology is not None:
                label += f" topo={o.spec.topology}"
            for k, v in o.spec.extra:
                label += f" {k}={v}"
            cells.setdefault(label, []).append(o)
        out: dict[str, dict[str, Any]] = {}
        for label in sorted(cells):
            outs = cells[label]
            series = {
                "span": [o.metrics["span"] for o in outs],
                "speedup": [o.metrics["speedup"] for o in outs],
                "efficiency": [o.metrics["efficiency"] for o in outs],
                "blocked_steps": [
                    sum(sum(per.values()) for per in o.metrics["blocked"].values())
                    for o in outs
                ],
                "messages": [o.metrics["messages"]["total"] for o in outs],
            }
            cell: dict[str, Any] = {"seeds": len(outs)}
            for name, values in series.items():
                cell[name] = {
                    "p50": _pct(values, 0.50),
                    "p90": _pct(values, 0.90),
                    "max": max(values),
                }
            out[label] = cell
        return out

    def stats(self) -> dict[str, Any]:
        """The report as one flat JSON-able dict (CI artifacts, bench)."""
        out: dict[str, Any] = {
            "runs": self.runs,
            "executed": self.executed,
            "hits": self.hits,
            "hit_rate": round(self.hit_rate, 4),
            "errors": len(self.errors),
            "wall_s": round(self.wall_s, 4),
            "throughput_runs_s": round(self.throughput_runs_s, 1),
            "workers": self.workers,
            "pooled": self.pooled,
        }
        if self.cache_stats is not None:
            out["cache_hits"] = self.cache_stats.get("hits", 0)
            out["cache_misses"] = self.cache_stats.get("misses", 0)
            out["cache_stores"] = self.cache_stats.get("stores", 0)
            out["cache_evictions"] = self.cache_stats.get("evictions", 0)
        cells = self.cell_stats()
        if cells:
            out["cells"] = cells
        return out
