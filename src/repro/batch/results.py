"""Run records and batch results: how a captured run crosses a boundary.

A cached (or pooled) run must survive two hostile crossings — process →
process and process → disk → process — **byte-identically**: the figure
checks read not just the printed text but the full event trace (the
Fig. 22 check re-proves its race from the happens-before edges), so a
served run must rebuild the *entire* stream with perfect fidelity.

JSON alone cannot do that (it collapses tuples — happens-before keys
like ``("mutex", 3)`` — into lists, which are unhashable and would
silently break the race detector).  The codec here closes the gap with a
tagged canonical form:

========  =====================================
value     encoding
========  =====================================
scalar    itself (``None``/bool/int/float/str)
tuple     ``{"t": [...]}``
list      ``{"l": [...]}``
dict      ``{"d": [[key, value], ...]}``
========  =====================================

Every container is tagged, so the decode is unambiguous; anything
outside the vocabulary raises :class:`~repro.errors.CacheUnserializable`
and the run simply executes live instead of being cached.

:func:`run_to_record` / :func:`run_from_record` turn a
:class:`~repro.core.capture.CapturedRun` into one JSON document (events,
span, wall, metadata, result when expressible) and back.  The record
also carries the verdicts a sweep reports, derived once when it is
written: the printed ``text``, the :func:`~repro.obs.derive.run_summary`
dict (kept as its own JSON text) and its ``races`` count.
:func:`outcome_from_record` builds a :class:`RunOutcome` from those
stored fields alone, so a sweep or serve hit never rebuilds the event
stream; only callers that read the trace itself (figure checks, race
reports, metrics) decode the events.  :class:`RunOutcome` /
:class:`BatchReport` are the batch runner's per-run and per-batch
summaries.

Above the disk store sits a small in-process memo: because keys are
content addresses (same key ⇒ same record, by construction), a record
read once per process never needs reading again, and one decoded once
never needs decoding again — repeat hits share the same frozen
:class:`~repro.trace.events.Event` objects and skip both the JSON parse
and the event rebuild.  The mutable per-run bits (``meta``, ``result``,
``summary``) stay in their wire form and are decoded on each serve, so
served runs and outcomes never alias each other's mutable state.  The
summary's wire form is its JSON text: the summary is plain JSON by
construction and is only ever read whole, and in the memo the text
takes about 0.55 KB per lab-grid cell against 4.2 KB parsed (7.6 KB in
the tagged form).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.core.capture import CapturedRun
from repro.errors import CacheUnserializable
from repro.obs.derive import run_summary
from repro.trace.events import Event

__all__ = [
    "RECORD_SCHEMA",
    "BatchReport",
    "RunOutcome",
    "decode_value",
    "encode_value",
    "memo_entry",
    "memo_record",
    "outcome_from_record",
    "outcome_from_run",
    "run_from_entry",
    "run_from_record",
    "run_to_record",
]

#: Bumped whenever the record layout changes; mismatched records are
#: treated as cache misses, never as errors.  Schema 2 added the stored
#: verdicts (``text``, ``summary``, ``races`` from the summary).
RECORD_SCHEMA = 2


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile (deterministic; no interpolation)."""
    ordered = sorted(values)
    rank = max(1, -(-int(q * 100) * len(ordered) // 100))  # ceil(q*n)
    return ordered[min(rank, len(ordered)) - 1]

_TAGS = ("t", "l", "d")


def encode_value(value: Any) -> Any:
    """Canonical-JSON encoding of ``value`` (see module docstring).

    Raises :class:`~repro.errors.CacheUnserializable` for anything
    outside the vocabulary (arbitrary objects, sets, bytes, ...).
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {"t": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return {"l": [encode_value(v) for v in value]}
    if isinstance(value, dict):
        return {"d": [[encode_value(k), encode_value(v)] for k, v in value.items()]}
    raise CacheUnserializable(
        f"value of type {type(value).__name__} is outside the record vocabulary"
    )


def decode_value(wire: Any) -> Any:
    """Inverse of :func:`encode_value`.

    Only containers are dict-tagged, so scalars pass straight through —
    the recursion (and its fast paths below) only ever descends into
    genuine containers, which keeps the cache-hit decode cheap.
    """
    if isinstance(wire, dict):
        if len(wire) != 1:
            raise CacheUnserializable(f"malformed container tag: {wire!r}")
        tag, body = next(iter(wire.items()))
        if tag == "t":
            return tuple(
                decode_value(v) if type(v) is dict else v for v in body
            )
        if tag == "l":
            return [decode_value(v) if type(v) is dict else v for v in body]
        if tag == "d":
            return {
                (decode_value(k) if type(k) is dict else k): (
                    decode_value(v) if type(v) is dict else v
                )
                for k, v in body
            }
        raise CacheUnserializable(f"unknown container tag {tag!r}")
    return wire


def _event_to_wire(ev: Event) -> list[Any]:
    # Variable-length row: [seq, task, kind, vtime?, hb_acq?, hb_rel?,
    # payload?] with trailing empties trimmed.  Most events are bare
    # [seq, task, kind] rows, which keeps records small and — more
    # importantly — keeps the hit-path decode allocation-light.
    payload = encode_value(ev.payload) if ev.payload else None
    wire = [
        ev.seq,
        ev.task,
        ev.kind,
        ev.vtime,
        encode_value(ev.hb_acq),
        encode_value(ev.hb_rel),
        payload,
    ]
    while len(wire) > 3 and wire[-1] is None:
        wire.pop()
    return wire


def _event_from_wire(wire: list[Any]) -> Event:
    n = len(wire)
    vtime = wire[3] if n > 3 else None
    hb_acq = wire[4] if n > 4 else None
    hb_rel = wire[5] if n > 5 else None
    payload = wire[6] if n > 6 else None
    # Containers are always dict-tagged on the wire, so a non-dict field
    # is already its decoded self — the overwhelmingly common case.
    if type(hb_acq) is dict:
        hb_acq = decode_value(hb_acq)
    if type(hb_rel) is dict:
        hb_rel = decode_value(hb_rel)
    return Event(
        wire[0],
        wire[1],
        wire[2],
        vtime,
        hb_acq,
        hb_rel,
        decode_value(payload) if payload is not None else {},
    )


def run_to_record(run: CapturedRun, *, key: str) -> dict[str, Any]:
    """Serialise a captured run as one content-addressed cache record.

    Raises :class:`~repro.errors.CacheUnserializable` when the trace is
    incomplete (events were dropped — a partial stream must
    not masquerade as the run) or carries out-of-vocabulary values.  The
    ``result`` field is best-effort: runtime handles (``WorldResult``,
    ``TeamResult``) do not serialise, and no deterministic figure check
    reads them, so an inexpressible result is recorded as absent rather
    than blocking the cache.

    The run's summary is derived here, once, and stored with its race
    count and printed text: a sweep served from this record reports
    them without touching the events.  A stored verdict cannot outlive
    the code that derived it, because the engine fingerprint in every
    key hashes ``obs/derive.py`` and ``trace/hb.py``.
    """
    trace = run.trace
    if trace.dropped:
        raise CacheUnserializable("trace is incomplete (dropped events)")
    events = [_event_to_wire(ev) for ev in trace.events()]
    meta = encode_value(run.meta)  # an unrecordable run fails before deriving
    try:
        result: dict[str, Any] | None = {"value": encode_value(run.result)}
    except CacheUnserializable:
        result = None
    summary = run_summary(trace, tasks_hint=run.meta.get("tasks"))
    return {
        "schema": RECORD_SCHEMA,
        "key": key,
        "events": events,
        "wall": run.wall,
        "span": run.span,
        "meta": meta,
        "result": result,
        "text": run.text,
        "summary": json.dumps(summary, separators=(",", ":")),
        "races": summary["races"],
    }


def run_from_record(record: Mapping[str, Any]) -> CapturedRun:
    """Rebuild a :class:`CapturedRun` from a cache record.

    The trace is preloaded verbatim, so every view — printed text,
    per-task records, span, the happens-before analyses — behaves
    exactly as it did on the original run.  ``meta["cached"]`` marks the
    run as served.
    """
    return _rebuild(tuple(_event_from_wire(w) for w in record["events"]), record)


def outcome_from_record(
    spec: Any, key: str, record: Mapping[str, Any], *, cached: bool = True
) -> "RunOutcome":
    """The :class:`RunOutcome` a record's stored verdicts describe.

    The one record → outcome path: sweep hits, executed cells (from the
    record their write just derived, ``cached=False``) and the serve
    daemon's cache tier all report through it.  Reads no events.
    Raises ``KeyError``, ``TypeError`` or ``ValueError`` for a malformed
    record.
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
        cached=bool(run.meta.get("cached")),
        text=run.text,
        span=run.span,
        wall=run.wall,
        races=summary["races"],
        metrics=summary,
    )


# -- the in-process record memo -----------------------------------------------

#: Entry cap; eviction is insertion-ordered (oldest first), which is fine
#: for a per-process working set this size.
_MEMO_CAP = 512

_memo: dict[tuple[str, str], dict[str, Any]] = {}


def _memo_clear() -> None:
    _memo.clear()


def memo_entry(scope: str, key: str) -> Mapping[str, Any] | None:
    """The memoized record for ``key`` in store ``scope``, or ``None``.

    An entry is a record whose ``events`` field holds the decoded, frozen
    event stream, or ``None`` when this process has only served outcomes
    from it.  Treat it as read-only.
    """
    return _memo.get((scope, key))


def memo_record(
    scope: str,
    key: str,
    record: Mapping[str, Any],
    events: "Iterable[Event] | None" = None,
) -> None:
    """Memoize ``record`` under its content ``key``, scoped to one store.

    ``scope`` is the owning cache's root path: the memo mirrors a
    *store*, so two caches at different roots stay fully isolated even
    inside one process (``--cache-dir`` must mean what it says).
    ``events`` is the run's event stream when this process has it (a
    live run or a decoded record): it is shared directly, so no decode
    ever happens again for this key.  The record's wire-form events are
    dropped either way.
    """
    k = (scope, key)
    if len(_memo) >= _MEMO_CAP and k not in _memo:
        _memo.pop(next(iter(_memo)))
    _memo[k] = dict(record, events=tuple(events) if events is not None else None)


def run_from_entry(entry: Mapping[str, Any]) -> CapturedRun:
    """A served run from a memo entry whose events are decoded."""
    return _rebuild(entry["events"], entry)


def _rebuild(events: tuple[Event, ...], record: Mapping[str, Any]) -> CapturedRun:
    run = CapturedRun()
    run.trace.preload(events)
    run.wall = record["wall"]
    run.span = record["span"]
    run.meta = decode_value(record["meta"])
    run.meta["cached"] = True
    result_wire = record.get("result")
    if result_wire is not None:
        run.result = decode_value(result_wire["value"])
    return run


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
