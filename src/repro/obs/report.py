"""Self-contained single-file HTML run report.

``patternlet report NAME`` renders one captured run into one HTML file
with zero external references: inline CSS, inline SVG, system fonts.
The report shows the run the way a grader reads it —

- a per-rank **Gantt** built from the trace event stream (lockstep runs
  own the timeline one task at a time; blocked intervals are drawn in
  gray with their wait reason in the tooltip), lanes labelled with the
  same friendly rank/thread names the Chrome trace export uses;
- the **message matrix** (source rank × destination rank) as a
  sequential-blue heatmap with message and byte counts;
- the **blocked-time breakdown** as one stacked bar per task, colored by
  wait reason (fixed reason→color slots, so "barrier" is the same hue in
  every report ever rendered);
- the per-task **work histogram** for worksharing loops — the load
  balance the three loop-schedule patternlets teach;
- the **race verdict** inline (status color + icon + label, never color
  alone), plus summary stat tiles and the full metrics table.

Everything visual follows the reference dataviz palette: categorical
slots in fixed order, one-hue sequential ramp, status colors reserved
for the race verdict, text always in ink tokens, dark mode as selected
steps under both the OS media query and a ``data-theme`` override, and a
table view beside every chart.
"""

from __future__ import annotations

import html
from typing import Any, Iterable

from repro.obs.derive import _run_registry, blocked_intervals, run_summary
from repro.trace.events import Event, as_events
from repro.trace.export import display_task_name

__all__ = ["render_report", "write_report"]

#: Wait reason → fixed categorical slot (CSS class).  Color follows the
#: reason (the entity), never its rank in a particular run.
_REASON_SLOTS = {
    "barrier": "c1",
    "recv": "c2",
    "critical": "c3",
    "semaphore": "c4",
    "atomic": "c5",
    "mutex": "c1",
    "condvar": "c2",
    "ordered": "c3",
    "other": "cx",
}
_REASON_ORDER = ("barrier", "recv", "critical", "semaphore", "atomic",
                 "mutex", "condvar", "ordered", "other")


def _esc(text: Any) -> str:
    return html.escape(str(text), quote=True)


def _task_sort_key(label: str) -> tuple:
    if label == "main":
        return ()
    key: list[tuple[str, int]] = []
    for part in label.split("/"):
        prefix, _, num = part.partition(":")
        key.append((prefix, int(num)) if num.isdigit() else (part, -1))
    return tuple(key)


def _run_segments(events: list[Event]) -> list[tuple[str, int, int]]:
    """Timeline ownership as ``(task, start_seq, end_seq)`` segments.

    Lockstep interleaves one task at a time, so consecutive events with
    the same task label form one running segment.
    """
    segments: list[tuple[str, int, int]] = []
    for ev in events:
        if segments and segments[-1][0] == ev.task:
            segments[-1] = (ev.task, segments[-1][1], ev.seq)
        else:
            segments.append((ev.task, ev.seq, ev.seq))
    return segments


def _svg_gantt(events: list[Event]) -> str:
    if not events:
        return "<p class='muted'>No trace events recorded.</p>"
    segments = _run_segments(events)
    blocked = blocked_intervals(events)
    tasks = sorted({s[0] for s in segments}, key=_task_sort_key)
    lo, hi = events[0].seq, events[-1].seq
    extent = max(hi - lo, 1)
    width, label_w, lane_h, bar_h = 900, 150, 26, 14
    plot_w = width - label_w - 20
    height = lane_h * len(tasks) + 34

    def x(seq: int) -> float:
        return label_w + (seq - lo) / extent * plot_w

    rows = {t: i for i, t in enumerate(tasks)}
    parts = [
        f"<svg viewBox='0 0 {width} {height}' role='img' "
        f"aria-label='Per-rank Gantt over trace steps'>"
    ]
    for t, i in rows.items():
        y = i * lane_h + 4
        parts.append(
            f"<text x='{label_w - 8}' y='{y + bar_h - 3}' class='lane-label' "
            f"text-anchor='end'>{_esc(display_task_name(t))}</text>"
        )
        parts.append(
            f"<line x1='{label_w}' y1='{y + bar_h + 2}' x2='{width - 20}' "
            f"y2='{y + bar_h + 2}' class='grid'/>"
        )
    for task, start, end, reason in blocked:
        i = rows.get(task)
        if i is None:
            continue
        y = i * lane_h + 4
        w = max(x(end) - x(start), 1.5)
        parts.append(
            f"<rect x='{x(start):.1f}' y='{y + 3}' width='{w:.1f}' "
            f"height='{bar_h - 6}' class='blocked' rx='2'>"
            f"<title>{_esc(display_task_name(task))} blocked on "
            f"{_esc(reason)} (steps {start}–{end})</title></rect>"
        )
    for task, start, end in segments:
        i = rows.get(task)
        if i is None:
            continue
        y = i * lane_h + 4
        w = max(x(end) - x(start), 2.0)
        parts.append(
            f"<rect x='{x(start):.1f}' y='{y}' width='{w:.1f}' "
            f"height='{bar_h}' class='run' rx='2'>"
            f"<title>{_esc(display_task_name(task))} running "
            f"(steps {start}–{end})</title></rect>"
        )
    axis_y = lane_h * len(tasks) + 10
    parts.append(
        f"<line x1='{label_w}' y1='{axis_y}' x2='{width - 20}' y2='{axis_y}' "
        f"class='axis'/>"
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        seq = lo + int(frac * extent)
        parts.append(
            f"<text x='{x(seq):.1f}' y='{axis_y + 16}' class='tick' "
            f"text-anchor='middle'>{seq}</text>"
        )
    parts.append("</svg>")
    legend = (
        "<div class='legend'>"
        "<span><i class='swatch run-sw'></i>running</span>"
        "<span><i class='swatch blocked-sw'></i>blocked (reason in tooltip)</span>"
        "<span class='muted'>x-axis: trace steps (event sequence)</span>"
        "</div>"
    )
    return "".join(parts) + legend


def _heatmap(summary: dict[str, Any]) -> str:
    matrix: dict[str, dict[str, int]] = summary["messages"]["matrix"]
    if not matrix:
        return "<p class='muted'>No point-to-point messages in this run.</p>"
    srcs = sorted({k.split("->")[0] for k in matrix}, key=_task_sort_key)
    dsts = sorted({k.split("->")[1] for k in matrix}, key=_task_sort_key)
    peak = max(cell["msgs"] for cell in matrix.values())
    head = "".join(f"<th scope='col'>to {_esc(d)}</th>" for d in dsts)
    rows = []
    for s in srcs:
        cells = []
        for d in dsts:
            cell = matrix.get(f"{s}->{d}")
            if cell is None:
                cells.append("<td class='ramp-0'>–</td>")
            else:
                bin_ = 1 + min(3, (cell["msgs"] * 4 - 1) // max(peak, 1))
                cells.append(
                    f"<td class='ramp-{bin_}' title='{cell['msgs']} msgs, "
                    f"{cell['bytes']} bytes'>{cell['msgs']}"
                    f"<span class='sub'>{cell['bytes']} B</span></td>"
                )
        rows.append(f"<tr><th scope='row'>from {_esc(s)}</th>{''.join(cells)}</tr>")
    return (
        "<table class='heatmap'><thead><tr><th></th>" + head + "</tr></thead>"
        "<tbody>" + "".join(rows) + "</tbody></table>"
        "<div class='legend'><span class='muted'>cell: messages sent "
        "(bytes below), darker = more</span></div>"
    )


def _blocked_chart(summary: dict[str, Any]) -> str:
    blocked: dict[str, dict[str, int]] = summary["blocked"]
    if not blocked:
        return "<p class='muted'>No task ever blocked — fully independent work.</p>"
    tasks = sorted(blocked, key=_task_sort_key)
    peak = max(sum(per.values()) for per in blocked.values())
    reasons = [r for r in _REASON_ORDER if any(r in per for per in blocked.values())]
    bars = []
    for t in tasks:
        per = blocked[t]
        spans = []
        for r in reasons:
            steps = per.get(r, 0)
            if not steps:
                continue
            pct = steps / max(peak, 1) * 100
            spans.append(
                f"<i class='seg {_REASON_SLOTS[r]}' style='width:{pct:.2f}%' "
                f"title='{_esc(r)}: {steps} steps'></i>"
            )
        total = sum(per.values())
        bars.append(
            f"<div class='hrow'><span class='hlabel'>"
            f"{_esc(display_task_name(t))}</span>"
            f"<span class='hbar'>{''.join(spans)}</span>"
            f"<span class='hval'>{total}</span></div>"
        )
    legend = "".join(
        f"<span><i class='swatch {_REASON_SLOTS[r]}'></i>{_esc(r)}</span>"
        for r in reasons
    )
    table_rows = "".join(
        f"<tr><th scope='row'>{_esc(display_task_name(t))}</th>"
        + "".join(f"<td>{blocked[t].get(r, 0)}</td>" for r in reasons)
        + f"<td>{sum(blocked[t].values())}</td></tr>"
        for t in tasks
    )
    table = (
        "<details><summary>table view</summary><table><thead><tr><th></th>"
        + "".join(f"<th scope='col'>{_esc(r)}</th>" for r in reasons)
        + "<th scope='col'>total</th></tr></thead><tbody>"
        + table_rows
        + "</tbody></table></details>"
    )
    return (
        "<div class='hchart'>" + "".join(bars) + "</div>"
        + f"<div class='legend'>{legend}"
        "<span class='muted'>blocked trace steps per task</span></div>" + table
    )


def _work_histogram(summary: dict[str, Any]) -> str:
    iters: dict[str, int] = summary["loop"]["iterations"]
    if not iters:
        return "<p class='muted'>No worksharing loop in this run.</p>"
    schedules = ", ".join(summary["loop"]["schedules"])
    tasks = sorted(iters, key=_task_sort_key)
    peak = max(iters.values())
    bars = []
    for t in tasks:
        pct = iters[t] / max(peak, 1) * 100
        bars.append(
            f"<div class='hrow'><span class='hlabel'>"
            f"{_esc(display_task_name(t))}</span>"
            f"<span class='hbar'><i class='seg c1' style='width:{pct:.2f}%' "
            f"title='{iters[t]} iterations'></i></span>"
            f"<span class='hval'>{iters[t]}</span></div>"
        )
    table = (
        "<details><summary>table view</summary><table><thead><tr>"
        "<th></th><th scope='col'>iterations</th></tr></thead><tbody>"
        + "".join(
            f"<tr><th scope='row'>{_esc(display_task_name(t))}</th>"
            f"<td>{iters[t]}</td></tr>"
            for t in tasks
        )
        + "</tbody></table></details>"
    )
    return (
        f"<p class='muted'>schedule: {_esc(schedules)}</p>"
        "<div class='hchart'>" + "".join(bars) + "</div>"
        "<div class='legend'><span class='muted'>loop iterations executed "
        "per task — the load-balance picture</span></div>" + table
    )


def _race_banner(summary: dict[str, Any]) -> str:
    races = summary["races"]
    if races:
        return (
            f"<div class='status critical'><span class='icon'>✕</span>"
            f"race detected — {races} unordered conflicting access"
            f"{'es' if races != 1 else ''} (happens-before verdict)</div>"
        )
    return (
        "<div class='status good'><span class='icon'>✓</span>"
        "no races — every conflicting access pair is ordered</div>"
    )


def _stat_tiles(summary: dict[str, Any]) -> str:
    tiles = [
        ("span", f"{summary['span']:g}", "critical-path virtual time"),
        ("speedup", f"{summary['speedup']:g}×", "total work / span"),
        ("efficiency", f"{summary['efficiency'] * 100:.0f}%", "speedup / tasks"),
        ("barrier imbalance", f"{summary['barrier']['imbalance_fraction'] * 100:.1f}%",
         "mean arrival spread / span"),
        ("critical serialisation",
         f"{summary['critical']['serialisation_fraction'] * 100:.1f}%",
         "steps inside critical sections"),
    ]
    out = []
    for label, value, sub in tiles:
        out.append(
            f"<div class='tile'><div class='tile-value'>{_esc(value)}</div>"
            f"<div class='tile-label'>{_esc(label)}</div>"
            f"<div class='tile-sub'>{_esc(sub)}</div></div>"
        )
    return "<div class='tiles'>" + "".join(out) + "</div>"


def _metrics_table(reg: Any) -> str:
    rows = []
    for fam in reg.families():
        if fam.kind == "histogram":
            for key in fam.labels_seen():
                _, total, count = fam.samples[key]
                labels = ", ".join(f"{k}={v}" for k, v in key) or "–"
                rows.append(
                    f"<tr><td>{_esc(fam.name)}</td><td>histogram</td>"
                    f"<td>{_esc(labels)}</td>"
                    f"<td>count={count:g} sum={total:g}</td></tr>"
                )
            continue
        for key in fam.labels_seen():
            labels = ", ".join(f"{k}={v}" for k, v in key) or "–"
            value = fam.samples[key]
            rows.append(
                f"<tr><td>{_esc(fam.name)}</td><td>{_esc(fam.kind)}</td>"
                f"<td>{_esc(labels)}</td><td>{value:g}</td></tr>"
            )
    return (
        "<details><summary>all metrics</summary><table><thead>"
        "<tr><th>family</th><th>type</th><th>labels</th><th>value</th></tr>"
        "</thead><tbody>" + "".join(rows) + "</tbody></table></details>"
    )


_CSS = """
:root {
  color-scheme: light;
  --surface: #fcfcfb; --page: #f9f9f7;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --c1: #2a78d6; --c2: #eb6834; --c3: #1baf7a; --c4: #eda100; --c5: #e87ba4;
  --blocked: #e1e0d9;
  --ramp-0: transparent; --ramp-1: #cde2fb; --ramp-2: #9ec5f4;
  --ramp-3: #6da7ec; --ramp-4: #3987e5; --ramp-ink-4: #fcfcfb;
  --good: #0ca30c; --critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) {
    color-scheme: dark;
    --surface: #1a1a19; --page: #0d0d0d;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835;
    --border: rgba(255,255,255,0.10);
    --c1: #3987e5; --c2: #d95926; --c3: #199e70; --c4: #c98500; --c5: #d55181;
    --blocked: #2c2c2a;
    --ramp-1: #104281; --ramp-2: #1c5cab; --ramp-3: #256abf; --ramp-4: #3987e5;
    --ramp-ink-4: #ffffff;
  }
}
:root[data-theme="dark"] {
  color-scheme: dark;
  --surface: #1a1a19; --page: #0d0d0d;
  --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
  --grid: #2c2c2a; --axis: #383835;
  --border: rgba(255,255,255,0.10);
  --c1: #3987e5; --c2: #d95926; --c3: #199e70; --c4: #c98500; --c5: #d55181;
  --blocked: #2c2c2a;
  --ramp-1: #104281; --ramp-2: #1c5cab; --ramp-3: #256abf; --ramp-4: #3987e5;
  --ramp-ink-4: #ffffff;
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--page); color: var(--ink);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
main { max-width: 960px; margin: 0 auto; }
section {
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px 20px; margin: 16px 0;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 0 0 12px; color: var(--ink); }
.meta { color: var(--ink-2); font-size: 12px; }
.meta code { color: var(--ink-2); }
.muted { color: var(--muted); font-size: 12px; }
svg { width: 100%; height: auto; display: block; }
svg .lane-label, svg .tick { font: 11px system-ui, sans-serif; fill: var(--ink-2); }
svg .grid { stroke: var(--grid); stroke-width: 1; }
svg .axis { stroke: var(--axis); stroke-width: 1; }
svg .run { fill: var(--c1); }
svg .run:hover { opacity: 0.8; }
svg .blocked { fill: var(--blocked); }
.legend { display: flex; gap: 16px; flex-wrap: wrap; margin-top: 8px;
  font-size: 12px; color: var(--ink-2); align-items: center; }
.legend .swatch { display: inline-block; width: 10px; height: 10px;
  border-radius: 2px; margin-right: 5px; }
.run-sw { background: var(--c1); } .blocked-sw { background: var(--blocked); }
.c1 { background: var(--c1); } .c2 { background: var(--c2); }
.c3 { background: var(--c3); } .c4 { background: var(--c4); }
.c5 { background: var(--c5); } .cx { background: var(--muted); }
.hchart { display: flex; flex-direction: column; gap: 6px; }
.hrow { display: flex; align-items: center; gap: 10px; }
.hlabel { flex: 0 0 140px; text-align: right; font-size: 12px; color: var(--ink-2); }
.hbar { flex: 1; display: flex; gap: 2px; height: 14px; }
.hbar .seg { display: block; height: 100%; border-radius: 0 4px 4px 0; }
.hbar .seg:hover { opacity: 0.8; }
.hval { flex: 0 0 70px; font-size: 12px; color: var(--ink-2);
  font-variant-numeric: tabular-nums; }
table { border-collapse: collapse; font-size: 12px; margin-top: 8px; }
th, td { padding: 4px 10px; text-align: right; border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums; color: var(--ink); }
th { color: var(--ink-2); font-weight: 600; }
thead th { border-bottom: 1px solid var(--axis); }
tbody th { text-align: right; }
.heatmap td { min-width: 72px; }
.heatmap td .sub { display: block; font-size: 10px; opacity: 0.75; }
.heatmap .ramp-0 { background: var(--ramp-0); color: var(--muted); }
.heatmap .ramp-1 { background: var(--ramp-1); }
.heatmap .ramp-2 { background: var(--ramp-2); }
.heatmap .ramp-3 { background: var(--ramp-3); }
.heatmap .ramp-4 { background: var(--ramp-4); color: var(--ramp-ink-4); }
.tiles { display: flex; gap: 12px; flex-wrap: wrap; }
.tile { flex: 1 1 150px; border: 1px solid var(--border); border-radius: 8px;
  padding: 10px 14px; }
.tile-value { font-size: 24px; font-weight: 600; }
.tile-label { font-size: 12px; color: var(--ink-2); margin-top: 2px; }
.tile-sub { font-size: 11px; color: var(--muted); }
.status { display: flex; align-items: center; gap: 8px; font-weight: 600;
  padding: 8px 0; }
.status .icon { font-size: 14px; }
.status.good .icon { color: var(--good); }
.status.critical .icon { color: var(--critical); }
details summary { cursor: pointer; font-size: 12px; color: var(--ink-2);
  margin-top: 8px; }
"""


def render_report(run: Any) -> str:
    """Render one :class:`CapturedRun` into self-contained HTML text."""
    events = as_events(run.trace)
    summary = run_summary(events, tasks_hint=run.meta.get("tasks"))
    reg = _run_registry(run, summary)
    info = reg.info
    meta_bits = []
    for field in ("patternlet", "backend", "mode", "tasks", "seed"):
        value = run.meta.get(field)
        if value is not None:
            meta_bits.append(f"{field} <code>{_esc(value)}</code>")
    meta_bits.append(f"engine <code>{_esc(info.get('version', '?'))}"
                     f"+{_esc(info.get('fingerprint', '?'))}</code>")
    meta_bits.append(f"wall <code>{run.wall * 1000:.1f} ms</code> (informational "
                     "— not part of canonical metrics)")
    title = run.meta.get("patternlet", "run")
    body = f"""<main>
<section>
<h1>patternlet run report — {_esc(title)}</h1>
<p class='meta'>{' · '.join(meta_bits)}</p>
{_race_banner(summary)}
{_stat_tiles(summary)}
</section>
<section><h2>Per-rank timeline (Gantt)</h2>{_svg_gantt(events)}</section>
<section><h2>Worksharing load balance</h2>{_work_histogram(summary)}</section>
<section><h2>Blocked-time breakdown</h2>{_blocked_chart(summary)}</section>
<section><h2>Message matrix</h2>{_heatmap(summary)}</section>
<section><h2>Metrics</h2>{_metrics_table(reg)}</section>
</main>"""
    return (
        "<!DOCTYPE html>\n<html lang='en'>\n<head>\n<meta charset='utf-8'>\n"
        f"<title>patternlet report — {_esc(title)}</title>\n"
        "<meta name='viewport' content='width=device-width, initial-scale=1'>\n"
        f"<style>{_CSS}</style>\n</head>\n<body>\n{body}\n</body>\n</html>\n"
    )


def write_report(run: Any, path: Any) -> None:
    """Write the HTML report for ``run`` to ``path`` (UTF-8)."""
    text = render_report(run)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
