"""Observability layer: metrics registry, derivation, reports.

Every counter is read from one record of a run, its event trace:

- :mod:`repro.obs.derive` — a pure post-hoc pass over any trace, so
  live and pooled runs yield byte-identical metrics, and a cache-served
  outcome reports the summary its record stored from the live run;
- :mod:`repro.obs.registry` — the counter/gauge/histogram families and
  their OpenMetrics text form;
- :mod:`repro.obs.report` — the self-contained HTML run report.
"""

from repro.obs.derive import (
    blocked_intervals,
    derive_metrics,
    metrics_dict,
    run_metrics,
    run_summary,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_openmetrics,
)
from repro.obs.report import render_report, write_report

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "blocked_intervals",
    "derive_metrics",
    "metrics_dict",
    "parse_openmetrics",
    "render_report",
    "run_metrics",
    "run_summary",
    "write_report",
]
