"""Observability layer: metrics registry, derivation, probes, reports.

Two populations of the same registry vocabulary:

- :mod:`repro.obs.live` — probes fed by hook sites on the scheduler and
  transport hot paths (one ``None`` test when disabled);
- :mod:`repro.obs.derive` — a pure post-hoc pass over any trace, so
  cache-served and pickled runs yield byte-identical metrics.

Plus :mod:`repro.obs.report`, the self-contained HTML run report.
"""

from repro.obs.derive import (
    blocked_intervals,
    derive_metrics,
    metrics_dict,
    run_metrics,
    run_summary,
)
from repro.obs.live import Probe, probing
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
    "Probe",
    "blocked_intervals",
    "derive_metrics",
    "metrics_dict",
    "parse_openmetrics",
    "probing",
    "render_report",
    "run_metrics",
    "run_summary",
    "write_report",
]
