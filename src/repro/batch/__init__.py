"""``repro.batch`` — parallel batch execution with a content-addressed run cache.

The paper's workflows are batch-shaped: an instructor (or a grader)
runs every patternlet across task counts, toggle states, and seeds.
This package executes such grids through a persistent worker pool and
never recomputes a deterministic run whose record it has stored:

- :mod:`repro.batch.specs` — :class:`RunSpec` grids and SHA-256 content
  addresses over (patternlet source, engine fingerprint, toggles, np,
  scheduler identity, seed);
- :mod:`repro.batch.cache` — the on-disk LRU record store
  (``~/.cache/repro-runs``) and its one front-end,
  :meth:`RunCache.outcome`, which answers a spec from its record's
  stored verdicts or runs it once and stores the record; multi-writer
  safe, so many processes share one root;
- :mod:`repro.batch.results` — run records (the text, summary and race
  verdict a sweep reports, plus span and wall time) and batch
  summaries;
- :mod:`repro.batch.pool` — the warm ``ProcessPoolExecutor`` fan-out
  with an in-process serial twin.

Consumers: ``patternlet sweep`` (seed × np grids, ``--jobs N`` workers)
and the serve daemon's execution lane go through the cache;
``patternlet selfcheck`` uses the pool only, and runs live.  The
benchmark's ``grade-cold`` and ``grade-warm`` workloads time the sweep
path end to end.
"""

from repro.batch.cache import RunCache, cache_enabled, default_cache_dir
from repro.batch.pool import default_workers, map_calls, run_specs, shutdown_pool
from repro.batch.results import BatchReport, RunOutcome, run_to_record
from repro.batch.specs import (
    FIGURE_RUNS,
    RunSpec,
    engine_fingerprint,
    figure_suite_specs,
    spec_key,
    sweep_fingerprint,
)

__all__ = [
    "BatchReport",
    "FIGURE_RUNS",
    "RunCache",
    "RunOutcome",
    "RunSpec",
    "cache_enabled",
    "default_cache_dir",
    "default_workers",
    "engine_fingerprint",
    "figure_suite_specs",
    "map_calls",
    "run_specs",
    "run_to_record",
    "shutdown_pool",
    "spec_key",
    "sweep_fingerprint",
]
