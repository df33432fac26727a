"""``repro.batch`` — parallel batch execution with a content-addressed run cache.

The paper's workflows are batch-shaped: an instructor (or the selfcheck
suite, or a grader) runs every patternlet across task counts, toggle
states, and seeds.  This package executes such grids through a
persistent worker pool and never recomputes a deterministic run it has
already seen:

- :mod:`repro.batch.specs` — :class:`RunSpec` grids and SHA-256 content
  addresses over (patternlet source, engine fingerprint, toggles, np,
  scheduler identity, seed);
- :mod:`repro.batch.cache` — the on-disk LRU record store
  (``~/.cache/repro-runs``) and the ``run_patternlet`` interceptor that
  serves it; multi-writer safe, so many processes share one root;
- :mod:`repro.batch.results` — byte-faithful run records (full event
  trace, span, and the text, summary and race verdict a sweep reports)
  and batch summaries;
- :mod:`repro.batch.pool` — the warm ``ProcessPoolExecutor`` fan-out
  with an in-process serial twin.

Consumers: ``patternlet selfcheck`` (figure checks as one batch),
``patternlet sweep`` (seed × np grids, ``--jobs N`` workers) and the
serve daemon's execution lane.  The benchmark's ``grade-cold`` and
``grade-warm`` workloads time the sweep path end to end.
"""

from repro.batch.cache import RunCache, cache_enabled, caching_runs, default_cache_dir
from repro.batch.pool import default_workers, map_calls, run_specs, shutdown_pool
from repro.batch.results import (
    BatchReport,
    RunOutcome,
    decode_value,
    encode_value,
    run_from_record,
    run_to_record,
)
from repro.batch.specs import (
    FIGURE_RUNS,
    RunSpec,
    engine_fingerprint,
    figure_suite_specs,
    key_for_config,
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
    "caching_runs",
    "decode_value",
    "default_cache_dir",
    "default_workers",
    "encode_value",
    "engine_fingerprint",
    "figure_suite_specs",
    "key_for_config",
    "map_calls",
    "run_from_record",
    "run_specs",
    "run_to_record",
    "shutdown_pool",
    "spec_key",
    "sweep_fingerprint",
]
