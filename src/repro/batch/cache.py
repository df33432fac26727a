"""The content-addressed run cache and its ``run_patternlet`` hook.

Records live under one root (default ``~/.cache/repro-runs/``) as
``<key[:2]>/<key>.json`` — the key is the SHA-256 from
:func:`repro.batch.specs.spec_key`, so a record is valid for exactly as
long as the patternlet source, engine, and run parameters it was derived
from; there is no TTL and no explicit invalidation, only keys that stop
being asked for.  A size cap (default 256 MiB) is enforced LRU-style:
reads touch the record's mtime, and pruning drops the stalest records
first.

Environment knobs (the escape hatches):

``REPRO_CACHE=0``
    Disable the cache entirely (every run executes live).
``REPRO_CACHE_DIR=<path>``
    Relocate the store (CI keeps it inside the workspace).
``REPRO_CACHE_MAX_MB=<n>``
    Resize the LRU cap.

Every filesystem touch is wrapped: a read-only HOME, a corrupt record,
or a concurrent writer degrade to cache misses, never to run failures.

The store is explicitly **multi-writer safe**: the batch pool and the
serve daemon point many worker processes at one root.  Writes go
through a temp file plus atomic ``os.replace`` (a reader sees the old
record or the new one, never a torn one), the pruning walk tolerates
records and whole fan-out directories deleted mid-scan by a concurrent
pruner, and an eviction is only counted by the process whose ``unlink``
actually removed the file — two caches pruning the same root cannot
double-count one eviction between them.

The disk store is the second of two tiers: content addresses make
records immutable-by-key, so each process also keeps a small decoded
memo (:mod:`repro.batch.results`) and repeat hits skip the JSON parse
and event rebuild entirely.  The memo is valid even where the disk is
not writable — it is filled on the store path regardless of ``put``'s
outcome.

:class:`caching_runs` is the consumer-facing hook: a context manager
that installs a :func:`~repro.core.registry.set_run_interceptor` serving
deterministic ``run_patternlet`` calls from the store and persisting the
misses.  The batch pool enters it around worker calls; ``patternlet
selfcheck`` and ``patternlet sweep`` enter it around whole passes.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.batch.results import (
    RECORD_SCHEMA,
    _memo_serve,
    memo_run,
    run_from_record,
    run_to_record,
)
from repro.batch.specs import key_for_config
from repro.core.capture import CapturedRun
from repro.core.registry import Patternlet, RunConfig, set_run_interceptor
from repro.errors import CacheUnserializable

__all__ = [
    "DEFAULT_MAX_BYTES",
    "RunCache",
    "cache_enabled",
    "caching_runs",
    "default_cache_dir",
]

DEFAULT_MAX_BYTES = 256 * 1024 * 1024


def cache_enabled() -> bool:
    """False when ``REPRO_CACHE=0`` (the environment escape hatch)."""
    return os.environ.get("REPRO_CACHE", "1") != "0"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro-runs``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-runs"


def _max_bytes_from_env() -> int:
    try:
        return int(os.environ["REPRO_CACHE_MAX_MB"]) * 1024 * 1024
    except (KeyError, ValueError):
        return DEFAULT_MAX_BYTES


class RunCache:
    """One on-disk record store (see module docstring for layout/policy)."""

    #: Prune every N stores, amortising the directory walk.
    PRUNE_EVERY = 32

    def __init__(self, root: str | Path | None = None, *, max_bytes: int | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.max_bytes = max_bytes if max_bytes is not None else _max_bytes_from_env()
        #: Served / missed / stored / pruned record counts for this instance.
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self._puts_since_prune = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict[str, Any] | None:
        """The record stored under ``key``, or ``None`` (miss).

        A hit touches the file's mtime (the LRU clock).  Unreadable,
        corrupt, or schema-mismatched records are misses (and corrupt
        files are removed so they cannot keep costing a parse attempt).
        """
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            self.misses += 1
            if path.exists():
                _quiet_unlink(path)
            return None
        if not isinstance(record, dict) or record.get("schema") != RECORD_SCHEMA:
            self.misses += 1
            _quiet_unlink(path)
            return None
        self.hits += 1
        try:
            os.utime(path)
        except OSError:
            pass
        return record

    def put(self, key: str, record: Mapping[str, Any]) -> bool:
        """Persist ``record`` under ``key`` (atomic write; False on failure)."""
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(record, fh, separators=(",", ":"))
                os.replace(tmp, path)
            except BaseException:
                _quiet_unlink(Path(tmp))
                raise
        except (OSError, TypeError, ValueError):
            return False
        self.stores += 1
        self._puts_since_prune += 1
        if self._puts_since_prune >= self.PRUNE_EVERY:
            self.prune()
        return True

    def _records(self) -> list[tuple[float, int, Path]]:
        # Hand-rolled two-level walk instead of ``glob("*/*.json")``: a
        # concurrent pruner can delete a whole fan-out directory between
        # listing it and descending into it, and the glob iterator would
        # surface that as an exception mid-stream.  Here a vanished
        # directory or record is simply not a record any more.
        out: list[tuple[float, int, Path]] = []
        try:
            subdirs = list(self.root.iterdir())
        except OSError:
            return out
        for sub in subdirs:
            try:
                entries = list(sub.iterdir())
            except OSError:
                continue  # deleted (or unreadable) mid-scan
            for path in entries:
                if path.suffix != ".json":
                    continue
                try:
                    st = path.stat()
                except OSError:
                    continue  # deleted mid-scan
                out.append((st.st_mtime, st.st_size, path))
        return out

    def size_bytes(self) -> int:
        """Total bytes currently stored."""
        return sum(size for _, size, _ in self._records())

    def __len__(self) -> int:
        return len(self._records())

    def prune(self) -> int:
        """Drop least-recently-used records until under the size cap.

        Safe under concurrent pruners: a record that disappears between
        the scan and our ``unlink`` still shrinks the live total (its
        bytes are gone either way) but is *not* counted as our eviction —
        whoever actually removed it counts it, so ``stats()`` across all
        writers sums to the true eviction count.
        """
        self._puts_since_prune = 0
        records = sorted(self._records())  # oldest mtime first
        total = sum(size for _, size, _ in records)
        removed = 0
        for _, size, path in records:
            if total <= self.max_bytes:
                break
            try:
                path.unlink()
            except FileNotFoundError:
                total -= size  # a concurrent pruner's eviction, not ours
                continue
            except OSError:
                continue  # undeletable: keep it in the total
            total -= size
            removed += 1
        self.evictions += removed
        return removed

    def clear(self) -> int:
        """Remove every record (returns the count removed)."""
        removed = 0
        for _, _, path in self._records():
            if _quiet_unlink(path):
                removed += 1
        return removed

    def stats(self) -> dict[str, int]:
        """This instance's hit/miss/store/eviction counters."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
        }


def _quiet_unlink(path: Path) -> bool:
    try:
        path.unlink()
        return True
    except OSError:
        return False


# -- in-process single flight -------------------------------------------------
#
# The disk store already makes concurrent *processes* safe (worst case
# two workers race to compute one key once); this closes the same gap
# for concurrent *threads* in one process: the first thread to miss a
# key becomes its flight leader and computes it, any other thread
# missing the same key waits for the leader and then re-reads the memo/
# store instead of computing a duplicate.  The serve daemon leans on
# this around its cache get/put path, and any embedding application
# whose threads share one installed ``caching_runs`` context gets it
# for free.  (Enter the context once — the interceptor slot is
# process-global, so concurrent per-thread enter/exit would race its
# save/restore.)

#: Longest a follower waits on a flight leader before running live — a
#: liveness backstop, not a correctness bound (duplicated computation of
#: a deterministic key is merely wasted work).
FLIGHT_WAIT_S = 60.0

_FLIGHT_LOCK = threading.Lock()
_FLIGHTS: dict[tuple[str, str], threading.Event] = {}


def _begin_flight(scope: str, key: str) -> "threading.Event | None":
    """Open (or join) the flight for ``key``: ``None`` means *you lead*."""
    with _FLIGHT_LOCK:
        ev = _FLIGHTS.get((scope, key))
        if ev is None:
            _FLIGHTS[(scope, key)] = threading.Event()
            return None
        return ev


def _end_flight(scope: str, key: str) -> None:
    """Close the flight for ``key`` and release every waiting follower."""
    with _FLIGHT_LOCK:
        ev = _FLIGHTS.pop((scope, key), None)
    if ev is not None:
        ev.set()


class caching_runs:
    """Serve deterministic ``run_patternlet`` calls from a :class:`RunCache`.

    ::

        with caching_runs(RunCache(tmpdir)):
            run_selfcheck()          # lockstep runs computed at most once

    ``enabled=None`` defers to :func:`cache_enabled` (the ``REPRO_CACHE``
    escape hatch); when disabled the context is a no-op.  Nesting is
    safe: the previous interceptor is saved and restored.
    """

    def __init__(self, cache: RunCache | None = None, *, enabled: bool | None = None):
        self.enabled = cache_enabled() if enabled is None else enabled
        self.cache = cache if cache is not None else (RunCache() if self.enabled else None)
        self._prev: Any = None
        self._installed = False

    def __enter__(self) -> "caching_runs":
        if self.enabled:
            self._prev = set_run_interceptor(self._intercept)
            self._installed = True
        return self

    def __exit__(self, *exc: object) -> None:
        if self._installed:
            set_run_interceptor(self._prev)
            self._installed = False

    def _intercept(
        self, p: Patternlet, cfg: RunConfig, execute: Callable[[], CapturedRun]
    ) -> CapturedRun:
        assert self.cache is not None
        key = key_for_config(p, cfg)
        if key is None:  # thread-mode or unkeyable extras: always live
            return execute()
        scope = str(self.cache.root)
        run = self._serve(scope, key)
        if run is not None:
            return run
        follow = _begin_flight(scope, key)
        if follow is not None:
            # Another thread is already computing this key: wait it out,
            # then re-read the tiers it filled.  A leader that failed (or
            # outran the backstop) leaves us computing live — duplicated
            # work on a deterministic key, never a wrong answer.
            follow.wait(FLIGHT_WAIT_S)
            run = self._serve(scope, key)
            if run is not None:
                return run
            return self._compute(scope, key, execute)
        try:
            return self._compute(scope, key, execute)
        finally:
            _end_flight(scope, key)

    def _serve(self, scope: str, key: str) -> CapturedRun | None:
        """Serve ``key`` from the memo or the disk store (``None`` = miss)."""
        assert self.cache is not None
        served = _memo_serve(scope, key)  # already decoded in this process
        if served is not None:
            self.cache.hits += 1
            return served
        record = self.cache.get(key)
        if record is not None:
            try:
                run = run_from_record(record)
            except (CacheUnserializable, KeyError, TypeError, ValueError):
                pass  # unreadable record: fall through to a live run
            else:
                memo_run(scope, key, run, record)
                return run
        return None

    def _compute(
        self, scope: str, key: str, execute: Callable[[], CapturedRun]
    ) -> CapturedRun:
        """Run live and persist the result under ``key`` (memo + disk)."""
        assert self.cache is not None
        run = execute()
        try:
            record = run_to_record(run, key=key)
        except CacheUnserializable:
            return run  # run not expressible as a record: stays uncached
        memo_run(scope, key, run, record)  # memo is valid even if disk isn't
        self.cache.put(key, record)
        return run
