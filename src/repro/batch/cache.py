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
records immutable-by-key, so each process also keeps a small record
memo (:mod:`repro.batch.results`) and repeat hits skip the JSON parse
and event rebuild entirely.  The memo is valid even where the disk is
not writable — it is filled on the store path regardless of ``put``'s
outcome.

:class:`caching_runs` is the consumer-facing hook: a context manager
that installs a :func:`~repro.core.registry.set_run_interceptor` serving
deterministic ``run_patternlet`` calls from the store and persisting the
misses.  The batch pool enters it around worker calls; ``patternlet
selfcheck`` and ``patternlet sweep`` enter it around whole passes.  Its
one lookup-or-compute step has two front-ends: the interceptor, which
hands back a whole run (events decoded) for callers that read the
trace, and :meth:`caching_runs.outcome`, which hands a sweep cell its
outcome from the record's stored verdicts without decoding the events.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Any, Callable, Mapping, TypeVar

from repro.batch.results import (
    RECORD_SCHEMA,
    RunOutcome,
    memo_entry,
    memo_record,
    outcome_from_record,
    outcome_from_run,
    run_from_entry,
    run_from_record,
    run_to_record,
)
from repro.batch.specs import key_for_config
from repro.core.capture import CapturedRun
from repro.core.registry import (
    Patternlet,
    RunConfig,
    run_interceptor,
    set_run_interceptor,
)
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


#: Stores since the last prune, per cache root, for this whole process.
#: The pool and the serve lane build a fresh :class:`RunCache` per call,
#: so a per-instance count would never reach ``PRUNE_EVERY``.
_PUTS_SINCE_PRUNE: dict[str, int] = {}
_PUTS_LOCK = threading.Lock()


def _reset_put_budget() -> None:
    # A forked child starts its own budget, with a lock no parent thread
    # could have held across the fork.
    global _PUTS_LOCK
    _PUTS_LOCK = threading.Lock()
    _PUTS_SINCE_PRUNE.clear()


if hasattr(os, "register_at_fork"):  # POSIX; a no-op concern elsewhere
    os.register_at_fork(after_in_child=_reset_put_budget)


class RunCache:
    """One on-disk record store (see module docstring for layout/policy)."""

    #: Prune every N stores to one root in this process, amortising the
    #: directory walk.
    PRUNE_EVERY = 32

    def __init__(self, root: str | Path | None = None, *, max_bytes: int | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.max_bytes = max_bytes if max_bytes is not None else _max_bytes_from_env()
        #: Served / missed / stored / pruned record counts for this instance.
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0

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
        """Persist ``record`` under ``key`` (atomic write; False on failure).

        The record is serialised before any file exists, so one that
        will not serialise leaves nothing behind, then written with one
        ``write`` (the streaming encoder costs more than the run for
        small cells).
        """
        try:
            blob = json.dumps(record, separators=(",", ":")).encode()
        except (TypeError, ValueError):
            return False
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(blob)
                os.replace(tmp, path)
            except BaseException:
                _quiet_unlink(Path(tmp))
                raise
        except OSError:
            return False
        self.stores += 1
        root = str(self.root)
        with _PUTS_LOCK:
            puts = _PUTS_SINCE_PRUNE.get(root, 0) + 1
            due = puts >= self.PRUNE_EVERY
            _PUTS_SINCE_PRUNE[root] = 0 if due else puts
        if due:
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


_T = TypeVar("_T")


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

    @staticmethod
    def installed() -> "caching_runs | None":
        """The innermost entered context in this process, if any."""
        owner = getattr(run_interceptor(), "__self__", None)
        return owner if isinstance(owner, caching_runs) else None

    # -- the two front-ends ----------------------------------------------------

    def _intercept(
        self, p: Patternlet, cfg: RunConfig, execute: Callable[[], CapturedRun]
    ) -> CapturedRun:
        """The trace front-end: a whole run, its events decoded on a hit."""
        assert self.cache is not None
        key = key_for_config(p, cfg)
        if key is None:  # thread-mode or unkeyable extras: always live
            return execute()
        return self._lookup_or_compute(
            key, self._served_run, lambda: self._compute(key, execute)[0]
        )

    def outcome(
        self, spec: Any, key: str, execute: Callable[[], CapturedRun]
    ) -> RunOutcome:
        """The outcome front-end: ``spec``'s :class:`RunOutcome` under ``key``.

        A hit is built from the record's stored verdicts and never
        decodes the events; a miss runs ``execute()`` once and reports
        the verdicts its record write derived.  ``key`` must be the
        spec's content address.
        """
        assert self.cache is not None

        def computed() -> RunOutcome:
            run, record = self._compute(key, execute)
            if record is None:  # not expressible as a record: uncached
                return outcome_from_run(spec, key, run)
            return outcome_from_record(spec, key, record, cached=False)

        return self._lookup_or_compute(
            key, lambda scope, k: self._served_outcome(spec, scope, k), computed
        )

    # -- the shared lookup-or-compute step -------------------------------------

    def _lookup_or_compute(
        self,
        key: str,
        serve: Callable[[str, str], "_T | None"],
        compute: Callable[[], _T],
    ) -> _T:
        """``serve`` ``key`` from the memo or disk, else ``compute`` it once.

        ``compute`` runs under this process's single flight for the key.
        """
        assert self.cache is not None
        scope = str(self.cache.root)
        served = serve(scope, key)
        if served is not None:
            return served
        follow = _begin_flight(scope, key)
        if follow is not None:
            # Another thread is already computing this key: wait it out,
            # then re-read the tiers it filled.  A leader that failed (or
            # outran the backstop) leaves us computing live — duplicated
            # work on a deterministic key, never a wrong answer.
            follow.wait(FLIGHT_WAIT_S)
            served = serve(scope, key)
            if served is not None:
                return served
            return compute()
        try:
            return compute()
        finally:
            _end_flight(scope, key)

    def _served_run(self, scope: str, key: str) -> CapturedRun | None:
        """``key`` as a whole run from the memo or disk (``None`` = miss)."""
        assert self.cache is not None
        entry = memo_entry(scope, key)
        if entry is not None and entry["events"] is not None:
            self.cache.hits += 1  # already decoded in this process
            return run_from_entry(entry)
        record = self.cache.get(key)
        if record is not None:
            try:
                run = run_from_record(record)
            except (CacheUnserializable, KeyError, TypeError, ValueError):
                pass  # unreadable record: fall through to a live run
            else:
                memo_record(scope, key, record, run.trace.events())
                return run
        return None

    def _served_outcome(self, spec: Any, scope: str, key: str) -> RunOutcome | None:
        """``key``'s outcome from the memo or disk (``None`` = miss)."""
        assert self.cache is not None
        entry = memo_entry(scope, key)
        if entry is not None:
            self.cache.hits += 1
            record = entry
        else:
            record = self.cache.get(key)
            if record is None:
                return None
        try:
            outcome = outcome_from_record(spec, key, record)
        except (KeyError, TypeError, ValueError):
            return None  # unreadable record: fall through to a live run
        if entry is None:
            memo_record(scope, key, record)
        return outcome

    def _compute(
        self, key: str, execute: Callable[[], CapturedRun]
    ) -> tuple[CapturedRun, dict[str, Any] | None]:
        """Run live and persist the result under ``key`` (memo + disk).

        Returns the run and its record (``None`` when the run is not
        expressible as one and stays uncached).
        """
        assert self.cache is not None
        run = execute()
        try:
            record = run_to_record(run, key=key)
        except CacheUnserializable:
            return run, None
        # The memo is valid even if the disk is not.
        memo_record(str(self.cache.root), key, record, run.trace.events())
        self.cache.put(key, record)
        return run, record
