"""The content-addressed run cache.

Records live under one root (default ``~/.cache/repro-runs/``) as
``<key[:2]>/<key>.json`` — the key is the SHA-256 from
:func:`repro.batch.specs.spec_key`, so a record is valid for exactly as
long as the patternlet source, engine, and run parameters it was derived
from; there is no TTL and no explicit invalidation, only keys that stop
being asked for.  A size cap (default 256 MiB) is enforced LRU-style:
reads touch the record's mtime, and pruning drops the stalest records
first.

Only a key of that form — 64 lowercase hex digits — names a record.
Any other key (one a client typed into ``GET /report/<key>``, say) is a
miss that opens, stats, writes and unlinks nothing, so no key can reach
a file outside the root.

Environment knobs (the escape hatches):

``REPRO_CACHE=0``
    Disable the cache entirely (every run executes live).
``REPRO_CACHE_DIR=<path>``
    Relocate the store (CI keeps it inside the workspace).
``REPRO_CACHE_MAX_MB=<n>``
    Resize the LRU cap.

Every filesystem touch is wrapped: a read-only HOME, a corrupt record,
or a concurrent writer degrade to cache misses, never to run failures.
A record is removed only when its bytes were read and are not a record
of this schema; one that cannot be opened (out of file descriptors,
say) is left in place.

The store is explicitly **multi-writer safe**: the batch pool and the
serve daemon point many worker processes at one root.  Writes go
through a temp file plus atomic ``os.replace`` (a reader sees the old
record or the new one, never a torn one), the pruning walk tolerates
records and whole fan-out directories deleted mid-scan by a concurrent
pruner, and an eviction is only counted by the process whose ``unlink``
actually removed the file — two caches pruning the same root cannot
double-count one eviction between them.  Two processes that miss the
same key at once both compute it; the record is deterministic, so the
second write replaces the first with the same bytes.

:meth:`RunCache.outcome` is the cache's one front-end: the batch
pool's ``_exec_spec`` hands it a spec, its key and a way to run it, and
gets back the spec's outcome — from the record's stored verdicts on a
hit, or from one live run whose record it stores.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import threading
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.batch.results import (
    RECORD_SCHEMA,
    RunOutcome,
    outcome_from_record,
    outcome_from_run,
    run_to_record,
)
from repro.core.capture import CapturedRun
from repro.errors import CacheUnserializable

__all__ = [
    "DEFAULT_MAX_BYTES",
    "RunCache",
    "cache_enabled",
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

        A hit touches the file's mtime (the LRU clock).  A record that
        cannot be opened or read (absent, EMFILE, EACCES, EIO) is a miss
        that touches no file: it may be valid.  Bytes that were read and
        are not a record of this schema (corrupt, or an older layout)
        are a miss too, and the file is removed so it cannot keep
        costing a parse attempt.  A key that is not a content address
        is a miss that touches no file.
        """
        if not _is_key(key):
            self.misses += 1
            return None
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as fh:
                record = json.load(fh)
        except OSError:
            self.misses += 1
            return None
        except ValueError:  # includes UnicodeDecodeError
            record = None
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
        small cells).  A key that is not a content address stores
        nothing.
        """
        if not _is_key(key):
            return False
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

    def outcome(
        self, spec: Any, key: str, execute: Callable[[], CapturedRun]
    ) -> RunOutcome:
        """``spec``'s :class:`RunOutcome`, stored under its content address ``key``.

        A hit is built from the record's stored verdicts and runs
        nothing.  A miss, or a record too malformed to report from, runs
        ``execute()`` once, stores the run's record and reports the
        verdicts that write derived.  A run that is not expressible as a
        record is reported uncached.
        """
        record = self.get(key)
        if record is not None:
            try:
                return outcome_from_record(spec, key, record)
            except (KeyError, TypeError, ValueError):
                pass  # malformed record: run live and replace it
        run = execute()
        try:
            record = run_to_record(run, key=key)
        except CacheUnserializable:
            return outcome_from_run(spec, key, run)
        self.put(key, record)
        return outcome_from_record(spec, key, record, cached=False)

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


_KEY_FORM = re.compile(r"[0-9a-f]{64}")


def _is_key(key: Any) -> bool:
    """True for a content address: 64 lowercase hex digits, as ``spec_key`` makes."""
    return isinstance(key, str) and _KEY_FORM.fullmatch(key) is not None


def _quiet_unlink(path: Path) -> bool:
    try:
        path.unlink()
        return True
    except OSError:
        return False
