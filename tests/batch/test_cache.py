"""The run cache: hit semantics, escape hatches, key form, LRU bounds, degradation."""

from __future__ import annotations

import errno
import json
from pathlib import Path

import pytest

import repro.batch.cache as cache_mod
import repro.core.registry as registry
from repro.batch.cache import RunCache, cache_enabled, default_cache_dir
from repro.batch.pool import run_specs
from repro.batch.results import RECORD_SCHEMA, run_from_record, run_to_record
from repro.batch.specs import RunSpec, figure_suite_specs, spec_key
from repro.core.registry import run_patternlet
from repro.errors import CacheUnserializable

SPMD = RunSpec.make("openmp.spmd", tasks=2, seed=0)


def _cache(tmp_path, **kw):
    return RunCache(tmp_path / "runs", **kw)


def _sweep(root, specs):
    return run_specs(specs, max_workers=1, use_cache=True, cache_dir=str(root))


def _never_execute(monkeypatch):
    def sentinel(*a, **k):
        raise AssertionError("cache hit executed the patternlet")

    monkeypatch.setattr(registry, "capture_run", sentinel)


class TestHitNeverExecutes:
    def test_hit_is_served_without_running_the_patternlet(self, tmp_path, monkeypatch):
        spec = RunSpec.make("openmp.spmd", tasks=3, seed=2)
        first = _sweep(tmp_path, [spec])
        assert first.cache_stats["stores"] == 1 and first.hits == 0
        _never_execute(monkeypatch)
        served = _sweep(tmp_path, [spec])
        assert served.hits == 1 and not served.errors
        assert served.outcomes[0].text == first.outcomes[0].text

    def test_repeat_sweep_in_one_process_reads_each_record_once(
        self, tmp_path, monkeypatch
    ):
        # One front-end, no in-process memo: a second sweep of the same
        # cells in this process looks each one up on disk, once, and
        # executes nothing.
        specs = [SPMD, RunSpec.make("mpi.reduction", tasks=4, seed=1)]
        cold = _sweep(tmp_path, specs)
        gets = []
        real_get = RunCache.get

        def counting_get(cache, key):
            gets.append(key)
            return real_get(cache, key)

        monkeypatch.setattr(RunCache, "get", counting_get)
        _never_execute(monkeypatch)
        warm = _sweep(tmp_path, specs)
        assert gets == [o.key for o in cold.outcomes]
        assert warm.hit_rate == 1.0 and warm.cache_stats["hits"] == len(specs)

    def test_thread_mode_always_executes(self, tmp_path):
        spec = RunSpec.make("openmp.critical2", mode="thread", tasks=2, reps=50)
        for _ in range(2):
            report = _sweep(tmp_path, [spec])
            assert not report.errors and report.hits == 0
            assert report.cache_stats["stores"] == 0
        assert len(RunCache(tmp_path)) == 0


#: The whole of a schema-3 record: verdicts, span and wall, no events.
RECORD_KEYS = {"schema", "key", "wall", "span", "text", "summary", "races"}


class TestStoredVerdicts:
    """Records carry the verdicts a sweep reports, derived once at write."""

    _SPEC = RunSpec.make("openmp.reduction", toggles={"parallel_for": True}, seed=1)

    def _sweep(self, cache_dir, specs=None):
        return _sweep(cache_dir, specs or [self._SPEC])

    def test_record_stores_text_summary_and_races(self, tmp_path):
        cold = self._sweep(tmp_path)
        (outcome,) = cold.outcomes
        record = RunCache(tmp_path).get(outcome.key)
        assert record["schema"] == RECORD_SCHEMA == 3
        assert set(record) == RECORD_KEYS
        assert record["text"] == outcome.text
        assert json.loads(record["summary"]) == outcome.metrics
        assert record["races"] == outcome.metrics["races"] == outcome.races > 0

    def test_every_figure_suite_record_is_under_4_kb(self, tmp_path):
        specs = figure_suite_specs(seeds=range(8))
        report = _sweep(tmp_path, specs)
        assert not report.errors and report.cache_stats["stores"] == len(specs)
        sizes = [size for _, size, _ in RunCache(tmp_path)._records()]
        assert len(sizes) == len(specs)
        assert max(sizes) < 4096, max(sizes)

    def test_schema_2_record_with_events_is_a_miss_and_is_replaced(self, tmp_path):
        key = spec_key(self._SPEC)
        cold = self._sweep(tmp_path)
        path = RunCache(tmp_path)._path(key)
        old = json.loads(path.read_text())
        old.update(schema=2, events=[[0, 0, "task.start"], [1, 0, "task.end", 0.0]],
                   meta={"d": []}, result=None)
        path.write_text(json.dumps(old))
        again = self._sweep(tmp_path)
        assert again.executed == 1 and again.cache_stats["misses"] == 1
        (served,), (live,) = again.outcomes, cold.outcomes
        assert (served.text, served.span, served.races, served.metrics) == (
            live.text, live.span, live.races, live.metrics)
        stored = json.loads(path.read_text())
        assert stored["schema"] == 3 and set(stored) == RECORD_KEYS
        assert (stored["text"], stored["races"]) == (live.text, live.races)

    def test_run_from_record_is_a_stub_that_raises(self, tmp_path):
        (outcome,) = self._sweep(tmp_path).outcomes
        record = RunCache(tmp_path).get(outcome.key)
        with pytest.raises(CacheUnserializable):
            run_from_record(record)

    def test_record_missing_its_verdicts_is_recomputed(self, tmp_path):
        cold = self._sweep(tmp_path)
        path = RunCache(tmp_path)._path(cold.outcomes[0].key)
        broken = json.loads(path.read_text())
        del broken["summary"]
        path.write_text(json.dumps(broken))
        again = self._sweep(tmp_path)
        assert again.executed == 1 and not again.errors
        assert again.outcomes[0].cached is False
        # Read but not reportable: one miss and no hit, then one store.
        assert again.cache_stats == {"hits": 0, "misses": 1, "stores": 1,
                                     "evictions": 0}
        assert again.outcomes[0].metrics == cold.outcomes[0].metrics
        assert "summary" in json.loads(path.read_text())

    def test_warm_hit_neither_decodes_nor_derives(self, tmp_path, monkeypatch):
        import repro.batch.results as results_mod
        import repro.obs.derive as derive_mod
        import repro.trace as trace_mod
        import repro.trace.hb as hb_mod

        specs = [self._SPEC, RunSpec.make("mpi.reduction", tasks=4, seed=0)]
        cold = self._sweep(tmp_path, specs)

        def sentinel(*a, **k):
            raise AssertionError("a warm hit rebuilt or re-derived its run")

        for module, name in (
            (results_mod, "run_from_record"),
            (results_mod, "run_summary"),
            (derive_mod, "run_summary"),
            (trace_mod, "detect_races"),
            (hb_mod, "detect_races"),
            (registry, "capture_run"),
        ):
            monkeypatch.setattr(module, name, sentinel)
        for _ in range(2):  # a repeat warm sweep reads the disk again
            warm = self._sweep(tmp_path, specs)
            assert not warm.errors and warm.hit_rate == 1.0
            assert [(o.text, o.span, o.races, o.metrics) for o in warm.outcomes] == [
                (o.text, o.span, o.races, o.metrics) for o in cold.outcomes
            ]

    def test_served_outcomes_do_not_share_summaries(self, tmp_path):
        self._sweep(tmp_path)
        first = self._sweep(tmp_path).outcomes[0]
        first.metrics["races"] = -1
        assert self._sweep(tmp_path).outcomes[0].metrics["races"] > 0


class TestLookupBeforeDispatch:
    """A sweep looks every key up in its own process; only misses are dispatched."""

    def test_fully_warm_sweep_builds_no_pool(self, tmp_path, monkeypatch):
        import repro.batch.pool as pool_mod
        from repro.batch.pool import shutdown_pool

        specs = figure_suite_specs(seeds=range(2))
        _sweep(tmp_path, specs)
        shutdown_pool()
        _never_execute(monkeypatch)
        warm = run_specs(specs, max_workers=2, use_cache=True, cache_dir=str(tmp_path))
        assert pool_mod._POOL is None
        assert warm.pooled is False and warm.workers == 1
        assert warm.hit_rate == 1.0 and not warm.errors
        assert warm.cache_stats == {"hits": len(specs), "misses": 0, "stores": 0,
                                    "evictions": 0}

    def test_half_warm_sweep_dispatches_only_its_misses(self, tmp_path, monkeypatch):
        import repro.batch.pool as pool_mod
        from repro.batch.pool import shutdown_pool

        def fingerprint(report):
            return [(o.text, o.span, o.races, o.metrics) for o in report.outcomes]

        specs = figure_suite_specs(seeds=range(2))
        serial = run_specs(specs, max_workers=1, use_cache=False)
        _sweep(tmp_path, specs[::2])
        uncached = len(specs[1::2])
        gets = []
        real_get = RunCache.get

        def counting_get(cache, key):
            gets.append(key)
            return real_get(cache, key)

        dispatched = []
        real_map_calls = pool_mod.map_calls

        def recording_map_calls(fn, items, **kw):
            dispatched.extend(spec for spec, _ in items)
            return real_map_calls(fn, items, **kw)

        monkeypatch.setattr(RunCache, "get", counting_get)
        monkeypatch.setattr(pool_mod, "map_calls", recording_map_calls)
        shutdown_pool()  # workers fork with the counting get in place
        try:
            half = run_specs(specs, max_workers=2, use_cache=True,
                             cache_dir=str(tmp_path))
        finally:
            shutdown_pool()
        assert half.pooled and not half.errors
        assert dispatched == specs[1::2]
        # Worker lookups would add misses; hits sent to the pool would add
        # stores.  Neither happens: each key is read once, by the caller.
        stats = half.cache_stats
        assert stats["stores"] == stats["misses"] == uncached
        assert stats["hits"] == len(specs) - uncached
        assert sorted(gets) == sorted(spec_key(s) for s in specs)
        assert [o.cached for o in half.outcomes] == [
            i % 2 == 0 for i in range(len(specs))]
        assert fingerprint(half) == fingerprint(serial)


class TestEscapeHatches:
    def test_repro_cache_0_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert not cache_enabled()
        for _ in range(2):  # use_cache=None defers to the env gate
            report = run_specs([SPMD], max_workers=1)
            assert report.hits == 0 and report.cache_stats == {}

    def test_cache_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "relocated"))
        assert default_cache_dir() == tmp_path / "relocated"

    def test_session_cache_root_is_outside_home(self, tmp_path_factory):
        # Tier-1 must not write records into ~/.cache/repro-runs.
        root = default_cache_dir()
        assert root != Path.home() / ".cache" / "repro-runs"
        assert root.is_relative_to(tmp_path_factory.getbasetemp())

    def test_use_cache_false_stores_nothing(self, tmp_path):
        report = run_specs([SPMD], max_workers=1, use_cache=False,
                           cache_dir=str(tmp_path))
        assert report.outcomes[0].text and report.cache_stats == {}
        assert len(RunCache(tmp_path)) == 0


class TestKeyForm:
    """Only a content address names a record; no other key touches a file."""

    def test_get_of_a_hostile_key_is_a_miss(self, key_trap):
        cache = RunCache(key_trap.root)
        assert cache.get(key_trap.key) is None
        assert cache.stats() == {"hits": 0, "misses": 1, "stores": 0, "evictions": 0}
        assert key_trap.sentinel.read_text() == key_trap.text

    def test_put_of_a_hostile_key_stores_nothing(self, key_trap):
        beside = sorted(key_trap.sentinel.parent.iterdir())
        cache = RunCache(key_trap.root)
        assert cache.put(key_trap.key, {"schema": RECORD_SCHEMA, "key": "x"}) is False
        assert cache.stores == 0
        assert key_trap.sentinel.read_text() == key_trap.text
        assert sorted(key_trap.sentinel.parent.iterdir()) == beside


class TestStore:
    @pytest.mark.parametrize("blob", [b"{ not json", b"\xff\xfe not utf-8"],
                             ids=["not-json", "not-utf-8"])
    def test_corrupt_record_is_a_miss_and_removed(self, tmp_path, blob):
        _sweep(tmp_path, [SPMD])
        cache = RunCache(tmp_path)
        key = spec_key(SPMD)
        path = cache._path(key)
        path.write_bytes(blob)
        assert cache.get(key) is None
        assert not path.exists()
        again = _sweep(tmp_path, [SPMD])  # recomputes and re-stores
        assert again.executed == 1 and path.exists()

    @pytest.mark.parametrize("code", [errno.EMFILE, errno.EACCES],
                             ids=["EMFILE", "EACCES"])
    def test_a_record_that_cannot_be_opened_is_a_miss_left_in_place(
        self, tmp_path, monkeypatch, code
    ):
        _sweep(tmp_path, [SPMD])
        key = spec_key(SPMD)
        cache = RunCache(tmp_path)
        path = cache._path(key)
        stored = path.read_bytes()

        def failing_open(*a, **k):
            raise OSError(code, "injected")

        monkeypatch.setattr(cache_mod, "open", failing_open, raising=False)
        assert cache.get(key) is None
        assert cache.stats() == {"hits": 0, "misses": 1, "stores": 0, "evictions": 0}
        assert path.read_bytes() == stored
        monkeypatch.delattr(cache_mod, "open")
        record = cache.get(key)
        assert record is not None and record["key"] == key and cache.hits == 1

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        _sweep(tmp_path, [SPMD])
        cache = RunCache(tmp_path)
        key = spec_key(SPMD)
        record = json.loads(cache._path(key).read_text())
        record["schema"] = 999
        cache._path(key).write_text(json.dumps(record))
        assert cache.get(key) is None

    def test_lru_prune_keeps_most_recent(self, tmp_path):
        cache = _cache(tmp_path, max_bytes=1)  # everything is over the cap
        record = run_to_record(run_patternlet("openmp.spmd", tasks=2, seed=0), key="k")
        blob_size = len(json.dumps(record, separators=(",", ":")))
        cache.max_bytes = int(blob_size * 2.5)  # room for two records
        for i in range(4):
            assert cache.put(f"{i:02d}" + "a" * 62, record)
        assert cache.prune() >= 1
        assert cache.size_bytes() <= cache.max_bytes

    def test_clear_removes_everything(self, tmp_path):
        _sweep(tmp_path, [SPMD, RunSpec.make("openmp.spmd", tasks=3, seed=0)])
        cache = RunCache(tmp_path)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_unwritable_root_degrades_to_live_runs(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where the cache dir should be")
        report = _sweep(blocked / "nested", [SPMD])
        assert not report.errors and report.outcomes[0].text  # ran fine
        assert report.cache_stats["stores"] == 0
        assert len(RunCache(blocked / "nested")) == 0

    def test_counters(self, tmp_path):
        cold = _sweep(tmp_path, [SPMD])
        warm = _sweep(tmp_path, [SPMD])
        assert cold.cache_stats == {"hits": 0, "misses": 1, "stores": 1, "evictions": 0}
        assert warm.cache_stats == {"hits": 1, "misses": 0, "stores": 0, "evictions": 0}

    def test_unserialisable_record_touches_nothing(self, tmp_path):
        cache = _cache(tmp_path)
        assert not cache.put("ab" + "0" * 62, {"schema": RECORD_SCHEMA, "x": object()})
        assert not cache.root.exists()  # no fan-out directory, no temp file
        assert cache.stores == 0

    def test_pooled_sweep_honours_the_size_cap(self, tmp_path, monkeypatch):
        # Pool workers build a RunCache per cell, so the prune budget
        # must outlive the instance: every worker prunes after its
        # PRUNE_EVERY-th store to the root, whichever instances made them.
        from repro.batch.pool import shutdown_pool

        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "0")
        shutdown_pool()  # fork workers that see the cap
        root = tmp_path / "runs"
        try:
            report = run_specs(figure_suite_specs(seeds=range(6)), max_workers=2,
                               use_cache=True, cache_dir=str(root))
        finally:
            shutdown_pool()
        assert report.pooled and not report.errors
        assert report.cache_stats["stores"] == report.runs
        assert report.cache_stats["evictions"] > 0
        assert len(RunCache(root)) <= report.workers * (RunCache.PRUNE_EVERY - 1)

    def test_prune_budget_is_exact_under_threads(self, tmp_path, monkeypatch):
        # Many instances on many threads share one root's budget: a lost
        # update would skip a prune.  Every PRUNE_EVERY-th store prunes.
        import sys
        import threading

        prunes = []
        monkeypatch.setattr(RunCache, "prune", lambda self: prunes.append(1) or 0)
        root = tmp_path / "runs"
        n_threads, puts = 8, 20 * RunCache.PRUNE_EVERY

        def writer(wid):
            for i in range(puts):
                RunCache(root).put(f"{wid:02d}{i:062d}", {"schema": RECORD_SCHEMA})

        threads = [threading.Thread(target=writer, args=(w,)) for w in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(RunCache(root)) == n_threads * puts
        assert len(prunes) == n_threads * puts // RunCache.PRUNE_EVERY

    def test_prune_counts_evictions(self, tmp_path):
        cache = _cache(tmp_path, max_bytes=1)
        record = {"schema": 1, "pad": "x" * 256}
        for i in range(3):
            cache.put(f"{i:02d}" + "c" * 62, record)
        removed = cache.prune()
        assert removed >= 1
        assert cache.stats()["evictions"] == cache.evictions >= removed


# -- multi-writer safety ------------------------------------------------------

# Worker bodies live at module level so the fork/spawn machinery can
# import them.  Each hammers one shared cache root with an interleaved
# put/get/prune stream: every key is content-shaped (sha256 hex) but
# drawn from a small universe, so processes constantly collide on the
# same record files — the pool workers' access pattern, concentrated.

_KEY_UNIVERSE = 24


def _stress_key(i: int) -> str:
    import hashlib

    return hashlib.sha256(str(i % _KEY_UNIVERSE).encode()).hexdigest()


def _stress_worker(root: str, max_bytes: int, rounds: int, wid: int) -> None:
    from repro.batch.cache import RunCache
    from repro.batch.results import RECORD_SCHEMA

    cache = RunCache(root, max_bytes=max_bytes)
    record = {"schema": RECORD_SCHEMA, "writer": wid, "pad": "x" * 300}
    for r in range(rounds):
        for i in range(_KEY_UNIVERSE):
            cache.put(_stress_key(i), dict(record, key=_stress_key(i)))
            cache.get(_stress_key((i + wid) % _KEY_UNIVERSE))
            if (i + r) % 5 == wid % 5:
                cache.prune()


def _spawn_stress(root, max_bytes, rounds, n_procs):
    import multiprocessing

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        ctx = multiprocessing.get_context()
    procs = [
        ctx.Process(target=_stress_worker, args=(str(root), max_bytes, rounds, w))
        for w in range(n_procs)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
    assert all(p.exitcode == 0 for p in procs)


class TestMultiWriter:
    def test_concurrent_writers_never_corrupt_records(self, tmp_path):
        # Unbounded cache: every key every writer stored must survive as
        # whole, parseable, schema-correct JSON — no lost records, no
        # torn files, however the atomic replaces interleave.
        root = tmp_path / "shared"
        _spawn_stress(root, max_bytes=1 << 30, rounds=6, n_procs=4)
        cache = RunCache(root)
        for i in range(_KEY_UNIVERSE):
            record = cache.get(_stress_key(i))
            assert record is not None, f"record {i} was lost"
            assert record["key"] == _stress_key(i)
        for path in root.glob("*/*.json"):
            json.loads(path.read_text())  # nothing torn on disk

    def test_concurrent_pruners_respect_the_size_bound(self, tmp_path):
        # Tiny cap: every writer prunes constantly, racing unlinks
        # against each other's puts and each other's prunes.  Whatever
        # survives must be whole, and one quiet final prune must land
        # the store under the cap.
        root = tmp_path / "bounded"
        max_bytes = 4 * 400  # roughly four records
        _spawn_stress(root, max_bytes=max_bytes, rounds=6, n_procs=4)
        for path in root.glob("*/*.json"):
            json.loads(path.read_text())
        cache = RunCache(root, max_bytes=max_bytes)
        cache.prune()
        assert cache.size_bytes() <= max_bytes

    def test_prune_tolerates_vanishing_directories(self, tmp_path):
        # A concurrent pruner can delete a whole fan-out directory
        # between the walk listing it and descending into it.
        import shutil

        cache = _cache(tmp_path)
        cache.put("aa" + "0" * 62, {"schema": 1, "pad": "x"})
        cache.put("bb" + "0" * 62, {"schema": 1, "pad": "x"})
        real_iterdir = type(cache.root).iterdir

        def racing_iterdir(self):
            if self == cache.root:
                entries = list(real_iterdir(self))
                shutil.rmtree(cache.root / "aa", ignore_errors=True)
                return iter(entries)
            return real_iterdir(self)

        import unittest.mock

        with unittest.mock.patch.object(
            type(cache.root), "iterdir", racing_iterdir
        ):
            assert cache.prune() == 0  # under cap; walk survives the race
        assert len(cache) == 1
