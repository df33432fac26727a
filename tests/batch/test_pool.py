"""The batch pool: worker isolation, serial fallback, degradation paths."""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

import repro.batch.pool as pool_mod
from repro.batch.pool import default_workers, map_calls, run_specs, shutdown_pool
from repro.batch.specs import RunSpec, figure_suite_specs
from repro.trace import muted, pop_recorder, push_recorder
from repro.trace.events import TraceRecorder, emit


@pytest.fixture(autouse=True)
def pool_hygiene():
    """Leave no persistent pool behind a test."""
    yield
    shutdown_pool()


def _double(x):
    """Module-level so the pool can pickle it by reference."""
    return x * 2


#: The kill order for :func:`_exec_or_die`: the marked spec, the flag
#: file that claims the one kill, and the parent's pid.  Set before the
#: pool forks, so every worker inherits it.
_DIE: dict = {}


def _exec_or_die(spec):
    """``_exec_spec``, except the worker that picks up the marked spec is
    SIGKILLed — once, and never in the parent (the serial rerun)."""
    if spec == _DIE.get("spec") and os.getpid() != _DIE["parent"]:
        try:
            os.close(os.open(_DIE["flag"], os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            pass
        else:
            os.kill(os.getpid(), signal.SIGKILL)
    return pool_mod._exec_spec(spec)


def _run_and_count(spec_seed):
    """Run one deterministic patternlet; return its print-line count."""
    from repro.core.registry import run_patternlet

    run = run_patternlet("openmp.spmd", tasks=3, seed=spec_seed)
    return len(run.text.splitlines())


class TestDefaults:
    def test_default_workers_bounds(self):
        assert default_workers(0) == 1
        assert default_workers(1) == 1
        assert 1 <= default_workers(100) <= 8

    def test_repro_jobs_overrides_the_heuristic(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_workers(100) == 3
        assert default_workers(2) == 2  # still clamped to the item count
        assert default_workers(0) == 1

    def test_repro_jobs_garbage_falls_back(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        heuristic = default_workers(100)
        for bad in ("zero", "", "-2", "0"):
            monkeypatch.setenv("REPRO_JOBS", bad)
            assert default_workers(100) == heuristic

    def test_single_item_runs_in_process(self):
        results, workers, pooled = map_calls(_double, [21], max_workers=8)
        assert results == [42] and workers == 1 and not pooled

    def test_max_workers_1_runs_in_process(self):
        results, workers, pooled = map_calls(_double, [1, 2, 3], max_workers=1)
        assert results == [2, 4, 6] and workers == 1 and not pooled


class TestPooled:
    def test_pooled_map_preserves_order(self):
        results, _workers, pooled = map_calls(
            _double, list(range(8)), max_workers=2, use_cache=False
        )
        assert results == [x * 2 for x in range(8)]
        assert pooled  # fork is available on the CI platforms we run

    def test_workers_do_not_emit_into_the_parent_recorder(self):
        parent = TraceRecorder()
        push_recorder(parent)
        try:
            results, _w, pooled = map_calls(
                _run_and_count, [0, 1, 2, 3], max_workers=2, use_cache=False
            )
        finally:
            pop_recorder(parent)
        assert pooled and all(n >= 3 for n in results)
        # The parent's recorder was ambient at fork time; a leak here means
        # a worker inherited it instead of resetting (satellite 1).
        assert len(parent) == 0

    def test_pool_is_persistent_across_batches(self):
        map_calls(_double, [1, 2], max_workers=2, use_cache=False)
        first = pool_mod._POOL
        map_calls(_double, [3, 4], max_workers=2, use_cache=False)
        assert pool_mod._POOL is first and first is not None


class TestFallback:
    def test_pool_creation_failure_degrades_to_serial(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "_get_pool", lambda workers: None)
        results, workers, pooled = map_calls(
            _double, [1, 2, 3], max_workers=4, use_cache=False
        )
        assert results == [2, 4, 6] and workers == 1 and not pooled

    def test_mid_batch_collapse_reruns_serially(self, monkeypatch):
        class BrokenPool:
            def map(self, *a, **k):
                raise RuntimeError("pool died")

            def shutdown(self, *a, **k):
                pass

        monkeypatch.setattr(pool_mod, "_get_pool", lambda workers: BrokenPool())
        results, workers, pooled = map_calls(
            _double, [1, 2, 3], max_workers=4, use_cache=False
        )
        assert results == [2, 4, 6] and workers == 1 and not pooled

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="workers must inherit the kill order by fork",
    )
    def test_worker_killed_mid_batch_reruns_serially(self, tmp_path, monkeypatch):
        def fingerprint(outcomes):
            return [(o.text, o.races, o.span, o.error) for o in outcomes]

        specs = figure_suite_specs(seeds=range(2))
        serial = run_specs(specs, max_workers=1, use_cache=False).outcomes
        flag = tmp_path / "killed"
        monkeypatch.setitem(_DIE, "spec", specs[len(specs) // 2])
        monkeypatch.setitem(_DIE, "flag", str(flag))
        monkeypatch.setitem(_DIE, "parent", os.getpid())
        shutdown_pool()
        before = {p.pid for p in multiprocessing.active_children()}

        outcomes, workers, pooled = map_calls(
            _exec_or_die, specs, max_workers=2, use_cache=False
        )
        assert flag.exists(), "no worker picked up the marked spec"
        assert not pooled and workers == 1
        assert fingerprint(outcomes) == fingerprint(serial)

        report = run_specs(specs, max_workers=2, use_cache=False)
        assert report.pooled and report.workers == 2
        assert fingerprint(report.outcomes) == fingerprint(serial)

        shutdown_pool()
        deadline = time.monotonic() + 30.0
        while True:
            alive = [p for p in multiprocessing.active_children()
                     if p.pid not in before]
            if not alive or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        assert alive == [], f"leaked worker processes: {alive}"


class TestMutedReentrancy:
    def test_nested_muted_contexts(self):
        rec = TraceRecorder()
        push_recorder(rec)
        try:
            emit("t.one")
            m = muted()
            with m:
                emit("t.hidden")
                with m:  # same instance, nested: must not unbalance
                    emit("t.hidden2")
                emit("t.hidden3")
            emit("t.two")
        finally:
            pop_recorder(rec)
        assert [e.kind for e in rec.events()] == ["t.one", "t.two"]


class TestRunSpecs:
    def test_report_shape_and_error_capture(self):
        specs = [
            RunSpec.make("openmp.spmd", tasks=2, seed=0),
            RunSpec.make("no.such.patternlet"),
        ]
        report = run_specs(specs, max_workers=1, use_cache=False)
        assert report.runs == 2 and len(report.errors) == 1
        good, bad = report.outcomes
        assert good.ok and good.text and good.key
        assert not bad.ok and "no.such.patternlet" in (bad.error or "")
        assert report.stats()["errors"] == 1
