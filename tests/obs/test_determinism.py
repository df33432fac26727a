"""The metrics byte-identity guarantee.

Canonical metrics are a pure function of the trace plus identity meta,
so (a) reruns of the same spec agree exactly and (b) serial, pooled, and
cache-served executions agree byte-for-byte.
"""

from __future__ import annotations

import json

import pytest

from repro.batch.cache import RunCache, caching_runs
from repro.batch.pool import run_specs, shutdown_pool
from repro.batch.results import _memo_clear
from repro.batch.specs import RunSpec
from repro.core.registry import run_patternlet
from repro.obs import metrics_dict


def _canon(run) -> str:
    return json.dumps(metrics_dict(run), sort_keys=True)


@pytest.fixture(autouse=True)
def clean_slate():
    _memo_clear()
    yield
    _memo_clear()
    shutdown_pool()


class TestRerunIdentity:
    @pytest.mark.parametrize(
        "name",
        [
            "openmp.parallelLoopEqualChunks",
            "openmp.parallelLoopChunksOf1",
            "openmp.parallelLoopDynamic",
            "mpi.messagePassing",
        ],
    )
    def test_same_spec_same_metrics(self, name):
        a = run_patternlet(name, tasks=4, seed=3)
        b = run_patternlet(name, tasks=4, seed=3)
        assert _canon(a) == _canon(b)

    def test_different_seed_differs_for_dynamic(self):
        a = run_patternlet("openmp.parallelLoopDynamic", tasks=4, seed=0)
        b = run_patternlet("openmp.parallelLoopDynamic", tasks=4, seed=2)
        assert _canon(a) != _canon(b)


class TestCacheServedIdentity:
    def test_cache_served_metrics_are_byte_identical(self, tmp_path):
        live = run_patternlet("openmp.parallelLoopDynamic", tasks=4, seed=1)
        want = _canon(live)
        cache_dir = str(tmp_path / "runs")
        with caching_runs(RunCache(cache_dir), enabled=True):
            cold = run_patternlet(
                "openmp.parallelLoopDynamic", tasks=4, seed=1
            )
        assert _canon(cold) == want
        _memo_clear()  # force the disk tier, not the in-process memo
        served_cache = RunCache(cache_dir)
        with caching_runs(served_cache, enabled=True):
            served = run_patternlet(
                "openmp.parallelLoopDynamic", tasks=4, seed=1
            )
        assert served.meta.get("cached") is True
        assert served_cache.stats()["hits"] == 1
        # A served run is indistinguishable: "cached" never labels metrics.
        assert _canon(served) == want
        assert "cached" not in json.dumps(metrics_dict(served))

    def test_pooled_summaries_match_serial(self):
        specs = [
            RunSpec(patternlet="mpi.messagePassing", tasks=4, seed=s)
            for s in range(4)
        ]
        serial = run_specs(specs, max_workers=1, use_cache=False)
        pooled = run_specs(specs, max_workers=2, use_cache=False)
        assert not serial.errors and not pooled.errors
        for a, b in zip(serial.outcomes, pooled.outcomes):
            assert json.dumps(a.metrics, sort_keys=True) == json.dumps(
                b.metrics, sort_keys=True
            )
