"""The metrics byte-identity guarantee.

Canonical metrics are a pure function of the trace plus identity meta,
so (a) reruns of the same spec agree exactly and (b) serial, pooled, and
cache-served summaries agree byte-for-byte.
"""

from __future__ import annotations

import json

import pytest

from repro.batch.cache import RunCache
from repro.batch.pool import run_specs, shutdown_pool
from repro.batch.specs import RunSpec
from repro.core.registry import run_patternlet
from repro.obs import metrics_dict


def _canon(run) -> str:
    return json.dumps(metrics_dict(run), sort_keys=True)


@pytest.fixture(autouse=True)
def clean_slate():
    yield
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
    def test_cache_served_summary_is_byte_identical(self, tmp_path):
        # A served outcome reports the summary its record stored; it must
        # be the live run's metrics_dict summary, byte for byte.
        live = run_patternlet("openmp.parallelLoopDynamic", tasks=4, seed=1)
        want = json.dumps(metrics_dict(live)["summary"], sort_keys=True)
        spec = RunSpec.make("openmp.parallelLoopDynamic", tasks=4, seed=1)
        cache_dir = str(tmp_path / "runs")
        cold = run_specs([spec], max_workers=1, use_cache=True, cache_dir=cache_dir)
        served = run_specs([spec], max_workers=1, use_cache=True, cache_dir=cache_dir)
        assert cold.hits == 0 and served.hits == 1
        assert served.cache_stats["hits"] == 1
        for report in (cold, served):
            assert json.dumps(report.outcomes[0].metrics, sort_keys=True) == want
        # "cached" labels the outcome, never the metrics.
        record = RunCache(cache_dir).get(served.outcomes[0].key)
        assert "cached" not in record["summary"]

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
