"""The batch equivalence guarantee: serial ≡ pooled ≡ cache-served.

The batch layer's correctness bar: however a deterministic run is
produced — in-process, on a forked worker, reported from a disk record,
or written to the store by pool workers and read back by a later sweep —
its printed text, span, happens-before race verdict and run summary are
byte-for-byte the figure suite's.
"""

from __future__ import annotations

import pytest

from repro.batch.pool import run_specs, shutdown_pool
from repro.batch.specs import figure_suite_specs
from repro.core.selfcheck import run_selfcheck

SEEDS = range(8)


def _fingerprint(report):
    # metrics: a cache-served outcome reports the summary stored in its
    # record, so every leg below proves stored == recomputed.
    return [(o.text, o.span, o.races, o.metrics) for o in report.outcomes]


@pytest.fixture(autouse=True)
def clean_slate():
    """No leftover pool around any equivalence pass."""
    yield
    shutdown_pool()


class TestFigureSuiteEquivalence:
    @pytest.fixture(scope="class")
    def serial(self):
        return run_specs(figure_suite_specs(SEEDS), max_workers=1, use_cache=False)

    def test_serial_baseline_is_clean(self, serial):
        assert serial.runs == len(figure_suite_specs(SEEDS))
        assert not serial.errors and serial.hits == 0

    def test_pooled_matches_serial(self, serial):
        pooled = run_specs(
            figure_suite_specs(SEEDS), max_workers=2, use_cache=False
        )
        assert not pooled.errors
        assert _fingerprint(pooled) == _fingerprint(serial)

    def test_cache_served_matches_serial(self, serial, tmp_path):
        cache_dir = str(tmp_path / "runs")
        cold = run_specs(
            figure_suite_specs(SEEDS),
            max_workers=1,
            use_cache=True,
            cache_dir=cache_dir,
        )
        assert cold.hits == 0 and _fingerprint(cold) == _fingerprint(serial)
        disk = run_specs(
            figure_suite_specs(SEEDS),
            max_workers=1,
            use_cache=True,
            cache_dir=cache_dir,
        )
        assert disk.hit_rate == 1.0
        assert _fingerprint(disk) == _fingerprint(serial)

    def test_pooled_cache_matches_serial(self, serial, tmp_path):
        # Pool workers write the store cold; a second sweep reads it back
        # warm in the calling process, before any dispatch.  Both passes
        # must reproduce the serial fingerprint exactly, and the warm
        # pass must be served entirely from the disk records without
        # building a pool.
        cache_dir = str(tmp_path / "runs")
        cold = run_specs(
            figure_suite_specs(SEEDS),
            max_workers=2,
            use_cache=True,
            cache_dir=cache_dir,
        )
        assert cold.pooled and not cold.errors and cold.hits == 0
        assert _fingerprint(cold) == _fingerprint(serial)
        shutdown_pool()
        warm = run_specs(
            figure_suite_specs(SEEDS),
            max_workers=2,
            use_cache=True,
            cache_dir=cache_dir,
        )
        assert not warm.pooled and warm.hit_rate == 1.0
        assert _fingerprint(warm) == _fingerprint(serial)

    def test_race_verdicts_survive_the_cache(self, serial, tmp_path):
        # The racy reduction figure must stay provably racy when served.
        racy = [
            o
            for o in serial.outcomes
            if o.spec.patternlet == "openmp.reduction"
            and o.spec.toggle_dict == {"parallel_for": True}
        ]
        assert racy and all(o.races > 0 for o in racy)
        fixed = [
            o
            for o in serial.outcomes
            if o.spec.toggle_dict == {"parallel_for": True, "reduction": True}
        ]
        assert fixed and all(o.races == 0 for o in fixed)


class TestSelfcheckEquivalence:
    def test_serial_and_pooled_selfchecks_agree(self):
        serial = run_selfcheck()
        pooled = run_selfcheck(jobs=2)
        assert len(serial) == len(pooled) == 14
        for a, b in zip(serial, pooled):
            assert a.figure == b.figure
            # Fig. 30 is the real-thread timing check: its ratio varies and
            # can dip under a loaded single-core runner, which is OS noise,
            # not a batch-equivalence property.  Every deterministic check
            # must pass identically, detail included.
            if a.figure != "Fig. 30":
                assert a.passed and b.passed
                assert a.detail == b.detail
