"""Shared fixtures for the test suite."""

import pytest

from repro.sched import make_executor


@pytest.fixture(scope="session", autouse=True)
def run_cache_root(tmp_path_factory):
    """Root every default run cache in this session's temp dir.

    Selfcheck, sweeps, the CLI and the serve daemon cache deterministic
    runs under ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro-runs``); a
    test session must leave the developer's own cache untouched.  Child
    processes the tests start inherit the variable.
    """
    root = tmp_path_factory.mktemp("repro-runs")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(root))
        yield root


@pytest.fixture(params=["thread", "lockstep"])
def any_mode(request):
    """Run a test under both execution modes."""
    return request.param


@pytest.fixture
def lockstep():
    """A fresh deterministic executor with the default seed."""
    return make_executor("lockstep", seed=0)


@pytest.fixture
def threaded():
    """A real-thread executor with a short watchdog (tests must not hang)."""
    return make_executor("thread", deadlock_timeout=5.0)
