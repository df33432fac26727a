"""Shared fixtures for the test suite."""

from pathlib import Path
from types import SimpleNamespace

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


#: Keys that are not content addresses (64 lowercase hex digits), each
#: aimed beside or outside a cache root; ``{abs}`` becomes an absolute
#: path inside the test's temp dir.
HOSTILE_KEYS = {
    "dotdot": "../victim",
    "dotdot2": "../../victim",
    "fanout-dotdot": "ab/../../victim",
    "absolute": "{abs}",
    "hex65": "a" * 65,
    "upper-hex64": "AB" * 32,
    "empty": "",
}


@pytest.fixture(params=list(HOSTILE_KEYS.values()), ids=list(HOSTILE_KEYS))
def key_trap(request, tmp_path):
    """A cache root, a hostile key, and a sentinel where the key would land.

    The sentinel sits at the path a naive ``root/key[:2]/key.json`` join
    resolves to, with every directory on the way made, and holds JSON
    that is not a record: a store that opened it would take it for a
    corrupt record.
    """
    root = tmp_path / "lab" / "serve" / "cache"
    root.mkdir(parents=True)
    key = request.param.format(abs=tmp_path / "elsewhere" / "victim")
    raw = root / key[:2] / f"{key}.json"
    where = Path(raw.anchor)
    for part in raw.parts[1:-1]:
        where = where.parent if part == ".." else where / part
        where.mkdir(exist_ok=True)
    sentinel = where / raw.name
    text = '{"sentinel": true}'
    sentinel.write_text(text)
    return SimpleNamespace(root=root, key=key, sentinel=sentinel, text=text)
