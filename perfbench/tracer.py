"""Layer spans recorded from outside the program.

:func:`install` wraps the public functions of each layer.  It replaces
the defining module's attribute and every binding another ``repro``
module made at import time (``from X import f``), so calls through any
of them are seen.  A wrapper records a span: name, start, end, parent
span, thread, and an operation id or tag where the boundary can see
one.  Counts are taken at the same boundaries.  Spans stay in memory
and are written out when the process ends its part of the run.

Untraced runs never import this module.  Pool workers fork from a
traced process and inherit the wrappers; each child starts an empty
store and writes it when the worker exits (workers leave through
``os._exit``, so a multiprocessing finaliser does the write, not
``atexit``).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

from common import MARK

#: (span name, defining module, attribute).
FUNCTIONS = (
    ("batch.entry", "repro.batch.pool", "_entry"),
    ("batch.spec_key", "repro.batch.specs", "spec_key"),
    ("batch.encode", "repro.batch.results", "run_to_record"),
    ("batch.decode", "repro.batch.results", "run_from_record"),
    ("core.execute", "repro.core.capture", "capture_run"),
    ("mp.pack", "repro.mp.serialize", "pack_packet"),
    ("trace.race_scan", "repro.trace.hb", "detect_races"),
    ("obs.summary", "repro.obs.derive", "run_summary"),
    ("serve.parse", "repro.serve.service", "parse_run_request"),
)
#: (span name, module, class, method).
METHODS = (
    ("batch.get", "repro.batch.cache", "RunCache", "get"),
    ("batch.put", "repro.batch.cache", "RunCache", "put"),
    ("batch.prune", "repro.batch.cache", "RunCache", "prune"),
    ("serve.metrics_render", "repro.serve.service", "PatternletService", "render_metrics"),
)
#: Coroutine methods: spans that interleave on the event loop, so they
#: take no part in parent tracking.
ASYNC_METHODS = (
    ("serve.run", "repro.serve.service", "PatternletService", "serve_run"),
)


class Store:
    """One process's spans and counts."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        #: span id -> (name, start_ns, end_ns, parent id, thread id, op, tag);
        #: ids come from one counter, so threads never share a slot.
        self.spans: dict[int, tuple] = {}
        self.ids = itertools.count()
        self.counts: Counter = Counter()
        self.lock = threading.Lock()
        self.tls = threading.local()
        #: Id of the ``core.execute`` span in flight, -1 when none.
        self.executing = -1
        self.spawned0 = _spawned()

    def count(self, items: dict[str, int]) -> None:
        with self.lock:
            self.counts.update(items)

    def dump(self, path: Path) -> None:
        doc = {
            "pid": self.pid,
            "spans": [[i, *span] for i, span in sorted(self.spans.items())],
            "counts": dict(self.counts),
            "threads_spawned": _spawned() - self.spawned0,
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc))
        os.replace(tmp, path)


def _spawned() -> int:
    from repro.sched.pool import pool_stats

    return pool_stats()["spawned"]


_store: Store | None = None
_out_dir: Path | None = None
_dumps = 0
_saved: list[tuple[Any, str, Any]] = []


def _current() -> Store:
    global _store
    if _store is None or _store.pid != os.getpid():
        # First traced call in a forked worker: start its own store and
        # write it when the worker process exits.
        _store = Store()
        from multiprocessing import util

        util.Finalize(None, flush, exitpriority=100)
    return _store


def _tags(name: str, result: Any, store: Store) -> str | None:
    """Counts at the boundary; returns the span's tag."""
    if name == "core.execute":
        kinds = Counter(ev.kind for ev in result.trace.events())
        store.count({"live_runs": 1, "events": sum(kinds.values()),
                     "sched.run": kinds.get("sched.run", 0),
                     "msg.send": kinds.get("msg.send", 0)})
    elif name == "batch.decode":
        store.count({"decoded_runs": 1, "events": len(result.trace)})
    elif name == "mp.pack":
        store.count({"lane." + result.kind: 1})
    elif name == "batch.get":
        return "miss" if result is None else "hit"
    return None


def _op(name: str, args: tuple, result: Any) -> str | None:
    if name == "batch.spec_key":
        return result
    if name in ("batch.get", "batch.put"):
        return args[1] if len(args) > 1 else None
    if name == "batch.entry":
        item = args[0][1]
        label = getattr(item, "label", None)
        return label() if callable(label) else None
    return None


def _wrap(name: str, fn: Callable) -> Callable:
    on_cpu = name == "core.execute"
    # Packing happens on rank threads, whose stacks are empty: its
    # parent is the run in flight (lockstep runs one per process).
    in_run = name == "mp.pack"

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        store = _current()
        stack = getattr(store.tls, "stack", None)
        if stack is None:
            stack = store.tls.stack = []
        parent = stack[-1] if stack else (store.executing if in_run else -1)
        index = next(store.ids)
        stack.append(index)
        if on_cpu:
            outer, store.executing = store.executing, index
        cpu0 = time.process_time() if on_cpu else 0.0
        t0 = time.perf_counter_ns()
        result = None
        done = False
        try:
            result = fn(*args, **kwargs)
            done = True
            return result
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            if on_cpu:
                store.executing = outer
                store.count({"execute_cpu_ns": int((time.process_time() - cpu0) * 1e9),
                             "execute_wall_ns": t1 - t0})
            tag = _tags(name, result, store) if done else "error"
            store.spans[index] = (name, t0, t1, parent, threading.get_ident(),
                                  _op(name, args, result), tag)

    setattr(wrapper, MARK, name)
    return wrapper


def _wrap_async(name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    async def wrapper(*args: Any, **kwargs: Any) -> Any:
        store = _current()
        t0 = time.perf_counter_ns()
        result = None
        try:
            result = await fn(*args, **kwargs)
            return result
        finally:
            t1 = time.perf_counter_ns()
            tag = result[2] if isinstance(result, tuple) and len(result) == 3 else "error"
            store.spans[next(store.ids)] = (name, t0, t1, -1, threading.get_ident(),
                                            None, tag)

    setattr(wrapper, MARK, name)
    return wrapper


def install(out_dir: Path) -> None:
    """Wrap every layer function and write spans under ``out_dir``."""
    global _out_dir
    if _saved:
        raise RuntimeError("tracer already installed")
    for mod in ("repro.batch", "repro.serve", "repro.mp.comm", "repro.obs",
                "repro.core.registry", "repro.trace"):
        importlib.import_module(mod)
    _out_dir = Path(out_dir)
    _out_dir.mkdir(parents=True, exist_ok=True)
    _current()
    for name, modname, attr in FUNCTIONS:
        module = importlib.import_module(modname)
        original = getattr(module, attr)
        wrapper = _wrap(name, original)
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("repro") and \
                    getattr(other, attr, None) is original:
                _saved.append((other, attr, original))
                setattr(other, attr, wrapper)
    for table, make in ((METHODS, _wrap), (ASYNC_METHODS, _wrap_async)):
        for name, modname, clsname, attr in table:
            cls = getattr(importlib.import_module(modname), clsname)
            original = cls.__dict__[attr]
            _saved.append((cls, attr, original))
            setattr(cls, attr, make(name, original))


def uninstall() -> None:
    """Restore every original binding, also those made after ``install``.

    A module imported while the wrappers were in place bound them at
    import time; those bindings are found by the marker and unwrapped.
    """
    while _saved:
        owner, attr, original = _saved.pop()
        setattr(owner, attr, original)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            for attr, value in list(vars(module).items()):
                if hasattr(value, MARK):
                    setattr(module, attr, value.__wrapped__)


def flush() -> None:
    """Write this process's spans so far to a file of their own."""
    global _store, _dumps
    if _store is None or _out_dir is None or _store.pid != os.getpid():
        return
    store, _store = _store, None
    _dumps += 1
    store.dump(_out_dir / f"spans-{store.pid}-{_dumps}.json")

