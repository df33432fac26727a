"""Run specifications and content-addressed cache keys.

A :class:`RunSpec` names one patternlet execution — ``(patternlet,
tasks, toggles, mode, seed, policy, extra, topology)`` — in a hashable,
picklable form, so grids of runs can be built, deduplicated, and shipped
to worker processes.

:func:`spec_key` derives the spec's *content address*: a SHA-256 over
everything that determines a deterministic run's output —

- a SHA-256 of the patternlet's **source text** (edit the patternlet,
  invalidate its cached runs);
- the **engine fingerprint**: the package version plus a hash of every
  non-patternlet ``repro`` source file (edit the scheduler or a runtime,
  invalidate everything);
- the **resolved toggle state** (defaults merged with overrides, sorted,
  so ``{"b": 1, "a": 0}`` and ``{"a": 0, "b": 1}`` — and an override
  that merely restates a default — all address the same record);
- the resolved **task count**, **scheduler identity** (mode + policy),
  **seed**, the **communicator topology** (resolved to its concrete name,
  so a spec that spells out the default and one that omits it address the
  same record — and two topologies can never collide), and any **extra**
  knobs (including a ``network`` profile).

Only lockstep-mode runs are keyable: a ``mode="thread"`` run is genuine
OS nondeterminism and must never be served from a cache.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro._version import __version__
from repro.core.registry import get_patternlet

__all__ = [
    "RunSpec",
    "engine_fingerprint",
    "figure_suite_specs",
    "patternlet_source",
    "spec_key",
    "sweep_fingerprint",
]


@dataclass(frozen=True)
class RunSpec:
    """One patternlet execution, as pure data.

    ``toggles`` and ``extra`` are stored as sorted item tuples so specs
    are hashable (usable as dict keys / in sets) and pickle cheaply;
    build instances through :meth:`make` to pass plain mappings.
    """

    patternlet: str
    tasks: int | None = None
    toggles: tuple[tuple[str, bool], ...] = ()
    mode: str = "lockstep"
    seed: int = 0
    policy: str = "random"
    extra: tuple[tuple[str, Any], ...] = ()
    topology: str | None = None

    @classmethod
    def make(
        cls,
        patternlet: str,
        *,
        tasks: int | None = None,
        toggles: Mapping[str, bool] | None = None,
        mode: str = "lockstep",
        seed: int = 0,
        policy: str = "random",
        topology: str | None = None,
        **extra: Any,
    ) -> "RunSpec":
        """Build a spec from the same keyword shape as ``run_patternlet``."""
        return cls(
            patternlet=patternlet,
            tasks=tasks,
            toggles=tuple(sorted((toggles or {}).items())),
            mode=mode,
            seed=seed,
            policy=policy,
            extra=tuple(sorted(extra.items())),
            topology=topology,
        )

    @property
    def toggle_dict(self) -> dict[str, bool]:
        """The toggle overrides as a plain mapping."""
        return dict(self.toggles)

    @property
    def extra_dict(self) -> dict[str, Any]:
        """The extra knobs as a plain mapping."""
        return dict(self.extra)

    @property
    def deterministic(self) -> bool:
        """True when this run replays exactly (and so may be cached)."""
        return self.mode == "lockstep"

    def label(self) -> str:
        """Compact human-readable identity for tables and progress lines."""
        bits = [self.patternlet]
        if self.tasks is not None:
            bits.append(f"np={self.tasks}")
        for name, on in self.toggles:
            bits.append(f"{name}={'on' if on else 'off'}")
        if self.topology is not None:
            bits.append(f"topo={self.topology}")
        bits.append(f"seed={self.seed}")
        if self.policy != "random":
            bits.append(self.policy)
        return " ".join(bits)


# -- source and engine identity ----------------------------------------------

_SOURCE_MEMO: dict[str, str] = {}


def patternlet_source(name: str) -> str:
    """The patternlet module's source text (memoised per process)."""
    text = _SOURCE_MEMO.get(name)
    if text is None:
        p = get_patternlet(name)
        module = importlib.import_module(p.source)
        text = _SOURCE_MEMO[name] = inspect.getsource(module)
    return text


@functools.lru_cache(maxsize=256)
def _source_digest(source: str) -> str:
    """SHA-256 of a patternlet's source text.

    Memoised on the text itself, not on the patternlet's name, so an
    edited source moves the key.  ``patternlet_source`` hands back the
    same string object each call, whose hash Python keeps, so a repeat
    lookup does not rescan the text.
    """
    return hashlib.sha256(source.encode()).hexdigest()


_ENGINE_FP: str | None = None


def engine_fingerprint() -> str:
    """Version + hash of every non-patternlet ``repro`` source file.

    Part of every cache key: the engine's semantics (scheduler order,
    transport, trace vocabulary) determine run output just as much as the
    patternlet's own source, and the package version alone does not move
    on every engine edit.  Computed once per process (~a millisecond).
    """
    global _ENGINE_FP
    if _ENGINE_FP is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        h = hashlib.sha256()
        h.update(__version__.encode())
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            if rel.startswith("patternlets/"):
                continue  # hashed per-spec via patternlet_source()
            h.update(rel.encode())
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
        _ENGINE_FP = h.hexdigest()[:16]
    return _ENGINE_FP


# -- key derivation -----------------------------------------------------------


def _key_digest(
    *,
    patternlet: str,
    source: str,
    engine: str,
    tasks: int,
    toggles: Mapping[str, bool],
    mode: str,
    seed: int,
    policy: str,
    extra: Mapping[str, Any],
    topology: str,
) -> str:
    payload = {
        "engine": engine,
        "patternlet": patternlet,
        "source_sha256": _source_digest(source),
        "tasks": int(tasks),
        "toggles": {str(k): bool(v) for k, v in sorted(toggles.items())},
        "mode": mode,
        "seed": int(seed),
        "policy": policy,
        "extra": {str(k): extra[k] for k in sorted(extra)},
        "topology": str(topology),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def spec_key(spec: RunSpec) -> str | None:
    """Content address of a :class:`RunSpec` (``None`` when uncacheable).

    Toggles and tasks are *resolved* against the patternlet's registry
    entry first, so a spec that spells out a default and one that omits
    it address the same record.
    """
    if not spec.deterministic:
        return None
    p = get_patternlet(spec.patternlet)
    from repro.mp.communicators import default_topology

    try:
        return _key_digest(
            patternlet=p.name,
            source=patternlet_source(p.name),
            engine=engine_fingerprint(),
            tasks=spec.tasks if spec.tasks is not None else p.default_tasks,
            toggles=p.toggle_set(spec.toggle_dict).as_dict(),
            mode=spec.mode,
            seed=spec.seed,
            policy=spec.policy,
            extra=spec.extra_dict,
            topology=spec.topology or default_topology(),
        )
    except (TypeError, ValueError):
        return None


def sweep_fingerprint(specs: Iterable[RunSpec]) -> str:
    """Short stable digest of a grid's identity (its labels, in order).

    The serve daemon stores a ``/sweep`` request's per-cell report under
    this key (``GET /report/<key>``): two submissions of the same grid
    share it.
    """
    h = hashlib.sha256()
    for spec in specs:
        h.update(spec.label().encode())
        h.update(b"\0")
    return h.hexdigest()[:12]


# -- the deterministic figure-suite grid --------------------------------------

#: The deterministic (lockstep) runs behind the paper-figure self-checks:
#: ``(patternlet, tasks, toggle overrides)``.  Fig. 30's atomic-vs-critical
#: timing runs real threads and is deliberately absent — it can never be
#: served from a cache.
FIGURE_RUNS: tuple[tuple[str, int | None, dict[str, bool] | None], ...] = (
    ("openmp.spmd", None, {"parallel": False}),
    ("openmp.spmd", 4, None),
    ("mpi.spmd", 1, None),
    ("mpi.spmd", 4, None),
    ("openmp.barrier", None, {"barrier": False}),
    ("openmp.barrier", None, {"barrier": True}),
    ("mpi.barrier", 4, {"barrier": False}),
    ("mpi.barrier", 4, {"barrier": True}),
    ("openmp.parallelLoopEqualChunks", 2, None),
    ("mpi.parallelLoopEqualChunks", 4, None),
    ("openmp.reduction", None, {"parallel_for": True}),
    ("openmp.reduction", None, {"parallel_for": True, "reduction": True}),
    ("mpi.reduction", 10, None),
    ("mpi.gather", 6, None),
)


def figure_suite_specs(seeds: Iterable[int] = range(8)) -> list[RunSpec]:
    """Every deterministic figure run crossed with ``seeds``.

    The workload behind the batch equivalence guarantee (serial, pooled,
    and cache-served execution must agree byte-for-byte) and the batch
    throughput benchmarks.
    """
    return [
        RunSpec.make(name, tasks=tasks, toggles=toggles, seed=seed)
        for seed in seeds
        for name, tasks, toggles in FIGURE_RUNS
    ]
