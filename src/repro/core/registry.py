"""The patternlet registry: metadata, lookup, and the run harness.

A *patternlet* is "a minimalist, scalable, syntactically correct program
designed to introduce students to a particular parallel design pattern".
Here each is a Python module under :mod:`repro.patternlets` whose ``main``
takes a :class:`RunConfig` and prints what the paper's C version prints.

The registry records, per patternlet:

- which backend it belongs to (``openmp`` / ``mpi`` / ``pthreads`` /
  ``hybrid``) — the paper's 17/16/9/2 inventory;
- which design pattern(s) it teaches (names from
  :mod:`repro.core.patterns`);
- which paper figures it reproduces;
- its comment/uncomment :class:`~repro.core.toggles.Toggle` sites;
- the student exercise from its header comment.

:func:`run_patternlet` is the single entry point used by the CLI, the
tests, and the figure benches: it runs the patternlet under a chosen
executor mode / seed / task count / toggle state and returns the captured,
task-attributed output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.core.capture import CapturedRun, capture_run
from repro.core.toggles import Toggle, ToggleSet
from repro.errors import RegistryError

__all__ = [
    "BACKENDS",
    "RunConfig",
    "Patternlet",
    "register",
    "get_patternlet",
    "all_patternlets",
    "inventory",
    "run_patternlet",
]

#: The paper's four backend families.
BACKENDS = ("openmp", "mpi", "pthreads", "hybrid")


@dataclass
class RunConfig:
    """Everything a patternlet's ``main`` needs to run once.

    ``tasks`` is the thread/process count (the ``./barrier 4`` or
    ``mpirun -np 4`` argument); ``toggles`` the comment/uncomment state;
    ``mode``/``seed``/``policy`` select and parameterise the executor;
    ``topology`` the communicator algorithm set for MPI worlds
    (``flat``/``binomial``/``ring``/``hierarchical``); ``extra`` carries
    patternlet-specific knobs (array sizes, chunk sizes, a ``network``
    profile name or model).
    """

    tasks: int
    toggles: ToggleSet
    mode: str = "lockstep"
    seed: int = 0
    policy: str = "random"
    topology: str | None = None
    extra: dict[str, Any] = field(default_factory=dict)

    def smp_runtime(self, **kw: Any):
        """A fresh SMP runtime honouring this config."""
        from repro.smp.runtime import SmpRuntime

        kw.setdefault("num_threads", self.tasks)
        kw.setdefault("mode", self.mode)
        kw.setdefault("seed", self.seed)
        kw.setdefault("policy", self.policy)
        return SmpRuntime(**kw)

    def mp_runtime(self, **kw: Any):
        """A fresh MP runtime honouring this config."""
        from repro.mp.runtime import MpRuntime

        kw.setdefault("mode", self.mode)
        kw.setdefault("seed", self.seed)
        kw.setdefault("policy", self.policy)
        kw.setdefault("topology", self.topology)
        if "network" in self.extra:
            kw.setdefault("network", self.extra["network"])
        return MpRuntime(**kw)

    def mpirun(self, main: Callable[..., Any], *args: Any, **kw: Any):
        """Launch ``main`` on ``self.tasks`` ranks with this config's runtime."""
        runtime_kw = {
            k: kw.pop(k)
            for k in ("costs", "cluster", "network", "topology", "deadlock_timeout")
            if k in kw
        }
        return self.mp_runtime(**runtime_kw).run(self.tasks, main, *args, **kw)


@dataclass(frozen=True)
class Patternlet:
    """Registry entry for one patternlet."""

    name: str  # e.g. "openmp.spmd"
    backend: str  # one of BACKENDS
    summary: str  # one-line description
    patterns: tuple[str, ...]  # design patterns taught
    main: Callable[[RunConfig], Any]
    figures: tuple[str, ...] = ()  # paper figures reproduced
    toggles: tuple[Toggle, ...] = ()
    exercise: str = ""  # the header-comment student exercise
    default_tasks: int = 4
    source: str = ""  # module path, filled by register()

    def toggle_set(self, overrides: Mapping[str, bool] | None = None) -> ToggleSet:
        """Resolve this patternlet's toggles with the given overrides."""
        return ToggleSet(self.toggles, overrides)


_REGISTRY: dict[str, Patternlet] = {}


def register(patternlet: Patternlet) -> Patternlet:
    """Add a patternlet to the global registry (module import side effect)."""
    if patternlet.backend not in BACKENDS:
        raise RegistryError(
            f"{patternlet.name}: unknown backend {patternlet.backend!r}"
        )
    if patternlet.name in _REGISTRY:
        raise RegistryError(f"duplicate patternlet {patternlet.name!r}")
    if not patternlet.patterns:
        raise RegistryError(f"{patternlet.name}: must teach at least one pattern")
    from repro.core.patterns import validate_pattern_names

    validate_pattern_names(patternlet.patterns)
    _REGISTRY[patternlet.name] = patternlet
    return patternlet


def _ensure_loaded() -> None:
    # Importing the collection package registers every patternlet.
    import repro.patternlets  # noqa: F401


def get_patternlet(name: str) -> Patternlet:
    """Look up a patternlet by its ``backend.name`` id.

    ``backend/name`` (the paper's directory-style spelling, e.g.
    ``openmp/parallelLoopDynamic``) is accepted as an alias.
    """
    _ensure_loaded()
    try:
        return _REGISTRY[name.replace("/", ".")]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise RegistryError(f"unknown patternlet {name!r}; known: {known}") from None


def all_patternlets(backend: str | None = None) -> list[Patternlet]:
    """Every registered patternlet, optionally filtered by backend."""
    _ensure_loaded()
    items = sorted(_REGISTRY.values(), key=lambda p: p.name)
    if backend is None:
        return items
    if backend not in BACKENDS:
        raise RegistryError(f"unknown backend {backend!r}")
    return [p for p in items if p.backend == backend]


def inventory() -> dict[str, int]:
    """Patternlet counts per backend — the paper's '44 = 16+17+9+2' table."""
    _ensure_loaded()
    counts = {b: 0 for b in BACKENDS}
    for p in _REGISTRY.values():
        counts[p.backend] += 1
    counts["total"] = sum(counts[b] for b in BACKENDS)
    return counts


def run_patternlet(
    name: str,
    *,
    tasks: int | None = None,
    toggles: Mapping[str, bool] | None = None,
    mode: str = "lockstep",
    seed: int = 0,
    policy: str = "random",
    topology: str | None = None,
    echo: bool = False,
    **extra: Any,
) -> CapturedRun:
    """Run one patternlet and capture its attributed output.

    Defaults to the lockstep executor so classroom runs and tests are
    replayable; pass ``mode="thread"`` for genuine OS-thread
    nondeterminism (the paper's native behaviour).

    ``topology`` picks the communicator algorithm set for MPI worlds;
    ``None`` resolves the process default (``REPRO_TOPOLOGY`` env hatch,
    else binomial) so the chosen topology is always recorded in the run's
    metadata.
    """
    p = get_patternlet(name)
    if tasks is not None and tasks <= 0:
        raise RegistryError(f"tasks must be positive, got {tasks}")
    if topology is None:
        from repro.mp.communicators import default_topology

        topology = default_topology()
    cfg = RunConfig(
        tasks=tasks if tasks is not None else p.default_tasks,
        toggles=p.toggle_set(toggles),
        mode=mode,
        seed=seed,
        policy=policy,
        topology=topology,
        extra=dict(extra),
    )
    run = capture_run(p.main, cfg, echo=echo)
    run.meta.update(
        patternlet=p.name,
        backend=p.backend,
        tasks=cfg.tasks,
        toggles=cfg.toggles.as_dict(),
        mode=mode,
        seed=seed,
        topology=cfg.topology,
    )
    return run
