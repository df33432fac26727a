"""A run's event stream is a function of its spec.

Every id that lands in an event — region scopes, message uids,
shared-cell names, pthreads sync-object keys — is numbered per run, so
the full stream, payloads included, does not depend on how many runs
the process did before or on which process ran it.  Checked over the
lab grid: every deterministic patternlet × toggle combination × np 2, 4
and 8 (``openmp.critical2`` runs real threads and prints wall-clock
times; ``mpi.messagePassing2`` only runs at np 2).
"""

from __future__ import annotations

import itertools

import pytest

from repro.batch.pool import map_calls, shutdown_pool
from repro.core.capture import capture_run
from repro.core.registry import RunConfig, all_patternlets, run_patternlet
from repro.core.toggles import ToggleSet

SEEDS = (0, 1)


def _lab_configs() -> list[tuple[str, tuple, int]]:
    out = []
    for p in all_patternlets():
        if p.name == "openmp.critical2":
            continue
        names = [t.name for t in p.toggles]
        nps = (2,) if p.name == "mpi.messagePassing2" else (2, 4, 8)
        for combo in itertools.product((False, True), repeat=len(names)):
            for np_ in nps:
                out.append((p.name, tuple(zip(names, combo)), np_))
    return out


CONFIGS = _lab_configs()


def _label(cfg):
    name, toggles, np_ = cfg
    return f"{name}-np{np_}" + "".join(
        f"-{t}={'on' if on else 'off'}" for t, on in toggles)


def _stream(cell) -> list[tuple]:
    """The full event stream of one lab-grid cell, as plain tuples."""
    (name, toggles, np_), seed = cell
    run = run_patternlet(name, tasks=np_, toggles=dict(toggles) or None, seed=seed)
    return [(e.seq, e.task, e.kind, e.vtime, e.hb_acq, e.hb_rel, e.payload)
            for e in run.trace.events()]


@pytest.fixture(scope="module")
def pooled_streams():
    """Every cell's stream from a fresh pool's workers."""
    assert len(CONFIGS) == 173  # the benchmark's lab grid
    cells = [(cfg, seed) for cfg in CONFIGS for seed in SEEDS]
    shutdown_pool()
    try:
        streams, _workers, pooled = map_calls(_stream, cells, max_workers=2)
    finally:
        shutdown_pool()
    assert pooled
    return dict(zip(cells, streams))


@pytest.mark.parametrize("cfg", CONFIGS, ids=_label)
def test_stream_is_the_same_in_and_across_processes(cfg, pooled_streams):
    for seed in SEEDS:
        first = _stream((cfg, seed))
        again = _stream((cfg, seed))
        assert first and again == first
        assert pooled_streams[(cfg, seed)] == first


@pytest.mark.parametrize("np_", [4, 8])
def test_a_deadlocked_world_unwinds_in_one_order(np_):
    # After the abort the parked ranks unwind one at a time, in task
    # order, so their task.end and sched.done events cannot land in OS
    # order: twenty runs give one stream.
    streams = set()
    for _ in range(20):
        run = run_patternlet("mpi.deadlock", tasks=np_, toggles={"fix": False},
                             seed=0)
        streams.add(tuple((e.task, e.kind, e.vtime) for e in run.trace.events()))
    assert len(streams) == 1


def _swap(comm):
    comm.send(comm.rank, 1 - comm.rank)
    return comm.recv()


def test_two_worlds_in_one_run_keep_their_ids_apart():
    # Message uids count per world, so two worlds of one run must differ
    # in scope for (scope, uid) to name one message within the run.
    def main(cfg):
        for _ in range(2):
            cfg.mpirun(_swap)

    run = capture_run(main, RunConfig(tasks=2, toggles=ToggleSet(())))
    scopes = [e.scope for e in run.trace.events("world.fork")]
    sends = [e.hb_rel for e in run.trace.events("msg.send")]
    assert len(scopes) == len(set(scopes)) == 2
    assert len(sends) == len(set(sends)) == 4
