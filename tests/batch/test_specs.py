"""Cache-key derivation: invariances and sensitivity of the content address."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.batch.specs as specs
from repro.batch.specs import (
    FIGURE_RUNS,
    RunSpec,
    engine_fingerprint,
    figure_suite_specs,
    patternlet_source,
    spec_key,
)

toggle_names = st.lists(
    st.text(alphabet="abcdefgh_", min_size=1, max_size=8),
    max_size=5,
    unique=True,
)


def _digest(**overrides):
    base = dict(
        patternlet="openmp.spmd",
        source="def main(api):\n    pass\n",
        engine="abcd1234abcd1234",
        tasks=4,
        toggles={"parallel": True},
        mode="lockstep",
        seed=0,
        policy="random",
        extra={},
        topology="binomial",
    )
    base.update(overrides)
    return specs._key_digest(**base)


class TestKeyInvariance:
    @given(names=toggle_names, values=st.lists(st.booleans(), max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_toggle_ordering_never_changes_the_key(self, names, values):
        toggles = dict(zip(names, values))
        items = list(toggles.items())
        shuffled = items[:]
        random.Random(0).shuffle(shuffled)
        assert _digest(toggles=toggles) == _digest(toggles=dict(reversed(items)))
        assert _digest(toggles=toggles) == _digest(toggles=dict(shuffled))

    def test_explicit_default_and_omitted_default_share_a_key(self):
        # spec_key resolves toggles against the registry, so restating a
        # default addresses the same record as omitting it.
        bare = RunSpec.make("openmp.barrier", seed=3)
        spelled = RunSpec.make("openmp.barrier", toggles={"barrier": False}, seed=3)
        assert spec_key(bare) == spec_key(spelled)

    def test_default_tasks_and_explicit_default_share_a_key(self):
        from repro.core.registry import get_patternlet

        default = get_patternlet("openmp.spmd").default_tasks
        assert spec_key(RunSpec.make("openmp.spmd", seed=1)) == spec_key(
            RunSpec.make("openmp.spmd", tasks=default, seed=1)
        )

    def test_explicit_default_topology_and_omitted_share_a_key(self):
        # spec_key resolves None to the process default topology, so
        # spelling out "binomial" addresses the same record.
        bare = RunSpec.make("mpi.broadcast", seed=2)
        spelled = RunSpec.make("mpi.broadcast", topology="binomial", seed=2)
        assert spec_key(bare) == spec_key(spelled)

    @given(
        topo=st.sampled_from(["flat", "binomial", "ring", "hierarchical"]),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=30, deadline=None)
    def test_identical_topology_specs_always_collide(self, topo, seed):
        a = RunSpec.make("mpi.reduction", topology=topo, seed=seed)
        b = RunSpec.make("mpi.reduction", topology=topo, seed=seed)
        assert a == b
        assert spec_key(a) == spec_key(b)


class TestKeySensitivity:
    @given(
        field=st.sampled_from(["source", "tasks", "seed", "policy", "engine"]),
    )
    @settings(max_examples=20, deadline=None)
    def test_every_field_moves_the_key(self, field):
        mutated = {
            "source": "def main(api):\n    pass  # edited\n",
            "tasks": 5,
            "seed": 1,
            "policy": "round_robin",
            "engine": "ffff0000ffff0000",
        }[field]
        assert _digest() != _digest(**{field: mutated})

    def test_toggle_value_and_name_move_the_key(self):
        assert _digest(toggles={"parallel": True}) != _digest(
            toggles={"parallel": False}
        )
        assert _digest(toggles={"parallel": True}) != _digest(
            toggles={"parallel2": True}
        )

    def test_patternlet_source_edit_moves_spec_key(self, monkeypatch):
        spec = RunSpec.make("openmp.spmd", seed=0)
        before = spec_key(spec)
        monkeypatch.setitem(
            specs._SOURCE_MEMO,
            "openmp.spmd",
            patternlet_source("openmp.spmd") + "\n# edited\n",
        )
        assert spec_key(spec) != before

    def test_engine_version_moves_spec_key(self, monkeypatch):
        spec = RunSpec.make("openmp.spmd", seed=0)
        before = spec_key(spec)
        monkeypatch.setattr(specs, "_ENGINE_FP", "0" * 16)
        assert spec_key(spec) != before

    @given(seed_a=st.integers(0, 1000), seed_b=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_seeds_collide_only_when_equal(self, seed_a, seed_b):
        ka = _digest(seed=seed_a)
        kb = _digest(seed=seed_b)
        assert (ka == kb) == (seed_a == seed_b)

    @given(
        topo_a=st.sampled_from(["flat", "binomial", "ring", "hierarchical"]),
        topo_b=st.sampled_from(["flat", "binomial", "ring", "hierarchical"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_topologies_collide_only_when_equal(self, topo_a, topo_b):
        # Two specs differing *only* in topology must address different
        # cache records — a stale cross-topology hit would silently serve
        # one algorithm's span/messages as another's.
        ka = _digest(topology=topo_a)
        kb = _digest(topology=topo_b)
        assert (ka == kb) == (topo_a == topo_b)

    @given(topo=st.sampled_from(["flat", "ring", "hierarchical"]))
    @settings(max_examples=10, deadline=None)
    def test_topology_moves_spec_key(self, topo):
        base = RunSpec.make("mpi.broadcast", seed=0)
        other = RunSpec.make("mpi.broadcast", topology=topo, seed=0)
        assert spec_key(base) != spec_key(other)


class TestCacheability:
    def test_thread_mode_is_never_keyed(self):
        spec = RunSpec.make("openmp.critical2", mode="thread", tasks=4)
        assert not spec.deterministic
        assert spec_key(spec) is None

    def test_unserializable_extra_is_never_keyed(self):
        spec = RunSpec.make("openmp.spmd", knob=object())
        assert spec_key(spec) is None


class TestEngineFingerprint:
    def test_stable_within_a_process(self):
        assert engine_fingerprint() == engine_fingerprint()
        assert len(engine_fingerprint()) == 16

    def test_figure_suite_covers_all_runs_per_seed(self):
        suite = figure_suite_specs(range(3))
        assert len(suite) == 3 * len(FIGURE_RUNS)
        assert all(s.deterministic for s in suite)
        assert len({spec_key(s) for s in suite}) == len(suite)
