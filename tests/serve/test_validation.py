"""Request canonicalisation: every admission decision is made pre-queue."""

from __future__ import annotations

import pytest

from repro.batch.specs import spec_key
from repro.serve import (
    RequestError,
    ServeConfig,
    parse_run_request,
    parse_sweep_request,
    running,
)
from repro.serve.service import MAX_SEED, MAX_TASKS


def _status(callable_, *args, **kwargs):
    with pytest.raises(RequestError) as exc:
        callable_(*args, **kwargs)
    return exc.value.status


class TestRunValidation:
    def test_minimal_body_gets_engine_defaults(self):
        spec = parse_run_request({"patternlet": "mpi.reduction"})
        assert spec.patternlet == "mpi.reduction"
        assert spec.mode == "lockstep"
        assert spec.seed == 0
        assert spec.policy == "random"

    def test_np_is_an_alias_for_tasks(self):
        a = parse_run_request({"patternlet": "mpi.reduction", "np": 6})
        b = parse_run_request({"patternlet": "mpi.reduction", "tasks": 6})
        assert a == b
        assert spec_key(a) == spec_key(b)

    def test_tasks_and_np_together_rejected(self):
        assert _status(parse_run_request,
                       {"patternlet": "mpi.reduction",
                        "tasks": 4, "np": 4}) == 400

    def test_unknown_patternlet_is_404(self):
        assert _status(parse_run_request, {"patternlet": "no.such"}) == 404

    def test_unknown_field_rejected(self):
        assert _status(parse_run_request,
                       {"patternlet": "mpi.reduction", "turbo": 1}) == 400

    def test_non_object_body_rejected(self):
        assert _status(parse_run_request, [1, 2, 3]) == 400
        assert _status(parse_run_request, "mpi.reduction") == 400

    def test_missing_patternlet_rejected(self):
        assert _status(parse_run_request, {}) == 400

    @pytest.mark.parametrize("tasks", [0, -1, MAX_TASKS + 1, 2.5, True, "4"])
    def test_task_bounds(self, tasks):
        assert _status(parse_run_request,
                       {"patternlet": "mpi.reduction", "tasks": tasks}) == 400

    @pytest.mark.parametrize("seed", [-1, MAX_SEED + 1, "0", False])
    def test_seed_bounds(self, seed):
        assert _status(parse_run_request,
                       {"patternlet": "mpi.reduction", "seed": seed}) == 400

    def test_thread_mode_not_servable(self):
        # OS nondeterminism must never be coalesced between clients.
        with pytest.raises(RequestError, match="lockstep"):
            parse_run_request({"patternlet": "mpi.reduction",
                               "mode": "thread"})

    def test_unknown_policy_rejected(self):
        assert _status(parse_run_request,
                       {"patternlet": "mpi.reduction",
                        "policy": "fastest"}) == 400

    def test_unknown_toggle_rejected(self):
        assert _status(parse_run_request,
                       {"patternlet": "mpi.reduction",
                        "toggles": {"warpdrive": True}}) == 400

    def test_non_bool_toggle_rejected(self):
        assert _status(parse_run_request,
                       {"patternlet": "openmp.spmd",
                        "toggles": {"parallel": 1}}) == 400

    def test_unknown_topology_rejected(self):
        assert _status(parse_run_request,
                       {"patternlet": "mpi.reduction",
                        "topology": "moebius"}) == 400

    def test_unknown_network_rejected(self):
        assert _status(parse_run_request,
                       {"patternlet": "mpi.reduction",
                        "network": "carrier-pigeon"}) == 400

    def test_spelled_defaults_share_the_omitted_key(self):
        # The run cache's canonicalisation carries straight through: a
        # body that restates engine defaults addresses the same record.
        bare = parse_run_request({"patternlet": "openmp.barrier", "seed": 3})
        spelled = parse_run_request({
            "patternlet": "openmp.barrier",
            "seed": 3,
            "mode": "lockstep",
            "policy": "random",
            "toggles": {"barrier": False},
        })
        assert spec_key(bare) == spec_key(spelled)


class TestSweepValidation:
    def test_grid_is_the_cross_product(self):
        specs = parse_sweep_request(
            {"patternlets": ["mpi.reduction", "openmp.spmd"],
             "np": [2, 4], "seeds": [0, 1, 2]},
            max_cells=256)
        assert len(specs) == 2 * 2 * 3
        assert len({spec_key(s) for s in specs}) == len(specs)

    def test_oversized_grid_is_413_before_validation(self):
        assert _status(parse_sweep_request,
                       {"patternlets": ["no.such.name"] * 4,
                        "seeds": list(range(100))},
                       max_cells=256) == 413

    def test_topology_string_and_list_both_accepted(self):
        one = parse_sweep_request(
            {"patternlets": ["mpi.reduction"], "seeds": [0],
             "topology": "binomial"}, max_cells=16)
        many = parse_sweep_request(
            {"patternlets": ["mpi.reduction"], "seeds": [0],
             "topologies": ["binomial"]}, max_cells=16)
        assert [spec_key(s) for s in one] == [spec_key(s) for s in many]

    def test_empty_patternlets_rejected(self):
        assert _status(parse_sweep_request, {"patternlets": []},
                       max_cells=16) == 400

    def test_unknown_field_rejected(self):
        assert _status(parse_sweep_request,
                       {"patternlets": ["mpi.reduction"], "turbo": 1},
                       max_cells=16) == 400

    def test_every_cell_is_validated(self):
        assert _status(parse_sweep_request,
                       {"patternlets": ["mpi.reduction", "no.such"],
                        "seeds": [0]},
                       max_cells=16) == 404


class TestConfigBounds:
    @pytest.mark.parametrize("deadline_ms", [0, -5.0, float("nan")])
    def test_deadline_must_be_positive(self, deadline_ms):
        # A zero deadline answered every execution 503, free slot or not.
        with pytest.raises(ValueError, match="deadline_ms"):
            ServeConfig(deadline_ms=deadline_ms)

    def test_drain_timeout_must_not_be_negative(self):
        with pytest.raises(ValueError, match="drain_timeout_s"):
            ServeConfig(drain_timeout_s=-1.0)
        assert ServeConfig(drain_timeout_s=0.0).drain_timeout_s == 0.0

    def test_there_is_no_workers_field(self):
        # The daemon has one execution lane; nothing selects a pool.
        with pytest.raises(TypeError, match="workers"):
            ServeConfig(workers=2)

    def test_embedders_get_the_same_check(self):
        with pytest.raises(ValueError, match="deadline_ms"):
            with running(deadline_ms=0):
                pass
