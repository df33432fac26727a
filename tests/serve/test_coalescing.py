"""Single-flight coalescing: one execution per distinct spec, ever.

The hypothesis suite drives the *property* the daemon is built on: any
two request bodies spelling the same canonical ``RunSpec`` — ``np`` vs
``tasks``, defaults spelled out vs omitted — coalesce onto one
execution and receive byte-identical bodies; bodies differing in any
semantic field (seed, np, a toggle) never share an execution.  The
execution backend is stubbed to a deterministic coroutine so the
property runs hundreds of service-level bursts in milliseconds.
"""

from __future__ import annotations

import asyncio

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.results import RunOutcome
from repro.batch.specs import spec_key
from repro.serve import PatternletService, ServeConfig, parse_run_request

run_params = st.tuples(
    st.integers(min_value=0, max_value=7),   # seed
    st.integers(min_value=1, max_value=8),   # np
    st.booleans(),                           # the 'parallel' toggle
)


def _body(seed, np, parallel, *, spell_defaults=False, use_np=False):
    doc = {"patternlet": "openmp.spmd", "seed": seed,
           "toggles": {"parallel": parallel}}
    doc["np" if use_np else "tasks"] = np
    if spell_defaults:
        doc.update(mode="lockstep", policy="random")
    return doc


def _stubbed_service(**cfg):
    """A service whose executions are instant, counted, and deterministic."""
    service = PatternletService(ServeConfig(**{"use_cache": False, **cfg}))
    calls = []

    async def dispatch(spec, key):
        calls.append(spec)
        await asyncio.sleep(0.005)  # hold the flight open for attachers
        out = RunOutcome(spec=spec, key=key, cached=False,
                         text=f"ran {spec.label()}",
                         span=float(spec.seed + (spec.tasks or 0)),
                         wall=0.001, races=0)
        return out, {"hits": 0, "misses": 1}

    service._dispatch = dispatch
    return service, calls


async def _burst(service, specs):
    return await asyncio.gather(*(service.serve_run(s) for s in specs))


class TestCoalescingProperty:
    @given(params=run_params, spell=st.booleans(), use_np=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_same_spec_bodies_always_coalesce(self, params, spell, use_np):
        seed, np, parallel = params
        a = parse_run_request(_body(seed, np, parallel))
        b = parse_run_request(_body(seed, np, parallel,
                                    spell_defaults=spell, use_np=use_np))
        assert spec_key(a) == spec_key(b)
        service, calls = _stubbed_service()
        try:
            results = asyncio.run(_burst(service, [a, b]))
        finally:
            service.close()
        assert len(calls) == 1  # exactly one execution
        bodies = {body for _, body, _ in results}
        assert len(bodies) == 1  # byte-identical responses
        assert {status for status, _, _ in results} == {200}

    @given(a=run_params, b=run_params)
    @settings(max_examples=40, deadline=None)
    def test_different_specs_never_coalesce(self, a, b):
        if a == b:
            return  # identity is the other property's business
        sa = parse_run_request(_body(*a))
        sb = parse_run_request(_body(*b))
        assert spec_key(sa) != spec_key(sb)
        service, calls = _stubbed_service()
        try:
            asyncio.run(_burst(service, [sa, sb]))
        finally:
            service.close()
        assert len(calls) == 2  # one execution each, no sharing


class TestServiceTiers:
    def test_burst_of_40_identical_requests_executes_once(self):
        spec = parse_run_request(_body(0, 4, True))
        service, calls = _stubbed_service()
        try:
            results = asyncio.run(_burst(service, [spec] * 40))
        finally:
            service.close()
        assert len(calls) == 1
        assert len({body for _, body, _ in results}) == 1
        served = [tier for _, _, tier in results]
        assert served.count("execute") == 1
        assert served.count("coalesce") == 39
        assert service.c_coalesce.total() == 39.0
        assert service.c_executions.total() == 1.0

    def test_requests_behind_a_cache_read_join_one_flight(self, tmp_path):
        # The cache tier's read yields the loop, so every request of the
        # burst misses the (empty) store before any flight exists; each
        # must look again and attach to the first one's flight.
        spec = parse_run_request(_body(0, 4, True))
        service, calls = _stubbed_service(use_cache=True,
                                          cache_dir=str(tmp_path))
        try:
            results = asyncio.run(_burst(service, [spec] * 20))
        finally:
            service.close()
        assert len(calls) == 1
        served = [tier for _, _, tier in results]
        assert served.count("execute") == 1
        assert served.count("coalesce") == 19
        assert service.c_cache_misses.total() == 1.0
        assert service.c_coalesce.total() == 19.0

    def test_finished_flights_serve_from_the_memo(self):
        spec = parse_run_request(_body(1, 2, False))
        service, calls = _stubbed_service()

        async def twice():
            first = await service.serve_run(spec)
            second = await service.serve_run(spec)
            return first, second

        try:
            (s1, b1, t1), (s2, b2, t2) = asyncio.run(twice())
        finally:
            service.close()
        assert (t1, t2) == ("execute", "memo")
        assert b1 == b2
        assert len(calls) == 1
        assert service.c_cache_hits.total() == 1.0

    def test_each_cold_request_counts_one_miss(self, tmp_path):
        # Each request misses the store once, in the cache tier; the
        # execution lane stores the record without a second lookup.
        specs = [parse_run_request({"patternlet": "openmp.spmd", "np": 2,
                                    "seed": seed}) for seed in range(3)]
        service = PatternletService(
            ServeConfig(use_cache=True, cache_dir=str(tmp_path)))

        async def one_by_one():
            return [await service.serve_run(spec) for spec in specs]

        try:
            results = asyncio.run(one_by_one())
        finally:
            service.close()
        assert [tier for _, _, tier in results] == ["execute"] * 3
        assert service.c_cache_misses.total() == 3.0
        assert service.c_executions.total() == 3.0
        assert service.c_cache_hits.total() == 0.0

    def test_cold_daemon_serves_from_the_shared_disk_cache(self, tmp_path):
        # A restarted daemon inherits every prior execution through the
        # content-addressed store: same key, same bytes, zero runs.
        spec = parse_run_request({"patternlet": "mpi.reduction", "np": 4})
        cfg = dict(use_cache=True, cache_dir=str(tmp_path))
        warm = PatternletService(ServeConfig(**cfg))
        try:
            _, warm_body, tier = asyncio.run(warm.serve_run(spec))
        finally:
            warm.close()
        assert tier == "execute"
        cold = PatternletService(ServeConfig(**cfg))
        try:
            _, cold_body, tier = asyncio.run(cold.serve_run(spec))
        finally:
            cold.close()
        assert tier == "cache"
        assert cold_body == warm_body
        assert cold.c_executions.total() == 0.0
