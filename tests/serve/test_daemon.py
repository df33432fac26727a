"""The HTTP daemon end-to-end: routes, keep-alive, admission, shutdown."""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time

import pytest

from repro.obs import parse_openmetrics
from repro.serve import ServeConfig, running

RUN = {"patternlet": "mpi.reduction", "np": 4}
#: The ``endpoint`` labels of the daemon's routes.
ROUTES = {"/", "/run", "/sweep", "/report", "/metrics", "/healthz"}


def _request(port, method, path, body=None, conn=None):
    """One HTTP exchange; returns (status, headers, decoded-or-raw body)."""
    owned = conn is None
    if owned:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    payload = json.dumps(body).encode() if body is not None else None
    conn.request(method, path, body=payload,
                 headers={"Content-Type": "application/json"} if payload else {})
    resp = conn.getresponse()
    raw = resp.read()
    headers = {k.lower(): v for k, v in resp.getheaders()}
    if owned:
        conn.close()
    try:
        doc = json.loads(raw)
    except ValueError:
        doc = raw
    return resp.status, headers, doc


def _slow_dispatch(daemon, delay):
    """Swap the execution backend for a deterministic slow coroutine."""
    from repro.batch.results import RunOutcome

    async def dispatch(spec, key):
        await asyncio.sleep(delay)
        out = RunOutcome(spec=spec, key=key, cached=False,
                         text="slow", span=1.0, wall=delay, races=0)
        return out, {"hits": 0, "misses": 1}

    daemon.service._dispatch = dispatch


def _scrape(port):
    """One strict ``/metrics`` scrape, parsed."""
    status, _, raw = _request(port, "GET", "/metrics")
    assert status == 200
    return parse_openmetrics(raw.decode())


def _gauges(port):
    """The admission gauges of one scrape, by short name."""
    doc = _scrape(port)
    return {name: doc[f"patternlet_{name}"]["samples"][0]["value"]
            for name in ("serve_queue_depth", "serve_inflight")}


class TestRoutes:
    def test_run_report_metrics_healthz(self, tmp_path):
        with running(cache_dir=str(tmp_path)) as daemon:
            status, headers, _ = _request(daemon.port, "GET", "/healthz")
            assert status == 200

            status, headers, doc = _request(daemon.port, "POST", "/run", RUN)
            assert status == 200
            assert headers["x-patternlet-served"] == "execute"
            key = headers["x-patternlet-key"]
            assert doc["key"] == key and doc["races"] == 0

            # Identical body again: memoised, byte-identical.
            status, headers, doc2 = _request(daemon.port, "POST", "/run", RUN)
            assert headers["x-patternlet-served"] == "memo"
            assert doc2 == doc

            status, _, stored = _request(daemon.port, "GET", f"/report/{key}")
            assert status == 200 and stored == doc

            status, _, _ = _request(daemon.port, "GET", "/report/nope")
            assert status == 404

            status, headers, text = _request(daemon.port, "GET", "/metrics")
            assert status == 200
            assert headers["content-type"].startswith(
                "application/openmetrics-text")
            doc = parse_openmetrics(text.decode())
            assert "patternlet_serve_executions" in doc
            assert "patternlet_serve_requests" in doc

    def test_run_computes_its_key_once(self, tmp_path, monkeypatch):
        import repro.serve.daemon as daemon_mod
        import repro.serve.service as service_mod
        from repro.batch.specs import spec_key

        calls = []

        def counting(spec):
            calls.append(spec)
            return spec_key(spec)

        monkeypatch.setattr(daemon_mod, "spec_key", counting)
        monkeypatch.setattr(service_mod, "spec_key", counting)
        with running(cache_dir=str(tmp_path)) as daemon:
            for tier in ("execute", "memo"):
                calls.clear()
                status, headers, _ = _request(daemon.port, "POST", "/run", RUN)
                assert status == 200
                assert headers["x-patternlet-served"] == tier
                assert len(calls) == 1

    def test_sweep_keys_each_cell_once(self, tmp_path, monkeypatch):
        import repro.serve.daemon as daemon_mod
        import repro.serve.service as service_mod
        from repro.batch.specs import spec_key

        calls = []

        def counting(spec):
            calls.append(spec)
            return spec_key(spec)

        monkeypatch.setattr(daemon_mod, "spec_key", counting)
        monkeypatch.setattr(service_mod, "spec_key", counting)
        grid = {"patternlets": ["mpi.reduction"], "np": [2, 4],
                "seeds": [0, 1]}
        with running(cache_dir=str(tmp_path)) as daemon:
            status, _, doc = _request(daemon.port, "POST", "/sweep", grid)
        assert status == 200 and doc["distinct_cells"] == 4
        assert len(calls) == 4

    def test_sweep_summary_and_stored_report(self, tmp_path):
        with running(cache_dir=str(tmp_path)) as daemon:
            grid = {"patternlets": ["mpi.reduction"], "np": [2, 4],
                    "seeds": [0, 1]}
            status, _, doc = _request(daemon.port, "POST", "/sweep", grid)
            assert status == 200
            assert doc["runs"] == 4 and doc["errors"] == 0
            assert doc["distinct_cells"] == 4
            status, _, report = _request(
                daemon.port, "GET", f"/report/{doc['report']}")
            assert status == 200
            assert len(report["cells"]) == 4

    def test_error_statuses(self, tmp_path):
        cfg = ServeConfig(cache_dir=str(tmp_path), max_body_bytes=512)
        with running(cfg) as daemon:
            port = daemon.port
            assert _request(port, "GET", "/nope")[0] == 404
            assert _request(port, "GET", "/run")[0] == 405
            assert _request(port, "POST", "/run",
                            {"patternlet": "no.such"})[0] == 404
            assert _request(port, "POST", "/run",
                            {"patternlet": "mpi.reduction",
                             "mode": "thread"})[0] == 400
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            conn.request("POST", "/run", body=b"x" * 1024)
            assert conn.getresponse().status == 413
            conn.close()
            # Invalid JSON is a 400, not a connection reset.
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            conn.request("POST", "/run", body=b"{not json")
            assert conn.getresponse().status == 400
            conn.close()

    @pytest.mark.parametrize("route, body", [
        ("/run", b"[" * 200_000 + b"]" * 200_000),
        ("/sweep", b'{"patternlets": ["mpi.reduction"], "toggles": '
         + b"[" * 200_000 + b"]" * 200_000 + b"}"),
    ], ids=["run", "sweep"])
    def test_json_nested_past_the_parser_limit_is_a_400(self, tmp_path,
                                                         route, body):
        # The parser raises RecursionError, not ValueError, on a body
        # nested this deep; it is invalid JSON all the same.
        with running(cache_dir=str(tmp_path)) as daemon:
            conn = http.client.HTTPConnection("127.0.0.1", daemon.port,
                                              timeout=30)
            conn.request("POST", route, body=body)
            resp = conn.getresponse()
            doc = json.loads(resp.read())
            conn.close()
            requests = daemon.service.c_requests
            assert resp.status == 400
            assert doc["error"] == "request body is not valid JSON"
            assert requests.value({"endpoint": route, "status": "400"}) == 1.0
            assert requests.value({"endpoint": route, "status": "500"}) == 0.0

    def test_unrouted_paths_share_one_endpoint_label(self, tmp_path):
        # Every path a client invents would otherwise add a label set
        # that lives as long as the daemon.
        paths = [f"/nope-{i}/{'x' * 256}" for i in range(40)]
        paths += ["/report", "/run/extra", "/run?x=1", "/healthz/", "//"]
        with running(cache_dir=str(tmp_path)) as daemon:
            for path in paths:
                assert _request(daemon.port, "GET", path)[0] == 404
            doc = _scrape(daemon.port)
        for family in ("patternlet_serve_requests", "patternlet_serve_request"):
            endpoints = {sample["labels"]["endpoint"]
                         for sample in doc[family]["samples"]}
            assert endpoints - ROUTES == {"other"}, family
        other_404 = [s["value"] for s in doc["patternlet_serve_requests"]["samples"]
                     if s["labels"] == {"endpoint": "other", "status": "404"}]
        assert other_404 == [float(len(paths))]


class TestKeepAlive:
    def test_two_requests_share_one_socket(self, tmp_path):
        with running(cache_dir=str(tmp_path)) as daemon:
            conn = http.client.HTTPConnection("127.0.0.1", daemon.port,
                                              timeout=30)
            status, headers, _ = _request(daemon.port, "GET", "/healthz",
                                          conn=conn)
            assert status == 200
            assert headers["connection"] == "keep-alive"
            sock = conn.sock
            assert sock is not None
            status, _, _ = _request(daemon.port, "POST", "/run", RUN,
                                    conn=conn)
            assert status == 200
            assert conn.sock is sock  # same socket, no reconnect
            conn.close()

    def test_connection_close_is_honoured(self, tmp_path):
        with running(cache_dir=str(tmp_path)) as daemon:
            conn = http.client.HTTPConnection("127.0.0.1", daemon.port,
                                              timeout=30)
            conn.request("GET", "/healthz", headers={"Connection": "close"})
            resp = conn.getresponse()
            resp.read()
            assert resp.getheader("Connection") == "close"
            conn.close()


class TestCacheTierOffLoop:
    def test_slow_record_read_does_not_stall_a_memo_hit(
            self, tmp_path, monkeypatch):
        # The cache tier reads its record off the event loop: while one
        # request waits on a slow disk read, a memo hit still answers.
        from repro.batch import run_specs
        from repro.batch.cache import RunCache
        from repro.batch.specs import spec_key
        from repro.serve import parse_run_request

        slow_doc = dict(RUN, seed=7)
        slow_key = spec_key(parse_run_request(slow_doc))
        run_specs([parse_run_request(slow_doc)], max_workers=1,
                  use_cache=True, cache_dir=str(tmp_path))  # pre-fill
        with running(cache_dir=str(tmp_path)) as daemon:
            port = daemon.port
            assert _request(port, "POST", "/run", RUN)[0] == 200
            real_get = RunCache.get

            def slow_get(cache, key):
                if key == slow_key:
                    time.sleep(0.5)
                return real_get(cache, key)

            monkeypatch.setattr(RunCache, "get", slow_get)
            slow = []
            reader = threading.Thread(target=lambda: slow.append(
                _request(port, "POST", "/run", slow_doc)))
            reader.start()
            time.sleep(0.1)  # the slow read is under way
            t0 = time.monotonic()
            status, headers, _ = _request(port, "POST", "/run", RUN)
            elapsed = time.monotonic() - t0
            reader.join()
            assert status == 200 and headers["x-patternlet-served"] == "memo"
            assert elapsed < 0.1, f"memo hit waited {elapsed:.3f}s"
            status, headers, doc = slow[0]
            assert status == 200 and headers["x-patternlet-served"] == "cache"
            assert doc["key"] == slow_key
            service = daemon.service
            assert service.c_executions.total() == 1.0
            assert service.c_cache_hits.total() == 2.0
            assert service.c_cache_misses.total() == 1.0

    def test_report_falls_back_to_the_disk_record(self, tmp_path):
        with running(cache_dir=str(tmp_path)) as daemon:
            _, headers, doc = _request(daemon.port, "POST", "/run", RUN)
        key = headers["x-patternlet-key"]
        with running(cache_dir=str(tmp_path)) as daemon:  # empty memo
            status, _, stored = _request(daemon.port, "GET", f"/report/{key}")
        assert status == 200 and stored == doc


class TestUnreportableRecord:
    def test_record_missing_its_summary_is_executed_and_replaced(self, tmp_path):
        # A current-schema record without a verdict is a cache miss, not a
        # 500: the daemon executes the spec once and rewrites the record.
        from repro.batch import run_specs
        from repro.batch.cache import RunCache
        from repro.batch.specs import spec_key
        from repro.serve import parse_run_request

        spec = parse_run_request(RUN)
        run_specs([spec], max_workers=1, use_cache=True, cache_dir=str(tmp_path))
        path = RunCache(tmp_path)._path(spec_key(spec))
        broken = json.loads(path.read_text())
        del broken["summary"]
        path.write_text(json.dumps(broken))
        with running(cache_dir=str(tmp_path)) as daemon:
            replies = [_request(daemon.port, "POST", "/run", RUN) for _ in range(3)]
            executions = daemon.service.c_executions.total()
        assert [status for status, _, _ in replies] == [200, 200, 200]
        assert [h["x-patternlet-served"] for _, h, _ in replies] == [
            "execute", "memo", "memo"]
        assert replies[0][2] == replies[1][2] == replies[2][2]
        assert "summary" in json.loads(path.read_text())
        assert executions == 1.0


class TestReportKeys:
    def test_a_report_key_cannot_reach_a_file(self, key_trap):
        # The report route's disk fallback reads the run cache with the
        # raw path text; a key that is not a content address must be a
        # plain 404 that leaves every file where it was.
        with running(cache_dir=str(key_trap.root)) as daemon:
            status, _, doc = _request(daemon.port, "GET", f"/report/{key_trap.key}")
        assert status == 404 and "error" in doc
        assert key_trap.sentinel.read_text() == key_trap.text


class TestAdmission:
    def test_high_water_sheds_with_429_and_retry_after(self, tmp_path):
        cfg = ServeConfig(cache_dir=str(tmp_path), queue_limit=0)
        with running(cfg) as daemon:
            _slow_dispatch(daemon, 0.6)
            port = daemon.port
            results = []

            def post(seed):
                results.append(_request(
                    port, "POST", "/run", dict(RUN, seed=seed)))

            first = threading.Thread(target=post, args=(0,))
            first.start()
            time.sleep(0.2)  # first request holds the only slot
            status, headers, doc = _request(port, "POST", "/run",
                                            dict(RUN, seed=1))
            first.join()
            assert status == 429
            assert headers["retry-after"] == "1"
            assert "admission queue full" in doc["error"]
            assert results[0][0] == 200  # the leader still finished
            assert daemon.service.c_shed.total() == 1.0

    def test_queue_deadline_expires_with_503(self, tmp_path):
        cfg = ServeConfig(cache_dir=str(tmp_path),
                          queue_limit=4, deadline_ms=100)
        with running(cfg) as daemon:
            _slow_dispatch(daemon, 1.5)
            port = daemon.port
            first = threading.Thread(
                target=_request, args=(port, "POST", "/run", RUN))
            first.start()
            time.sleep(0.2)
            status, _, doc = _request(port, "POST", "/run",
                                      dict(RUN, seed=1))
            # The expired request has left the queue; the first still runs.
            health = _request(port, "GET", "/healthz")[2]
            gauges = _gauges(port)
            first.join()
            assert status == 503
            assert "no execution slot" in doc["error"]
            assert daemon.service.c_deadline.total() == 1.0
            assert (health["queue_depth"], health["inflight"]) == (0, 1)
            assert (gauges["serve_queue_depth"], gauges["serve_inflight"]) == (0, 1)

    def test_healthz_and_metrics_agree_on_admission(self, tmp_path):
        # Three distinct misses: one runs on the lane, two wait for it.
        with running(cache_dir=str(tmp_path)) as daemon:
            _slow_dispatch(daemon, 1.5)
            port = daemon.port
            clients = [threading.Thread(
                target=_request, args=(port, "POST", "/run", dict(RUN, seed=s)))
                for s in range(3)]
            for client in clients:
                client.start()
            time.sleep(0.3)
            health = _request(port, "GET", "/healthz")[2]
            gauges = _gauges(port)
            for client in clients:
                client.join(timeout=30)
                assert not client.is_alive()
        assert (health["inflight"], health["queue_depth"]) == (1, 2)
        assert (gauges["serve_inflight"], gauges["serve_queue_depth"]) == (1, 2)
        assert "workers" not in health

    def test_draining_rejects_new_executions(self, tmp_path):
        with running(cache_dir=str(tmp_path)) as daemon:
            port = daemon.port
            _request(port, "POST", "/run", RUN)  # warm the memo
            daemon.service.start_draining()
            # New work is refused...
            status, _, doc = _request(port, "POST", "/run",
                                      dict(RUN, seed=5))
            assert status == 503
            assert "draining" in doc["error"]
            assert _request(port, "GET", "/healthz")[0] == 503
            # ...but already-finished keys are still served.
            status, headers, _ = _request(port, "POST", "/run", RUN)
            assert status == 200
            assert headers["x-patternlet-served"] == "memo"


class TestLeaderDeath:
    def test_a_failed_leader_fails_its_flight_and_frees_the_slot(self, tmp_path):
        # The leader's lane call raises once, after its followers attached.
        with running(cache_dir=str(tmp_path)) as daemon:
            service = daemon.service
            real_dispatch = service._dispatch
            calls = []

            async def dies_once(spec, key):
                calls.append(key)
                if len(calls) == 1:
                    await asyncio.sleep(0.8)
                    raise RuntimeError("lane call failed")
                return await real_dispatch(spec, key)

            service._dispatch = dies_once
            port = daemon.port
            replies = []

            def post():
                replies.append(_request(port, "POST", "/run", RUN))

            leader = threading.Thread(target=post)
            leader.start()
            time.sleep(0.2)  # the leader is on the lane
            followers = [threading.Thread(target=post) for _ in range(4)]
            for client in followers:
                client.start()
            for client in (leader, *followers):
                client.join(timeout=30)
                assert not client.is_alive()
            assert [status for status, _, _ in replies] == [500] * 5
            assert all(doc == {"error": "RuntimeError: lane call failed"}
                       for _, _, doc in replies)
            assert service.c_coalesce.total() == 4.0
            failed = [s["value"] for s in _scrape(port)
                      ["patternlet_serve_requests"]["samples"]
                      if s["labels"] == {"endpoint": "/run", "status": "500"}]
            assert failed == [5.0]
            assert service._inflight == {} and not service._sem.locked()
            health = _request(port, "GET", "/healthz")[2]
            assert (health["inflight"], health["queue_depth"]) == (0, 0)
            status, headers, doc = _request(port, "POST", "/run", RUN)
            assert status == 200 and headers["x-patternlet-served"] == "execute"
            assert len(calls) == 2 and doc["races"] == 0


def _thread_count_settles(target, *, timeout=10.0):
    """Wait for stragglers mid-exit; return the settled count."""
    deadline = time.monotonic() + timeout
    n = threading.active_count()
    while n > target and time.monotonic() < deadline:
        time.sleep(0.02)
        n = threading.active_count()
    return n


class TestGracefulShutdown:
    def test_shutdown_drains_inflight_runs(self, tmp_path):
        results = []
        with running(cache_dir=str(tmp_path)) as daemon:
            _slow_dispatch(daemon, 0.5)
            port = daemon.port
            client = threading.Thread(
                target=lambda: results.append(
                    _request(port, "POST", "/run", RUN)))
            client.start()
            time.sleep(0.2)  # the run is in flight when shutdown begins
        client.join()
        assert results[0][0] == 200  # drained, not dropped

    def test_stopped_daemon_leaves_zero_threads(self, tmp_path):
        # PR-5's leak discipline extended to the daemon: the event loop
        # thread, the execution lane, and every rank thread the runs
        # parked must all be gone after shutdown.
        baseline = _thread_count_settles(threading.active_count())
        with running(cache_dir=str(tmp_path)) as daemon:
            for seed in range(3):
                status, _, _ = _request(daemon.port, "POST", "/run",
                                        dict(RUN, seed=seed))
                assert status == 200
        assert _thread_count_settles(baseline) <= baseline

    def test_shutdown_reports_clean_drain(self, tmp_path):
        # The context manager path returns through ServeDaemon.shutdown;
        # drive it directly to pin the clean-drain verdict.
        from repro.serve import ServeDaemon

        async def scenario():
            daemon = await ServeDaemon(
                ServeConfig(cache_dir=str(tmp_path))).start()
            status, _, _ = await _async_health(daemon.port)
            assert status == 200
            return await daemon.shutdown()

        assert asyncio.run(scenario()) is True


async def _async_health(port):
    """A minimal in-loop client (the daemon serves on this same loop)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":")[1])
    body = await reader.readexactly(length)
    writer.close()
    return status, {}, body
