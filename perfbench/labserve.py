"""``lab-serve``: a lab section against a ``patternlet serve`` daemon.

The daemon runs in its own process with default settings (one execution
lane).  Two closed-loop keep-alive connections, driven by one thread of
this process, replay one seeded request sequence; each waits for its
reply before it takes the next request, as a student does.

- New exercises: the instructor announces a new grid cell and a burst
  of consecutive requests asks for it.  The first executes, a concurrent
  duplicate coalesces, the rest hit the memo.
- Re-requests: inside a burst, students also re-request earlier
  exercises, skewed toward recent ones.
- Scrapes: the instructor calls ``GET /metrics`` about once per 100
  requests.
- Set-up starts the daemon on a cache directory pre-filled with a
  previous section's cells, so some first touches are disk-tier hits.
"""

from __future__ import annotations

import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

from common import (
    ROOT,
    HostNoise,
    cell_body,
    cell_spec,
    fresh_dir,
    lab_configs,
    median,
    percentile,
    proc_cpu_s,
    proc_hwm_mb,
    program_env,
    reference,
    stop_pool,
    time_import,
)

HERE = Path(__file__).resolve().parent
CLIENTS = 2
#: Busy-poll the connections when a CPU is left for the daemon.
BUSY_POLL = (os.cpu_count() or 1) > 1
#: Requests per announced exercise (uniform, inclusive).
BURST = (10, 30)
#: Chance that a request inside a burst re-requests an earlier exercise.
P_REREQUEST = 0.3
#: Mean look-back of a re-request, in exercises.
RECENCY = 6.0
#: Chance of an instructor scrape after any request.
P_SCRAPE = 0.01
#: Share of the exercises a section is expected to reach that a
#: previous section already ran (the pre-filled cache).
PREFILL_SHARE = 0.2
#: Exercises per second a section is expected to reach (sizes the
#: pre-fill), and the most the sequence allows for (sizes the sequence).
EXPECTED_EX_PER_S = 40
MAX_EX_PER_S = 300
SCRAPE = -1
COUNTERS = ("serve_executions", "serve_coalesce_hits", "serve_cache_hits",
            "serve_cache_misses", "serve_shed", "serve_deadline_expired")
TIERS = ("memo", "coalesce", "cache", "execute")
_METRIC_LINE = re.compile(r"^([A-Za-z_:][\w:]*(?:\{[^}]*\})?) (\S+)")


def build_sequence(rng, seconds: float, tiny: bool):
    """(cells, requests, pre-filled cell indices) from the seed.

    ``requests`` holds a cell index per ``/run`` request and ``SCRAPE``
    for each ``GET /metrics``.
    """
    configs = lab_configs()
    n_ex = max(50, int(seconds * MAX_EX_PER_S))
    cells: list[tuple] = []
    seen = set()
    while len(cells) < n_ex:
        cell = rng.choice(configs) + (rng.randrange(1 << 20),)
        if cell not in seen:
            seen.add(cell)
            cells.append(cell)
    requests: list[int] = []
    for k in range(n_ex):
        for _ in range(rng.randint(*BURST)):
            if k and rng.random() < P_REREQUEST:
                requests.append(k - 1 - min(int(rng.expovariate(1.0 / RECENCY)), k - 1))
            else:
                requests.append(k)
            if rng.random() < P_SCRAPE:
                requests.append(SCRAPE)
    horizon = min(n_ex, max(10, int(seconds * EXPECTED_EX_PER_S)))
    if tiny:
        horizon = min(horizon, 20)
    prefill = sorted(k for k in range(horizon) if rng.random() < PREFILL_SHARE)
    return cells, requests, prefill


class Daemon:
    """A ``patternlet serve`` process on a free port."""

    def __init__(self, cache_dir: Path, trace_dir: Path | None) -> None:
        serve = ["serve", "--port", "0", "--cache-dir", str(cache_dir)]
        if trace_dir is None:
            cmd = [sys.executable, "-m", "repro.cli", *serve]
        else:
            cmd = [sys.executable, str(HERE / "daemon_main.py"), str(trace_dir), *serve]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=program_env(),
                                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                     text=True)
        self.stderr: list[str] = []
        self._announced = threading.Event()
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()
        try:
            if not self._announced.wait(60):
                raise RuntimeError(f"daemon did not announce: {''.join(self.stderr)}")
            match = re.search(r"http://127\.0\.0\.1:(\d+)", "".join(self.stderr))
            if match is None:
                raise RuntimeError(f"daemon failed to start: {''.join(self.stderr)}")
            self.port = int(match.group(1))
            self._await_health(time.perf_counter() + 60)
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - t0

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self.stderr.append(line)
            if "serving at" in line or "error" in line:
                self._announced.set()
        self._announced.set()

    def _await_health(self, deadline: float) -> None:
        while True:
            try:
                status, _ = get(self.port, "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                raise RuntimeError("daemon never became healthy")
            time.sleep(0.005)

    def scrape(self) -> dict[str, float]:
        status, body = get(self.port, "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        out = {}
        for line in body.decode().splitlines():
            match = _METRIC_LINE.match(line)
            if match:
                out[match.group(1)] = float(match.group(2))
        return out

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(10)
        return self.proc.returncode


class Connection:
    """A lean HTTP/1.1 keep-alive client connection to the daemon.

    Replies are read by their ``Content-Length`` (the daemon frames
    every reply with one), so the load generator spends little CPU per
    request and ``serve.wire_ms`` mostly measures the daemon's sockets
    and framing, not the client's.
    """

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def send(self, request: bytes) -> None:
        self.sock.sendall(request)

    def reply(self, wait: bool) -> tuple[int, str | None, bytes] | None:
        """(status, X-Patternlet-Served, body) of the next reply.

        With ``wait`` false, ``None`` while the reply has not fully
        arrived.
        """
        while True:
            parsed = self._parse()
            if parsed is not None:
                return parsed
            try:
                chunk = self.sock.recv(65536, 0 if wait else socket.MSG_DONTWAIT)
            except BlockingIOError:
                return None
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            self.buf += chunk

    def _parse(self) -> tuple[int, str | None, bytes] | None:
        end = self.buf.find(b"\r\n\r\n")
        if end < 0:
            return None
        lines = self.buf[:end].decode("latin-1").split("\r\n")
        fields = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            fields[name.strip().lower()] = value.strip()
        stop = end + 4 + int(fields["content-length"])
        if len(self.buf) < stop:
            return None
        body, self.buf = self.buf[end + 4:stop], self.buf[stop:]
        return int(lines[0].split()[1]), fields.get("x-patternlet-served"), body

    def close(self) -> None:
        self.sock.close()


def get(port: int, path: str) -> tuple[int, bytes]:
    conn = Connection(port)
    try:
        conn.send(b"GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n" % path.encode())
        status, _, body = conn.reply(wait=True)
        return status, body
    finally:
        conn.close()


def _requests(bodies: list[bytes]) -> list[bytes]:
    """Pre-encoded ``POST /run`` requests, one per cell, then the scrape.

    The scrape sits last, so ``SCRAPE`` (-1) indexes it.
    """
    return [b"POST /run HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
            % (len(body), body) for body in bodies] + [
        b"GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"]


def replay(port: int, encoded: list[bytes], requests: list[int],
           deadline: float) -> tuple[list[tuple], int]:
    """Replay ``requests`` over ``CLIENTS`` closed-loop connections.

    One thread drives every connection: each connection sends its next
    request only when its previous reply is complete.  The thread
    busy-polls when there is a spare CPU, so neither its own wake-ups
    nor the host's idle-CPU scheduling delays land in the measured
    latency.  Returns the finished requests as ``(item, start ns,
    end ns, status, served tier, body)`` and how many were sent.
    """
    conns = [Connection(port) for _ in range(CLIENTS)]
    inflight: list[tuple[int, int] | None] = [None] * CLIENTS
    out: list[tuple] = []
    sent = 0

    def send(k: int) -> None:
        nonlocal sent
        inflight[k] = None
        if sent < len(requests) and time.perf_counter() < deadline:
            item = requests[sent]
            sent += 1
            inflight[k] = (item, time.perf_counter_ns())
            conns[k].send(encoded[item])

    timeout = 0.0 if BUSY_POLL else None
    try:
        for k in range(CLIENTS):
            send(k)
        while any(inflight):
            if time.perf_counter() > deadline + 60:
                raise RuntimeError("the daemon stopped answering")
            ready, _, _ = select.select(
                [c.sock for c, f in zip(conns, inflight) if f is not None], [], [], timeout)
            for k, conn in enumerate(conns):
                if inflight[k] is None or conn.sock not in ready:
                    continue
                item, t0 = inflight[k]
                try:
                    got = conn.reply(wait=False)
                    if got is None:
                        continue
                except (OSError, ValueError, KeyError, IndexError):
                    conn.close()
                    conns[k] = Connection(port)
                    got = (0, None, b"")
                status, served, body = got
                out.append((item, t0, time.perf_counter_ns(), status, served,
                            body if item != SCRAPE else b""))
                send(k)
    finally:
        for conn in conns:
            conn.close()
    return out, sent


class LabServe:
    def __init__(self, rng, seconds: float, tiny: bool) -> None:
        self.seconds = seconds
        self.cells, self.requests, self.prefill = build_sequence(rng, seconds, tiny)
        self.encoded = _requests([cell_body(c) for c in self.cells])
        self.reps = 1 if tiny else 3
        self.noise = HostNoise()
        self.daemon: Daemon | None = None
        self._dirs = 0

    def _prime(self) -> tuple[Path, float]:
        from repro.batch import run_specs

        self._dirs += 1
        cache_dir = fresh_dir(f"serve-{self._dirs}")
        t0 = time.perf_counter()
        report = run_specs([cell_spec(self.cells[k]) for k in self.prefill],
                           use_cache=True, cache_dir=str(cache_dir))
        stop_pool()
        if report.errors:
            raise RuntimeError("pre-fill failed")
        return cache_dir, time.perf_counter() - t0

    def setup(self) -> dict[str, float]:
        """Set up ``reps`` times; the last daemon serves the measured phase."""
        totals, imports, boots, primes = [], [], [], []
        for rep in range(self.reps):
            self.finish()
            imp = time_import()
            cache_dir, prime = self._prime()
            self.daemon = Daemon(cache_dir, None)
            imports.append(imp)
            primes.append(prime)
            boots.append(self.daemon.boot_s)
            totals.append(imp + prime + self.daemon.boot_s)
        return {
            "setup_s": median(totals),
            "setup.import_s": median(imports),
            "setup.boot_s": median(boots),
            "setup.prime_s": median(primes),
        }

    #: Span whose thread is the execution lane (see ``layers.aggregate``).
    LANE_SPAN = "serve.run"

    def start_traced(self, trace_dir: Path) -> None:
        """Replace the daemon by a traced one on a freshly pre-filled cache."""
        self.finish()
        cache_dir, _ = self._prime()
        self.daemon = Daemon(cache_dir, trace_dir)

    def stop_traced(self) -> None:
        """Stop the traced daemon, which writes its spans as it exits."""
        self.finish()

    def measure(self) -> dict[str, Any]:
        daemon = self.daemon
        pid = daemon.proc.pid
        before = daemon.scrape()
        cpu0 = proc_cpu_s(pid)
        self.noise.begin()
        t0 = time.perf_counter_ns()
        out, sent = replay(daemon.port, self.encoded, self.requests,
                           time.perf_counter() + self.seconds)
        t1 = max(r[2] for r in out)
        cpu = proc_cpu_s(pid) - cpu0
        self.noise.end(cpu)
        after = daemon.scrape()
        return {
            "t0": t0, "t1": t1, "out": out, "before": before, "after": after,
            "peak_rss_mb": proc_hwm_mb(pid),
            "exhausted": sent >= len(self.requests),
        }

    def finish(self) -> None:
        if self.daemon is not None:
            code = self.daemon.stop()
            self.daemon = None
            if code != 0:
                raise RuntimeError(f"daemon exited with {code}")

    # -- checks and metrics ----------------------------------------------------

    def _deltas(self, run: dict[str, Any]) -> dict[str, float]:
        def value(doc: dict[str, float], name: str) -> float:
            return doc.get(f"patternlet_{name}_total", 0.0)

        return {name: value(run["after"], name) - value(run["before"], name)
                for name in COUNTERS}

    def check(self, runs: list[dict[str, Any]]) -> dict[str, Any]:
        """Every reply against the serial reference, plus counter checks."""
        requested = {r[0] for run in runs for r in run["out"] if r[0] != SCRAPE}
        ref = reference(self.cells[k] for k in sorted(requested))
        verdict: dict[tuple[int, bytes], bool] = {}
        attempted = failed = 0
        mismatches: list[str] = []
        counter_problems: list[str] = []
        for run in runs:
            for item, _, _, status, _, data in run["out"]:
                attempted += 1
                ok = status == 200
                if ok and item != SCRAPE:
                    ok = verdict.get((item, data))
                    if ok is None:
                        try:
                            doc = json.loads(data)
                            got = (doc["text"], doc["races"], doc["span"])
                        except (ValueError, KeyError):
                            got = None
                        ok = verdict[(item, data)] = got == ref[self.cells[item]]
                if not ok:
                    failed += 1
                    if len(mismatches) < 5:
                        mismatches.append(f"{self.cells[item] if item != SCRAPE else '/metrics'}"
                                          f": status {status}")
            deltas = self._deltas(run)
            offered = {r[0] for r in run["out"] if r[0] != SCRAPE}
            new_cells = len(offered - set(self.prefill))
            if deltas["serve_executions"] != new_cells:
                counter_problems.append(
                    f"executions {deltas['serve_executions']:.0f} != {new_cells} new cells")
            for name in ("serve_shed", "serve_deadline_expired"):
                if deltas[name]:
                    counter_problems.append(f"{name} = {deltas[name]:.0f}")
            if run["exhausted"]:
                counter_problems.append("request sequence ran out")
        return {"attempted": attempted, "failed": failed, "mismatches": mismatches,
                "counter_problems": counter_problems,
                "ok": failed == 0 and not counter_problems}

    def handle_ms(self, run: dict[str, Any]) -> float:
        key = '{endpoint="/run"}'
        before, after = run["before"], run["after"]
        n = after.get(f"patternlet_serve_request_count{key}", 0.0) - \
            before.get(f"patternlet_serve_request_count{key}", 0.0)
        total = after.get(f"patternlet_serve_request_sum{key}", 0.0) - \
            before.get(f"patternlet_serve_request_sum{key}", 0.0)
        return total / n if n else 0.0

    def tiers(self, run: dict[str, Any]) -> dict[str, float]:
        served = [r[4] for r in run["out"] if r[0] != SCRAPE]
        return {tier: served.count(tier) / len(served) if served else 0.0
                for tier in TIERS}

    def metrics(self, run: dict[str, Any]) -> dict[str, float]:
        lat = [(r[2] - r[1]) / 1e6 for r in run["out"]]
        return {
            "ops_per_s": len(lat) / ((run["t1"] - run["t0"]) / 1e9),
            "p50_ms": median(lat),
            "p99_ms": percentile(lat, 99),
            "peak_rss_mb": run["peak_rss_mb"],
        }

    def layer(self, run: dict[str, Any]) -> dict[str, float]:
        """Per-layer numbers visible without wrappers."""
        handle = self.handle_ms(run)
        lat = [(r[2] - r[1]) / 1e6 for r in run["out"] if r[0] != SCRAPE]
        out = {"serve.handle_ms": handle,
               "serve.wire_ms": (sum(lat) / len(lat) if lat else 0.0) - handle}
        out.update({f"serve.tier.{k}": v for k, v in self.tiers(run).items()})
        out.update({f"serve.counter.{k[len('serve_'):]}": v
                    for k, v in self._deltas(run).items()})
        return out

    def record(self, run: dict[str, Any]) -> dict[str, Any]:
        lat = [(r[2] - r[1]) / 1e6 for r in run["out"]]
        p99 = percentile(lat, 99)
        return {
            "requests": len(run["out"]),
            "latency_samples": len(lat),
            "samples_beyond_p99": sum(1 for x in lat if x > p99),
            "exercises_reached": len({r[0] for r in run["out"] if r[0] != SCRAPE}),
            "prefilled_cells": len(self.prefill),
            "server": self.layer(run),
            "host": self.noise.doc,
        }

    def windows(self, run: dict[str, Any]) -> list[tuple[int, int, int]]:
        return [(run["t0"], run["t1"], 1)]

    def ops(self, run: dict[str, Any]) -> int:
        return sum(1 for r in run["out"] if r[0] != SCRAPE)
