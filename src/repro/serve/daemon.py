"""The daemon's HTTP plumbing: asyncio sockets around the serving core.

A deliberately small hand-rolled HTTP/1.1 layer on ``asyncio.start_server``
— no framework, matching the repo's stdlib-only discipline — that feeds
:class:`~repro.serve.service.PatternletService`:

- **Keep-alive by default** (HTTP/1.1 semantics: ``Connection: close``
  or an HTTP/1.0 client without ``keep-alive`` closes; everything else
  persists), every response framed with ``Content-Length``, idle
  connections reaped after ``idle_timeout_s``.
- **Bounded parsing under one deadline**: :func:`read_request` reads a
  request's line, headers and body under one ``idle_timeout_s`` wait, so
  a client that stalls anywhere in a request is reaped like an idle
  one.  Lines and header counts are capped (400), and bodies past
  ``max_body_bytes`` are refused with 413 before being read.  Each
  refusal counts in ``serve_framing_refused{status}`` and each reap in
  ``serve_connections_reaped``.
- **Graceful shutdown**: :meth:`ServeDaemon.shutdown` stops the
  listener, flips the service to draining (new executions → 503,
  cached/coalesced serves still answered), waits for in-flight runs,
  then force-closes lingering keep-alive sockets and unwinds both pools
  — the batch worker processes and the parked rank threads — so a
  stopped daemon leaves zero threads behind.

Routes: ``POST /run``, ``POST /sweep``, ``GET /report/<key>``,
``GET /metrics`` (strict OpenMetrics), ``GET /healthz``.

:func:`running` hosts a daemon on a background thread for tests, the
bench harness, and embedding; :func:`serve_forever` is the CLI's
foreground path with SIGTERM/SIGINT wired to the graceful drain.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import threading
import time
from typing import Any, Callable, Iterator, Mapping, NamedTuple

from repro.batch.specs import spec_key
from repro.serve.service import (
    PatternletService,
    RequestError,
    ServeConfig,
    parse_run_request,
    parse_sweep_request,
)

__all__ = ["Request", "ServeDaemon", "read_request", "running", "serve_forever"]

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}

_JSON_TYPE = "application/json"
_METRICS_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"

#: Hard caps on request framing (headers, not bodies).  A line past the
#: StreamReader's own limit (64 KiB by default) fails ``readline`` itself;
#: both answer 400.
_MAX_LINE = 8192
_MAX_HEADERS = 100


def _json_body(doc: Mapping[str, Any]) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


class Request(NamedTuple):
    """One framed HTTP request; header names are lower-cased."""

    method: str
    path: str
    version: str
    headers: dict[str, str]
    body: bytes


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One line ending in LF (CRLF or bare LF); EOF before it raises
    ``IncompleteReadError``, a line past the caps ``RequestError``."""
    try:
        line = await reader.readline()
    except ValueError:  # past the reader's limit; readline dropped it
        raise RequestError("line too long") from None
    if not line.endswith(b"\n"):
        raise asyncio.IncompleteReadError(line, None)
    if len(line) > _MAX_LINE:
        raise RequestError("line too long")
    return line


async def read_request(reader: asyncio.StreamReader,
                       max_body: int) -> Request | None:
    """Read one request: request line, headers, then a body of
    ``Content-Length`` bytes.

    Returns None at EOF, whether before the first byte or partway
    through a request: the client has gone, so there is nobody to
    answer.  Raises :class:`RequestError` (400, or 413 before reading a
    body past ``max_body``) for a request the caller must refuse and
    close on.  Bytes past the body stay buffered for the next request.
    """
    try:
        line = await _read_line(reader)
        try:
            method, path, version = line.decode("latin-1").split()
        except ValueError:
            raise RequestError("malformed request line") from None
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADERS + 1):
            line = await _read_line(reader)
            if line in (b"\r\n", b"\n"):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise RequestError("malformed header")
            headers[name.strip().lower()] = value.strip()
        else:
            raise RequestError(f"more than {_MAX_HEADERS} headers")
        text = headers.get("content-length", "0")
        try:
            length = int(text) if text.isascii() and text.isdigit() else -1
        except ValueError:  # more digits than int() converts
            length = -1
        if length < 0:
            raise RequestError("bad Content-Length")
        if length > max_body:
            raise RequestError(f"body exceeds {max_body} bytes", status=413)
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError:
        return None
    return Request(method, path, version, headers, body)


class ServeDaemon:
    """One listening daemon: a :class:`PatternletService` behind a socket."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.cfg = config if config is not None else ServeConfig()
        self.service: PatternletService | None = None
        self._server: asyncio.base_events.Server | None = None
        self._conn_tasks: set[asyncio.Task] = set()

    async def start(self) -> "ServeDaemon":
        """Bind the listener (must run on the loop that will serve)."""
        self.service = PatternletService(self.cfg)
        self._server = await asyncio.start_server(
            self._handle, host=self.cfg.host, port=self.cfg.port)
        return self

    @property
    def port(self) -> int:
        assert self._server is not None, "daemon not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.cfg.host}:{self.port}"

    async def shutdown(self, *, drain_timeout: float | None = None) -> bool:
        """Graceful stop; True when every in-flight run finished in time.

        Order matters: stop accepting, *then* flip draining (so a racing
        accept still gets a well-formed 503), drain executions, cancel
        the keep-alive readers, release the execution lane, and unwind
        the process pool and the parked rank threads.
        """
        if self._server is None:
            return True
        assert self.service is not None
        self._server.close()
        await self._server.wait_closed()
        self.service.start_draining()
        clean = await self.service.drain(drain_timeout)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._conn_tasks.clear()
        self.service.close()
        if self.cfg.workers > 1:
            from repro.batch.pool import shutdown_pool

            shutdown_pool()
        from repro.sched.pool import shutdown_pool as shutdown_rank_pool

        shutdown_rank_pool()
        self._server = None
        return clean

    # -- connection handling -------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            await self._serve_connection(reader, writer)
        except (asyncio.CancelledError, ConnectionError):
            pass  # client went away / shutdown: nothing left to say
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        assert self.service is not None
        while True:
            # One deadline per request, idle wait included: a client
            # that stalls mid-head or mid-body is reaped like an idle one.
            try:
                request = await asyncio.wait_for(
                    read_request(reader, self.cfg.max_body_bytes),
                    timeout=self.cfg.idle_timeout_s)
            except asyncio.TimeoutError:
                self.service.c_reaped.inc()
                return
            except RequestError as exc:
                self.service.c_framing_refused.inc({"status": str(exc.status)})
                await self._respond(writer, exc.status,
                                    _json_body({"error": str(exc)}), close=True)
                return
            if request is None:
                return  # client closed
            method, path, version, headers, body = request
            connection = headers.get("connection", "").lower()
            close_after = connection == "close" or (
                version == "HTTP/1.0" and connection != "keep-alive")
            t0 = time.monotonic()
            endpoint = "/" + path.lstrip("/").split("/", 1)[0] if path != "/" else "/"
            status, payload, ctype, extra = await self._route(method, path, body)
            self.service.observe(endpoint, status,
                                 (time.monotonic() - t0) * 1000.0)
            await self._respond(writer, status, payload, ctype=ctype,
                                extra=extra, close=close_after)
            if close_after:
                return

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       body: bytes, *, ctype: str = _JSON_TYPE,
                       extra: Mapping[str, str] | None = None,
                       close: bool = False) -> None:
        reason = _REASONS.get(status, "Unknown")
        head = [f"HTTP/1.1 {status} {reason}",
                "Server: patternlet-serve/1",
                f"Content-Type: {ctype}",
                f"Content-Length: {len(body)}",
                f"Connection: {'close' if close else 'keep-alive'}"]
        for name, value in (extra or {}).items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
        await writer.drain()

    # -- routing -------------------------------------------------------------

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, bytes, str, dict[str, str]]:
        assert self.service is not None
        try:
            if path == "/healthz" and method == "GET":
                status, doc = self.service.health_doc()
                return status, _json_body(doc), _JSON_TYPE, {}
            if path in ("/metrics", "/") and method == "GET":
                return (200, self.service.render_metrics().encode(),
                        _METRICS_TYPE, {})
            if path.startswith("/report/") and method == "GET":
                key = path[len("/report/"):]
                stored = await self.service.report_body(key)
                if stored is None:
                    return (404, _json_body({"error": f"no report or run "
                                             f"stored under {key!r}"}),
                            _JSON_TYPE, {})
                return 200, stored, _JSON_TYPE, {}
            if path == "/run" and method == "POST":
                return await self._route_run(body)
            if path == "/sweep" and method == "POST":
                doc = self._decode_json(body)
                specs = parse_sweep_request(doc, max_cells=self.cfg.max_cells)
                status, payload = await self.service.serve_sweep(specs)
                return status, payload, _JSON_TYPE, {}
            if path in ("/run", "/sweep", "/metrics", "/healthz", "/") or \
                    path.startswith("/report/"):
                return (405, _json_body({"error": f"{method} not allowed "
                                         f"on {path}"}), _JSON_TYPE, {})
            return (404, _json_body({"error": f"no route {path!r}"}),
                    _JSON_TYPE, {})
        except RequestError as exc:
            extra = {"Retry-After": "1"} if exc.status == 429 else {}
            return exc.status, _json_body({"error": str(exc)}), _JSON_TYPE, extra
        except Exception as exc:  # noqa: BLE001 — a route must never kill the daemon
            return (500, _json_body({"error": f"{type(exc).__name__}: {exc}"}),
                    _JSON_TYPE, {})

    async def _route_run(self, body: bytes) -> tuple[int, bytes, str, dict[str, str]]:
        assert self.service is not None
        doc = self._decode_json(body)
        spec = parse_run_request(doc)
        key = spec_key(spec)
        status, payload, served = await self.service.serve_run(spec, key)
        extra = {"X-Patternlet-Served": served}
        if key is not None:
            extra["X-Patternlet-Key"] = key
        return status, payload, _JSON_TYPE, extra

    @staticmethod
    def _decode_json(body: bytes) -> Any:
        try:
            return json.loads(body) if body else {}
        except ValueError:
            raise RequestError("request body is not valid JSON") from None


# ---------------------------------------------------------------------------
# Hosting


@contextlib.contextmanager
def running(config: ServeConfig | None = None, **kwargs: Any) -> Iterator[ServeDaemon]:
    """A daemon serving on a background thread for the ``with`` block.

    The bench harness, the tests, and embedders use this instead of the
    CLI: the caller's thread stays free to run clients against
    ``daemon.url`` while a private event loop owns the sockets.  Exit
    performs the same graceful drain as SIGTERM.
    """
    cfg = config if config is not None else ServeConfig(**kwargs)
    daemon = ServeDaemon(cfg)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    boot_error: list[BaseException] = []

    def _host() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(daemon.start())
        except BaseException as exc:  # noqa: BLE001 — surfaced to the caller
            boot_error.append(exc)
            started.set()
            return
        started.set()
        loop.run_forever()
        # Post-stop: let cancellations and closes settle before the
        # loop object is destroyed.
        pending = asyncio.all_tasks(loop)
        for task in pending:
            task.cancel()
        if pending:
            loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True))

    thread = threading.Thread(target=_host, name="patternlet-serve", daemon=True)
    thread.start()
    started.wait(timeout=30)
    if boot_error:
        loop.close()
        raise boot_error[0]
    try:
        yield daemon
    finally:
        stop = asyncio.run_coroutine_threadsafe(daemon.shutdown(), loop)
        with contextlib.suppress(Exception):
            stop.result(timeout=cfg.drain_timeout_s + 10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        if not loop.is_running():
            loop.close()


async def serve_forever(
    config: ServeConfig,
    *,
    announce: Callable[[str], None] | None = None,
) -> bool:
    """The CLI's foreground daemon: serve until SIGTERM/SIGINT, then drain.

    Returns True when the drain finished every in-flight run within the
    configured timeout (the CLI's exit status).
    """
    daemon = ServeDaemon(config)
    await daemon.start()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    hooked: list[int] = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
            hooked.append(sig)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # platform without loop signal support: Ctrl-C still raises
    if announce is not None:
        announce(daemon.url)
    try:
        await stop.wait()
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    finally:
        for sig in hooked:
            loop.remove_signal_handler(sig)
    return await daemon.shutdown()
