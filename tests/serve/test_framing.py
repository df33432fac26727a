"""Request framing on the wire: malformed, oversized, stalled and pipelined.

Each case sends raw bytes over a socket to a running daemon and checks
what comes back; afterwards ``/healthz`` must still answer and asyncio
must have logged no error.  :func:`read_request` is also fed arbitrary
bytes through a ``StreamReader``.
"""

from __future__ import annotations

import asyncio
import json
import logging
import socket
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import RequestError, running
from repro.serve.daemon import Request, read_request

HEALTH = b"GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"
RUN = {"patternlet": "mpi.reduction", "np": 4}


def _get(*, headers: int = 1, eol: bytes = b"\r\n") -> bytes:
    lines = [b"GET /healthz HTTP/1.1"]
    lines += [b"X-H%d: v" % i for i in range(headers)]
    return eol.join(lines) + eol + eol


def _post(doc, *, length: bytes | None = None) -> bytes:
    body = json.dumps(doc).encode()
    if length is None:
        length = str(len(body)).encode()
    return (b"POST /run HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: "
            + length + b"\r\n\r\n" + body)


def _read_reply(stream):
    """``(status, headers, body)`` of one reply; None when the daemon closed."""
    line = stream.readline()
    if not line:
        return None
    status = int(line.split()[1])
    headers = {}
    while True:
        line = stream.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, stream.read(int(headers.get("content-length", 0)))


def _exchange(port: int, chunks, replies: int):
    """Send ``chunks``, one ``send`` each, and read ``replies`` replies.

    Also returns whether the connection is closed after them: a
    keep-alive connection must still answer a ``/healthz`` on it.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for chunk in chunks:
            sock.sendall(chunk)
        stream = sock.makefile("rb")
        got = [_read_reply(stream) for _ in range(replies)]
        if got[-1] is not None and got[-1][1].get("connection") == "keep-alive":
            sock.sendall(HEALTH)
            after = _read_reply(stream)
            closed = after is None
            assert closed or after[0] == 200
        else:
            closed = stream.read(1) == b""
    return got, closed


def _assert_still_serving(daemon, caplog) -> None:
    got, _ = _exchange(daemon.port, [HEALTH], 1)
    assert got[0] is not None and got[0][0] == 200
    errors = [r.getMessage() for r in caplog.records
              if r.name == "asyncio" and r.levelno >= logging.ERROR]
    assert errors == []


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    with running(cache_dir=str(tmp_path_factory.mktemp("framing"))) as d:
        yield d


@pytest.fixture(scope="module")
def impatient(tmp_path_factory):
    """A daemon that gives each request half a second."""
    with running(cache_dir=str(tmp_path_factory.mktemp("impatient")),
                 idle_timeout_s=0.5) as d:
        yield d


#: name -> (sends, expected statuses in order, whether the daemon closes).
CASES = {
    "request-line-over-8KiB": (
        [b"GET /" + b"a" * 9000 + b" HTTP/1.1\r\n\r\n"], [400], True),
    "two-token-request-line": ([b"GET /healthz\r\n\r\n"], [400], True),
    "header-without-colon": (
        [b"GET /healthz HTTP/1.1\r\nHost 127.0.0.1\r\n\r\n"], [400], True),
    "100-headers": ([_get(headers=100)], [200], False),
    "101-headers": ([_get(headers=101)], [400], True),
    "70KiB-header-line": (
        [b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * (70 << 10) + b"\r\n\r\n"],
        [400], True),
    "content-length-negative": ([_post(RUN, length=b"-1")], [400], True),
    "content-length-abc": ([_post(RUN, length=b"abc")], [400], True),
    "content-length-past-max-body": (
        [b"POST /run HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n"], [413], True),
    "bare-LF-head": ([_get(eol=b"\n")], [200], False),
    "two-pipelined-in-one-send": (
        [_post({"patternlet": "no.such"}) + HEALTH], [404, 200], False),
    "one-byte-per-send": (
        [bytes([b]) for b in _post(RUN)], [200], False),
}


class TestFraming:
    @pytest.mark.parametrize("name", list(CASES))
    def test_raw_request(self, daemon, caplog, name):
        sends, statuses, closes = CASES[name]
        got, closed = _exchange(daemon.port, sends, len(statuses))
        assert None not in got, f"connection dropped without a reply: {got}"
        assert [status for status, _, _ in got] == statuses
        assert got[-1][1]["connection"] == ("close" if closes else "keep-alive")
        assert closed is closes
        _assert_still_serving(daemon, caplog)


class TestStalledClients:
    @pytest.mark.parametrize("sent", [
        b"",
        b"GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n",
        b'POST /run HTTP/1.1\r\nContent-Length: 100\r\n\r\n{',
    ], ids=["idle", "stalled-head", "half-sent-body"])
    def test_closed_without_a_reply_at_the_deadline(self, impatient, caplog, sent):
        with socket.create_connection(("127.0.0.1", impatient.port),
                                      timeout=5) as sock:
            t0 = time.monotonic()
            sock.sendall(sent)
            assert sock.recv(1) == b""  # closed, nothing said
            elapsed = time.monotonic() - t0
        assert 0.4 <= elapsed < 3.0, elapsed
        _assert_still_serving(impatient, caplog)

    def test_half_closed_mid_head_is_closed_without_a_reply(self, impatient, caplog):
        with socket.create_connection(("127.0.0.1", impatient.port),
                                      timeout=5) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n")
            sock.shutdown(socket.SHUT_WR)
            assert sock.recv(1) == b""
        _assert_still_serving(impatient, caplog)


#: Byte streams for the reader: arbitrary bytes, and requests built from
#: good and bad pieces, cut off anywhere.
_HEADER = st.one_of(
    st.sampled_from([b"Host: x", b"Connection: close", b"Content-Length: 5",
                     b"Content-Length: 200", b"Content-Length: -1",
                     b"Content-Length: abc", b"Content-Length: " + b"9" * 30,
                     b"no colon"]),
    st.binary(max_size=12))
_HEAD = st.builds(
    lambda line, headers, eol: eol.join([line, *headers, b"", b""]),
    st.sampled_from([b"GET /healthz HTTP/1.1", b"POST /run HTTP/1.0",
                     b"GET /healthz", b"GET /" + b"a" * 300 + b" HTTP/1.1"]),
    st.lists(_HEADER, max_size=5),
    st.sampled_from([b"\r\n", b"\n"]))
STREAMS = st.one_of(
    st.binary(max_size=200),
    st.builds(lambda head, body, cut: (head + body)[:cut],
              _HEAD, st.binary(max_size=80), st.integers(0, 700)))


@given(data=STREAMS, limit=st.sampled_from([128, 1 << 16]))
@settings(max_examples=300, deadline=None)
def test_reader_yields_a_request_a_4xx_or_eof(data, limit):
    async def read():
        reader = asyncio.StreamReader(limit=limit)
        reader.feed_data(data)
        reader.feed_eof()
        try:
            return await read_request(reader, max_body=64)
        except RequestError as exc:
            return exc

    outcome = asyncio.run(read())
    if isinstance(outcome, RequestError):
        assert outcome.status in (400, 413)
    elif outcome is not None:
        assert isinstance(outcome, Request)
        assert len(outcome.body) == int(outcome.headers.get("content-length", "0"))
