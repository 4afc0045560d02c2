"""The router→replica wire contract of :mod:`repro.dispatch.proxy`.

Each test runs ``exchange`` or ``open_stream`` against a scripted
replica: an in-test asyncio server that reads one request, plays back
fixed response bytes, and closes.  No ``repro serve`` process is
involved, so the malformed answers a real replica never sends can be
scripted too.
"""

import asyncio

import pytest

from repro.dispatch import proxy

HOST = "127.0.0.1"

OK_HEAD = b"HTTP/1.1 200 OK\r\n"


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, 10))


async def read_request(reader) -> bytes:
    head = await reader.readuntil(b"\r\n\r\n")
    length = 0
    for line in head.decode("latin-1").split("\r\n"):
        name, _, value = line.partition(":")
        if name.lower() == "content-length":
            length = int(value)
    return head + await reader.readexactly(length)


def sends(*parts, pause_s: float = 0.0):
    """A reply that writes ``parts`` in order, pausing between them."""

    async def reply(reader, writer):
        for index, part in enumerate(parts):
            if index and pause_s:
                await asyncio.sleep(pause_s)
            writer.write(part)
            await writer.drain()

    return reply


async def against(reply, call):
    """Run ``call(port)`` against a one-request scripted replica.

    ``reply(reader, writer)`` plays the replica's side once the request
    has been read; the replica closes the connection when it returns.
    Returns ``(call's result, the request bytes the replica read)``.
    """
    requests = []

    async def handle(reader, writer):
        try:
            requests.append(await read_request(reader))
            await reply(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(handle, HOST, 0)
    try:
        port = server.sockets[0].getsockname()[1]
        result = await call(port)
        return result, requests
    finally:
        server.close()


def do_exchange(port, **kwargs):
    return proxy.exchange(HOST, port, "GET", "/metrics", **kwargs)


def do_open_stream(port, **kwargs):
    return proxy.open_stream(
        HOST, port, "/schedule/stream?graph=HAL", **kwargs
    )


BOTH = pytest.mark.parametrize(
    "call", [do_exchange, do_open_stream], ids=["exchange", "open_stream"]
)


class TestRequestBytes:
    def test_exchange_writes_one_closing_request(self):
        async def call(port):
            return await proxy.exchange(
                HOST,
                port,
                "POST",
                "/schedule",
                body=b'{"graph":"HAL"}',
                headers={"X-Repro-Deadline-Ms": "250"},
            )

        (status, headers, body), requests = run(
            against(
                sends(
                    OK_HEAD
                    + b"Content-Length: 5\r\nX-Repro-Key: abc\r\n\r\nhello"
                ),
                call,
            )
        )
        assert (status, body) == (200, b"hello")
        assert headers == {"content-length": "5", "x-repro-key": "abc"}
        port = requests[0].split(b"Host: 127.0.0.1:", 1)[1].split(b"\r")[0]
        assert requests == [
            b"POST /schedule HTTP/1.1\r\n"
            b"Host: 127.0.0.1:" + port + b"\r\n"
            b"Connection: close\r\n"
            b"Content-Length: 15\r\n"
            b"Content-Type: application/json\r\n"
            b"X-Repro-Deadline-Ms: 250\r\n"
            b'\r\n{"graph":"HAL"}'
        ]

    def test_open_stream_writes_a_bodiless_get(self):
        async def call(port):
            return await do_open_stream(port, headers={"X-A": "1"})

        (status, headers, body, chunks), requests = run(
            against(
                sends(
                    b"HTTP/1.1 400 Bad Request\r\n"
                    b"Content-Length: 2\r\n\r\n{}"
                ),
                call,
            )
        )
        assert (status, body, chunks) == (400, b"{}", None)
        assert headers == {"content-length": "2"}
        request = requests[0]
        assert request.startswith(
            b"GET /schedule/stream?graph=HAL HTTP/1.1\r\nHost: 127.0.0.1:"
        )
        assert request.endswith(
            b"\r\nConnection: close\r\nContent-Length: 0\r\nX-A: 1\r\n\r\n"
        )
        assert b"Content-Type" not in request


class TestMalformedAnswers:
    @BOTH
    @pytest.mark.parametrize(
        "status_line",
        [
            b"garbage\r\n",
            b"HTTP/1.1\r\n",
            b"FTP/1.1 200 OK\r\n",
            b"HTTP/2 200 OK\r\n",
            b"HTTP/1.1 two-hundred OK\r\n",
        ],
    )
    def test_bad_status_line_is_a_protocol_error(self, call, status_line):
        with pytest.raises(proxy.ProxyProtocolError):
            run(
                against(
                    sends(status_line + b"Content-Length: 0\r\n\r\n"), call
                )
            )

    @BOTH
    @pytest.mark.parametrize("length", [b"-1", b"ten", b"1.5", b""])
    def test_bad_content_length_is_a_protocol_error(self, call, length):
        with pytest.raises(proxy.ProxyProtocolError, match="Content-Length"):
            run(
                against(
                    sends(
                        OK_HEAD + b"Content-Length: " + length + b"\r\n\r\n"
                    ),
                    call,
                )
            )

    @BOTH
    def test_declared_body_over_the_cap_is_refused(self, call, monkeypatch):
        monkeypatch.setattr(proxy, "MAX_RESPONSE_BODY", 8)
        with pytest.raises(proxy.ProxyProtocolError, match="too large"):
            run(
                against(
                    sends(OK_HEAD + b"Content-Length: 9\r\n\r\n123456789"),
                    call,
                )
            )

    @BOTH
    def test_head_over_the_cap_is_a_protocol_error(self, call):
        # 70,000 bytes of header and no end of head: past the 64 KiB
        # reader limit, which must not escape as LimitOverrunError.
        with pytest.raises(proxy.ProxyProtocolError, match="too large"):
            run(
                against(
                    sends(OK_HEAD + b"X-Pad: " + b"a" * 70_000 + b"\r\n"),
                    call,
                )
            )

    def test_declared_body_at_the_cap_is_accepted(self, monkeypatch):
        monkeypatch.setattr(proxy, "MAX_RESPONSE_BODY", 8)
        (status, _, body), _ = run(
            against(
                sends(OK_HEAD + b"Content-Length: 8\r\n\r\n12345678"),
                do_exchange,
            )
        )
        assert (status, body) == (200, b"12345678")

    def test_close_delimited_body_over_the_cap_is_refused(
        self, monkeypatch
    ):
        monkeypatch.setattr(proxy, "MAX_RESPONSE_BODY", 8)
        with pytest.raises(proxy.ProxyProtocolError, match="too large"):
            run(against(sends(OK_HEAD + b"\r\n", b"123456789"), do_exchange))


class TestTruncation:
    @BOTH
    @pytest.mark.parametrize(
        "answer",
        [
            b"",
            b"HTTP/1.1 200 OK\r\nContent-Le",
            OK_HEAD + b"Content-Length: 10\r\n\r\nabc",
        ],
        ids=["nothing", "mid-head", "mid-body"],
    )
    def test_peer_closing_early_is_a_connection_error(self, call, answer):
        with pytest.raises(ConnectionError, match="closed mid-response"):
            run(against(sends(answer), call))


class TestCloseDelimitedBodies:
    def test_exchange_reads_to_eof(self):
        (status, headers, body), _ = run(
            against(
                sends(
                    OK_HEAD + b"\r\n", b"part one|", b"part two", pause_s=0.05
                ),
                do_exchange,
            )
        )
        assert (status, headers, body) == (200, {}, b"part one|part two")

    def test_open_stream_hands_back_live_chunks(self):
        first_seen = asyncio.Event()

        async def reply(reader, writer):
            writer.write(OK_HEAD + b"Content-Type: text/event-stream\r\n\r\n")
            writer.write(b"first")
            await writer.drain()
            # The second chunk only exists once the client has read the
            # first: the stream is relayed live, not buffered to EOF.
            await first_seen.wait()
            writer.write(b"second")
            await writer.drain()

        async def call(port):
            status, headers, body, chunks = await do_open_stream(port)
            assert (status, body) == (200, b"")
            assert headers == {"content-type": "text/event-stream"}
            first = await chunks.__anext__()
            first_seen.set()
            rest = [chunk async for chunk in chunks]
            return first, b"".join(rest)

        (first, rest), _ = run(against(reply, call))
        assert (first, rest) == (b"first", b"second")

    def test_closing_the_chunk_iterator_releases_the_socket(self):
        released = asyncio.Event()

        async def reply(reader, writer):
            writer.write(OK_HEAD + b"\r\nfirst")
            await writer.drain()
            # The client never reads to the end; its aclose() must
            # still hang up, which this side sees as EOF.
            if await reader.read() == b"":
                released.set()

        async def call(port):
            _, _, _, chunks = await do_open_stream(port)
            assert await chunks.__anext__() == b"first"
            await chunks.aclose()
            await asyncio.wait_for(released.wait(), 5)
            return released.is_set()

        assert run(against(reply, call))[0] is True


class TestTimeouts:
    def test_exchange_timeout_covers_the_whole_drain(self):
        async def reply(reader, writer):
            writer.write(OK_HEAD + b"\r\nstarted")
            await writer.drain()
            await reader.read()  # never finishes the body

        with pytest.raises(asyncio.TimeoutError):
            run(against(reply, lambda port: do_exchange(port, timeout=0.3)))

    def test_open_stream_timeout_spares_the_stream_tail(self):
        async def call(port):
            _, _, _, chunks = await do_open_stream(port, timeout=0.3)
            return b"".join([chunk async for chunk in chunks])

        body, _ = run(
            against(sends(OK_HEAD + b"\r\n", b"late", pause_s=0.6), call)
        )
        assert body == b"late"

    @BOTH
    def test_silent_replica_times_out(self, call):
        async def reply(reader, writer):
            await reader.read()

        with pytest.raises(asyncio.TimeoutError):
            run(against(reply, lambda port: call(port, timeout=0.2)))
