"""The shared asyncio HTTP/1.1 transport core.

Both serving processes in the system — the single-replica scheduling
service (:class:`~repro.serve.server.ScheduleServer`) and the
multi-replica dispatcher (:class:`~repro.dispatch.router.DispatchRouter`)
— speak the same deliberately small dialect of HTTP/1.1: JSON bodies,
keep-alive by default, bounded heads and bodies, no chunked encoding.
:class:`HttpServerCore` owns that transport so the two front ends only
implement :meth:`HttpServerCore.dispatch`.

Handlers return ``(status, body, extra_headers)`` where ``body`` is
either a JSON-safe dict (encoded canonically here) or raw ``bytes``
passed through untouched.  The bytes path is what lets the dispatcher
relay a replica's response verbatim, preserving the serving layer's
byte-determinism contract across a network hop.  The cluster store's
``GET/POST /cache/<key>`` exchanges ride the same transport — a peer
is just another client speaking the same dialect.

Transport refusals carry their HTTP status with them:

>>> exc = BadRequest("request body too large", 413)
>>> exc.status, str(exc)
(413, 'request body too large')
>>> REASONS[exc.status]
'Payload Too Large'
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional, Tuple, Union

from repro.errors import ConfigError, ReproError, check_duration
from repro.serve.protocol import encode_json, error_payload

#: Bind address unless told otherwise: loopback only.
DEFAULT_HOST = "127.0.0.1"

#: How long a graceful shutdown waits for in-flight work.
DEFAULT_DRAIN_TIMEOUT_S = 10.0

#: Hard cap on request bodies (inline graphs get large, not huge).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Hard cap on the request line + headers block.
MAX_HEADER_BYTES = 64 * 1024

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: A handler's body: a JSON-safe dict, pre-encoded bytes to relay, or
#: a :class:`StreamBody` for incremental delivery.
Body = Union[Dict, bytes, "StreamBody"]


class BadRequest(Exception):
    """Transport-level refusal (malformed HTTP, oversized payload)."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


class StreamBody:
    """A streaming response body: an async iterator of chunks.

    The transport writes the response head with no ``Content-Length``
    and ``Connection: close`` — this dialect has no chunked encoding,
    so the end of the stream *is* the end of the connection.  Each
    chunk (``bytes`` or ``str``) is flushed as soon as the producer
    yields it, which is what makes live server-sent events possible
    over the same core.  The iterator's ``aclose`` runs even when the
    client disconnects mid-stream, so producers can release
    subscriptions in a ``finally``.
    """

    def __init__(self, chunks, content_type: str = "text/event-stream"):
        self.chunks = chunks
        self.content_type = content_type


def not_found_payload(path: str) -> Dict:
    """The 404 body both servers answer for a path they do not serve."""
    return error_payload(
        f"no such endpoint {path!r}; try POST /schedule, "
        "GET /schedule/stream, GET /healthz, GET /metrics"
    )


class HttpServerCore:
    """Listener lifecycle + request/response plumbing for one service.

    Subclasses implement :meth:`dispatch` (and usually add their own
    state on top).  ``on_request_error`` is a counter hook: it fires
    once per request the core itself had to refuse or that dispatch
    crashed out of, so front ends can account errors without owning
    the transport.  Subclasses also provide ``start()`` and ``stop()``
    (the latter returns whether the drain finished inside
    ``drain_timeout_s``), which :meth:`run_until_signal` drives."""

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = 0,
        drain_timeout_s: float = DEFAULT_DRAIN_TIMEOUT_S,
    ):
        if not 0 <= port <= 65535:
            raise ConfigError(f"port must be in 0..65535, got {port}")
        check_duration("drain_timeout_s", drain_timeout_s)
        self.host = host
        self.drain_timeout_s = drain_timeout_s
        self._requested_port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._bound_port: Optional[int] = None

    # ------------------------------------------------------------------
    # Lifecycle.

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`listen`)."""
        if self._bound_port is not None:
            return self._bound_port
        return self._requested_port

    async def listen(self) -> None:
        """Bind and start accepting connections.

        Binding failures (port taken, privileged port, bad host) raise
        a clean :class:`ReproError` — CLI exit code 2, never a
        traceback."""
        try:
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self._requested_port
            )
        except OSError as exc:
            raise ReproError(
                f"cannot listen on {self.host}:{self._requested_port}: "
                f"{exc}"
            )
        self._bound_port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call listen() first"
        async with self._server:
            await self._server.serve_forever()

    async def close_listener(self) -> None:
        """Stop accepting new connections (idempotent)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def run_until_signal(self, name: str, details: str, pending: str) -> int:
        """Serve until SIGINT/SIGTERM, then drain; the process exit code.

        ``name`` prefixes each status line, ``details`` follows the
        address in the listening banner, and ``pending`` names the work
        a timed-out drain abandons.  Exit codes: 0 = drained clean;
        1 = the drain timed out and in-flight work was abandoned
        (orchestrators can tell lost work apart from a clean stop
        without scraping logs).
        """
        try:
            drained = asyncio.run(
                self._serve_until_signal(name, details, pending)
            )
        except KeyboardInterrupt:
            return 0
        return 0 if drained else 1

    async def _serve_until_signal(
        self, name: str, details: str, pending: str
    ) -> bool:
        import signal

        loop = asyncio.get_running_loop()
        stop_event = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop_event.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-Unix event loops
        await self.start()
        print(
            f"{name}: listening on http://{self.host}:{self.port}{details}",
            flush=True,
        )
        serve_task = asyncio.ensure_future(self.serve_forever())
        await stop_event.wait()
        print(f"{name}: draining...", flush=True)
        serve_task.cancel()
        try:
            await serve_task
        except (asyncio.CancelledError, Exception):
            pass
        drained = await self.stop()
        print(
            f"{name}: shutdown "
            + ("clean" if drained else f"timed out waiting for {pending}"),
            flush=True,
        )
        return drained

    # ------------------------------------------------------------------
    # Hooks.

    async def dispatch(
        self,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
        query: str = "",
    ) -> Tuple[int, Body, Dict[str, str]]:
        """Answer one request; override in subclasses.

        ``query`` is the raw query string (no leading ``?``, empty
        when absent); :func:`repro.serve.protocol.parse_stream` decodes
        the one route that takes parameters.
        """
        raise NotImplementedError

    def on_request_error(self) -> None:
        """Called once per refused/crashed request (counter hook)."""

    # ------------------------------------------------------------------
    # Connection plumbing.

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, headers, body, query = request
                keep_alive = (
                    headers.get("connection", "keep-alive").lower()
                    != "close"
                )
                try:
                    status, payload, extra = await self.dispatch(
                        method, path, headers, body, query
                    )
                except Exception as exc:
                    # Last resort: an unanticipated bug must answer 500,
                    # not drop the connection with a logged traceback.
                    self.on_request_error()
                    status, extra = 500, {}
                    payload = error_payload(
                        f"internal error: {exc}"
                    )
                keep_alive = await self._write_response(
                    writer, status, payload, extra, keep_alive
                )
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            ConnectionError,
        ):
            pass  # client went away mid-request; nothing to answer
        except BadRequest as exc:
            self.on_request_error()
            try:
                await self._write_response(
                    writer,
                    exc.status,
                    error_payload(str(exc)),
                    {},
                    keep_alive=False,
                )
            except (ConnectionError, RuntimeError):
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes, str]]:
        """One parsed request, or None on clean end-of-stream."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean close between requests
            raise
        except asyncio.LimitOverrunError:
            raise BadRequest("request head too large", 413)
        if len(head) > MAX_HEADER_BYTES:
            raise BadRequest("request head too large", 413)
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise BadRequest(f"malformed request line: {lines[0]!r}")
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise BadRequest(f"malformed header line: {line!r}")
            headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
            if length < 0:
                raise ValueError
        except ValueError:
            raise BadRequest(f"bad Content-Length: {length_text!r}")
        if length > MAX_BODY_BYTES:
            raise BadRequest("request body too large", 413)
        body = await reader.readexactly(length) if length else b""
        path, _, query = target.partition("?")
        return method, path, headers, body, query

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Body,
        extra_headers: Dict[str, str],
        keep_alive: bool,
    ) -> bool:
        """Write one response; returns whether the connection may
        continue serving requests (streamed responses always end it).
        """
        reason = REASONS.get(status, "Unknown")
        if isinstance(payload, StreamBody):
            headers = [
                f"HTTP/1.1 {status} {reason}",
                f"Content-Type: {payload.content_type}",
                "Cache-Control: no-store",
                "Connection: close",
            ]
            headers += [
                f"{name}: {value}"
                for name, value in extra_headers.items()
            ]
            writer.write(
                "\r\n".join(headers).encode("latin-1") + b"\r\n\r\n"
            )
            await writer.drain()
            chunks = payload.chunks
            try:
                async for chunk in chunks:
                    if isinstance(chunk, str):
                        chunk = chunk.encode("utf-8")
                    writer.write(chunk)
                    await writer.drain()
            finally:
                aclose = getattr(chunks, "aclose", None)
                if aclose is not None:
                    await aclose()
            return False
        if isinstance(payload, (bytes, bytearray)):
            body = bytes(payload)
        else:
            body = encode_json(payload)
        headers = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        headers += [
            f"{name}: {value}" for name, value in extra_headers.items()
        ]
        writer.write(
            "\r\n".join(headers).encode("latin-1") + b"\r\n\r\n" + body
        )
        await writer.drain()
        return keep_alive
