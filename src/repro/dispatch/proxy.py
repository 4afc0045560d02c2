"""A minimal asyncio HTTP/1.1 client for router→replica exchanges.

One connection per exchange, ``Connection: close``, no chunked
encoding.  Every exchange goes through one opener: it writes the
request, reads and parses the response head, and reads a
``Content-Length`` body in full.  A close-delimited body (the
replicas' SSE streams) comes back as a live chunk iterator instead.
:func:`exchange` drains that iterator under a bound;
:func:`open_stream` hands it to the caller.  The response body is
returned as raw bytes and relayed to the client untouched, which is
how the dispatcher preserves the serving layer's byte-determinism
contract.

Failures callers must handle:

``OSError``
    Nothing listening (connection refused), reset mid-exchange, or any
    other transport failure.  A replica that closes before the head or
    a ``Content-Length`` body is complete raises ``ConnectionError``.
``asyncio.TimeoutError``
    The exchange exceeded ``timeout``.
``ProxyProtocolError``
    The replica answered something that is not parseable HTTP/1.1.
"""

from __future__ import annotations

import asyncio
from typing import AsyncIterator, Dict, Optional, Tuple

#: Bound on a replica's response head, mirroring the server's own cap.
MAX_RESPONSE_HEAD = 64 * 1024

#: Bound on a replica's response body (matches the request-body cap —
#: responses carry at most one artifact per request).
MAX_RESPONSE_BODY = 32 * 1024 * 1024


class ProxyProtocolError(Exception):
    """The replica answered bytes that do not parse as HTTP/1.1."""


Exchange = Tuple[int, Dict[str, str], bytes]

#: ``open_stream``'s answer: status, headers, pre-read body (for
#: Content-Length responses), live chunk iterator (for close-delimited
#: streams) — exactly one of the last two is meaningful.
StreamOpen = Tuple[
    int, Dict[str, str], bytes, Optional[AsyncIterator[bytes]]
]


def _parse_head(head: bytes) -> Tuple[int, Dict[str, str]]:
    """Parse a response head into (status, lowercase headers)."""
    if len(head) > MAX_RESPONSE_HEAD:
        raise ProxyProtocolError("response head too large")
    head_lines = head.decode("latin-1").split("\r\n")
    status_parts = head_lines[0].split(None, 2)
    if len(status_parts) < 2 or not status_parts[0].startswith("HTTP/1."):
        raise ProxyProtocolError(
            f"malformed status line: {head_lines[0]!r}"
        )
    try:
        status = int(status_parts[1])
    except ValueError:
        raise ProxyProtocolError(
            f"malformed status code: {status_parts[1]!r}"
        )
    headers: Dict[str, str] = {}
    for line in head_lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    return status, headers


def _content_length(headers: Dict[str, str]) -> Optional[int]:
    """The declared body length, or None for a close-delimited body."""
    text = headers.get("content-length")
    if text is None:
        return None
    try:
        length = int(text)
        if length < 0:
            raise ValueError
    except ValueError:
        raise ProxyProtocolError(f"bad Content-Length: {text!r}")
    if length > MAX_RESPONSE_BODY:
        raise ProxyProtocolError("response body too large")
    return length


async def _close(writer: asyncio.StreamWriter) -> None:
    try:
        writer.close()
        await writer.wait_closed()
    except (ConnectionError, OSError, RuntimeError):
        pass


async def _chunks(reader, writer) -> AsyncIterator[bytes]:
    """Raw body bytes until the replica closes; always releases the
    connection, whether iterated to the end or closed early."""
    try:
        while True:
            chunk = await reader.read(64 * 1024)
            if not chunk:
                return
            yield chunk
    finally:
        await _close(writer)


async def _open(
    host: str,
    port: int,
    method: str,
    path: str,
    body: bytes,
    headers: Optional[Dict[str, str]],
) -> StreamOpen:
    """Connect, write one request, and read the response up to its body."""
    reader, writer = await asyncio.open_connection(
        host, port, limit=MAX_RESPONSE_HEAD
    )
    try:
        lines = [
            f"{method} {path} HTTP/1.1",
            f"Host: {host}:{port}",
            "Connection: close",
            f"Content-Length: {len(body)}",
        ]
        if body:
            lines.append("Content-Type: application/json")
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(
            "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + body
        )
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        status, response_headers = _parse_head(head)
        length = _content_length(response_headers)
        if length is not None:
            payload = await reader.readexactly(length) if length else b""
            await _close(writer)
            return status, response_headers, payload, None
    except asyncio.IncompleteReadError as exc:
        writer.close()
        raise ConnectionError(
            f"replica {host}:{port} closed mid-response"
        ) from exc
    except asyncio.LimitOverrunError:
        # No head end within the reader's limit (MAX_RESPONSE_HEAD).
        writer.close()
        raise ProxyProtocolError("response head too large") from None
    except BaseException:
        writer.close()
        raise
    return status, response_headers, b"", _chunks(reader, writer)


async def exchange(
    host: str,
    port: int,
    method: str,
    path: str,
    body: bytes = b"",
    headers: Optional[Dict[str, str]] = None,
    timeout: float = 60.0,
) -> Exchange:
    """One request/response against ``host:port``.

    Returns ``(status, lowercase headers, body bytes)``.  ``timeout``
    bounds the whole exchange, including the read of a close-delimited
    body (our servers always set Content-Length; this is a fallback).
    """

    async def _exchange() -> Exchange:
        status, response_headers, payload, chunks = await _open(
            host, port, method, path, body, headers
        )
        if chunks is not None:
            parts = []
            received = 0
            try:
                async for chunk in chunks:
                    parts.append(chunk)
                    received += len(chunk)
                    if received > MAX_RESPONSE_BODY:
                        raise ProxyProtocolError("response body too large")
            finally:
                await chunks.aclose()
            payload = b"".join(parts)
        return status, response_headers, payload

    return await asyncio.wait_for(_exchange(), timeout=timeout)


async def open_stream(
    host: str,
    port: int,
    path: str,
    headers: Optional[Dict[str, str]] = None,
    timeout: float = 60.0,
) -> StreamOpen:
    """One GET exchange whose response body may be a live stream.

    Returns ``(status, lowercase headers, body, chunks)``.  A response
    carrying ``Content-Length`` (errors, every non-stream endpoint) is
    read in full: ``body`` holds it and ``chunks`` is None.  A
    close-delimited response — the replicas' SSE streams — hands back
    ``chunks``, an async generator yielding raw body bytes until the
    replica closes; iterating it to the end or calling ``aclose()``
    releases the connection either way.

    ``timeout`` bounds the connect, request write, response head, and
    any Content-Length body — *not* the streaming tail, which lives as
    long as the run it relays.
    """
    return await asyncio.wait_for(
        _open(host, port, "GET", path, b"", headers), timeout=timeout
    )
