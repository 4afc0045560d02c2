"""Blocking peer-to-peer transport for the cluster result tier.

Replicas exchange cache entries over the same HTTP surface clients
use: ``GET /cache/<key>`` retrieves one entry by its exact engine
cache key, ``POST /cache/<key>`` publishes one.  The transport here is
deliberately tiny — stdlib ``http.client``, one connection per
exchange, a hard per-exchange timeout — because every failure mode
must degrade to "treat it as a miss / drop the publish", never to an
exception escaping into a request path.

Callers (see :class:`repro.store.cluster.ClusterStore`) handle exactly
one exception type, :class:`PeerError`; a clean 404 is the ``None``
return, not an error.

>>> parse_address("127.0.0.1:9000")
('127.0.0.1', 9000)
>>> parse_address("9000")
('127.0.0.1', 9000)
"""

from __future__ import annotations

import http.client
import json
from typing import Dict, Optional, Tuple

from repro import faultlab
from repro.errors import ReproError

#: Default per-exchange timeout for peer fetches and publishes.
DEFAULT_PEER_TIMEOUT_S = 2.0


class PeerError(ReproError):
    """One peer exchange failed (transport, timeout, or bad payload).

    The cluster tier treats this as "that peer cannot help right now":
    fetch walks move on to the next ring position, publishes count a
    delivery error.  It never propagates into a client request.
    """


def parse_address(text: str) -> Tuple[str, int]:
    """``HOST:PORT`` (or bare ``PORT`` for localhost) -> (host, port)."""
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = "127.0.0.1", text
    try:
        port = int(port_text)
        if not 0 < port < 65536:
            raise ValueError
    except ValueError:
        raise ReproError(
            f"malformed address {text!r}; expected HOST:PORT or PORT "
            f"with a port in 1..65535"
        )
    return host or "127.0.0.1", port


def _exchange(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Optional[bytes],
    timeout: float,
    key: str,
) -> Tuple[int, bytes]:
    """One request/response; every transport failure is a PeerError."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        if faultlab.enabled():
            # Chaos harness: delay or refuse matching peer exchanges.
            # A refusal raises ConnectionRefusedError (an OSError), so
            # it degrades through the PeerError path like a real one.
            faultlab.before_peer_exchange(host, port, key)
        headers = {"Connection": "close", "X-Repro-Key": key}
        if body is not None:
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException) as exc:
        raise PeerError(
            f"peer {host}:{port} {method} {path}: "
            f"{exc or type(exc).__name__}"
        )
    finally:
        conn.close()


def fetch_entry(
    host: str,
    port: int,
    key: str,
    timeout: float = DEFAULT_PEER_TIMEOUT_S,
) -> Optional[Dict]:
    """One peer's cache entry for ``key``, as its raw entry dict.

    Returns ``None`` on a clean 404 (the peer simply does not hold the
    entry).  Everything else that is not a parseable 200 — connection
    refused, timeout, a 5xx, a body that is not a JSON object — raises
    :class:`PeerError`.  Payload *semantics* (format tag, key match,
    error results) are validated by the caller, which owns the policy.
    """
    status, payload = _exchange(
        host, port, "GET", f"/cache/{key}", None, timeout, key
    )
    if status == 404:
        return None
    if status != 200:
        raise PeerError(
            f"peer {host}:{port} answered HTTP {status} for key "
            f"{key[:12]}..."
        )
    if faultlab.enabled():
        # Chaos harness: a matching peer answers truncated garbage.
        payload = faultlab.corrupt_peer_payload(payload, host, port)
    try:
        data = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise PeerError(
            f"peer {host}:{port} sent an unparseable entry for key "
            f"{key[:12]}...: {exc}"
        )
    if not isinstance(data, dict):
        raise PeerError(
            f"peer {host}:{port} sent a non-object entry for key "
            f"{key[:12]}..."
        )
    return data


def publish_entry(
    host: str,
    port: int,
    key: str,
    payload: bytes,
    timeout: float = DEFAULT_PEER_TIMEOUT_S,
) -> None:
    """Push one serialized entry to a peer; raises PeerError on failure.

    ``payload`` is the canonical disk-entry JSON (format tag included)
    so a published entry is byte-identical to one the peer would have
    written itself.
    """
    status, _ = _exchange(
        host, port, "POST", f"/cache/{key}", payload, timeout, key
    )
    if status not in (200, 204):
        raise PeerError(
            f"peer {host}:{port} refused published key {key[:12]}... "
            f"with HTTP {status}"
        )
