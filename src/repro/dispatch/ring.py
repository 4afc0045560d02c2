"""A consistent-hash ring over replica addresses.

The dispatcher routes every ``/schedule`` request by its engine cache
key (see :mod:`repro.engine.keys`).  Consistent hashing is what makes
that routing *sticky under membership change*: each replica owns the
arc of the key space between its virtual nodes and the next ones
clockwise, so ejecting one replica of N reassigns only ~1/N of the
keys — every other replica's sharded result store stays hot.

Positions are sha256-derived and deterministic: two routers configured
with the same members and ``vnodes`` route identically, which is what
lets routers be replicated themselves.  The same determinism connects
the routing tier to the cluster store tier: both build their rings
with :data:`DEFAULT_VNODES`, so a replica's peers-only ring walks its
keys in the router's failover order minus itself, and publishing to
the first ring successor seeds exactly the replica a failover would
land on.

>>> ring = HashRing(["10.0.0.1:8791", "10.0.0.2:8791",
...                  "10.0.0.3:8791"], vnodes=8)
>>> walk = ring.preference("a" * 64)
>>> walk[0] == ring.route("a" * 64)
True
>>> sorted(walk) == list(ring.members)
True

Removing a member never reorders the survivors — the failover walk is
the old walk with the dead member deleted:

>>> ring.remove(walk[0])
>>> ring.preference("a" * 64) == walk[1:]
True
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigError

#: Virtual nodes per member.  More vnodes smooth the key distribution
#: (the std-dev of arc ownership shrinks ~1/sqrt(vnodes)) at the cost
#: of a longer sorted position array; 64 keeps a 3-replica ring within
#: a few percent of uniform.
DEFAULT_VNODES = 64


def _position(label: str) -> int:
    """A point on the ring: the first 8 bytes of sha256(label)."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Deterministic consistent-hash ring with virtual nodes."""

    def __init__(
        self,
        members: Iterable[str] = (),
        vnodes: int = DEFAULT_VNODES,
    ):
        if vnodes < 1:
            raise ConfigError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self._members: Dict[str, Tuple[int, ...]] = {}
        # Sorted (position, member) pairs; rebuilt on membership change
        # (members are few, requests are many — lookups stay O(log n)).
        self._points: List[Tuple[int, str]] = []
        for member in members:
            self.add(member)

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, member: str) -> bool:
        return member in self._members

    @property
    def members(self) -> Tuple[str, ...]:
        return tuple(sorted(self._members))

    def add(self, member: str) -> None:
        """Add ``member`` (idempotent)."""
        if member in self._members:
            return
        positions = tuple(
            _position(f"{member}#{index}") for index in range(self.vnodes)
        )
        self._members[member] = positions
        for position in positions:
            bisect.insort(self._points, (position, member))

    def remove(self, member: str) -> None:
        """Remove ``member`` (idempotent)."""
        if member not in self._members:
            return
        del self._members[member]
        self._points = [
            point for point in self._points if point[1] != member
        ]

    # ------------------------------------------------------------------

    def preference(
        self, key: str, limit: Optional[int] = None
    ) -> List[str]:
        """Distinct members in ring order starting at ``key``'s point.

        The first entry is the key's owner; the rest are the failover
        sequence — the same walk every router performs, so retries land
        deterministically too.  ``limit`` caps the list length.
        """
        if not self._points:
            return []
        if limit is None:
            limit = len(self._members)
        start = bisect.bisect_left(self._points, (_position(key), ""))
        ordered: List[str] = []
        seen = set()
        for offset in range(len(self._points)):
            _, member = self._points[
                (start + offset) % len(self._points)
            ]
            if member in seen:
                continue
            seen.add(member)
            ordered.append(member)
            if len(ordered) >= limit:
                break
        return ordered

    def route(self, key: str) -> Optional[str]:
        """The key's owning member (None on an empty ring)."""
        owners = self.preference(key, limit=1)
        return owners[0] if owners else None
