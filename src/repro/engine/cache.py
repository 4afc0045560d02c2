"""Sharded, capacity-bounded result store for the batch engine.

Keys are sha256 hexdigests produced by :meth:`JobSpec.cache_key`
(graph content hash × resource notation × algorithm id), so a hit is
valid regardless of which spec, process, or run produced the entry.

Two layers:

* an in-memory dict (always on) — serves repeats within one engine
  lifetime;
* an optional on-disk JSON layer under ``cache_dir``, sharded by key
  prefix (``cache_dir/ab/abcd….json``) so large random-DAG populations
  never pile one directory full of entries.  Entries are written
  atomically (tmp file + rename) so concurrent writers can never leave
  a torn entry, and a torn or corrupt shard entry degrades to a miss.

Capacity: pass ``max_entries`` to bound the store.  Eviction is LRU —
recency is the shard file's mtime, refreshed on hits (throttled to
once per :data:`TOUCH_INTERVAL_S` per entry, so hot keys served from
memory cost no disk I/O), and the victim is always the entry with the
oldest known mtime, re-statted before it dies so a peer process's
touches are honored.  Eviction runs whenever an entry is registered,
keeping the store at or under its bound at all times.

One entry format: :func:`encode_entry` is the only encoder of the
entry document (the :data:`ENTRY_FORMAT` tag plus the result's
fields) and :func:`decode_entry` the only decoder, so the disk layer,
the peer export and the cluster publisher cannot drift apart.  On
disk, one reader classifies an entry as ok, unreadable, foreign (a
newer format, never served and never overwritten) or corrupt (counted
and dropped); :meth:`ResultCache.lookup` reads through it without
stats or recency effects.

>>> cache = ResultCache()
>>> cache.get("0" * 64) is None
True
>>> cache.stats()['misses']
1
"""

from __future__ import annotations

import copy
import dataclasses
import heapq
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, Optional, Set, Tuple, Union

from repro import faultlab
from repro.engine.job import JobResult
from repro.errors import ConfigError, ReproError

#: Hex digits of the key that name the shard directory.
SHARD_WIDTH = 2

#: Minimum seconds between mtime refreshes of one entry: repeat hits
#: inside the window skip the utime/stat pair entirely.
TOUCH_INTERVAL_S = 1.0

#: Version tag written into every shard entry.  Readers read untagged
#: entries as this version and leave newer tags alone, so a future
#: payload change can dispatch on this field.
ENTRY_FORMAT = "repro-result-v2"

#: Full sha256 hexdigest length; anything else is not a cache entry.
_KEY_LENGTH = 64


def _is_key(stem: str) -> bool:
    if len(stem) != _KEY_LENGTH:
        return False
    return all(c in "0123456789abcdef" for c in stem)


def encode_entry(result: JobResult) -> Dict:
    """The entry document for ``result``: the format tag, then its fields.

    The one encoder of the store's format.  The disk layer, the serving
    side (:meth:`ResultCache.export_entry`) and the cluster publisher
    all write this document, so an entry round-trips byte-for-byte
    whichever tier it crossed.
    """
    stored = dataclasses.replace(result, cached=False)
    return {"format": ENTRY_FORMAT, **stored.to_dict()}


def decode_entry(data: object) -> Optional[JobResult]:
    """The result an entry document holds, or None for a foreign format.

    The version tag gates parsing: a future format may keep these field
    names with new semantics, so field-level parse success proves
    nothing, and a newer tag reads as None.  Untagged entries read as
    this version.  A malformed document raises ``KeyError``,
    ``TypeError`` or ``ValueError``.
    """
    if not isinstance(data, dict):
        raise TypeError("entry is not a JSON object")
    if data.get("format") not in (None, ENTRY_FORMAT):
        return None
    return JobResult.from_dict(data)


class ResultCache:
    """Two-layer (memory + optional sharded disk) store of results.

    Parameters
    ----------
    cache_dir:
        Directory for the on-disk layer (omit for memory-only).
    max_entries:
        Capacity bound across both layers.  ``None`` (the default)
        means unbounded; otherwise the least-recently-used entries are
        evicted on put so the store never exceeds the bound.
    """

    def __init__(
        self,
        cache_dir: Union[str, Path, None] = None,
        max_entries: Optional[int] = None,
    ):
        if max_entries is not None and max_entries < 1:
            raise ConfigError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self._memory: Dict[str, JobResult] = {}
        self._dir: Optional[Path] = None
        self.max_entries = max_entries
        # The index: every key this instance knows about, its on-disk
        # byte size (0 for memory-only entries), and the shard-file
        # mtime as last believed.  All recency lives in ``_mtimes`` —
        # eviction picks the oldest believed mtime and re-stats the
        # victim to notice entries another process has touched since.
        self._known: Set[str] = set()
        self._bytes: Dict[str, int] = {}
        self._mtimes: Dict[str, float] = {}
        # Format knowledge learned this session: keys whose disk entry
        # parsed as ours (native) or carried a newer format tag
        # (foreign).  Lets put()/eviction honor the never-destroy-
        # newer-payloads policy without re-reading files get() already
        # parsed.
        self._native: Set[str] = set()
        self._foreign: Set[str] = set()
        # When each key's disk mtime was last synced by this instance —
        # deliberately separate from the believed mtime, which advances
        # on every hit: deriving the touch throttle from the believed
        # value would let a hot key outrun the throttle forever and
        # never reach the disk again.
        self._synced: Dict[str, float] = {}
        # Lazy-deletion min-heap of (mtime, key) pairs feeding
        # eviction: every believed-mtime update pushes a pair, stale
        # pairs are skipped on pop, so a steady-state eviction costs
        # O(log n) instead of a scan.
        self._heap: list = []
        self._scanned = False
        self.hits = 0
        self.misses = 0
        self.stored = 0
        self.evictions = 0
        self.corrupt_dropped = 0
        if cache_dir is not None:
            self._dir = Path(cache_dir)
            try:
                self._dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ReproError(
                    f"cannot create cache directory {self._dir}: {exc}"
                )
            if max_entries is not None:
                # Eviction needs the full recency picture up front; an
                # unbounded store defers the walk until something asks
                # for the index (len/contains/index/total_bytes).  A
                # pre-existing store over the bound is trimmed here, so
                # the capacity invariant holds from open onwards.
                self._ensure_scan()
                self._evict()

    # ------------------------------------------------------------------
    # Disk layout.

    def _path(self, key: str) -> Path:
        assert self._dir is not None
        return self._dir / key[:SHARD_WIDTH] / f"{key}.json"

    def _ensure_scan(self) -> None:
        """Build the index once: every shard entry, with its mtime.

        Runs lazily — an O(store) directory walk is paid only when
        something actually needs the full index.  Keys learned before
        the scan (puts/gets on this instance) keep their believed
        recency; the scanned backlog enters at its on-disk age.
        """
        if self._scanned or self._dir is None:
            return
        self._scanned = True
        try:
            shards = sorted(self._dir.iterdir())
        except OSError:
            # The directory vanished (external cleanup): an empty index
            # and miss-on-read beat a traceback out of len()/index().
            return
        for shard in shards:
            if not shard.is_dir() or len(shard.name) != SHARD_WIDTH:
                continue
            for entry in shard.glob("*.json"):
                if not _is_key(entry.stem) or entry.stem in self._known:
                    continue
                try:
                    stat = entry.stat()
                except OSError:
                    continue
                self._note(entry.stem, stat.st_mtime)
                self._bytes.setdefault(entry.stem, stat.st_size)

    # ------------------------------------------------------------------
    # Index maintenance.

    #: Overridable per instance (tests dial it down to force syncs).
    TOUCH_INTERVAL_S = TOUCH_INTERVAL_S

    def _note(self, key: str, mtime: float) -> None:
        """Record a key's believed mtime and queue it for eviction."""
        self._known.add(key)
        self._mtimes[key] = mtime
        heapq.heappush(self._heap, (mtime, key))
        if len(self._heap) > max(64, 4 * len(self._known)):
            # Compact away stale lazy-deletion pairs.
            self._heap = [(m, k) for k, m in self._mtimes.items()]
            heapq.heapify(self._heap)

    def _touch(self, key: str) -> None:
        """Mark ``key`` most recently used (local order + disk mtime).

        The disk side is throttled against the last *sync* time (not
        the believed mtime, which every hit advances): a key synced
        within the last :attr:`TOUCH_INTERVAL_S` skips the utime/stat
        pair, so hot keys served from the memory layer cost no
        syscalls, while peers still see their recency at most that
        interval late — even for keys hit continuously.
        """
        now = time.time()
        self._note(key, now)
        if (
            self._dir is None
            or now - self._synced.get(key, 0.0) < self.TOUCH_INTERVAL_S
        ):
            return
        # Record success only when a utime landed — a failed sync must
        # retry at the next touch.
        path = self._path(key)
        try:
            os.utime(path)
            self._synced[key] = now
            # Record the file's *actual* mtime, not the wall clock:
            # eviction compares against a later stat of the same file,
            # and any clock/filesystem skew between the two sources
            # would mis-rank self-touched entries.
            self._note(key, path.stat().st_mtime)
        except OSError:
            pass

    def _forget(self, key: str) -> None:
        """Remove ``key`` from every layer and index *we* manage,
        leaving the disk file (if any) alone."""
        self._memory.pop(key, None)
        self._known.discard(key)
        self._bytes.pop(key, None)
        self._mtimes.pop(key, None)
        self._synced.pop(key, None)
        self._native.discard(key)
        self._foreign.discard(key)

    def _drop(self, key: str) -> None:
        """Forget ``key`` entirely (both layers + index + disk)."""
        self._forget(key)
        if self._dir is not None:
            try:
                os.unlink(self._path(key))
            except OSError:
                pass

    def _evict(self, protect: Optional[str] = None) -> None:
        """Evict least-recently-used entries until under capacity.

        The victim is the entry with the oldest *known mtime* — not
        some registration order — so a key discovered mid-life (a
        peer's hour-old entry found by a membership probe) slots into
        the order where its age puts it.  A victim is also re-statted
        before it dies: an entry another process touched since this
        instance recorded it is rescued — its true recency noted, the
        next-oldest considered instead — so the documented
        cross-process mtime order really governs.  ``protect`` exempts
        one key (the entry a probe just confirmed on disk).
        """
        if self.max_entries is None:
            return
        held = []
        while len(self._known) > self.max_entries and self._heap:
            believed, oldest = heapq.heappop(self._heap)
            if (
                oldest not in self._known
                or believed != self._mtimes.get(oldest)
            ):
                continue  # stale pair; the authoritative one is queued
            if oldest == protect:
                held.append((believed, oldest))
                continue
            if self._dir is not None:
                stat, confirmed_missing = self._stat_entry(oldest)
                if stat is None:
                    if confirmed_missing:
                        # A peer already removed it: forget the
                        # phantom, but don't count an eviction this
                        # store never performed.
                        self._drop(oldest)
                        continue
                    # Transient stat error: recency can't be judged and
                    # the entry must not be destroyed — defer it to a
                    # later eviction pass (the bound may sit violated
                    # until the I/O clears; that beats losing data).
                    held.append((believed, oldest))
                    continue
                if stat.st_mtime > believed + 1e-6:
                    # A peer touched the victim after we recorded it:
                    # rescue it at its true recency.
                    self._note(oldest, stat.st_mtime)
                    continue
                if self._foreign_key(oldest):
                    # A newer engine's entry: not ours to destroy.
                    # Stop tracking it instead of unlinking; the bound
                    # governs the entries this version manages.
                    self._forget(oldest)
                    continue
            self._drop(oldest)
            self.evictions += 1
        for pair in held:
            heapq.heappush(self._heap, pair)

    # ------------------------------------------------------------------
    # The cache protocol.

    def _load(self, key: str) -> Tuple[str, Optional[JobResult], int]:
        """Read and classify the disk entry for ``key``.

        Returns ``(verdict, result, size)``.  The verdict is ``"ok"``
        (``result`` is the entry, ``size`` its bytes on disk),
        ``"unreadable"`` (absent, or an I/O error), ``"foreign"`` (a
        newer format's tag) or ``"corrupt"`` (torn or malformed).
        Stats-free; the format verdict of an ok or foreign entry is
        memoized, so put() and eviction honor the never-destroy-newer-
        payloads policy without re-reading what was already read.
        """
        try:
            text = self._path(key).read_text(encoding="utf-8")
            result = decode_entry(json.loads(text))
        except OSError:
            return "unreadable", None, 0
        except (ValueError, KeyError, TypeError):
            return "corrupt", None, 0
        if result is None:
            self._foreign.add(key)
            return "foreign", None, 0
        self._native.add(key)
        return "ok", result, len(text.encode("utf-8"))

    def _stat_entry(self, key: str):
        """``(stat, confirmed_missing)`` for the entry's disk presence.

        ``stat`` is the entry's stat, else None.  ``confirmed_missing``
        is True only when the path reports structural absence
        (ENOENT/ENOTDIR): a transient stat error (EIO, EACCES) can
        confirm nothing, and the policy that transient I/O must never
        destroy a valid entry hangs off this distinction — both
        membership and retrieval share it.
        """
        try:
            return self._path(key).stat(), False
        except (FileNotFoundError, NotADirectoryError):
            return None, True
        except OSError:
            return None, False

    def _entry_missing(self, key: str) -> bool:
        """True only when the entry is *confirmed* absent on disk."""
        stat, confirmed = self._stat_entry(key)
        return stat is None and confirmed

    def _foreign_key(self, key: str) -> bool:
        """Format knowledge for ``key``, from the session memo when
        available, else one read of the entry.

        The verdict is memoized only when a readable entry existed —
        an absent file proves nothing about what may appear later.
        """
        if self._dir is None or key in self._native:
            return False
        return key in self._foreign or self._load(key)[0] == "foreign"

    def get(
        self,
        key: str,
        require: Optional[Callable[[JobResult], bool]] = None,
        strip_artifact: bool = False,
        share_artifact: bool = False,
    ) -> Optional[JobResult]:
        """The cached result for ``key``, marked ``cached=True``; or None.

        ``require`` is an extra servability predicate: an entry it
        rejects counts as a miss while staying put, so callers needing
        a richer payload (a full-schedule artifact, an optimality gap)
        recompute and overwrite it with one that qualifies.

        ``strip_artifact`` returns the hit without its artifact (the
        entry keeps it): callers that would discard the payload anyway
        skip the deep copy of a potentially large schedule dict.
        ``share_artifact`` returns the entry's own artifact instead of
        a copy, for callers that only read it; every write stores a
        fresh artifact object, so its identity names the entry written.
        """
        result = self._memory.get(key)
        if result is None and self._dir is not None:
            verdict, result, size = self._load(key)
            if verdict == "ok":
                self._memory[key] = result
                self._bytes.setdefault(key, size)
                if key not in self._known:
                    # A peer-written entry enters both layers here, even
                    # when `require` rejects it below — it occupies
                    # memory, so it must be visible to the index and the
                    # capacity bound.
                    stat, _ = self._stat_entry(key)
                    self._note(key, stat.st_mtime if stat else time.time())
                    self._evict(protect=key)
            elif verdict == "unreadable":
                # Only forget the key once the entry is confirmed gone
                # (a peer evicted it); a transient I/O error must not
                # destroy a valid entry.
                if key in self._known and self._entry_missing(key):
                    self._drop(key)
            elif verdict == "corrupt":
                # Torn or corrupt entry: degrade to a miss, count the
                # quarantine, and drop the wreck so it stops occupying
                # capacity.
                self.corrupt_dropped += 1
                self._drop(key)
            # A foreign entry (a newer engine's) is a miss here, but
            # not ours to delete.
        if result is not None and require is not None and not require(result):
            result = None
        if result is None:
            self.misses += 1
            return None
        self.hits += 1
        self._touch(key)
        # An externally-written entry registers here, so the bound must
        # be re-enforced.  The fresh hit is protected explicitly: on
        # coarse-mtime filesystems its timestamp can tie older entries,
        # and a tie must never evict what was just served.
        self._evict(protect=key)
        # Deep-copy the artifact so callers that rework the schedule
        # (feedback-guided flows) never mutate the store's entry.
        if strip_artifact:
            artifact = None
        elif share_artifact:
            artifact = result.artifact
        else:
            artifact = copy.deepcopy(result.artifact)
        return dataclasses.replace(result, cached=True, artifact=artifact)

    def lookup(
        self, key: str, memory_only: bool = False
    ) -> Optional[JobResult]:
        """The stored entry for ``key``, memory first, then disk; or None.

        Free of stats, recency and index effects — a peer probing for
        an entry, or a write ranking itself against the incumbent, must
        not distort hit/miss accounting or LRU order.  Foreign-format
        and corrupt disk entries read as absent.  ``memory_only`` never
        touches the disk layer.  The entry is the store's own object:
        callers must not mutate it.
        """
        result = self._memory.get(key)
        if result is None and self._dir is not None and not memory_only:
            result = self._load(key)[1]
        return result

    def export_entry(self, key: str) -> Optional[Dict]:
        """The entry document for ``key`` (``GET /cache/<key>``), or None.

        Exactly what :meth:`put` writes to disk, format tag included,
        so a peer installing it round-trips byte-for-byte; as
        stats-free as :meth:`lookup`.
        """
        result = self.lookup(key)
        return None if result is None else encode_entry(result)

    def record_dedup_hits(self, count: int) -> None:
        """Count ``count`` extra hits served by within-batch dedup.

        The engine resolves duplicate jobs inside one batch without
        consulting the store again; this keeps :meth:`stats` honest
        about how many lookups the dedup layer absorbed.
        """
        if count > 0:
            self.hits += count

    def put(self, result: JobResult) -> None:
        """Store a freshly computed result under its key.

        The disk write happens first: a failed write raises without
        registering anything, so no layer ever holds an entry the
        index (and hence the capacity bound) cannot see.
        """
        stored = dataclasses.replace(
            result, cached=False, artifact=copy.deepcopy(result.artifact)
        )
        if self._dir is None:
            self._bytes[result.key] = 0
        elif self._foreign_key(result.key):
            # A newer engine's entry holds this key: overwriting it
            # would destroy a payload this version cannot even read.
            # The fresh result still serves this process from the
            # memory layer; the disk copy stays the newer format's.
            path = self._path(result.key)
            try:
                self._bytes[result.key] = path.stat().st_size
            except OSError:
                self._bytes[result.key] = 0
        else:
            payload = json.dumps(
                encode_entry(stored), indent=2, sort_keys=True
            )
            if faultlab.enabled():
                # Chaos harness: persist only a prefix of the entry —
                # a torn write that survives the atomic rename.
                payload = faultlab.torn_write(
                    payload.encode("utf-8"), result.key
                ).decode("utf-8", "ignore")
            path = self._path(result.key)
            try:
                path.parent.mkdir(exist_ok=True)
                fd, tmp_name = tempfile.mkstemp(
                    dir=str(path.parent),
                    prefix=f".{result.key[:12]}-",
                    suffix=".tmp",
                )
            except OSError as exc:
                raise ReproError(
                    f"cannot write cache entry under {self._dir}: {exc}"
                )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(payload)
                os.replace(tmp_name, path)
            except OSError as exc:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise ReproError(
                    f"cannot write cache entry {result.key[:12]}...: {exc}"
                )
            self._bytes[result.key] = len(payload.encode("utf-8"))
            self._native.add(result.key)
            self._foreign.discard(result.key)
        self._memory[result.key] = stored
        self.stored += 1
        # os.replace just stamped the file's mtime; one stat records it
        # without the redundant utime round-trip _touch would pay.
        now = time.time()
        mtime = now
        if self._dir is not None:
            self._synced[result.key] = now
            try:
                mtime = path.stat().st_mtime
            except OSError:
                pass
        self._note(result.key, mtime)
        # Protected for the same reason as in get(): a coarse-mtime
        # filesystem can tie the fresh entry with older ones, and the
        # result just stored must never be its own put's victim.
        self._evict(protect=result.key)

    #: Store an entry in the *local* tiers only.  Peer-supplied entries
    #: come through here, so a subclass that publishes from :meth:`put`
    #: never echoes an entry back into the cluster it arrived from.
    install = put

    def fetch_missing(self, keys: Iterable[str]) -> Dict[str, JobResult]:
        """Entries for ``keys`` from a cluster tier; a local store has
        none (see :meth:`repro.store.ClusterStore.fetch_missing`)."""
        return {}

    def close(self) -> None:
        """Release background resources; a local store holds none."""

    def __contains__(self, key: str) -> bool:
        if key in self._memory:
            return True
        if self._dir is None:
            return key in self._known
        # The disk is the source of truth either way — a peer may have
        # written the entry after our scan, or evicted an indexed one —
        # so a stat of the entry's path answers membership; no need to
        # force the O(store) index walk on an unbounded cache.
        stat, confirmed_missing = self._stat_entry(key)
        if stat is None:
            if confirmed_missing:
                if key in self._known:
                    self._drop(key)
                return False
            return key in self._known
        if key not in self._known:
            # Registering a discovered entry can push a bounded store
            # over its cap, so the bound is re-enforced here — but the
            # probed entry itself is never the victim of its own probe
            # (it is confirmed present; older entries go first).
            self._bytes[key] = stat.st_size
            self._note(key, stat.st_mtime)
            self._evict(protect=key)
        return True

    def __len__(self) -> int:
        """Entries visible across both layers (memory ∪ disk index)."""
        self._ensure_scan()
        return len(self._memory.keys() | self._known)

    # ------------------------------------------------------------------
    # Introspection.

    @property
    def scanned(self) -> bool:
        """Whether the full disk index has been materialized.

        Callers that only want to *report* on the store (not enforce a
        bound) can skip :meth:`index` when this is False rather than
        force an O(store) walk of a large unbounded cache.
        """
        return self._scanned

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stored": self.stored,
            "evictions": self.evictions,
            "corrupt_dropped": self.corrupt_dropped,
        }

    def index(self) -> Dict[str, Dict[str, int]]:
        """Per-shard view of the store: entry counts and byte sizes.

        Shards are keyed by their :data:`SHARD_WIDTH`-char prefix;
        memory-only entries (no disk layer) land under ``"memory"``
        with zero bytes.
        """
        self._ensure_scan()
        shards: Dict[str, Dict[str, int]] = {}
        for key in self._known:
            size = self._bytes.get(key, 0)
            name = key[:SHARD_WIDTH] if self._dir is not None else "memory"
            shard = shards.setdefault(name, {"entries": 0, "bytes": 0})
            shard["entries"] += 1
            shard["bytes"] += size
        return shards

    def total_bytes(self) -> int:
        """Bytes held by the disk layer (0 for a memory-only cache)."""
        self._ensure_scan()
        return sum(self._bytes.get(key, 0) for key in self._known)
