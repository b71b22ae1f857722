"""Content-addressed memoization: in-memory LRU + optional disk tier.

The cache is keyed on :class:`~repro.engine.hashing.EvalKey` digests, so
a hit means "the exact same (corner, builder config, model weights)
combination was characterized before" — whether earlier in this process,
by another worker, or in a previous campaign that persisted its cache
directory. Disk entries are pickled under ``<dir>/<digest>.pkl`` and
written atomically (temp file + rename) so concurrent workers never
observe a torn entry.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from .hashing import EvalKey

__all__ = ["CacheStats", "LRUCache", "DiskCache", "EvaluationCache"]

_MISS = object()


@dataclass
class CacheStats:
    """Hit/miss counters for one cache tier."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "puts": self.puts, "evictions": self.evictions,
                "hit_rate": self.hit_rate}


class LRUCache:
    """Bounded in-memory cache with least-recently-used eviction."""

    def __init__(self, capacity: int = 256):
        self.capacity = int(capacity)
        self._data: OrderedDict = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, digest: str) -> bool:
        return digest in self._data

    def get(self, digest: str, default=None):
        if digest not in self._data:
            self.stats.misses += 1
            return default
        self._data.move_to_end(digest)
        self.stats.hits += 1
        return self._data[digest]

    def put(self, digest: str, value) -> None:
        if self.capacity <= 0:
            return
        if digest in self._data:
            self._data.move_to_end(digest)
        self._data[digest] = value
        self.stats.puts += 1
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        self._data.clear()


class DiskCache:
    """Pickle-per-entry persistent cache under one directory.

    ``max_bytes`` bounds the total size of the directory's entries:
    after every write, least-recently-used entries (by mtime — reads
    touch their entry, so a hot corner never ages out under a cold
    sweep) are deleted until the tier fits. ``None`` keeps the
    historical unbounded behavior.

    A bounded tier keeps a running byte count and re-lists the
    directory only when the count is unknown (first bounded put, after
    :meth:`clear`) or a put would exceed ``max_bytes``: entries another
    process wrote, and an overwrite's double count, settle there.
    """

    def __init__(self, directory: str | Path,
                 max_bytes: int | None = None):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive or None, "
                             f"got {max_bytes}")
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        self._bytes = None               # running tier size; None = re-list

    def path(self, digest: str) -> Path:
        return self.directory / f"{digest}.pkl"

    def __contains__(self, digest: str) -> bool:
        return self.path(digest).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.pkl"))

    def get(self, digest: str, default=None):
        path = self.path(digest)
        try:
            with open(path, "rb") as fh:
                value = pickle.load(fh)
        except Exception:
            # A cache entry that cannot load — truncated file, or a
            # stale pickle referencing since-renamed classes/fields from
            # an older version — is a miss, never an error: the caller
            # just re-characterizes and overwrites it.
            self.stats.misses += 1
            return default
        if self.max_bytes is not None:
            # Touch the entry so size eviction is LRU, not FIFO.
            try:
                os.utime(path)
            except OSError:
                pass
        self.stats.hits += 1
        return value

    def put(self, digest: str, value) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
                size = fh.tell()
            os.replace(tmp, self.path(digest))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.puts += 1
        if self.max_bytes is None:
            self._bytes = None
        elif self._bytes is None or self._bytes + size > self.max_bytes:
            self._evict_to_fit(keep=self.path(digest))
        else:
            self._bytes += size

    def size_bytes(self) -> int:
        """Total bytes held by this tier's entries."""
        total = 0
        for path in self.directory.glob("*.pkl"):
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def _evict_to_fit(self, keep: Path | None = None) -> None:
        """Delete oldest-mtime entries until the tier fits ``max_bytes``.

        The just-written entry (``keep``) is never evicted — even when a
        single entry exceeds the budget, the cache must still serve it
        for the current run; it becomes eviction fodder on the next put.
        """
        entries = []
        for path in self.directory.glob("*.pkl"):
            try:
                st = path.stat()
            except OSError:
                continue
            entries.append((st.st_mtime, st.st_size, path))
        self._bytes = sum(size for _, size, _ in entries)
        for _, size, path in sorted(entries):
            if self._bytes <= self.max_bytes:
                return
            if keep is not None and path == keep:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            self.stats.evictions += 1
            self._bytes -= size

    def clear(self) -> None:
        self._bytes = None
        for path in self.directory.glob("*.pkl"):
            try:
                path.unlink()
            except OSError:
                pass


class _NullLock:
    """Stand-in lock so the unlocked path stays branch-free."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class EvaluationCache:
    """Two-tier cache: LRU in front of an optional persistent directory.

    ``get`` promotes disk hits into memory; ``put`` writes through to
    both tiers. With ``directory=None`` this degrades to a plain LRU.

    A third, optional tier sits behind both: a **fetcher** installed
    via :meth:`set_fetcher` (the cluster layer's peer-borrow hook). On
    a miss in both local tiers, ``get`` asks the fetcher for the entry
    — outside the cache lock, because the fetcher may do network I/O
    and must not stall concurrent gets or metric scrapes — and
    installs a non-``None`` answer through both local tiers, so the
    borrow is paid exactly once. Borrow traffic is tallied in
    ``borrows`` / ``borrow_misses`` (surfaced by :meth:`stats`).

    ``name`` opts the cache into process metrics: tier movement is
    mirrored into the registry's
    ``repro_engine_cache_events_total{cache,tier,event}`` counters —
    derived exactly from the per-tier :class:`CacheStats` deltas, so the
    exported numbers always agree with :meth:`stats`. The mirroring is
    lazy: get/put only bump the plain-int stats they always did, and a
    scrape-time collector (:meth:`flush_metrics`, run before every
    registry snapshot/render) folds the movement into the counters —
    the hot warm-hit path pays nothing for metrics. ``lock`` (shared
    with the owning engine) makes get/put atomic against concurrent
    counter snapshots.
    """

    def __init__(self, capacity: int = 256,
                 directory: str | Path | None = None,
                 max_bytes: int | None = None,
                 name: str | None = None, lock=None):
        self.memory = LRUCache(capacity)
        self.disk = (DiskCache(directory, max_bytes=max_bytes)
                     if directory is not None else None)
        self._lock = lock if lock is not None else _NullLock()
        self._fetcher = None
        self.borrows = 0               # fetcher answered a local miss
        self.borrow_misses = 0         # fetcher asked, had nothing
        self._metric = None
        self._name = name
        self._children: dict = {}
        self._flushed: dict = {}       # tier -> last mark pushed
        self._flush_lock = threading.Lock()
        if name is not None:
            from ..obs.metrics import get_registry
            registry = get_registry()
            self._metric = registry.counter(
                "repro_engine_cache_events_total",
                "Engine cache tier events (hit/miss/put/eviction)",
                labels=("cache", "tier", "event"))
            # The collector must not pin the cache alive in the
            # process-wide registry; it unregisters itself once the
            # cache is gone.
            ref = weakref.ref(self)

            def _collect():
                cache = ref()
                if cache is None:
                    registry.remove_collector(_collect)
                else:
                    cache.flush_metrics()

            registry.add_collector(_collect)

    def _child(self, tier: str, event: str):
        # Memoize the eight possible children on first use.
        child = self._children.get((tier, event))
        if child is None:
            child = self._children[(tier, event)] = self._metric.labels(
                cache=self._name, tier=tier, event=event)
        return child

    @staticmethod
    def _mark(stats: CacheStats) -> tuple:
        return (stats.hits, stats.misses, stats.puts, stats.evictions)

    def flush_metrics(self) -> None:
        """Fold :class:`CacheStats` movement since the last flush into
        the registry counters. Runs at scrape time (registry collector);
        ``_flush_lock`` serializes concurrent scrapers so no delta is
        counted twice, and the marks are read under the cache lock so a
        mid-``get`` update can't tear them."""
        if self._metric is None:
            return
        with self._flush_lock:
            with self._lock:
                marks = [("memory", self._mark(self.memory.stats))]
                if self.disk is not None:
                    marks.append(("disk", self._mark(self.disk.stats)))
            for tier, now in marks:
                before = self._flushed.get(tier, (0, 0, 0, 0))
                for event, b, a in zip(
                        ("hit", "miss", "put", "eviction"), before, now):
                    if a > b:
                        self._child(tier, event).inc(a - b)
                self._flushed[tier] = now

    def set_fetcher(self, fetcher) -> None:
        """Install (or clear, with ``None``) the miss-fallback hook:
        ``fetcher(digest) -> value | None``. Called outside the cache
        lock; any network failure must come back as ``None``."""
        self._fetcher = fetcher

    def get(self, key: EvalKey, default=None):
        digest = key.digest if isinstance(key, EvalKey) else key
        with self._lock:
            value = self.memory.get(digest, _MISS)
            if value is not _MISS:
                return value
            if self.disk is not None:
                value = self.disk.get(digest, _MISS)
                if value is not _MISS:
                    self.memory.put(digest, value)
                    return value
            fetcher = self._fetcher
        if fetcher is not None:
            value = fetcher(digest)
            if value is not None:
                # A borrowed hit is installed through both local tiers
                # (the "disk-cache install"): the next request — this
                # process or a restart — never asks the peer again.
                with self._lock:
                    self.borrows += 1
                    self.memory.put(digest, value)
                    if self.disk is not None:
                        self.disk.put(digest, value)
                return value
            with self._lock:
                self.borrow_misses += 1
        return default

    def put(self, key: EvalKey, value) -> None:
        digest = key.digest if isinstance(key, EvalKey) else key
        with self._lock:
            self.memory.put(digest, value)
            if self.disk is not None:
                self.disk.put(digest, value)

    def __contains__(self, key) -> bool:
        digest = key.digest if isinstance(key, EvalKey) else key
        return digest in self.memory or (
            self.disk is not None and digest in self.disk)

    def clear(self) -> None:
        self.memory.clear()
        if self.disk is not None:
            self.disk.clear()

    def stats(self) -> dict:
        out = {"memory": self.memory.stats.as_dict()}
        if self.disk is not None:
            out["disk"] = self.disk.stats.as_dict()
        if self._fetcher is not None or self.borrows \
                or self.borrow_misses:
            out["peer"] = {"borrows": self.borrows,
                           "borrow_misses": self.borrow_misses}
        return out
