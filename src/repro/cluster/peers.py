"""Peer cache borrowing: global characterization dedup, no shared disk.

Engine cache entries are content-addressed — a digest names the exact
(builder fingerprint, corner, design, weights) combination — and GNN
training is seeded and deterministic, so two shards given the same
(technology, model) config hold byte-identical weights and therefore
*compatible caches*: shard B can serve shard A's entry as if it were
its own. This module exploits that: before paying a characterization,
a shard asks its ring neighbors for the digest over
``GET /v1/cache/{digest}`` (served straight from the peer's
:class:`~repro.engine.cache.DiskCache`), and a hit is installed into
the local cache tiers — one borrow, then local forever.

Wiring is a single :class:`~repro.engine.cache.EvaluationCache`
fetcher per tier, attached lazily to every engine the workspace
creates (:meth:`repro.api.workspace.Workspace.add_engine_hook`), so
the engine's miss accounting stays truthful: a borrowed hit is a cache
hit, not a characterization.
"""

from __future__ import annotations

import pickle
import re

from ..obs.metrics import get_registry
from ..serve.client import ServeClient, ServeClientError
from .ring import HashRing

__all__ = ["DIGEST_RE", "CACHE_TIERS", "PeerCacheClient",
           "PeerBorrower"]

#: Engine cache digests are hex SHA-256 prefixes (EvalKey uses 32
#: chars); anything else is rejected before it can touch a path.
DIGEST_RE = re.compile(r"^[0-9a-f]{8,64}$")

#: Disk-cache tier directory names under ``<workspace>/engine/``.
CACHE_TIERS = ("libraries", "results")


class PeerCacheClient:
    """Ask an ordered list of peers for a cache entry; first hit wins.

    Every failure mode — peer down, timeout, HTTP error — degrades to
    "not found": borrowing is an optimization, never a dependency.
    Peers are tried with ``retries=0`` so a dead neighbor costs one
    connect attempt, not a backoff dance on the characterization path.
    Each peer's :class:`ServeClient` keeps its connections alive.
    """

    def __init__(self, peers, timeout_s: float = 5.0):
        # peers: ordered [(name, base_url), ...]
        self.clients = [(name, ServeClient(url, timeout_s=timeout_s,
                                           retries=0))
                        for name, url in peers]

    def fetch(self, digest: str, tier: str):
        """``(peer_name, raw_bytes)`` or ``None``."""
        for name, client in self.clients:
            try:
                found = client.cache_entry(digest, tier)
            except (ServeClientError, OSError):
                continue                 # peer unhappy: try the next
            if found is not None:
                return name, found[1]
        return None

    def close(self) -> None:
        for _, client in self.clients:
            client.close()


class PeerBorrower:
    """Installs borrow-on-miss fetchers on a workspace's engines.

    ``members`` is the cluster membership document,
    ``{name: {"url": ..., "weight": ...}}``; the ask order is this
    shard's clockwise ring neighbors (deterministic everywhere), capped
    at ``max_peers`` so a wide cluster's miss path stays cheap.
    """

    def __init__(self, name: str, members: dict, max_peers: int = 3,
                 timeout_s: float = 5.0):
        self.name = name
        weights = {n: float((m or {}).get("weight", 1.0))
                   for n, m in members.items()}
        self.ring = HashRing(weights if weights else {name: 1.0})
        self.peer_names = [p for p in self.ring.neighbors(name,
                                                          max_peers)
                           if p in members and members[p].get("url")]
        self.client = PeerCacheClient(
            [(p, members[p]["url"]) for p in self.peer_names],
            timeout_s=timeout_s)
        self._m_borrows = get_registry().counter(
            "repro_cluster_borrows_total",
            "Peer cache borrow attempts by tier and outcome",
            labels=("tier", "outcome"))
        self.counters = {"hits": 0, "misses": 0, "errors": 0}

    def attach(self, engine) -> None:
        """Point both of an engine's cache tiers at the peers."""
        engine.library_cache.set_fetcher(self._fetcher("libraries"))
        engine.result_cache.set_fetcher(self._fetcher("results"))

    def _fetcher(self, tier: str):
        def fetch(digest: str):
            if not self.client.clients:
                return None
            found = self.client.fetch(digest, tier)
            if found is None:
                self.counters["misses"] += 1
                self._m_borrows.labels(tier=tier,
                                       outcome="miss").inc()
                return None
            _, data = found
            try:
                value = pickle.loads(data)
            except Exception:            # noqa: BLE001 — foreign bytes
                self.counters["errors"] += 1
                self._m_borrows.labels(tier=tier,
                                       outcome="error").inc()
                return None
            self.counters["hits"] += 1
            self._m_borrows.labels(tier=tier, outcome="hit").inc()
            return value
        return fetch

    def close(self) -> None:
        """Close the peer connections (a later borrow reopens)."""
        self.client.close()

    def stats(self) -> dict:
        return {"shard": self.name, "peers": list(self.peer_names),
                **self.counters}
