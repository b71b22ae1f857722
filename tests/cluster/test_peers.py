"""Peer cache borrowing: the fetcher tier, the HTTP cache endpoint,
and the headline economics — a corner characterized on shard A is a
disk-cache install on shard B, never a re-characterization.

The economics test is the expensive one: it trains the (tiny) GNN
twice, once per shard workspace, precisely because that is the claim
under test — seeded training produces byte-identical weights, hence
identical builder fingerprints, hence compatible content-addressed
caches across shards that share no disk.
"""

import pickle
import socket
import threading
import time

import pytest

from repro.api import Workspace
from repro.cluster.peers import (CACHE_TIERS, DIGEST_RE, PeerBorrower,
                                 PeerCacheClient)
from repro.eda import build_benchmark
from repro.engine import EngineConfig, EvaluationEngine, PPAWeights
from repro.engine.cache import EvaluationCache
from repro.serve import ServeClient, ServeService, StcoServer
from repro.stco import DesignSpace
from tests.api.conftest import MODEL, TECH
from tests.serve.conftest import StubRunner


class TestFetcherTier:
    """EvaluationCache's third tier, in isolation."""

    def test_borrowed_hit_installs_through_both_tiers(self, tmp_path):
        calls = []

        def fetcher(digest):
            calls.append(digest)
            return {"value": digest}

        cache = EvaluationCache(4, tmp_path / "tier")
        cache.set_fetcher(fetcher)
        assert cache.get("aaaa1111") == {"value": "aaaa1111"}
        assert calls == ["aaaa1111"]
        assert cache.borrows == 1
        # Paid once: now a local hit, no second network trip.
        assert cache.get("aaaa1111") == {"value": "aaaa1111"}
        assert calls == ["aaaa1111"]
        # And a disk install: a fresh cache over the same directory
        # (engine restart) still never asks the peer.
        fresh = EvaluationCache(4, tmp_path / "tier")
        fresh.set_fetcher(fetcher)
        assert fresh.get("aaaa1111") == {"value": "aaaa1111"}
        assert calls == ["aaaa1111"]
        assert fresh.borrows == 0

    def test_fetcher_miss_counts_and_falls_through(self, tmp_path):
        cache = EvaluationCache(4, tmp_path / "tier")
        cache.set_fetcher(lambda digest: None)
        assert cache.get("bbbb2222", default="sentinel") == "sentinel"
        assert cache.borrow_misses == 1
        assert cache.borrows == 0

    def test_stats_expose_peer_tier_only_when_in_play(self, tmp_path):
        cache = EvaluationCache(4, tmp_path / "tier")
        assert "peer" not in cache.stats()   # single-shard shape intact
        cache.set_fetcher(lambda digest: None)
        assert cache.stats()["peer"] == {"borrows": 0,
                                         "borrow_misses": 0}
        cache.set_fetcher(None)
        assert "peer" not in cache.stats()


_NOT_FOUND = (b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n"
              b"Content-Type: application/json\r\n\r\n")


class _ScriptedPeer:
    """A raw TCP peer: connection ``i`` answers its requests with
    ``script[i]`` in turn (``None``: read the request, never answer),
    then hangs up. Counts the connections it accepted."""

    def __init__(self, script):
        self.script = script
        self.connections = 0
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self._sock.getsockname()[1]}"
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self):
        for answers in self.script:
            conn, _ = self._sock.accept()
            self.connections += 1
            with conn:
                for answer in answers:
                    conn.recv(65536)
                    if answer is None:
                        self._stop.wait(10)
                        return
                    conn.sendall(answer)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._sock.close()
        self._thread.join(timeout=10)


class TestCacheEndpoint:
    """``GET /v1/cache/{digest}`` over a real shard HTTP server."""

    @pytest.fixture
    def shard(self, tmp_path):
        workspace = Workspace(tmp_path / "ws")
        digest = "ab" * 16
        (workspace.engine_dir / "results").mkdir()
        (workspace.engine_dir / "results" / f"{digest}.pkl") \
            .write_bytes(pickle.dumps({"planted": True}))
        service = ServeService(workspace, jobs_dir=tmp_path / "jobs",
                               workers=1, runner=StubRunner(),
                               shard_name="a")
        with StcoServer(service) as server:
            yield service, server, digest
        service.close(timeout=5)

    def test_entry_round_trips_as_opaque_bytes(self, shard):
        service, server, digest = shard
        client = ServeClient(server.url, timeout_s=10)
        tier, data = client.cache_entry(digest)
        assert tier == "results"
        assert pickle.loads(data) == {"planted": True}
        assert client.cache_entry(digest, tier="results")[0] \
            == "results"
        # The other tier does not hold it.
        assert client.cache_entry(digest, tier="libraries") is None
        assert client.cache_entry("cd" * 16) is None
        client.close()

    def test_digest_grammar_guards_the_path(self, shard):
        service, _, _ = shard
        for bad in ("../registry", "..%2fregistry", "AB" * 16,
                    "xyz", "a" * 7, "a" * 65, ""):
            assert service.cache_entry(bad) is None
        assert not DIGEST_RE.match("../../etc/passwd")

    def test_unknown_tier_is_ignored(self, shard):
        service, _, digest = shard
        assert service.cache_entry(digest, tier="nope") is None

    def test_peer_client_first_hit_wins_and_failures_degrade(
            self, shard):
        _, server, digest = shard
        peers = PeerCacheClient([
            ("dead", "http://127.0.0.1:1"),     # refused: skipped
            ("live", server.url)])
        name, data = peers.fetch(digest, "results")
        assert name == "live"
        assert pickle.loads(data) == {"planted": True}
        assert peers.fetch("cd" * 16, "results") is None
        peers.close()
        all_dead = PeerCacheClient([("dead", "http://127.0.0.1:1")])
        assert all_dead.fetch(digest, "results") is None

    def test_cache_reads_reuse_one_connection(self, shard):
        """A sweep's reads, hits and 404s alike, share one kept-alive
        connection; ``close`` drops it and the next read reopens."""
        _, server, digest = shard
        client = ServeClient(server.url, timeout_s=10, retries=0)
        assert client.cache_entry(digest)[0] == "results"
        (conn,) = client._idle
        sock = conn.sock
        assert client.cache_entry("cd" * 16) is None
        assert client.cache_entry(digest, tier="results")[0] == "results"
        assert client._idle == [conn] and conn.sock is sock
        client.close()
        assert client._idle == [] and conn.sock is None
        assert client.cache_entry(digest)[0] == "results"
        client.close()

    def test_dropped_connection_is_reopened_once(self):
        """A kept-alive connection the peer has since closed costs one
        fresh connection, not a failed borrow."""
        script = [[_NOT_FOUND], [_NOT_FOUND]]     # hang up after each
        with _ScriptedPeer(script) as peer:
            client = ServeClient(peer.url, timeout_s=5, retries=0)
            assert client.cache_entry("cd" * 16) is None
            assert client.cache_entry("cd" * 16) is None
            client.close()
        assert peer.connections == 2

    def test_stalled_peer_costs_one_timeout(self):
        """A peer that accepts and then never answers is not retried:
        the borrow degrades to a miss after one timeout."""
        script = [[_NOT_FOUND, None]]             # answer, then stall
        with _ScriptedPeer(script) as peer:
            peers = PeerCacheClient([("slow", peer.url)], timeout_s=0.5)
            assert peers.fetch("cd" * 16, "results") is None
            t0 = time.monotonic()
            assert peers.fetch("cd" * 16, "results") is None
            elapsed = time.monotonic() - t0
            peers.close()
        assert peer.connections == 1
        assert 0.4 < elapsed < 0.9


class TestPeerBorrower:
    MEMBERS = {name: {"url": f"http://127.0.0.1:{9000 + i}",
                      "weight": 1.0}
               for i, name in enumerate("abcde")}

    def test_peer_order_is_ring_neighbors_capped(self):
        borrower = PeerBorrower("c", self.MEMBERS, max_peers=2)
        assert len(borrower.peer_names) == 2
        assert "c" not in borrower.peer_names
        assert borrower.peer_names \
            == borrower.ring.neighbors("c", 2)

    def test_lone_shard_has_no_peers_and_no_network(self):
        borrower = PeerBorrower("solo", {"solo": {"url": "", "weight":
                                                  1.0}})
        assert borrower.peer_names == []
        fetch = borrower._fetcher("results")
        assert fetch("ab" * 16) is None      # no clients: instant None
        assert borrower.counters == {"hits": 0, "misses": 0,
                                     "errors": 0}

    def test_corrupt_peer_bytes_count_as_errors(self):
        borrower = PeerBorrower("a", self.MEMBERS, max_peers=1)

        class Stub:
            clients = [("b", None)]

            def fetch(self, digest, tier):
                return "b", b"certainly not a pickle"

        borrower.client = Stub()
        assert borrower._fetcher("results")("ab" * 16) is None
        assert borrower.counters["errors"] == 1

    def test_stats_shape(self):
        borrower = PeerBorrower("a", self.MEMBERS)
        stats = borrower.stats()
        assert stats["shard"] == "a"
        assert stats["peers"] == borrower.peer_names
        assert {"hits", "misses", "errors"} <= set(stats)


# -- the headline economics ------------------------------------------------

CORNERS = DesignSpace(vdd_scales=(0.9, 1.1), vth_shifts=(0.0,),
                      cox_scales=(1.0,)).points()


@pytest.fixture(scope="module")
def netlist():
    return build_benchmark("s298")


@pytest.fixture(scope="module")
def shard_a(tmp_path_factory, netlist):
    """Shard A: real workspace, real engine, corners evaluated once,
    disk cache served over real HTTP."""
    root = tmp_path_factory.mktemp("peer_shard_a")
    workspace = Workspace(root / "ws")
    engine = workspace.engine(TECH, MODEL)
    records = engine.evaluate_many(netlist, CORNERS, PPAWeights())
    assert engine.characterizations == len(CORNERS)
    service = ServeService(workspace, jobs_dir=root / "jobs",
                           workers=1, runner=StubRunner(),
                           shard_name="a")
    server = StcoServer(service).start()
    yield {"workspace": workspace, "engine": engine,
           "records": records, "url": server.url}
    server.close()
    service.close(timeout=5)


class TestBorrowEconomics:
    def test_characterize_once_cluster_wide(self, shard_a, netlist,
                                            tmp_path):
        """Shard B, fresh disk, same config: everything is borrowed —
        zero characterizations, zero flow evaluations — and the borrow
        is a durable disk-cache install."""
        ws_b = Workspace(tmp_path / "b" / "ws")
        service_b = ServeService(ws_b, jobs_dir=tmp_path / "b" / "jobs",
                                 workers=1, runner=StubRunner(),
                                 shard_name="b")
        try:
            wired = service_b.configure_peers({
                "a": {"url": shard_a["url"], "weight": 1.0},
                "b": {"url": "http://unused.invalid", "weight": 1.0}})
            assert wired["peers"] == ["a"]

            # Seeded training ⇒ the same fingerprint as shard A; this
            # identity is what makes the caches compatible at all.
            engine_b = ws_b.engine(TECH, MODEL)
            assert engine_b.builder_fingerprint() \
                == shard_a["engine"].builder_fingerprint()

            records = engine_b.evaluate_many(netlist, CORNERS,
                                             PPAWeights())
            assert engine_b.characterizations == 0
            assert engine_b.flow_evaluations == 0
            assert engine_b.result_cache.borrows == len(CORNERS)
            assert [r.reward for r in records] \
                == [r.reward for r in shard_a["records"]]
            assert engine_b.result_cache.stats()["peer"]["borrows"] \
                == len(CORNERS)
            assert service_b.health()["peers"]["hits"] >= len(CORNERS)

            # Disk-cache install: a fresh engine over shard B's own
            # directory — no peers configured — is already warm.
            engine_c = EvaluationEngine(
                engine_b.builder,
                EngineConfig(cache_dir=ws_b.engine_dir))
            again = engine_c.evaluate_many(netlist, CORNERS,
                                           PPAWeights())
            assert engine_c.characterizations == 0
            assert engine_c.flow_evaluations == 0
            assert engine_c.result_cache.borrows == 0
            assert [r.reward for r in again] \
                == [r.reward for r in records]
        finally:
            service_b.close(timeout=5)

    def test_tiers_constant_matches_engine_layout(self, shard_a):
        engine_dir = shard_a["workspace"].engine_dir
        for tier in CACHE_TIERS:
            assert (engine_dir / tier).is_dir()
