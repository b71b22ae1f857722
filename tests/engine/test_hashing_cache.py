"""Hashing stability and cache-tier semantics."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.charlib import Corner
from repro.engine import (DiskCache, EvalKey, EvaluationCache, LRUCache,
                          array_digest, model_fingerprint,
                          netlist_fingerprint, stable_hash)

SRC = str(Path(__file__).resolve().parents[2] / "src")


class TestStableHash:
    def test_deterministic(self):
        payload = {"corner": Corner(0.9, -0.05, 1.1), "cells": ["INV_X1"],
                   "gamma": 0.125}
        assert stable_hash(payload) == stable_hash(payload)

    def test_key_order_irrelevant(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_distinguishes_values(self):
        assert stable_hash({"vdd": 0.9}) != stable_hash({"vdd": 0.9000001})

    def test_tuple_list_equivalent(self):
        assert stable_hash((1.0, 2.0)) == stable_hash([1.0, 2.0])

    def test_rejects_unhashable_objects(self):
        with pytest.raises(TypeError):
            stable_hash(object())

    def test_stable_across_processes(self):
        """The same payload must hash identically in a fresh interpreter
        (no dependence on Python's per-process string hash seed)."""
        code = (
            "from repro.engine import stable_hash, EvalKey\n"
            "from repro.charlib import Corner\n"
            "payload = {'corner': Corner(0.9, -0.05, 1.1),"
            " 'cells': ['INV_X1', 'DFF_X1'], 'cfg': (8e-9, 15e-15)}\n"
            "print(stable_hash(payload))\n"
            "print(EvalKey('lib', builder='abc',"
            " corner=(0.9, -0.05, 1.1)).digest)\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="12345")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        child_hash, child_digest = out.stdout.split()
        payload = {"corner": Corner(0.9, -0.05, 1.1),
                   "cells": ["INV_X1", "DFF_X1"], "cfg": (8e-9, 15e-15)}
        assert child_hash == stable_hash(payload)
        key = EvalKey("lib", builder="abc", corner=(0.9, -0.05, 1.1))
        assert child_digest == key.digest


class TestFingerprints:
    def test_array_digest_value_sensitive(self):
        a = np.arange(12.0)
        b = a.copy()
        assert array_digest([a]) == array_digest([b])
        b[3] += 1e-12
        assert array_digest([a]) != array_digest([b])

    def test_array_digest_shape_sensitive(self):
        a = np.arange(12.0)
        assert array_digest([a]) != array_digest([a.reshape(3, 4)])

    def test_model_fingerprint_tracks_weights(self, trained):
        model, _ = trained
        fp = model_fingerprint(model)
        assert fp == model_fingerprint(model)
        param = model.parameters()[0]
        original = param.data.copy()
        try:
            param.data[0] += 1e-9
            assert model_fingerprint(model) != fp
        finally:
            param.data[:] = original
        assert model_fingerprint(model) == fp

    def test_builder_fingerprint_stable(self, builder):
        assert builder.fingerprint() == builder.fingerprint()

    def test_netlist_fingerprint(self, netlist):
        from repro.eda import build_benchmark
        assert (netlist_fingerprint(netlist)
                == netlist_fingerprint(build_benchmark("s298")))
        assert (netlist_fingerprint(netlist)
                != netlist_fingerprint(build_benchmark("s386")))


#: Each Table I design's fingerprint, as the canonicalize-walk
#: implementation computed it; cached results on disk are keyed by these.
GOLDEN_NETLIST_FPS = {
    "s298": "b989f18939dddd12", "s386": "20da9dfe72dfbdc2",
    "s526": "fc14f2de0a8f53e0", "s820": "897cc50c7de73381",
    "s1196": "f3437994b3cda7a2", "s1488": "4d4dbb92bf674404",
    "mac16": "ef3e325a9a4122d8", "mac32": "7bc19b08f2788ad5",
    "picorv32": "aba58285de927e99", "darkriscv": "64b8449c9eccbef3",
}


def _reference_document(netlist) -> dict:
    """The document the fingerprint has always hashed, built
    independently of ``hashing``."""
    instances = [(inst.name, inst.cell, sorted(inst.pins.items()))
                 for inst in netlist.instances.values()]
    return {"name": netlist.name, "clock": netlist.clock,
            "inputs": list(netlist.primary_inputs),
            "outputs": list(netlist.primary_outputs),
            "instances": sorted(instances)}


def _tiny_netlist():
    from repro.eda import GateNetlist
    nl = GateNetlist("tiny")
    nl.add_input("a")
    nl.add_input("b")
    nl.add("g1", "NAND2_X1", a="a", b="b", y="n1")
    nl.add("g2", "INV_X1", a="n1", y="out")
    nl.add_output("out")
    return nl


class TestNetlistFingerprint:
    @pytest.mark.parametrize("name", sorted(GOLDEN_NETLIST_FPS))
    def test_golden_digest(self, name):
        from repro.eda import build_benchmark
        netlist = build_benchmark(name)
        assert netlist_fingerprint(netlist) == GOLDEN_NETLIST_FPS[name]
        assert netlist_fingerprint(netlist.copy()) == \
            GOLDEN_NETLIST_FPS[name]

    @pytest.mark.parametrize("name", ["s298", "mac16", "picorv32"])
    def test_direct_encode_equals_stable_hash(self, name):
        from repro.eda import build_benchmark
        from repro.engine import hashing
        netlist = build_benchmark(name)
        expected = stable_hash(_reference_document(netlist), length=64)
        assert hashing._netlist_digest(netlist) == expected
        assert netlist_fingerprint(netlist, length=64) == expected
        assert netlist_fingerprint(netlist, length=8) == expected[:8]

    def test_non_str_leaf_takes_the_stable_hash_fallback(self,
                                                         monkeypatch):
        import hashlib
        import json

        from repro.engine import hashing
        netlist = _tiny_netlist()
        netlist.add("g3", "INV_X1", a=0.5, y="n3")     # a float leaf
        doc = _reference_document(netlist)
        calls = []
        real = hashing.stable_hash

        def counting(obj, length=16):
            calls.append(obj)
            return real(obj, length=length)

        monkeypatch.setattr(hashing, "stable_hash", counting)
        digest = hashing._netlist_digest(netlist)
        assert calls == [doc]
        assert digest == real(doc, length=64)
        # Encoding the float directly would have given other bytes.
        raw = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        assert digest != hashlib.sha256(raw.encode()).hexdigest()

    def test_str_leaves_skip_canonicalize(self, monkeypatch):
        from repro.engine import hashing
        netlist = _tiny_netlist()
        expected = stable_hash(_reference_document(netlist), length=64)
        walked = []
        real = hashing.canonicalize
        monkeypatch.setattr(hashing, "canonicalize",
                            lambda obj: walked.append(obj) or real(obj))
        assert hashing._netlist_digest(netlist) == expected
        assert walked == []

    @pytest.mark.parametrize("edit", [
        lambda nl: nl.add("g9", "INV_X1", a="out", y="n9"),
        lambda nl: nl.add_input("c"),
        lambda nl: nl.add_output("n1"),
    ], ids=["add", "add_input", "add_output"])
    def test_edits_drop_the_memo(self, edit):
        netlist = _tiny_netlist()
        before = netlist_fingerprint(netlist)
        edit(netlist)
        after = netlist_fingerprint(netlist)
        assert after != before
        assert after == stable_hash(_reference_document(netlist))

    def test_memo_computes_once_per_object(self, monkeypatch):
        from repro.engine import hashing
        netlist = _tiny_netlist()
        calls = []
        real = hashing._netlist_digest
        monkeypatch.setattr(hashing, "_netlist_digest",
                            lambda nl: calls.append(nl) or real(nl))
        first = netlist_fingerprint(netlist)
        assert netlist_fingerprint(netlist) == first
        assert netlist_fingerprint(netlist, length=32)[:16] == first
        assert len(calls) == 1

    def test_thread_hammer_one_object_per_design(self, monkeypatch):
        """8 threads build and fingerprint all ten designs at once, from
        an empty process-wide state: every thread gets the one netlist
        object per design, and every digest is the golden one."""
        import sys
        import threading
        import weakref

        from repro.eda import benchmarks
        from repro.engine import hashing
        monkeypatch.setattr(benchmarks, "_BUILT", {})
        monkeypatch.setattr(hashing, "_NETLIST_DIGESTS",
                            weakref.WeakKeyDictionary())
        names = sorted(GOLDEN_NETLIST_FPS)
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        seen = [[] for _ in range(n_threads)]
        errors = []

        def worker(k):
            try:
                barrier.wait(timeout=60)
                for i in range(len(names)):
                    name = names[(i + k) % len(names)]
                    netlist = benchmarks.build_benchmark(name)
                    seen[k].append((name, netlist,
                                    netlist_fingerprint(netlist)))
            except Exception as exc:       # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        for rows in seen:
            assert len(rows) == len(names)
            for name, netlist, fp in rows:
                assert netlist is benchmarks._BUILT[name]
                assert fp == GOLDEN_NETLIST_FPS[name]
        assert sorted(benchmarks._BUILT) == names


class TestEvalKey:
    def test_equality_and_hash(self):
        a = EvalKey("lib", builder="x", corner=(1.0, 0.0, 1.0))
        b = EvalKey("lib", builder="x", corner=(1.0, 0.0, 1.0))
        c = EvalKey("eval", builder="x", corner=(1.0, 0.0, 1.0))
        assert a == b and hash(a) == hash(b)
        assert a != c and a.digest != c.digest


class TestLRUCache:
    def test_hit_miss_stats(self):
        cache = LRUCache(capacity=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_eviction_order(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")               # refresh a; b is now LRU
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats.evictions == 1

    def test_zero_capacity_disables(self):
        cache = LRUCache(capacity=0)
        cache.put("a", 1)
        assert len(cache) == 0


class TestDiskCache:
    def test_roundtrip(self, tmp_path):
        cache = DiskCache(tmp_path / "c")
        key = "deadbeef"
        cache.put(key, {"x": np.arange(3.0)})
        fresh = DiskCache(tmp_path / "c")     # same dir, new instance
        value = fresh.get(key)
        assert np.allclose(value["x"], [0, 1, 2])
        assert key in fresh and len(fresh) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = DiskCache(tmp_path / "c")
        cache.path("bad").write_bytes(b"not a pickle")
        assert cache.get("bad") is None
        assert cache.stats.misses == 1


class TestEvaluationCache:
    def test_disk_promotion(self, tmp_path):
        key = EvalKey("lib", builder="x", corner=(1.0, 0.0, 1.0))
        first = EvaluationCache(capacity=8, directory=tmp_path / "c")
        first.put(key, "library")
        second = EvaluationCache(capacity=8, directory=tmp_path / "c")
        assert second.get(key) == "library"       # disk hit
        assert second.memory.get(key.digest) == "library"  # promoted

    def test_memory_only(self):
        cache = EvaluationCache(capacity=4, directory=None)
        key = EvalKey("lib", builder="x", corner=(1.0,))
        assert cache.get(key) is None
        cache.put(key, 42)
        assert cache.get(key) == 42
        assert cache.stats().keys() == {"memory"}


class TestDiskCacheSizeEviction:
    def _put(self, cache, name, payload, mtime):
        cache.put(name, payload)
        os.utime(cache.path(name), (mtime, mtime))

    def test_oldest_entries_evicted_first(self, tmp_path):
        cache = DiskCache(tmp_path / "c", max_bytes=1)
        # Each pickled payload far exceeds 1 byte, so every put must
        # evict all *other* entries (the newest is always kept).
        self._put(cache, "a", b"x" * 64, 100)
        self._put(cache, "b", b"y" * 64, 200)
        assert "b" in cache and "a" not in cache
        assert cache.stats.evictions == 1

    def test_under_budget_keeps_everything(self, tmp_path):
        cache = DiskCache(tmp_path / "c", max_bytes=1 << 20)
        for i in range(8):
            cache.put(f"k{i}", b"z" * 128)
        assert len(cache) == 8
        assert cache.stats.evictions == 0

    def test_under_budget_puts_list_the_directory_once(self, tmp_path,
                                                       monkeypatch):
        cache = DiskCache(tmp_path / "c", max_bytes=1 << 20)
        listings = []
        real_glob = Path.glob

        def counting_glob(self, pattern):
            listings.append(pattern)
            return real_glob(self, pattern)

        monkeypatch.setattr(Path, "glob", counting_glob)
        for i in range(50):
            cache.put(f"k{i}", b"z" * 128)
        assert len(listings) <= 1
        assert cache.stats.evictions == 0
        monkeypatch.undo()
        assert len(cache) == 50

    def test_eviction_is_lru_not_fifo(self, tmp_path):
        cache = DiskCache(tmp_path / "c", max_bytes=None)
        self._put(cache, "old", b"x" * 400, 100)
        self._put(cache, "new", b"y" * 400, 200)
        cache.max_bytes = 1000
        # Reading "old" refreshes its mtime, so "new" is now the LRU
        # entry and the next over-budget put evicts it instead.
        assert cache.get("old") is not None
        assert cache.path("old").stat().st_mtime > 200
        self._put(cache, "third", b"z" * 400, 300)
        assert "old" in cache and "third" in cache
        assert "new" not in cache

    def test_just_written_entry_survives(self, tmp_path):
        cache = DiskCache(tmp_path / "c", max_bytes=1)
        cache.put("huge", b"w" * 4096)
        assert cache.get("huge") is not None

    def test_unbounded_by_default(self, tmp_path):
        assert DiskCache(tmp_path / "c").max_bytes is None

    def test_invalid_budget_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            DiskCache(tmp_path / "c", max_bytes=0)

    def test_engine_config_plumbs_max_bytes(self, tmp_path):
        from repro.engine import EngineConfig
        config = EngineConfig(cache_dir=tmp_path / "e",
                              cache_max_bytes=1 << 16)
        cache = EvaluationCache(4, f"{config.cache_dir}/x",
                                max_bytes=config.cache_max_bytes)
        assert cache.disk.max_bytes == 1 << 16
