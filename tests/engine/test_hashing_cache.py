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
