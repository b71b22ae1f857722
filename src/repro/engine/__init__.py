"""Parallel evaluation engine with content-addressed caching.

The subsystem that turns corner evaluation into a first-class service:

* :mod:`~repro.engine.hashing` — stable content hashes (corner × builder
  config × model weights) usable across processes and campaigns;
* :mod:`~repro.engine.cache` — in-memory LRU + optional on-disk tier;
* :mod:`~repro.engine.executor` — serial / process backends
  with deterministic result ordering;
* :mod:`~repro.engine.engine` — the :class:`EvaluationEngine` funnel
  (result cache → library cache → implementation slot → executor).

Campaign sweeps over one shared engine are
:func:`repro.api.run_campaign` (``mode="campaign"`` of
:func:`repro.api.run`).
"""

from .records import PPAWeights, EvaluationRecord
from .hashing import (canonicalize, stable_hash, array_digest,
                      model_fingerprint, netlist_fingerprint, EvalKey)
from .cache import CacheStats, LRUCache, DiskCache, EvaluationCache
from .executor import (SerialBackend, ProcessPoolBackend, get_backend,
                       available_workers)
from .engine import EngineConfig, EvaluationEngine

__all__ = [
    "PPAWeights", "EvaluationRecord",
    "canonicalize", "stable_hash", "array_digest", "model_fingerprint",
    "netlist_fingerprint", "EvalKey",
    "CacheStats", "LRUCache", "DiskCache", "EvaluationCache",
    "SerialBackend", "ProcessPoolBackend",
    "get_backend", "available_workers",
    "EngineConfig", "EvaluationEngine",
]
