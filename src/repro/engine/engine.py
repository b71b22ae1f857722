"""The evaluation engine: cache → executor, one front door.

:class:`EvaluationEngine` turns corner evaluation into a schedulable,
cacheable service. Every request flows through the same funnel:

1. **result cache** — (builder, corner, design, weights) already
   evaluated? Return the record (memory hit, or promoted from disk).
2. **library cache** — corner already characterized for this builder?
   Reuse the library, skip characterization entirely.
3. **characterization** — remaining corners get their library built,
   one ``builder.build`` per corner (in the workers of a process pool).
4. **implementation slot** — the design's library-independent flow
   stages (:func:`repro.eda.flow.implement`) run once and are kept for
   the next corners of the same design; a new design replaces them.
5. **executor** — remaining sign-offs (STA + power per library) fan out
   over the configured backend (serial or process pool) with
   input-order results.

Each stage is measured once: its span feeds ``repro_span_seconds``, and
a plain seconds tally (kept under :func:`repro.obs.disabled`) feeds
``stats()["timing_s"]``.

The default configuration (serial backend, in-memory cache) reproduces
the historical serial path bit-for-bit; parallelism and disk
persistence are opt-in knobs.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, replace

from ..eda.flow import evaluate_system, implement
from ..obs.metrics import get_registry
from ..obs.trace import span
from .cache import EvaluationCache
from .executor import ProcessPoolBackend, get_backend
from .hashing import EvalKey, netlist_fingerprint, stable_hash
from .records import EvaluationRecord, PPAWeights

__all__ = ["EngineConfig", "EvaluationEngine"]


@dataclass
class EngineConfig:
    """Engine behavior knobs (all defaults preserve seed behavior)."""

    backend: object = "serial"          # spec string or backend instance
    cache_capacity: int = 512           # in-memory LRU entries per tier
    cache_dir: object = None            # persistence root (str/Path/None)
    cache_results: bool = True          # cache full evaluation records
    cache_max_bytes: int | None = None  # per disk tier; None = unbounded


def _flatten_counters(stats: dict, prefix: str = "") -> dict:
    """Dotted-path view of the numeric counters in a stats tree.

    Derived ratios (``hit_rate``) and non-numeric leaves are excluded so
    the result is safe to subtract snapshot-from-snapshot.
    """
    flat = {}
    for key, value in stats.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten_counters(value, f"{path}."))
        elif isinstance(value, bool) or key == "hit_rate":
            continue
        elif isinstance(value, (int, float)):
            flat[path] = value
    return flat


def _build_library_task(builder, corner):
    """Worker task: characterize one corner (library only, no flow)."""
    library = builder.build(corner)
    return library, getattr(builder, "last_runtime_s", 0.0)


def _evaluate_corner_task(builder, payload):
    """Worker task: (build library if needed) + sign-off + score.

    Module-level so it pickles into pool workers; ``builder`` is the
    backend's context, not part of the payload. Returns the library so
    the parent process can populate its caches.
    """
    library, netlist, implementation, corner, weights = payload
    lib_rt = 0.0
    if library is None:
        library = builder.build(corner)
        lib_rt = getattr(builder, "last_runtime_s", 0.0)
    t0 = time.perf_counter()
    result = evaluate_system(netlist, library,
                             implementation=implementation)
    flow_rt = (time.perf_counter() - t0
               + sum(implementation.stage_runtimes_s.values()))
    record = EvaluationRecord(corner=corner, result=result,
                              reward=weights.score(result),
                              library_runtime_s=lib_rt,
                              flow_runtime_s=flow_rt)
    return library, record


class EvaluationEngine:
    """Parallel, cached corner-evaluation service around one builder."""

    def __init__(self, builder, config: EngineConfig | None = None):
        self.builder = builder
        self.config = config if config is not None else EngineConfig()
        self.backend = get_backend(self.config.backend)
        cap = self.config.cache_capacity
        root = self.config.cache_dir
        max_bytes = self.config.cache_max_bytes
        # One reentrant lock makes every counter mutation — the engine's
        # own tallies and both caches' CacheStats — atomic against
        # snapshot()/delta() readers, so a bracketed window taken by a
        # concurrent serve worker can never tear mid-update.
        self._counter_lock = threading.RLock()
        self.library_cache = EvaluationCache(
            cap, None if root is None else f"{root}/libraries",
            max_bytes=max_bytes, name="library",
            lock=self._counter_lock)
        self.result_cache = EvaluationCache(
            cap, None if root is None else f"{root}/results",
            max_bytes=max_bytes, name="result",
            lock=self._counter_lock)
        self.characterizations = 0      # corners actually characterized
        self.flow_evaluations = 0       # system flows actually run
        self._timing_s = {}             # stage -> seconds, see _tally
        registry = get_registry()
        self._m_characterizations = registry.counter(
            "repro_engine_characterizations_total",
            "Corners actually characterized (cache misses)")
        self._m_flow_evaluations = registry.counter(
            "repro_engine_flow_evaluations_total",
            "System flows actually run (result-cache misses)")
        self._m_evaluations = registry.counter(
            "repro_engine_evaluations_total",
            "Corner evaluations requested, by cache outcome",
            labels=("outcome",))
        # Hot-path children bound once; label resolution per call is
        # measurable against a warm all-hit sweep.
        self._m_eval_hit = self._m_evaluations.labels(outcome="hit")
        self._m_eval_miss = self._m_evaluations.labels(outcome="miss")
        self._m_eval_dup = self._m_evaluations.labels(
            outcome="duplicate")
        self._builder_fp = None
        # One (netlist fingerprint, Implementation) slot: a sweep
        # implements its design once and signs off per corner, and a
        # new design replaces the old one, so memory holds one design.
        self._impl_slot = None
        self._impl_lock = threading.Lock()
        self._record_listeners = []

    # -- record stream -------------------------------------------------------
    def add_record_listener(self, listener) -> None:
        """Subscribe ``listener(netlist, records)`` to every evaluation.

        Called once per :meth:`evaluate_many` with the full, input-order
        record list — cache hits included, so a listener building a
        training corpus (see
        :class:`repro.surrogate.records.RecordHarvester`) sees warm
        traffic too and can dedupe by content instead of missing it.
        Listener exceptions propagate: a corrupted harvest must fail
        loudly, not silently drop rows.
        """
        if listener not in self._record_listeners:
            self._record_listeners.append(listener)

    def remove_record_listener(self, listener) -> None:
        """Unsubscribe; unknown listeners are ignored (idempotent)."""
        try:
            self._record_listeners.remove(listener)
        except ValueError:
            pass

    # -- keys --------------------------------------------------------------
    def builder_fingerprint(self) -> str:
        if self._builder_fp is None:
            fp = getattr(self.builder, "fingerprint", None)
            if callable(fp):
                self._builder_fp = fp()
            else:
                # No content fingerprint: fall back to a random identity
                # token unique to this builder *instance* (id() alone
                # would be reusable across processes and could alias a
                # persistent disk cache onto a differently configured
                # builder). Consequence: fingerprint-less builders never
                # share cache entries — in-process, across processes, or
                # across runs — so they get correctness, not reuse.
                self._builder_fp = stable_hash(
                    [type(self.builder).__qualname__,
                     os.urandom(16).hex()])
        return self._builder_fp

    def library_key(self, corner) -> EvalKey:
        return EvalKey("lib", builder=self.builder_fingerprint(),
                       corner=corner.key())

    def evaluation_key(self, netlist, corner, weights) -> EvalKey:
        return EvalKey("eval", builder=self.builder_fingerprint(),
                       corner=corner.key(),
                       design=netlist_fingerprint(netlist),
                       weights=weights.key())

    def implementation(self, netlist):
        """``netlist``'s :class:`~repro.eda.flow.Implementation`, built on
        first use and reused while the same design keeps arriving.

        A fresh build carries its stage seconds; a reuse is a zero-second
        :meth:`~repro.eda.flow.Implementation.reused` view.
        """
        fp = netlist_fingerprint(netlist)
        with self._impl_lock:
            slot = self._impl_slot
            if slot is not None and slot[0] == fp:
                return slot[1].reused()
            self._impl_slot = None     # drop the old design first
        with span("engine.implement", design=netlist.name):
            impl = implement(netlist)
        with self._impl_lock:
            self._impl_slot = (fp, impl)
        return impl

    # -- library characterization -----------------------------------------
    def library(self, corner):
        """One corner's characterized library (cached)."""
        return self.libraries([corner])[0]

    def libraries(self, corners) -> list:
        """Libraries for every corner, characterizing only cache misses."""
        return self._libraries_with_times(list(corners))[0]

    def _libraries_with_times(self, corners):
        """Libraries plus per-corner build seconds (0.0 for cache hits).

        Duplicate corners within one call are characterized once.
        """
        libs = [None] * len(corners)
        times = [0.0] * len(corners)
        missing, first_at, dup_of = [], {}, {}
        for i, corner in enumerate(corners):
            lib = self.library_cache.get(self.library_key(corner))
            if lib is not None:
                libs[i] = lib
                continue
            key = corner.key()
            if key in first_at:
                dup_of[i] = first_at[key]
            else:
                first_at[key] = i
                missing.append(i)
        if missing:
            t0 = time.perf_counter()
            with span("engine.characterize", corners=len(missing)):
                built, built_times = self._characterize(
                    [corners[i] for i in missing])
            self._tally("characterization", t0)
            for i, lib, secs in zip(missing, built, built_times):
                libs[i] = lib
                times[i] = secs
                self.library_cache.put(self.library_key(corners[i]), lib)
        for i, j in dup_of.items():
            libs[i] = libs[j]
        return libs, times

    def _characterize(self, corners):
        with self._counter_lock:
            self.characterizations += len(corners)
        self._m_characterizations.inc(len(corners))
        if isinstance(self.backend, ProcessPoolBackend) and len(corners) > 1:
            results = self.backend.map(
                _build_library_task, corners, context=self.builder,
                context_key=self.builder_fingerprint())
            return [lib for lib, _ in results], [t for _, t in results]
        libs, times = [], []
        for corner in corners:
            libs.append(self.builder.build(corner))
            times.append(getattr(self.builder, "last_runtime_s", 0.0))
        return libs, times

    # -- full evaluations ---------------------------------------------------
    def evaluate(self, netlist, corner,
                 weights: PPAWeights | None = None) -> EvaluationRecord:
        """Evaluate one corner on one design (cache-through)."""
        return self.evaluate_many(netlist, [corner], weights)[0]

    def evaluate_many(self, netlist, corners,
                      weights: PPAWeights | None = None) -> list:
        """Evaluate corners in input order, reusing every cache tier."""
        weights = weights if weights is not None else PPAWeights()
        corners = list(corners)
        total0 = time.perf_counter()
        out = [None] * len(corners)
        missing, first_at, dup_of = [], {}, {}
        with span("engine.evaluate_many", corners=len(corners)) as sp:
            for i, corner in enumerate(corners):
                key = self.evaluation_key(netlist, corner, weights)
                record = (self.result_cache.get(key)
                          if self.config.cache_results else None)
                if record is not None:
                    out[i] = replace(record, cached=True)
                    continue
                # Duplicate corners in one call are evaluated once.
                if key.digest in first_at:
                    dup_of[i] = first_at[key.digest]
                else:
                    first_at[key.digest] = i
                    missing.append(i)
            if missing:
                self._evaluate_missing(netlist, corners, weights,
                                       missing, out)
            for i, j in dup_of.items():
                out[i] = out[j]
            sp.annotate(misses=len(missing))
        hits = len(corners) - len(missing) - len(dup_of)
        if hits:
            self._m_eval_hit.inc(hits)
        if missing:
            self._m_eval_miss.inc(len(missing))
        if dup_of:
            self._m_eval_dup.inc(len(dup_of))
        self._tally("evaluate_many", total0)
        for listener in list(self._record_listeners):
            listener(netlist, out)
        return out

    def _evaluate_missing(self, netlist, corners, weights, missing, out):
        miss_corners = [corners[i] for i in missing]
        # Implemented here, before any fan-out: workers only read it, and
        # the first corner's evaluation reports the stage seconds.
        impl = self.implementation(netlist)
        impls = [impl] + [impl.reused()] * (len(missing) - 1)
        if not isinstance(self.backend, ProcessPoolBackend):
            # Serial: characterize first, then flow each — the call
            # structure of the historical loop.
            libs, lib_times = self._libraries_with_times(miss_corners)
            payloads = [(lib, netlist, im, corner, weights)
                        for lib, im, corner in zip(libs, impls,
                                                   miss_corners)]
            results = self._execute("system_flow", payloads)
            records = []
            for (lib, record), secs in zip(results, lib_times):
                record.library_runtime_s = secs
                records.append(record)
        else:
            # Fan the full (characterize + flow) evaluations out across
            # processes; corners whose library is already cached ship the
            # library so workers skip characterization. No payload
            # carries the builder: it is the backend's context, which
            # reaches each worker once per pool (inherited under fork,
            # unpickled once per worker under spawn), and a pool started
            # for another builder fingerprint is restarted first.
            payloads = []
            for corner, im in zip(miss_corners, impls):
                lib = self.library_cache.get(self.library_key(corner))
                if lib is None:
                    with self._counter_lock:
                        self.characterizations += 1
                    self._m_characterizations.inc()
                payloads.append((lib, netlist, im, corner, weights))
            results = self._execute("parallel_evaluate", payloads)
            records = []
            for (lib, record), payload, corner in zip(results, payloads,
                                                      miss_corners):
                if payload[0] is None:   # freshly characterized only —
                    # re-putting cache hits would re-pickle every library
                    # to disk on each warm sweep.
                    self.library_cache.put(self.library_key(corner), lib)
                records.append(record)
        # One lock block for the tally and the puts it implies, so a
        # concurrent snapshot never sees flows without their cache puts
        # (the lock is reentrant; the caches share it).
        with self._counter_lock:
            self.flow_evaluations += len(records)
            for i, record in zip(missing, records):
                if self.config.cache_results:
                    key = self.evaluation_key(netlist, corners[i],
                                              weights)
                    self.result_cache.put(key, record)
                out[i] = record
        self._m_flow_evaluations.inc(len(records))

    def _execute(self, stage, payloads) -> list:
        """Map the corner task over the backend as one measured stage."""
        t0 = time.perf_counter()
        with span("engine.executor", stage=stage,
                  backend=self.backend.name, tasks=len(payloads)):
            results = self.backend.map(
                _evaluate_corner_task, payloads, context=self.builder,
                context_key=self.builder_fingerprint())
        self._tally(stage, t0)
        return results

    def _tally(self, stage, t0) -> None:
        """Add the seconds since ``t0`` to ``stage``'s running total."""
        seconds = time.perf_counter() - t0
        with self._counter_lock:
            self._timing_s[stage] = self._timing_s.get(stage, 0.0) + seconds

    # -- reporting / lifecycle ----------------------------------------------
    def stats(self) -> dict:
        with self._counter_lock:
            return {
                "backend": repr(self.backend),
                "characterizations": self.characterizations,
                "flow_evaluations": self.flow_evaluations,
                "library_cache": self.library_cache.stats(),
                "result_cache": self.result_cache.stats(),
                "timing_s": dict(self._timing_s),
            }

    def snapshot(self) -> dict:
        """Flat, monotonic counter snapshot of :meth:`stats`.

        Keys are dotted paths (``result_cache.memory.hits``, …) mapping
        to numbers only — derived rates and descriptive strings are
        dropped — so two snapshots subtract cleanly. Callers sharing a
        long-lived engine (several search runs, many serve jobs) bracket
        a window of work with :meth:`snapshot` / :meth:`delta` instead
        of resetting the engine's lifetime counters.

        The read happens under the engine's counter lock — the same
        lock every cache movement and tally increment takes — so the
        snapshot is *consistent*: it can never catch, say, a result-
        cache put without the flow-evaluation increment that produced
        it, even while serve workers are mid-evaluation.
        """
        with self._counter_lock:
            return _flatten_counters(self.stats())

    def delta(self, before: dict) -> dict:
        """Counter movement since ``before`` (a :meth:`snapshot`)."""
        now = self.snapshot()
        return {key: value - before.get(key, 0)
                for key, value in now.items()}

    def reset_counters(self) -> None:
        with self._counter_lock:
            self.characterizations = 0
            self.flow_evaluations = 0
            self._timing_s = {}

    def shutdown(self) -> None:
        self.backend.shutdown()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()
