"""PredictService: microsecond PPA inference from the served ensemble.

One service instance loads the workspace's registered
:class:`~repro.surrogate.models.EnsemblePPAModel` **once** (the newest
registered surrogate artifact; when none exists yet it trains one from
the record store through the workspace's ``allow_stale`` read path, so
no later request ever blocks on a retrain) and answers:

* point queries — ``predict(design, corner)``: (power, delay, area)
  plus the per-objective epistemic spread of the ensemble members;
* batch queries — ``predict_batch(design, corners)``: **one** stacked
  ensemble forward for all uncached corners
  (:meth:`~repro.surrogate.models.EnsemblePPAModel.predict` —
  batched ``(K, n, d)`` matmuls), never K×N MLP calls.

Identical queries never re-run inference: answers live in an
in-memory LRU keyed by (model fingerprint, design, corner key), so a
refresher swap (:meth:`swap_model`) implicitly invalidates every
stale entry. The ensemble's only forward is the pure-numpy stacked
path — it never touches the :mod:`repro.nn` autograd state, so it
needs no engine execution lock.

Every answered request is also scored against the **training
envelope** the served model was fit inside (the per-feature
ranges/density :meth:`~repro.surrogate.records.RecordStore.save_feature_stats`
persisted at train time): the drift score is the worst per-feature
range violation in robust units (``max(std, 10% of span)``), so 0
means in-distribution and >1 means the request left the training
range by more than one unit. Scores ride on each response
(``drift``), feed the ``repro_predict_drift`` EMA gauge and the
``repro_predict_ood_total`` counter, and the default ``predict-drift``
SLO rule turns a sustained out-of-distribution stream into degraded
health — a stale model now degrades *health* before it degrades
answers.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

import numpy as np

from ..obs.metrics import get_registry
from ..surrogate.records import TARGET_NAMES

__all__ = ["PredictError", "PredictService"]

#: Latency buckets tuned for a microsecond hot path (DEFAULT_BUCKETS
#: start far too coarse for model inference).
_LATENCY_BUCKETS = (1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4,
                    1e-3, 5e-3, 1e-2, 0.1, 1.0)


class PredictError(Exception):
    """A predict request cannot be served.

    ``status`` carries the HTTP mapping: 400 for malformed requests,
    409 when the workspace has no servable model yet (too few
    harvested rows) — retry after harvesting.
    """

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.message = message
        self.status = status

    def http_reply(self) -> tuple:
        return self.status, {"error": self.message}, None


def _corner_of(value):
    from ..charlib.corners import Corner
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise PredictError(
            "corner must be a [vdd_scale, vth_shift, cox_scale] triple")
    try:
        return Corner(float(value[0]), float(value[1]), float(value[2]))
    except (TypeError, ValueError):
        raise PredictError(
            "corner entries must be numbers") from None


class PredictService:
    """The tier-0 inference edge over one workspace's ensemble."""

    def __init__(self, workspace, ensemble_config=None,
                 min_rows: int = 8, cache_size: int = 256):
        self.workspace = workspace
        self.ensemble_config = ensemble_config
        self.min_rows = int(min_rows)
        self.cache_size = int(cache_size)
        self._lock = threading.Lock()
        self._model = None
        self._model_fp = ""
        self._loaded_s = 0.0
        self._cache: OrderedDict = OrderedDict()
        registry = get_registry()
        self._m_requests = registry.counter(
            "repro_predict_requests_total",
            "Predict requests by endpoint", labels=("endpoint",))
        self._m_cache = registry.counter(
            "repro_predict_cache_total",
            "Prediction LRU events", labels=("event",))
        self._m_latency = registry.histogram(
            "repro_predict_seconds",
            "Predict inference wall-clock by endpoint",
            labels=("endpoint",), buckets=_LATENCY_BUCKETS)
        self._g_rows = registry.gauge(
            "repro_predict_model_trained_rows",
            "Rows the served ensemble was trained on")
        self._g_loaded = registry.gauge(
            "repro_predict_model_loaded_seconds",
            "Unix time the served ensemble was (re)loaded")
        self._g_drift = registry.gauge(
            "repro_predict_drift",
            "EMA of the feature-drift score of answered predictions "
            "(>1 = outside the training envelope)")
        self._m_ood = registry.counter(
            "repro_predict_ood_total",
            "Predictions answered outside the training envelope")
        self._drift_arrays = None        # (lo, hi, scale) | () = none
        self._drift_ema = None           # EMA state (None = no data)

    # -- model lifecycle ---------------------------------------------------
    def _load_model(self):
        """The newest registered surrogate artifact; trains one when
        the registry has none (first request on a fresh workspace)."""
        from ..surrogate.models import EnsemblePPAModel
        latest, latest_s = None, -1.0
        for entry in self.workspace.registry().values():
            if entry.get("kind") != "surrogate" or "fingerprint" \
                    not in entry:
                continue
            created = float(entry.get("created_s", 0.0))
            if created > latest_s:
                latest, latest_s = entry, created
        if latest is not None:
            path = self.workspace.surrogate_dir / latest["path"]
            if path.exists():
                self.workspace.counters["surrogates_loaded"] += 1
                return EnsemblePPAModel.load(path)
        try:
            return self.workspace.surrogate_model(
                self.ensemble_config, min_rows=self.min_rows,
                allow_stale=True)
        except ValueError as exc:
            raise PredictError(str(exc), status=409) from None

    def model(self):
        """The served ensemble, loading it on first use."""
        with self._lock:
            if self._model is None:
                model = self._load_model()
                self._install(model)
            return self._model

    def _install(self, model) -> None:
        self._model = model
        self._model_fp = model.fingerprint()
        self._loaded_s = time.time()
        self._g_rows.set(float(model.trained_rows))
        self._g_loaded.set(self._loaded_s)

    def swap_model(self, model) -> str:
        """Atomically replace the served ensemble (refresher hook).

        The LRU keys include the model fingerprint, so old entries die
        by never matching again; trim happens on the next insert. The
        drift envelope reloads too — a retrain refreshed it on disk.
        """
        with self._lock:
            self._install(model)
            self._drift_arrays = None
            return self._model_fp

    # -- drift scoring -----------------------------------------------------
    def _drift_envelope(self):
        """``(lo, hi, scale)`` arrays of the persisted training
        envelope, loaded once per served model (``()`` when absent)."""
        arrays = self._drift_arrays
        if arrays is None:
            stats = self.workspace.record_store().load_feature_stats()
            lo = np.asarray(stats.get("min", []), dtype=float)
            hi = np.asarray(stats.get("max", []), dtype=float)
            std = np.asarray(stats.get("std", []), dtype=float)
            if lo.size and lo.shape == hi.shape == std.shape:
                # Robust per-feature unit: std, floored at 10% of the
                # observed span so a constant feature never divides by
                # ~0 and a tight range is not infinitely brittle.
                scale = np.maximum(np.maximum(std, 0.1 * (hi - lo)),
                                   1e-6)
                arrays = (lo, hi, scale)
            else:
                arrays = ()
            self._drift_arrays = arrays
        return arrays

    def _drift_scores(self, X: np.ndarray) -> np.ndarray:
        """Per-row drift score: the worst per-feature violation of the
        training range, in robust units. 0 = inside the envelope."""
        envelope = self._drift_envelope()
        if not envelope or X.shape[1] != envelope[0].size:
            return np.zeros(X.shape[0])
        lo, hi, scale = envelope
        outside = np.maximum(np.maximum(lo - X, X - hi), 0.0)
        return np.max(outside / scale, axis=1)

    def _note_drift(self, scores) -> None:
        """Fold scores into the EMA gauge + out-of-distribution
        counter (cache hits replay their stored score — a repeated
        OOD query is still sustained drift)."""
        ema = self._drift_ema
        for score in scores:
            score = float(score)
            if score > 1.0:
                self._m_ood.inc()
            ema = score if ema is None else 0.7 * ema + 0.3 * score
        if ema is not None:
            self._drift_ema = ema
            self._g_drift.set(round(ema, 6))

    def info(self) -> dict:
        with self._lock:
            if self._model is None:
                return {"loaded": False}
            return {"loaded": True, "fingerprint": self._model_fp,
                    "members": self._model.config.members,
                    "trained_rows": self._model.trained_rows,
                    "loaded_s": self._loaded_s,
                    "cache_entries": len(self._cache)}

    # -- featurization -----------------------------------------------------
    def _featurize(self, design: str, corners) -> np.ndarray:
        from ..eda.benchmarks import build_benchmark
        featurizer = self.workspace.record_store().featurizer
        try:
            netlist = build_benchmark(design)
        except (KeyError, ValueError) as exc:
            raise PredictError(f"unknown design {design!r}: {exc}") from None
        return np.stack([featurizer.features(netlist, c) for c in corners])

    # -- queries -----------------------------------------------------------
    def _key(self, design: str, corner) -> tuple:
        # The LRU lives only in memory, so a plain tuple keys it; the
        # model fingerprint in it makes a model swap miss every entry.
        return (self._model_fp, design, corner.key())

    def _model_block(self) -> dict:
        return {"fingerprint": self._model_fp,
                "members": self._model.config.members,
                "trained_rows": self._model.trained_rows}

    def _entry(self, design: str, corner, mean, std) -> dict:
        log10 = {name: float(m) for name, m in zip(TARGET_NAMES, mean)}
        spread = {name: float(s) for name, s in zip(TARGET_NAMES, std)}
        power = 10.0 ** log10["log_power"]
        delay = 10.0 ** log10["log_delay"]
        area = 10.0 ** log10["log_area"]
        return {
            "design": design,
            "corner": list(corner.key()),
            "prediction": {"power_w": power, "delay_s": delay,
                           "area_um2": area,
                           "performance_hz": 1.0 / max(delay, 1e-300)},
            "log10": log10,
            "uncertainty": dict(spread,
                                mean_std=float(np.mean(list(
                                    spread.values())))),
        }

    def _cache_get(self, key: tuple):
        with self._lock:
            hit = self._cache.get(key)
            if hit is not None:
                self._cache.move_to_end(key)
                self._m_cache.labels(event="hit").inc()
            else:
                self._m_cache.labels(event="miss").inc()
            return hit

    def _cache_put(self, key: tuple, entry: dict) -> None:
        if self.cache_size <= 0:
            return
        with self._lock:
            self._cache[key] = entry
            self._cache.move_to_end(key)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
                self._m_cache.labels(event="eviction").inc()

    def predict(self, design: str, corner) -> dict:
        """One corner → PPA + per-objective epistemic uncertainty."""
        self._m_requests.labels(endpoint="predict").inc()
        with self._m_latency.labels(endpoint="predict").time():
            if not isinstance(design, str) or not design:
                raise PredictError("'design' must be a non-empty string")
            c = _corner_of(corner)
            model = self.model()
            key = self._key(design, c)
            cached = self._cache_get(key)
            if cached is not None:
                if "drift" in cached:
                    self._note_drift([cached["drift"]])
                return dict(cached, model=self._model_block(),
                            cached=True)
            X = self._featurize(design, [c])
            mean, std = model.predict(X)
            entry = self._entry(design, c, mean[0], std[0])
            entry["drift"] = float(self._drift_scores(X)[0])
            self._note_drift([entry["drift"]])
            self._cache_put(key, entry)
            return dict(entry, model=self._model_block(), cached=False)

    def predict_batch(self, design: str, corners) -> dict:
        """Many corners → one stacked ensemble forward.

        Cached corners are answered from the LRU; every *uncached*
        corner rides a single ``(K, n, d)`` batched forward pass.
        """
        self._m_requests.labels(endpoint="batch").inc()
        with self._m_latency.labels(endpoint="batch").time():
            if not isinstance(design, str) or not design:
                raise PredictError("'design' must be a non-empty string")
            if not isinstance(corners, (list, tuple)) or not corners:
                raise PredictError(
                    "'corners' must be a non-empty list of corner "
                    "triples")
            cs = [_corner_of(c) for c in corners]
            model = self.model()
            keys = [self._key(design, c) for c in cs]
            entries: list = [None] * len(cs)
            fresh = []
            replayed = []
            for i, key in enumerate(keys):
                hit = self._cache_get(key)
                if hit is not None:
                    entries[i] = dict(hit, cached=True)
                    if "drift" in hit:
                        replayed.append(hit["drift"])
                else:
                    fresh.append(i)
            if replayed:
                self._note_drift(replayed)
            if fresh:
                X = self._featurize(design, [cs[i] for i in fresh])
                mean, std = model.predict(X)
                scores = self._drift_scores(X)
                self._note_drift(scores)
                for j, i in enumerate(fresh):
                    entry = self._entry(design, cs[i], mean[j], std[j])
                    entry["drift"] = float(scores[j])
                    self._cache_put(keys[i], entry)
                    entries[i] = dict(entry, cached=False)
            return {"design": design, "count": len(entries),
                    "predictions": entries,
                    "model": self._model_block()}
