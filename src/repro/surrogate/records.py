"""Record harvesting: every engine evaluation becomes training data.

The paper's thesis is that learned predictors replace expensive
evaluation — but a predictor is only as good as its training set, and
until now the only rows the repo ever learned from were single-cell
characterization measurements. This module closes the loop at the
*system* level: a :class:`RecordHarvester` listens to the
:class:`~repro.engine.engine.EvaluationEngine`'s record stream and turns
every :class:`~repro.engine.records.EvaluationRecord` into one
``(feature vector, log10 PPA)`` training row via a pluggable
:class:`Featurizer` over corner knobs + netlist statistics.

Rows persist **content-keyed** in a :class:`RecordStore` (one JSONL
file per featurizer under the workspace's ``surrogate/records``
directory), so training data accumulates across runs, scalarisations
and tenants: a corner evaluated once is a row forever, and a warm
re-run re-featurizes nothing — membership is decided from the row key
(featurizer × design × corner) *before* any feature work happens.

Targets are the raw minimisation objectives in log10 space
(``log10(power_w), log10(delay_s), log10(area_um2)``), independent of
any :class:`~repro.engine.records.PPAWeights` scalarisation — one store
serves every objective weighting.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

import numpy as np

from ..engine.hashing import netlist_fingerprint, stable_hash

__all__ = ["TARGET_NAMES", "Featurizer", "RecordStore", "RecordHarvester",
           "targets_of"]

#: Training-target order used throughout the subsystem.
TARGET_NAMES = ("log_power", "log_delay", "log_area")


def targets_of(result) -> tuple:
    """log10 minimisation vector of a ``SystemResult``-shaped object."""
    return (float(np.log10(max(result.total_power_w, 1e-300))),
            float(np.log10(max(result.min_period_s, 1e-300))),
            float(np.log10(max(result.area_um2, 1e-300))))


class Featurizer:
    """Corner knobs + netlist statistics → one flat feature vector.

    The default features are the corner's normalised knob descriptor
    (``Corner.feature_vector()``) followed by log-scaled design
    statistics (gates, flops, inputs, outputs) — enough for one model to
    generalise across designs of different sizes. Pass ``extra`` (a
    callable ``(netlist, corner) -> sequence of floats``) to append
    domain features without subclassing; its ``__name__`` participates
    in the fingerprint so differently-featurized rows never mix.
    """

    #: Bumped when the meaning of the default features changes.
    VERSION = 1

    def __init__(self, include_netlist: bool = True, extra=None):
        self.include_netlist = include_netlist
        self.extra = extra
        self.calls = 0                  # feature computations performed
        self._netlist_cache = {}        # netlist fp -> feature tuple

    def fingerprint(self) -> str:
        return stable_hash({
            "kind": "featurizer", "version": self.VERSION,
            "include_netlist": self.include_netlist,
            "extra": getattr(self.extra, "__name__", None)
                     if self.extra is not None else None})

    def names(self) -> tuple:
        base = ["vdd_scale_n", "vth_shift_n", "cox_scale_n"]
        if self.include_netlist:
            base += ["log_gates", "log_flops", "log_inputs", "log_outputs"]
        return tuple(base)

    def _netlist_features(self, netlist) -> tuple:
        fp = netlist_fingerprint(netlist)
        cached = self._netlist_cache.get(fp)
        if cached is not None:
            return cached
        stats = netlist.stats()
        feats = tuple(float(np.log10(1.0 + stats.get(k, 0)))
                      for k in ("gates", "flops", "inputs", "outputs"))
        self._netlist_cache[fp] = feats
        return feats

    def features(self, netlist, corner):
        """One row's feature vector (this is the cost the store skips
        for already-harvested rows)."""
        self.calls += 1
        row = [float(v) for v in corner.feature_vector()]
        if self.include_netlist and netlist is not None:
            row.extend(self._netlist_features(netlist))
        if self.extra is not None:
            row.extend(float(v) for v in self.extra(netlist, corner))
        return np.asarray(row, dtype=float)


class RecordStore:
    """Append-only, content-keyed store of surrogate training rows.

    One JSONL file per featurizer fingerprint; every line is one row
    ``{"key", "design", "corner", "features", "targets"}``. Appends are
    O(1); the whole file loads once at construction. The row key is a
    stable hash over (featurizer, design fingerprint, corner key), so
    the *same* evaluation harvested twice — warm cache, repeat run,
    another tenant — is recognised before features are recomputed.
    """

    def __init__(self, root: str | Path, featurizer: Featurizer | None = None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.featurizer = featurizer if featurizer is not None \
            else Featurizer()
        self.path = self.root / f"{self.featurizer.fingerprint()}.jsonl"
        self._lock = threading.Lock()
        self._keys: set = set()
        self._rows: list = []           # insertion order
        self.loaded = 0                 # rows read from disk at boot
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                for line in fh:
                    try:
                        row = json.loads(line)
                    except json.JSONDecodeError:
                        continue         # torn tail from a crash
                    if row.get("key") in self._keys:
                        continue
                    self._keys.add(row["key"])
                    self._rows.append(row)
        except OSError:
            return
        self.loaded = len(self._rows)

    def row_key(self, design_fp: str, corner) -> str:
        return stable_hash({"featurizer": self.featurizer.fingerprint(),
                            "design": design_fp,
                            "corner": list(corner.key())})

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: str) -> bool:
        return key in self._keys

    def add(self, key: str, design: str, corner, features, targets) -> bool:
        """Insert one row; False (and no disk write) when already known."""
        with self._lock:
            if key in self._keys:
                return False
            row = {"key": key, "design": design,
                   "corner": list(corner.key()),
                   "features": [float(v) for v in features],
                   "targets": [float(v) for v in targets]}
            self._keys.add(key)
            self._rows.append(row)
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
            return True

    def matrices(self, design: str | None = None):
        """``(X, Y)`` training matrices (optionally one design only)."""
        rows = [r for r in self._rows
                if design is None or r["design"] == design]
        if not rows:
            d = len(self.featurizer.names())
            return np.zeros((0, d)), np.zeros((0, len(TARGET_NAMES)))
        X = np.asarray([r["features"] for r in rows], dtype=float)
        Y = np.asarray([r["targets"] for r in rows], dtype=float)
        return X, Y

    def designs(self) -> dict:
        """Row counts per design fingerprint."""
        out: dict = {}
        for row in self._rows:
            out[row["design"]] = out.get(row["design"], 0) + 1
        return out

    def stats(self) -> dict:
        return {"rows": len(self._rows), "loaded": self.loaded,
                "designs": len(self.designs()),
                "featurizer": self.featurizer.fingerprint(),
                "path": str(self.path)}

    # -- training-distribution stats (drift reference) ---------------------
    @property
    def stats_path(self) -> Path:
        return self.root / f"{self.featurizer.fingerprint()}.stats.json"

    def feature_stats(self) -> dict:
        """Per-feature distribution of the current rows: the training
        envelope a served model was fit inside. ``{}`` when empty."""
        X, _ = self.matrices()
        if X.shape[0] == 0:
            return {}
        return {"rows": int(X.shape[0]),
                "featurizer": self.featurizer.fingerprint(),
                "names": list(self.featurizer.names()),
                "min": [float(v) for v in X.min(axis=0)],
                "max": [float(v) for v in X.max(axis=0)],
                "mean": [float(v) for v in X.mean(axis=0)],
                "std": [float(v) for v in X.std(axis=0)]}

    def save_feature_stats(self) -> dict:
        """Compute and persist :meth:`feature_stats` next to the rows —
        called at train/adopt time so the predict edge can score each
        request's features against the ranges the model actually saw."""
        stats = self.feature_stats()
        if stats:
            tmp = self.stats_path.with_suffix(".json.tmp")
            tmp.write_text(json.dumps(stats, sort_keys=True, indent=1)
                           + "\n", encoding="utf-8")
            tmp.replace(self.stats_path)
        return stats

    def load_feature_stats(self) -> dict:
        """The persisted training envelope (``{}`` when never saved)."""
        try:
            stats = json.loads(
                self.stats_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return {}
        return stats if isinstance(stats, dict) else {}


class RecordHarvester:
    """The engine-side listener feeding a :class:`RecordStore`.

    Attach via :meth:`repro.engine.engine.EvaluationEngine.add_record_listener`;
    every ``evaluate_many`` call then flows its records through
    :meth:`observe`. Cached/duplicate evaluations cost one key lookup,
    never a featurization — the counters prove it:

    * ``harvested`` — rows actually added (featurized this session);
    * ``skipped`` — records whose row already existed (zero feature
      work);
    * ``featurizer.calls`` — total feature computations.
    """

    def __init__(self, store: RecordStore):
        self.store = store
        self.featurizer = store.featurizer
        self.harvested = 0
        self.skipped = 0

    def observe(self, netlist, records) -> None:
        """Harvest one batch of evaluation records (listener hook)."""
        design = ("none" if netlist is None
                  else netlist_fingerprint(netlist))
        for record in records:
            if getattr(record, "predicted", False):
                continue                 # surrogate-filled, not ground truth
            key = self.store.row_key(design, record.corner)
            if key in self.store:
                self.skipped += 1
                continue
            features = self.featurizer.features(netlist, record.corner)
            if self.store.add(key, design, record.corner, features,
                              targets_of(record.result)):
                self.harvested += 1
            else:
                self.skipped += 1        # raced by another harvester

    def stats(self) -> dict:
        return {"harvested": self.harvested, "skipped": self.skipped,
                "featurizations": self.featurizer.calls,
                "store_rows": len(self.store)}
