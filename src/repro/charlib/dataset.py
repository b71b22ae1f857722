"""Characterization dataset: SPICE measurements -> per-metric graph data.

Runs the characterizer over (cells x corners), one SPICE cohort per cell,
encodes every measurement as a Table III graph, and maintains per-metric
log-domain normalisation so the GNN regresses O(1) targets while MAPE is
evaluated in the physical domain. Results are cached on disk (the
paper's 696k-point datasets are expensive to regenerate).
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..cells import cell_names, get_cell
from ..encoding.cell_encoding import CellGraphEncoder
from .characterizer import CellCharacterizer, CharConfig, Measurement
from .corners import Corner
from .technology import TechnologyPair, technology_pair

__all__ = ["METRICS", "MetricNormalizer", "CharDataset",
           "build_char_dataset", "DEFAULT_CI_CELLS"]

METRICS = ("delay", "output_slew", "capacitance", "flip_power",
           "non_flip_power", "leakage_power", "min_pulse_width",
           "min_setup", "min_hold")

#: Representative CI-scale subset (10 combinational + 2 sequential).
DEFAULT_CI_CELLS = ("INV_X1", "INV_X2", "BUF_X1", "NAND2_X1", "NOR2_X1",
                    "AND2_X1", "OR2_X1", "XOR2_X1", "AOI21_X1", "MUX2_X1",
                    "DFF_X1", "DLATCH_X1")

_VALUE_FLOOR = 1e-18


@dataclass
class MetricNormalizer:
    """Log-domain z-score normalisation for one metric."""

    mean: float = 0.0
    std: float = 1.0

    @staticmethod
    def fit(values) -> "MetricNormalizer":
        logs = np.log10(np.asarray(values, dtype=np.float64) + _VALUE_FLOOR)
        std = float(logs.std())
        return MetricNormalizer(mean=float(logs.mean()),
                                std=std if std > 1e-9 else 1.0)

    def normalize(self, value):
        return (np.log10(np.asarray(value) + _VALUE_FLOOR)
                - self.mean) / self.std

    def denormalize(self, y):
        return 10.0 ** (np.asarray(y) * self.std + self.mean) - _VALUE_FLOOR


@dataclass
class CharDataset:
    """Graphs per metric per split, plus normalisers and raw rows."""

    technology: str
    graphs: dict = field(default_factory=dict)       # metric -> split -> [Graph]
    normalizers: dict = field(default_factory=dict)  # metric -> MetricNormalizer
    rows: dict = field(default_factory=dict)         # split -> [Measurement]

    def metrics_present(self):
        return [m for m in METRICS
                if self.graphs.get(m, {}).get("train")]

    def counts(self) -> dict:
        return {m: {s: len(g) for s, g in by_split.items()}
                for m, by_split in self.graphs.items()}


def _measure(cells, tech: TechnologyPair, splits: dict,
             config: CharConfig) -> dict:
    """Rows per split, in (corner, cell) order within each split. Each
    cell is one SPICE cohort over every split's corners, so the whole
    cell integrates as one lockstep batch per round."""
    corners = [corner for split in splits.values() for corner in split]
    cohorts = {name: CellCharacterizer.cohort(get_cell(name), tech, corners,
                                              config)
               for name in cells}
    rows, at = {}, 0
    for split, split_corners in splits.items():
        rows[split] = [m for i in range(at, at + len(split_corners))
                       for name in cells
                       for m in cohorts[name][i].characterize()]
        at += len(split_corners)
    return rows


def _cache_key(technology, cells, train_corners, test_corners, config):
    payload = json.dumps({
        "tech": technology,
        "cells": list(cells),
        "train": [c.key() for c in train_corners],
        "test": [c.key() for c in test_corners],
        "config": [config.slews, config.loads, config.cap_slew,
                   config.seq_slew, config.seq_load, config.n_bisect,
                   config.max_steps],
        "version": 3,
    }, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def build_char_dataset(technology: str = "ltps",
                       cells=DEFAULT_CI_CELLS,
                       train_corners=None, test_corners=None,
                       config: CharConfig | None = None,
                       cache_dir: str | Path | None = ".cache/charlib",
                       ) -> CharDataset:
    """Characterize and encode the dataset for one technology.

    Parameters
    ----------
    technology:
        ``"ltps"`` or ``"cnt"`` (the Table IV columns).
    cells:
        Cell-name subset (default: CI subset; pass
        :func:`repro.cells.cell_names` results for all 35).
    train_corners, test_corners:
        Corner lists; default CI grids (2^3 train / 3^3 test).
    cache_dir:
        Directory for the measurement cache (None disables caching).
    """
    from .corners import ci_test_corners, ci_train_corners

    config = config if config is not None else CharConfig()
    train_corners = (train_corners if train_corners is not None
                     else ci_train_corners())
    test_corners = (test_corners if test_corners is not None
                    else ci_test_corners())
    tech = technology_pair(technology)

    cached = None
    cache_path = None
    if cache_dir is not None:
        key = _cache_key(technology, cells, train_corners, test_corners,
                         config)
        cache_path = Path(cache_dir) / f"char_{technology}_{key}.pkl"
        if cache_path.exists():
            with open(cache_path, "rb") as fh:
                cached = pickle.load(fh)
    if cached is not None:
        rows_by_split = cached
    else:
        rows_by_split = _measure(cells, tech, {"train": train_corners,
                                               "test": test_corners}, config)
        if cache_path is not None:
            cache_path.parent.mkdir(parents=True, exist_ok=True)
            with open(cache_path, "wb") as fh:
                pickle.dump(rows_by_split, fh)

    dataset = CharDataset(technology=technology, rows=rows_by_split)
    encoder = CellGraphEncoder()
    # Normalisers are fitted on the training split only.
    for metric in METRICS:
        train_vals = [r.value for r in rows_by_split["train"]
                      if r.metric == metric]
        if not train_vals:
            continue
        norm = MetricNormalizer.fit(train_vals)
        dataset.normalizers[metric] = norm
        dataset.graphs[metric] = {}
        for split, rows in rows_by_split.items():
            graphs = []
            for r in rows:
                if r.metric != metric:
                    continue
                cell = get_cell(r.cell)
                corner_tech = tech.at_corner(
                    vdd=tech.vdd * r.corner.vdd_scale,
                    vth_shift=r.corner.vth_shift,
                    cox_scale=r.corner.cox_scale)
                g = encoder.encode(
                    cell, corner_tech.nmos, corner_tech.pmos,
                    vdd=corner_tech.vdd, slew=r.slew, load=r.load,
                    slew_pin=r.pin, states=r.states,
                    y=np.array([float(norm.normalize(r.value))]))
                g.meta["value"] = r.value
                g.meta["metric"] = metric
                graphs.append(g)
            dataset.graphs[metric][split] = graphs
    return dataset
