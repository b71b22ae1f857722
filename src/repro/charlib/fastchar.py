"""Library builders: SPICE-exact (traditional) and GNN-fast (the paper's).

Both produce the same :class:`~repro.charlib.liberty.Library` artifact, so
the EDA flow is agnostic to how the library was characterized — exactly
the property the paper's framework exploits: swap the ~1900 s commercial
characterization for an 8.88 s GNN inference pass.

The GNN builder is factored into three stages:

* :meth:`GNNLibraryBuilder.plan_cell` — encode every graph one cell needs
  at one corner (the timing grid, per-pin capacitance probes, the power
  base point, the sequential constraint point);
* :meth:`GNNLibraryBuilder.cell_predictions` — run the GCN trunk once
  per graph group and every metric head that reads the group;
* :meth:`GNNLibraryBuilder.assemble_cell` — turn predictions into a
  :class:`~repro.charlib.liberty.LibCell`.

Both builders also expose :meth:`fingerprint`, a stable content hash of
everything that influences their output (technology, cell list, config,
and — for the GNN — the exact model weights and dataset normalizers),
which the engine uses for content-addressed caching.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, asdict

import numpy as np

from ..cells import get_cell
from ..encoding.cell_encoding import CellGraphEncoder
from .characterizer import CellCharacterizer, CharConfig
from .corners import Corner
from .dataset import CharDataset, DEFAULT_CI_CELLS
from .liberty import LibCell, Library, TimingTable
from .model import CellCharGCN
from .technology import technology_pair

__all__ = ["SpiceLibraryBuilder", "GNNLibraryBuilder", "CellPlan"]

#: Per-cell prediction slots: (slot name, metric, graph group attribute).
_COMB_SLOTS = (("delay", "delay", "grid_graphs"),
               ("output_slew", "output_slew", "grid_graphs"),
               ("capacitance", "capacitance", "cap_graphs"),
               ("leakage_power", "leakage_power", "base_graphs"),
               ("flip_power", "flip_power", "base_graphs"))
_SEQ_SLOTS = (("min_setup", "min_setup", "seq_graphs"),
              ("min_hold", "min_hold", "seq_graphs"),
              ("min_pulse_width", "min_pulse_width", "seq_graphs"))


def _tables_from_rows(rows, metric: str, slews, loads):
    """Worst-arc (max) table over the grid from measurement rows."""
    table = np.zeros((len(slews), len(loads)))
    found = np.zeros_like(table, dtype=bool)
    for r in rows:
        if r.metric != metric or r.slew == 0.0:
            continue
        try:
            i = list(slews).index(r.slew)
            j = list(loads).index(r.load)
        except ValueError:
            continue
        table[i, j] = max(table[i, j], r.value)
        found[i, j] = True
    if not found.any():
        return None
    # Fill unmeasured grid points with the table maximum (conservative).
    table[~found] = table[found].max()
    return TimingTable(np.asarray(slews), np.asarray(loads), table)


class SpiceLibraryBuilder:
    """Traditional path: full transistor-level characterization."""

    def __init__(self, technology: str = "ltps",
                 cells=DEFAULT_CI_CELLS,
                 config: CharConfig | None = None):
        self.technology = technology
        self.cells = list(cells)
        self.config = config if config is not None else CharConfig()
        self.last_runtime_s = 0.0

    def fingerprint(self) -> str:
        """Content hash of everything that determines ``build`` output."""
        from ..engine.hashing import stable_hash
        return stable_hash({"kind": "spice", "technology": self.technology,
                            "cells": self.cells,
                            "config": asdict(self.config)})

    def build(self, corner: Corner | None = None) -> Library:
        corner = corner if corner is not None else Corner(1.0, 0.0, 1.0)
        tech = technology_pair(self.technology)
        cornered = tech.at_corner(vdd=tech.vdd * corner.vdd_scale,
                                  vth_shift=corner.vth_shift,
                                  cox_scale=corner.cox_scale)
        start = time.perf_counter()
        lib = Library(technology=self.technology, vdd=cornered.vdd,
                      meta={"source": "spice", "corner": corner.key()})
        cfg = self.config
        for name in self.cells:
            cell = get_cell(name)
            rows = CellCharacterizer(cell, tech, corner, cfg).characterize()
            delay_t = _tables_from_rows(rows, "delay", cfg.slews, cfg.loads)
            slew_t = _tables_from_rows(rows, "output_slew", cfg.slews,
                                       cfg.loads)
            if cell.is_sequential:
                # Sequential rows use the seq grid; collapse to scalars.
                def vals(metric):
                    return [r.value for r in rows if r.metric == metric]
                clk_q = max(vals("delay"), default=0.0)
                q_slew = max(vals("output_slew"), default=0.0)
                delay_t = TimingTable([cfg.seq_slew], [cfg.seq_load],
                                      [[clk_q]])
                slew_t = TimingTable([cfg.seq_slew], [cfg.seq_load],
                                     [[q_slew]])
            caps = {r.pin: r.value for r in rows
                    if r.metric == "capacitance" and r.pin}
            if not caps:
                # Estimate from gate area when no cap row exists (seq cells).
                caps = {p: cornered.nmos.cox * cornered.nmos.w
                        * cornered.nmos.l * 3.0 for p in cell.inputs}
            leak = [r.value for r in rows if r.metric == "leakage_power"]
            flip = [r.value for r in rows if r.metric == "flip_power"]
            lib.cells[name] = LibCell(
                name=name, area=cell.area,
                input_caps=caps,
                delay=delay_t,
                output_slew=slew_t,
                leakage=float(np.mean(leak)) if leak else 0.0,
                switch_energy=float(np.mean(flip)) if flip else 0.0,
                is_sequential=cell.is_sequential,
                setup=max((r.value for r in rows
                           if r.metric == "min_setup"), default=0.0),
                hold=max((r.value for r in rows
                          if r.metric == "min_hold"), default=0.0),
                clk_q=max((r.value for r in rows
                           if r.metric == "delay"), default=0.0),
                min_pulse_width=max((r.value for r in rows
                                     if r.metric == "min_pulse_width"),
                                    default=0.0))
        self.last_runtime_s = time.perf_counter() - start
        return lib


@dataclass
class CellPlan:
    """Every graph one cell needs at one corner, grouped by purpose."""

    cell: object                  # repro.cells.Cell
    shape: tuple                  # (n_slews, n_loads) of the timing grid
    grid_graphs: list             # delay / output-slew grid
    cap_graphs: list              # one probe per input pin
    base_graphs: list             # single nominal point (leakage / flip)
    seq_graphs: list              # single seq point ([] for comb cells)

    def slots(self, metrics):
        """Yield ``(slot, metric, group)`` for metrics the model has,
        ``group`` naming the graph list attribute the slot reads."""
        for slot, metric, group in _COMB_SLOTS:
            if metric in metrics:
                yield slot, metric, group
        if self.cell.is_sequential:
            for slot, metric, group in _SEQ_SLOTS:
                if metric in metrics:
                    yield slot, metric, group


class GNNLibraryBuilder:
    """Fast path: library predicted by the trained characterization GNN."""

    def __init__(self, model: CellCharGCN, dataset: CharDataset,
                 cells=DEFAULT_CI_CELLS,
                 config: CharConfig | None = None):
        self.model = model
        self.dataset = dataset
        self.technology = dataset.technology
        self.cells = list(cells)
        self.config = config if config is not None else CharConfig()
        self.encoder = CellGraphEncoder()
        self.last_runtime_s = 0.0
        self._fingerprint = None

    def fingerprint(self) -> str:
        """Content hash: technology, cells, config, weights, normalizers.

        Computed once and cached — the engine assumes model weights do
        not change underneath a builder once evaluations started.
        """
        if self._fingerprint is None:
            from ..engine.hashing import model_fingerprint, stable_hash
            self._fingerprint = stable_hash({
                "kind": "gnn", "technology": self.technology,
                "cells": self.cells, "config": asdict(self.config),
                "model": model_fingerprint(self.model),
                "normalizers": {m: (n.mean, n.std) for m, n in
                                self.dataset.normalizers.items()},
            })
        return self._fingerprint

    def corner_technology(self, corner: Corner):
        tech = technology_pair(self.technology)
        return tech.at_corner(vdd=tech.vdd * corner.vdd_scale,
                              vth_shift=corner.vth_shift,
                              cox_scale=corner.cox_scale)

    def metrics_present(self) -> set:
        return set(self.dataset.metrics_present())

    # -- plan / predict / assemble stages ---------------------------------
    def plan_cell(self, name: str, cornered) -> CellPlan:
        """Encode all graphs cell ``name`` needs at one cornered tech."""
        cell = get_cell(name)
        cfg = self.config
        pin0 = cell.inputs[0]
        states = {p: (False, False) for p in cell.inputs}
        states[pin0] = (False, True)

        def graph(slew, load, metric_pin=pin0, st=None):
            return self.encoder.encode(
                cell, cornered.nmos, cornered.pmos, vdd=cornered.vdd,
                slew=slew, load=load, slew_pin=metric_pin,
                states=st if st is not None else states)

        grid_graphs = [graph(s, ld) for s in cfg.slews for ld in cfg.loads]
        cap_graphs = []
        for p in cell.inputs:
            st = {q: (False, False) for q in cell.inputs}
            st[p] = (False, True)
            cap_graphs.append(graph(cfg.cap_slew, min(cfg.loads),
                                    metric_pin=p, st=st))
        base_graphs = [graph(cfg.slews[0], cfg.loads[0])]
        seq_graphs = ([graph(cfg.seq_slew, cfg.seq_load)]
                      if cell.is_sequential else [])
        return CellPlan(cell=cell, shape=(len(cfg.slews), len(cfg.loads)),
                        grid_graphs=grid_graphs, cap_graphs=cap_graphs,
                        base_graphs=base_graphs, seq_graphs=seq_graphs)

    def cell_predictions(self, plan: CellPlan, metrics) -> dict:
        """``slot -> physical values`` for one plan.

        The trunk runs once per graph group (the delay/slew grid, the
        power base point, the sequential point) and every metric head
        reads it. Each group is still its own batch, so the values are
        the bits of one :meth:`CellCharGCN.predict` per metric.
        """
        trunks, preds = {}, {}
        for slot, metric, group in plan.slots(metrics):
            if group not in trunks:
                trunks[group] = self.model.embed_graphs(getattr(plan, group))
            norm = self.dataset.normalizers[metric]
            preds[slot] = norm.denormalize(
                self.model.head(trunks[group], metric))
        return preds

    def assemble_cell(self, plan: CellPlan, preds: dict,
                      cornered) -> LibCell:
        """Build the :class:`LibCell` from one plan's predictions."""
        cell, cfg = plan.cell, self.config
        shape = plan.shape
        delay_vals = (preds["delay"].reshape(shape)
                      if "delay" in preds else np.zeros(shape))
        slew_vals = (preds["output_slew"].reshape(shape)
                     if "output_slew" in preds else np.zeros(shape))
        if "capacitance" in preds:
            caps = {p: float(c)
                    for p, c in zip(cell.inputs, preds["capacitance"])}
        else:
            caps = {p: cornered.nmos.cox * cornered.nmos.w
                    * cornered.nmos.l * 3.0 for p in cell.inputs}
        leak = (float(preds["leakage_power"][0])
                if "leakage_power" in preds else 0.0)
        flip = (float(preds["flip_power"][0])
                if "flip_power" in preds else 0.0)
        kw = {}
        if cell.is_sequential:
            def seq(slot):
                return float(preds[slot][0]) if slot in preds else 0.0
            kw = {"setup": seq("min_setup"), "hold": seq("min_hold"),
                  "clk_q": float(delay_vals.max()),
                  "min_pulse_width": seq("min_pulse_width")}
        return LibCell(
            name=cell.name, area=cell.area, input_caps=caps,
            delay=TimingTable(cfg.slews, cfg.loads, delay_vals),
            output_slew=TimingTable(cfg.slews, cfg.loads, slew_vals),
            leakage=leak, switch_energy=flip,
            is_sequential=cell.is_sequential, **kw)

    def new_library(self, corner: Corner, cornered) -> Library:
        return Library(technology=self.technology, vdd=cornered.vdd,
                       meta={"source": "gnn", "corner": corner.key()})

    def build(self, corner: Corner | None = None) -> Library:
        corner = corner if corner is not None else Corner(1.0, 0.0, 1.0)
        cornered = self.corner_technology(corner)
        metrics = self.metrics_present()
        start = time.perf_counter()
        lib = self.new_library(corner, cornered)
        for name in self.cells:
            plan = self.plan_cell(name, cornered)
            preds = self.cell_predictions(plan, metrics)
            lib.cells[name] = self.assemble_cell(plan, preds, cornered)
        self.last_runtime_s = time.perf_counter() - start
        return lib

    def build_many(self, corners) -> list:
        """One :meth:`build` per corner, in order."""
        return [self.build(corner) for corner in corners]

    # -- surrogate ranking hook --------------------------------------------
    def proxy_scores(self, corners, weights=None,
                     cell: str | None = None) -> np.ndarray:
        """Cheap "higher is better" corner scores for surrogate-guided
        search (:class:`repro.search.optimizers.SurrogateGuidedOptimizer`).

        One representative cell's GNN predictions stand in for the full
        library + system flow: delay proxies performance, leakage plus
        switching energy proxy power (area does not vary with the
        corner, so it drops out of the ranking). The score follows the
        :class:`~repro.engine.records.PPAWeights` sign convention, so
        ranking by it agrees in direction with the true scalarised
        reward — at a fraction of an evaluation's cost and with zero
        engine cache pollution.
        """
        from ..engine.records import PPAWeights
        weights = weights if weights is not None else PPAWeights()
        if cell is None:
            cell = "INV_X1" if "INV_X1" in self.cells else self.cells[0]
        metrics = self.metrics_present()
        scores = []
        for corner in corners:
            cornered = self.corner_technology(corner)
            plan = self.plan_cell(cell, cornered)
            preds = self.cell_predictions(plan, metrics)
            delay = (float(np.mean(np.abs(preds["delay"])))
                     if "delay" in preds else 0.0)
            power = (float(np.abs(preds.get("leakage_power", [0.0])[0]))
                     + float(np.abs(preds.get("flip_power", [0.0])[0])))
            score = 0.0
            if delay > 0.0:
                score += weights.performance * -np.log10(delay)
            if power > 0.0:
                score += weights.power * -np.log10(power)
            scores.append(score)
        return np.asarray(scores)
