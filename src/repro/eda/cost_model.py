"""Calibrated runtime cost model reproducing Table I.

We cannot run the commercial tools the paper measured, so the published
constants are encoded here and combined exactly as the paper describes:

* per-benchmark **system evaluation** seconds (Table I column 1);
* commercial **TCAD** device simulation: 142.07 s (mean over the
  576-device calibrated study);
* commercial **cell library characterization**: ~1900 s;
* the framework's accelerated costs: TCAD surrogate 1.38 s, GNN cell
  characterization 8.88 s, shared environment setup 8.12 s.

``Traditional STCO = system evaluation + commercial TCAD + commercial
characterization``; ``Ours = system evaluation + GNN TCAD + GNN
characterization + setup``. The same model accepts *measured-on-this-
substrate* numbers so both ledgers can be reported side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PaperCosts", "PAPER_SYSTEM_EVAL_S", "PAPER_TABLE1",
           "table1_row", "table1_rows"]

#: Table I column 1: system evaluation seconds per benchmark.
PAPER_SYSTEM_EVAL_S = {
    "s298": 142.0, "s386": 136.0, "s526": 202.0, "s820": 198.0,
    "s1196": 223.0, "s1488": 230.0, "mac16": 536.0, "mac32": 1270.0,
    "picorv32": 939.0, "darkriscv": 2250.0,
}

#: Table I published rows: (traditional_s, ours_s, speedup).
PAPER_TABLE1 = {
    "s298": (2184.0, 160.0, 13.6), "s386": (2178.0, 154.0, 14.1),
    "s526": (2244.0, 220.0, 10.2), "s820": (2240.0, 216.0, 10.4),
    "s1196": (2265.0, 241.0, 9.4), "s1488": (2272.0, 248.0, 9.2),
    "mac16": (2578.0, 554.0, 4.7), "mac32": (3312.0, 1288.0, 2.6),
    "picorv32": (2981.0, 957.0, 3.1), "darkriscv": (4292.0, 2268.0, 1.9),
}


@dataclass(frozen=True)
class PaperCosts:
    """Per-iteration technology-level costs [s]."""

    tcad_commercial: float = 142.07
    charlib_commercial: float = 1900.0
    tcad_gnn: float = 1.38
    charlib_gnn: float = 8.88
    env_setup: float = 8.12

    @property
    def traditional_tech_s(self) -> float:
        return self.tcad_commercial + self.charlib_commercial

    @property
    def fast_tech_s(self) -> float:
        return self.tcad_gnn + self.charlib_gnn + self.env_setup

    def tcad_speedup(self) -> float:
        """Device-simulation acceleration (paper: >100x)."""
        return self.tcad_commercial / self.tcad_gnn

    def charlib_speedup(self) -> float:
        """Characterization acceleration (paper: >100x)."""
        return self.charlib_commercial / self.charlib_gnn


def table1_row(benchmark: str, system_eval_s: float | None = None,
               costs: PaperCosts | None = None) -> dict:
    """One Table I row from the cost model.

    ``system_eval_s`` defaults to the paper's published value; pass a
    measured value to build the substrate-measured variant of the table.
    """
    costs = costs if costs is not None else PaperCosts()
    if system_eval_s is None:
        system_eval_s = PAPER_SYSTEM_EVAL_S[benchmark]
    traditional = system_eval_s + costs.traditional_tech_s
    ours = system_eval_s + costs.fast_tech_s
    return {"benchmark": benchmark,
            "system_eval_s": system_eval_s,
            "traditional_s": traditional,
            "ours_s": ours,
            "speedup": traditional / ours}


def table1_rows(costs: PaperCosts | None = None,
                system_eval: dict | None = None) -> list:
    """All ten rows, in the paper's order."""
    from .benchmarks import benchmark_names
    rows = []
    for name in benchmark_names():
        se = None if system_eval is None else system_eval.get(name)
        rows.append(table1_row(name, system_eval_s=se, costs=costs))
    return rows
