"""RunReport: the one result shape every mode returns.

Single searches and campaign sweeps alike report through one
JSON-round-trippable document with the scalar best, the Pareto
front, a runtime ledger and the cache statistics that prove (or
disprove) warm-workspace reuse.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from .config import SCHEMA_VERSION

__all__ = ["RunReport"]


@dataclass
class RunReport:
    """Everything one :func:`repro.api.runner.run` call produced."""

    schema_version: int = SCHEMA_VERSION
    mode: str = ""
    design: str = ""                 # benchmark name ("" for campaigns)
    optimizer: str = ""
    best_corner: tuple = ()
    best_reward: float = 0.0
    best_ppa: dict = field(default_factory=dict)
    evaluations: int = 0             # distinct corners requested
    engine_misses: int = 0           # system flows actually run
    characterizations: int = 0       # corners actually characterized
    evaluations_to_optimum: int = 0
    pareto_front: list = field(default_factory=list)
    pareto_fronts: dict = field(default_factory=dict)   # campaign mode
    hypervolume: float = 0.0
    rewards: list = field(default_factory=list)
    scenarios: list = field(default_factory=list)       # campaign mode
    resumed_scenarios: int = 0
    surrogate: dict = field(default_factory=dict)       # harvest/screening
    uncertainty: dict = field(default_factory=dict)     # surrogate fidelity
    runtime: dict = field(default_factory=dict)
    cache_stats: dict = field(default_factory=dict)
    trace: dict = field(default_factory=dict)           # span tree
    config: dict = field(default_factory=dict)          # document echo

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    @staticmethod
    def from_dict(data: dict) -> "RunReport":
        names = {f.name for f in fields(RunReport)}
        kwargs = {k: v for k, v in data.items() if k in names}
        if "best_corner" in kwargs:
            kwargs["best_corner"] = tuple(kwargs["best_corner"])
        return RunReport(**kwargs)

    def to_json(self, indent: int = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "RunReport":
        return RunReport.from_dict(json.loads(text))

    def save(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json(), encoding="utf-8")
        return path

    @staticmethod
    def load(path) -> "RunReport":
        return RunReport.from_json(Path(path).read_text(encoding="utf-8"))

    # -- presentation ------------------------------------------------------
    def summary_rows(self) -> list:
        """[label, value] rows for CLI / notebook tables."""
        ppa = self.best_ppa or {}
        rows = [
            ["mode", self.mode],
            ["design", self.design or
             ", ".join(sorted({s["scenario"]["benchmark"]
                               for s in self.scenarios})) or "-"],
            ["optimizer", self.optimizer or "-"],
            ["best corner", str(self.best_corner)],
            ["best reward", f"{self.best_reward:.4f}"],
        ]
        if ppa:
            rows.append(["best PPA",
                         f"{ppa.get('power_w', 0.0) * 1e6:.2f} uW / "
                         f"{ppa.get('performance_hz', 0.0) / 1e6:.2f} MHz"
                         f" / {ppa.get('area_um2', 0.0):.0f} um^2"])
        rows += [
            ["evaluations", str(self.evaluations)],
            ["engine misses", str(self.engine_misses)],
            ["characterizations", str(self.characterizations)],
            ["pareto points", str(len(self.pareto_front)
                                  or sum(len(v) for v in
                                         self.pareto_fronts.values()))],
            ["hypervolume", f"{self.hypervolume:.4f}"],
            ["total runtime", f"{self.runtime.get('total_s', 0.0):.2f} s"],
        ]
        if self.scenarios:
            rows.append(["scenarios",
                         f"{len(self.scenarios)} "
                         f"({self.resumed_scenarios} resumed)"])
        if self.surrogate:
            sg = self.surrogate
            if "harvested" in sg:
                rows.append(["surrogate rows",
                             f"{sg.get('store_rows', 0)} stored "
                             f"(+{sg.get('harvested', 0)} this run, "
                             f"{sg.get('skipped', 0)} already known)"])
            if sg.get("screened"):
                rows.append(["surrogate screening",
                             f"{sg.get('promoted', 0)} of "
                             f"{sg.get('screened', 0)} promoted to the "
                             f"engine"])
        if self.uncertainty:
            un = self.uncertainty
            rows.append(["fidelity", un.get("fidelity", "surrogate")])
            rows.append(["best-corner spread (log10)",
                         f"{un.get('best_corner_std', 0.0):.4f}"])
            if un.get("escalated_job_id"):
                rows.append(["escalated to", un["escalated_job_id"]])
        ws = self.cache_stats.get("workspace", {})
        if ws:
            rows.append(["models trained / loaded",
                         f"{ws.get('models_trained', 0)} / "
                         f"{ws.get('models_loaded', 0)}"])
        return rows
