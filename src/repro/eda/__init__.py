"""System-evaluation substrate: synthesis, P&R, STA, power, DRC/LVS.

Stands in for the commercial implementation tools the paper used for its
system level, plus generators for the ten Table I benchmarks and the
calibrated runtime cost model."""

from .netlist import Instance, GateNetlist
from .benchmarks import BENCHMARKS, build_benchmark, benchmark_names
from .synthesis import SynthesisResult, synthesize
from .placement import PlacementResult, place
from .routing import RoutingResult, route
from .sta import (LibCells, TimingGraph, TimingResult, analyze_graph,
                  analyze_timing)
from .power import PowerResult, analyze_power
from .drc import CheckResult, run_drc, run_lvs
from .flow import (Implementation, SystemResult, evaluate_benchmark,
                   evaluate_system, implement)
from .cost_model import (PaperCosts, PAPER_SYSTEM_EVAL_S, PAPER_TABLE1,
                         table1_row, table1_rows)

__all__ = [
    "Instance", "GateNetlist",
    "BENCHMARKS", "build_benchmark", "benchmark_names",
    "SynthesisResult", "synthesize",
    "PlacementResult", "place",
    "RoutingResult", "route",
    "TimingResult", "TimingGraph", "LibCells", "analyze_timing",
    "analyze_graph",
    "PowerResult", "analyze_power",
    "CheckResult", "run_drc", "run_lvs",
    "SystemResult", "Implementation", "implement", "evaluate_system",
    "evaluate_benchmark",
    "PaperCosts", "PAPER_SYSTEM_EVAL_S", "PAPER_TABLE1",
    "table1_row", "table1_rows",
]
