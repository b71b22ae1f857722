"""Complete system-evaluation flow: synthesis -> place -> route -> STA ->
power -> DRC/LVS, producing PPA and per-stage runtimes.

The flow is two steps. :func:`implement` runs the stages that never read
the library (synthesis, placement, routing, DRC/LVS, and the timing
graph STA walks); :func:`evaluate_system` signs an implementation off
against one library (STA and power). A corner sweep implements its
design once and signs off per corner.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from ..charlib.liberty import Library
from .benchmarks import build_benchmark
from .drc import run_drc, run_lvs
from .netlist import GateNetlist
from .placement import place
from .power import analyze_power
from .routing import RoutingResult, route
from .sta import LibCells, TimingGraph, analyze_graph
from .synthesis import synthesize

__all__ = ["SystemResult", "Implementation", "implement",
           "evaluate_system", "evaluate_benchmark"]


@dataclass
class SystemResult:
    """PPA + diagnostics of one flow run."""

    design: str
    gates: int
    flops: int
    area_um2: float
    wirelength_um: float
    min_period_s: float
    fmax_hz: float
    total_power_w: float
    dynamic_power_w: float
    leakage_power_w: float
    drc_violations: int
    lvs_violations: int
    stage_runtimes_s: dict = field(default_factory=dict)

    @property
    def runtime_s(self) -> float:
        return sum(self.stage_runtimes_s.values())

    def ppa(self) -> dict:
        """The three STCO objectives."""
        return {"power_w": self.total_power_w,
                "performance_hz": self.fmax_hz,
                "area_um2": self.area_um2}


@dataclass
class Implementation:
    """One design implemented: everything the flow computes without a
    library, ready to sign off against any number of them.

    ``stage_runtimes_s`` holds the seconds the evaluation that receives
    this object spent on it: the build times for the evaluation that
    built it, zeros in a :meth:`reused` view.
    """

    netlist: GateNetlist          # synthesized, placed copy
    routing: RoutingResult
    timing_graph: TimingGraph
    gates: int
    flops: int
    area_um2: float
    drc_violations: int
    lvs_violations: int
    stage_runtimes_s: dict = field(default_factory=dict)

    def reused(self) -> "Implementation":
        """The same implementation, costing a later evaluation 0 s."""
        return replace(self, stage_runtimes_s=dict.fromkeys(
            self.stage_runtimes_s, 0.0))


def implement(netlist: GateNetlist) -> Implementation:
    """Synthesize ``netlist`` (synthesis edits a copy; the input is not
    mutated), then place, route, build its timing graph and run DRC/LVS."""
    runtimes = {}

    t0 = time.perf_counter()
    syn = synthesize(netlist)
    runtimes["synthesis"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    placed = place(syn.netlist)
    runtimes["placement"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    routed = route(syn.netlist, die_area_um2=placed.die_area_um2)
    runtimes["routing"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    graph = TimingGraph(syn.netlist)
    runtimes["sta"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    drc = run_drc(syn.netlist)
    lvs = run_lvs(syn.netlist)
    runtimes["drc_lvs"] = time.perf_counter() - t0

    return Implementation(
        netlist=syn.netlist, routing=routed, timing_graph=graph,
        gates=syn.netlist.num_gates, flops=syn.netlist.num_flops,
        area_um2=placed.die_area_um2,
        drc_violations=drc.count(), lvs_violations=lvs.count(),
        stage_runtimes_s=runtimes)


def evaluate_system(netlist: GateNetlist, library: Library,
                    frequency_hz: float | None = None,
                    activity: float = 0.15,
                    implementation: Implementation | None = None
                    ) -> SystemResult:
    """Run the flow on ``netlist`` with ``library``.

    ``frequency_hz`` defaults to the design's fmax (operating at speed).
    Given ``implementation`` (from :func:`implement` on this netlist),
    only STA and power run; the other stages report the seconds the
    implementation carries, 0.0 when it is a :meth:`reused
    <Implementation.reused>` view.
    """
    impl = (implementation if implementation is not None
            else implement(netlist))
    spent = impl.stage_runtimes_s
    cells = LibCells(library)

    t0 = time.perf_counter()
    timing = analyze_graph(impl.timing_graph, cells, impl.routing)
    sta_s = time.perf_counter() - t0

    freq = frequency_hz if frequency_hz is not None else timing.fmax_hz
    t0 = time.perf_counter()
    power = analyze_power(impl.netlist, library, freq, impl.routing,
                          activity=activity, cells=cells)
    power_s = time.perf_counter() - t0

    return SystemResult(
        design=netlist.name,
        gates=impl.gates,
        flops=impl.flops,
        area_um2=impl.area_um2,
        wirelength_um=impl.routing.total_wirelength_um,
        min_period_s=timing.min_period_s,
        fmax_hz=timing.fmax_hz,
        total_power_w=power.total_w,
        dynamic_power_w=power.dynamic_w + power.clock_w,
        leakage_power_w=power.leakage_w,
        drc_violations=impl.drc_violations,
        lvs_violations=impl.lvs_violations,
        stage_runtimes_s={"synthesis": spent["synthesis"],
                          "placement": spent["placement"],
                          "routing": spent["routing"],
                          "sta": spent["sta"] + sta_s,
                          "power": power_s,
                          "drc_lvs": spent["drc_lvs"]})


def evaluate_benchmark(name: str, library: Library,
                       **kwargs) -> SystemResult:
    """Build one of the ten Table I benchmarks and evaluate it."""
    return evaluate_system(build_benchmark(name), library, **kwargs)
