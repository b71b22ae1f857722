"""Static timing analysis with slew propagation.

Topological arrival-time propagation over the combinational graph, with
flip-flop Q pins as launch points (clk->q delay) and D pins / primary
outputs as capture points (setup). Cell delay/slew come from the
characterized :class:`~repro.charlib.liberty.Library` NLDM tables; nets
add wire capacitance from the router.

Cells absent from the library are estimated from INV_X1 scaled by area —
this keeps CI-scale libraries (a cell subset) usable on full netlists,
mirroring how black-box timing models are used in practice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cells import get_cell
from ..charlib.liberty import LibCell, Library, TimingTable, interpolate
from .netlist import GateNetlist
from .routing import RoutingResult

__all__ = ["TimingResult", "TimingGraph", "LibCells", "analyze_timing",
           "analyze_graph"]

_DEFAULT_INPUT_SLEW = 10e-9
_PO_LOAD = 20e-15


@dataclass
class TimingResult:
    min_period_s: float
    fmax_hz: float
    critical_path: list
    worst_arrival_s: float
    arrival: dict = field(default_factory=dict)
    slew: dict = field(default_factory=dict)

    def summary(self) -> dict:
        return {"min_period_ns": self.min_period_s * 1e9,
                "fmax_mhz": self.fmax_hz / 1e6,
                "critical_path_len": len(self.critical_path)}


def _lib_cell(library: Library, name: str) -> LibCell:
    if name in library:
        return library.cell(name)
    # Estimate from the inverter scaled by area (black-box fallback).
    if "INV_X1" not in library:
        raise ValueError(f"library lacks {name} and INV_X1 fallback")
    inv = library.cell("INV_X1")
    cell = get_cell(name)
    scale = max(cell.area / max(get_cell("INV_X1").area, 1e-9), 1.0)
    return LibCell(
        name=name, area=cell.area,
        input_caps={p: inv.max_input_cap for p in cell.inputs},
        delay=TimingTable(inv.delay.slews, inv.delay.loads,
                          inv.delay.values * scale ** 0.5),
        output_slew=TimingTable(inv.output_slew.slews,
                                inv.output_slew.loads,
                                inv.output_slew.values * scale ** 0.5),
        leakage=inv.leakage * scale,
        switch_energy=inv.switch_energy * scale,
        is_sequential=cell.is_sequential,
        setup=inv.delay.values.max() * 2,
        hold=0.0,
        clk_q=inv.delay.values.max() * 3 * scale ** 0.5,
        min_pulse_width=inv.delay.values.max() * 2)


class LibCells(dict):
    """Cell name -> :class:`LibCell` for one analysis against ``library``.

    Library cells are returned as they are; a cell the library lacks is
    estimated once and kept here, never written into the library, which
    the engine's caches and concurrent flows share. STA and power of one
    sign-off share one instance.
    """

    def __init__(self, library: Library):
        super().__init__()
        self.library = library

    def __missing__(self, name: str) -> LibCell:
        lc = self[name] = _lib_cell(self.library, name)
        return lc


class TimingGraph:
    """The library-independent timing structure of one netlist.

    Computed once per implemented netlist and reused for every library
    it is analysed against: the topological order of instances, the sinks
    of every net as ``(cell, pin)`` pairs, the primary outputs and each
    flip-flop's data net. Instances are referenced, not copied, so the
    graph shares the netlist's pin dicts, and interned sink tuples keep
    it small; the netlist must not change afterwards.
    """

    __slots__ = ("order", "sinks", "captures", "primary_inputs",
                 "primary_outputs", "output_set", "clock")

    def __init__(self, netlist: GateNetlist):
        instances = netlist.instances
        self.order = [instances[name]
                      for name in netlist.topological_order()]
        interned: dict = {}
        sinks: dict = {}
        for net, loads in netlist.loads().items():
            pairs = []
            for inst_name, pin in loads:
                pair = (instances[inst_name].cell, pin)
                pairs.append(interned.setdefault(pair, pair))
            key = tuple(pairs)
            sinks[net] = interned.setdefault(key, key)
        self.sinks = sinks
        self.captures = []
        for inst in instances.values():
            cell = get_cell(inst.cell)
            if cell.is_sequential:
                self.captures.append((inst, inst.pins[cell.seq.data]))
        self.primary_inputs = list(netlist.primary_inputs)
        self.primary_outputs = list(netlist.primary_outputs)
        self.output_set = frozenset(netlist.primary_outputs)
        self.clock = netlist.clock


def analyze_timing(netlist: GateNetlist, library: Library,
                   routing: RoutingResult | None = None) -> TimingResult:
    """Propagate arrivals and compute the minimum clock period."""
    return analyze_graph(TimingGraph(netlist), LibCells(library), routing)


def _grid(table: TimingTable) -> tuple:
    return table.slews.tolist(), table.loads.tolist(), table.values.tolist()


def analyze_graph(graph: TimingGraph, cells: LibCells,
                  routing: RoutingResult | None = None) -> TimingResult:
    """:func:`analyze_timing` on a prebuilt graph.

    Each lib cell is resolved once per cell name and each pin
    capacitance once per ``(cell, pin)``; the arithmetic and its order
    are those of a plain per-instance walk, so results are bit-identical.
    """
    wire_cap = routing.net_cap if routing is not None else {}
    sinks, outputs = graph.sinks, graph.output_set
    # cell name -> (lib cell, input pins, output pins, delay grid,
    # output-slew grid); (cell, pin) -> pin capacitance
    resolved: dict = {}
    caps: dict = {}

    def resolve(name):
        lc = cells[name]
        cell = get_cell(name)
        entry = resolved[name] = (lc, cell.inputs, cell.outputs,
                                  _grid(lc.delay), _grid(lc.output_slew))
        return entry

    def net_load(net: str) -> float:
        total = wire_cap.get(net, 0.0)
        for pair in sinks.get(net, ()):
            cap = caps.get(pair)
            if cap is None:
                cap = caps[pair] = cells[pair[0]].pin_cap(pair[1])
            total += cap
        if net in outputs:
            total += _PO_LOAD
        return total

    arrival: dict = {}
    slew: dict = {}
    parent: dict = {}
    for net in graph.primary_inputs:
        arrival[net] = 0.0
        slew[net] = _DEFAULT_INPUT_SLEW
    arrival[graph.clock] = 0.0
    slew[graph.clock] = _DEFAULT_INPUT_SLEW

    # Seed FF outputs (launch at clk->q).
    for inst in graph.order:
        lc, _, outs, _, slew_t = (resolved.get(inst.cell)
                                  or resolve(inst.cell))
        if lc.is_sequential:
            for pin in outs:
                net = inst.pins[pin]
                arrival[net] = lc.clk_q
                slew[net] = interpolate(*slew_t, _DEFAULT_INPUT_SLEW,
                                        net_load(net))
                parent[net] = (inst.name, None)

    for inst in graph.order:
        lc, ins, outs, delay_t, slew_t = resolved[inst.cell]
        if lc.is_sequential:
            continue
        pins = inst.pins
        worst_t, worst_s, worst_from = 0.0, _DEFAULT_INPUT_SLEW, None
        for pin in ins:
            net = pins[pin]
            t_in = arrival.get(net, 0.0)
            s_in = slew.get(net, _DEFAULT_INPUT_SLEW)
            if t_in >= worst_t:
                worst_t, worst_s, worst_from = t_in, s_in, net
        for pin in outs:
            net = pins[pin]
            load = net_load(net)
            arrival[net] = worst_t + interpolate(*delay_t, worst_s, load)
            slew[net] = interpolate(*slew_t, worst_s, load)
            parent[net] = (inst.name, worst_from)

    # Capture: FF D pins need setup; POs captured at the period boundary.
    min_period = 0.0
    worst_net = None
    for inst, net in graph.captures:
        t = arrival.get(net, 0.0) + resolved[inst.cell][0].setup
        if t > min_period:
            min_period = t
            worst_net = net
    for net in graph.primary_outputs:
        t = arrival.get(net, 0.0)
        if t > min_period:
            min_period = t
            worst_net = net

    # Trace the critical path back through parents.
    path = []
    net = worst_net
    seen = set()
    while net is not None and net not in seen:
        seen.add(net)
        if net in parent:
            inst_name, prev = parent[net]
            path.append(inst_name)
            net = prev
        else:
            break
    path.reverse()

    min_period = max(min_period, 1e-12)
    return TimingResult(
        min_period_s=min_period, fmax_hz=1.0 / min_period,
        critical_path=path,
        worst_arrival_s=max(arrival.values()) if arrival else 0.0,
        arrival=arrival, slew=slew)
