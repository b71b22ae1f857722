"""Gate-level netlist for the system-evaluation flow.

A :class:`GateNetlist` is a DAG of cell instances over named nets, with
primary inputs/outputs and a clock. Sequential cells cut the combinational
topology, so levelization (for STA) treats FF outputs as sources and FF
data pins as sinks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cells import get_cell

__all__ = ["Instance", "GateNetlist"]

#: ``repro.engine.hashing.forget_netlist``, bound on the first edit.
_forget_netlist = None


@dataclass
class Instance:
    """One placed cell instance."""

    name: str
    cell: str                     # library cell name
    pins: dict                    # cell pin -> net name
    x: float = 0.0                # placement (filled by the placer)
    y: float = 0.0

    def output_nets(self):
        cell = get_cell(self.cell)
        return [self.pins[p] for p in cell.outputs]

    def input_nets(self):
        cell = get_cell(self.cell)
        return [self.pins[p] for p in cell.inputs]


class GateNetlist:
    """A named collection of gate instances."""

    def __init__(self, name: str, clock: str = "clk"):
        self.name = name
        self.clock = clock
        self.instances: dict[str, Instance] = {}
        self.primary_inputs: list = []
        self.primary_outputs: list = []

    # -- construction ------------------------------------------------------
    def _edited(self):
        """Drop this netlist's memoized fingerprint before an edit."""
        global _forget_netlist
        if _forget_netlist is None:   # late: repro.engine imports this
            from ..engine.hashing import forget_netlist as _forget_netlist
        _forget_netlist(self)

    def add_input(self, net: str):
        self._edited()
        if net not in self.primary_inputs:
            self.primary_inputs.append(net)
        return net

    def add_output(self, net: str):
        self._edited()
        if net not in self.primary_outputs:
            self.primary_outputs.append(net)
        return net

    def add(self, name: str, cell: str, **pins) -> str:
        """Add an instance; returns its (first) output net."""
        if name in self.instances:
            raise ValueError(f"duplicate instance {name!r}")
        cell_obj = get_cell(cell)
        missing = (set(cell_obj.inputs) | set(cell_obj.outputs)) - set(pins)
        if missing:
            raise ValueError(f"{name}: unconnected pins {sorted(missing)}")
        self._edited()
        self.instances[name] = Instance(name=name, cell=cell, pins=pins)
        return pins[cell_obj.outputs[0]]

    # -- queries ----------------------------------------------------------
    @property
    def num_gates(self) -> int:
        return len(self.instances)

    @property
    def num_flops(self) -> int:
        return sum(1 for i in self.instances.values()
                   if get_cell(i.cell).is_sequential)

    def drivers(self) -> dict:
        """net -> driving instance name (primary inputs have no driver)."""
        out = {}
        for inst in self.instances.values():
            for net in inst.output_nets():
                if net in out:
                    raise ValueError(f"net {net} has multiple drivers")
                out[net] = inst.name
        return out

    def loads(self) -> dict:
        """net -> [(instance, pin)] sinks."""
        out: dict = {}
        for inst in self.instances.values():
            cell = get_cell(inst.cell)
            for pin in cell.inputs:
                out.setdefault(inst.pins[pin], []).append((inst.name, pin))
        return out

    def copy(self) -> "GateNetlist":
        """Deep copy (the flow mutates netlists during synthesis)."""
        out = GateNetlist(self.name, clock=self.clock)
        out.primary_inputs = list(self.primary_inputs)
        out.primary_outputs = list(self.primary_outputs)
        for name, inst in self.instances.items():
            out.instances[name] = Instance(name=inst.name, cell=inst.cell,
                                           pins=dict(inst.pins),
                                           x=inst.x, y=inst.y)
        return out

    def stats(self) -> dict:
        by_cell: dict = {}
        for inst in self.instances.values():
            by_cell[inst.cell] = by_cell.get(inst.cell, 0) + 1
        return {"gates": self.num_gates, "flops": self.num_flops,
                "inputs": len(self.primary_inputs),
                "outputs": len(self.primary_outputs),
                "by_cell": by_cell}

    def total_area(self) -> float:
        return float(sum(get_cell(i.cell).area
                         for i in self.instances.values()))

    # -- levelization -------------------------------------------------------
    def topological_order(self) -> list:
        """Combinational topological order of instance names.

        FF outputs and primary inputs are sources; FF data inputs do not
        create dependencies (the clock edge cuts them).
        """
        drivers = self.drivers()
        indeg: dict = {}
        dependents: dict = {}
        for inst in self.instances.values():
            cell = get_cell(inst.cell)
            if cell.is_sequential:
                indeg[inst.name] = 0       # launches at the clock edge
                continue
            count = 0
            for pin in cell.inputs:
                net = inst.pins[pin]
                drv = drivers.get(net)
                if drv is None:
                    continue
                if get_cell(self.instances[drv].cell).is_sequential:
                    continue
                dependents.setdefault(drv, []).append(inst.name)
                count += 1
            indeg[inst.name] = count
        queue = [n for n, d in indeg.items() if d == 0]
        order = []
        while queue:
            n = queue.pop()
            order.append(n)
            for m in dependents.get(n, []):
                indeg[m] -= 1
                if indeg[m] == 0:
                    queue.append(m)
        if len(order) != len(self.instances):
            raise ValueError(
                f"{self.name}: combinational loop detected "
                f"({len(order)}/{len(self.instances)} ordered)")
        return order
