"""Global routing estimate: HPWL wirelength and wire parasitics per net."""

from __future__ import annotations

from dataclasses import dataclass, field

from .netlist import GateNetlist

__all__ = ["RoutingResult", "route"]

#: Wire parasitics per micron (TFT-scale metal on foil/glass).
_C_PER_UM = 0.15e-15     # F/um
_R_PER_UM = 0.5          # ohm/um


@dataclass
class RoutingResult:
    total_wirelength_um: float
    net_length_um: dict = field(default_factory=dict)
    net_cap: dict = field(default_factory=dict)
    net_res: dict = field(default_factory=dict)
    congestion: float = 0.0

    def wire_cap(self, net: str) -> float:
        return self.net_cap.get(net, 0.0)


def route(netlist: GateNetlist, die_area_um2: float | None = None
          ) -> RoutingResult:
    """Half-perimeter wirelength per net + RC parasitics.

    ``congestion`` is total wirelength over routable area (a utilization
    proxy a real router would refine).
    """
    drivers = netlist.drivers()
    loads = netlist.loads()
    result = RoutingResult(total_wirelength_um=0.0)
    # Insertion order (driven nets, then undriven loads), never set
    # order: the power sum walks ``net_cap`` in this order, and string
    # set order changes with the interpreter's hash seed.
    for net in {**drivers, **loads}:
        xs, ys = [], []
        drv = drivers.get(net)
        if drv is not None:
            inst = netlist.instances[drv]
            xs.append(inst.x)
            ys.append(inst.y)
        for sink, _ in loads.get(net, []):
            inst = netlist.instances[sink]
            xs.append(inst.x)
            ys.append(inst.y)
        if len(xs) < 2:
            length = 0.0
        else:
            length = (max(xs) - min(xs)) + (max(ys) - min(ys))
        result.net_length_um[net] = length
        result.net_cap[net] = length * _C_PER_UM
        result.net_res[net] = length * _R_PER_UM
        result.total_wirelength_um += length
    if die_area_um2:
        result.congestion = result.total_wirelength_um / max(die_area_um2,
                                                             1.0)
    return result
