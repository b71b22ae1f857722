"""Power analysis: activity-based dynamic + leakage."""

from __future__ import annotations

from dataclasses import dataclass

from ..cells import get_cell
from ..charlib.liberty import Library
from .netlist import GateNetlist
from .routing import RoutingResult
from .sta import LibCells

__all__ = ["PowerResult", "analyze_power"]


@dataclass
class PowerResult:
    dynamic_w: float
    leakage_w: float
    clock_w: float

    @property
    def total_w(self) -> float:
        return self.dynamic_w + self.leakage_w + self.clock_w

    def summary(self) -> dict:
        return {"dynamic_uw": self.dynamic_w * 1e6,
                "leakage_uw": self.leakage_w * 1e6,
                "clock_uw": self.clock_w * 1e6,
                "total_uw": self.total_w * 1e6}


def analyze_power(netlist: GateNetlist, library: Library,
                  frequency_hz: float,
                  routing: RoutingResult | None = None,
                  activity: float = 0.15,
                  cells: LibCells | None = None) -> PowerResult:
    """Estimate power at ``frequency_hz``.

    Dynamic power: per-cell switching energy x toggle rate + wire CV^2f;
    clock power: every FF clock pin toggles each cycle; leakage: sum of
    per-cell static power. ``cells`` shares the lib cells (and black-box
    estimates) an STA of the same sign-off resolved.
    """
    cells = cells if cells is not None else LibCells(library)
    vdd = library.vdd
    dyn = leak = clk = 0.0
    for inst in netlist.instances.values():
        lc = cells[inst.cell]
        leak += lc.leakage
        if lc.is_sequential:
            # Clock pin switches every cycle (two edges).
            clk += lc.max_input_cap * vdd * vdd * frequency_hz
            dyn += lc.switch_energy * activity * frequency_hz
        else:
            dyn += lc.switch_energy * activity * frequency_hz
    if routing is not None:
        for net, cap in routing.net_cap.items():
            rate = activity * frequency_hz
            if net == netlist.clock:
                rate = frequency_hz
            dyn += cap * vdd * vdd * rate
    return PowerResult(dynamic_w=dyn, leakage_w=leak, clock_w=clk)
