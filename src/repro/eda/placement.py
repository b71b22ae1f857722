"""Row-based placement with median-of-neighbours refinement.

Cells are assigned to standard-cell rows in connectivity (BFS) order, then
refined by a few passes that move each cell toward the median x of its
neighbours — a light-weight stand-in for a commercial placer that still
produces meaningful wirelength differences between netlists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cells import get_cell
from .netlist import GateNetlist

__all__ = ["PlacementResult", "place"]

#: Geometry scale: one area unit of cell width = 1 um of row length.
_UNIT_UM = 1.0
_ROW_HEIGHT_UM = 8.0


@dataclass
class PlacementResult:
    netlist: GateNetlist
    rows: int
    die_width_um: float
    die_height_um: float
    utilization: float

    @property
    def die_area_um2(self) -> float:
        return self.die_width_um * self.die_height_um


def _bfs_order(netlist: GateNetlist) -> list:
    loads = netlist.loads()
    order, seen = [], set()
    frontier = []
    for net in netlist.primary_inputs:
        for inst, _ in loads.get(net, []):
            frontier.append(inst)
    for name in list(netlist.instances):
        frontier.append(name)
    while frontier:
        name = frontier.pop(0)
        if name in seen:
            continue
        seen.add(name)
        order.append(name)
        inst = netlist.instances[name]
        for net in inst.output_nets():
            for sink, _ in loads.get(net, []):
                if sink not in seen:
                    frontier.append(sink)
    return order


def place(netlist: GateNetlist, target_utilization: float = 0.7,
          refine_passes: int = 2) -> PlacementResult:
    """Assign (x, y) to every instance, in place. Placement writes only
    the instances' ``x``/``y``, which :func:`~repro.engine.hashing.
    netlist_fingerprint` excludes, so a placed netlist keeps its digest."""
    order = _bfs_order(netlist)
    widths = {n: get_cell(netlist.instances[n].cell).area * _UNIT_UM
              for n in order}
    total_width = sum(widths.values())
    die_area = total_width * _ROW_HEIGHT_UM / target_utilization
    die_width = max(np.sqrt(die_area), max(widths.values()) * 2)
    n_rows = max(int(np.ceil(die_area / (_ROW_HEIGHT_UM * die_width))), 1)

    rows: list[list] = [[] for _ in range(n_rows)]
    row_fill = [0.0] * n_rows
    r = 0
    for name in order:
        if row_fill[r] + widths[name] > die_width and r < n_rows - 1:
            r += 1
        rows[r].append(name)
        row_fill[r] += widths[name]

    def commit():
        for iy, row in enumerate(rows):
            x = 0.0
            for name in row:
                inst = netlist.instances[name]
                inst.x = x + widths[name] / 2
                inst.y = (iy + 0.5) * _ROW_HEIGHT_UM
                x += widths[name]

    commit()
    # Refinement: reorder each row by the mean x of connected cells.
    drivers = netlist.drivers()
    loads = netlist.loads()
    neighbours: dict = {}
    for name, inst in netlist.instances.items():
        # An insertion-ordered set: ``np.mean`` sums in this order, and a
        # string set's order changes with the interpreter's hash seed.
        ns = {}
        for net in inst.input_nets():
            if net in drivers:
                ns[drivers[net]] = None
        for net in inst.output_nets():
            for sink, _ in loads.get(net, []):
                ns[sink] = None
        ns.pop(name, None)
        neighbours[name] = ns
    for _ in range(refine_passes):
        for row in rows:
            def key(name):
                ns = neighbours[name]
                if not ns:
                    return netlist.instances[name].x
                return float(np.mean([netlist.instances[m].x for m in ns]))
            row.sort(key=key)
        commit()

    used = sum(row_fill)
    return PlacementResult(
        netlist=netlist, rows=n_rows, die_width_um=float(die_width),
        die_height_um=n_rows * _ROW_HEIGHT_UM,
        utilization=float(used / (die_width * n_rows)))
