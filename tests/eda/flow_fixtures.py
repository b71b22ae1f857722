"""Deterministic characterized libraries for exact flow comparisons.

SPICE-built libraries depend on the numerics of the host; these are
written out in plain floats so a flow output captured once compares
bit for bit on any machine. Both hold the quickstart's six cells, so the
other cells the Table I netlists use (buffers, upsized drivers, adders,
complex gates) take the flow's black-box estimate path.

Run as a script to print the flow outputs of every Table I design on
both libraries as JSON, the form ``golden_flow.json`` stores::

    PYTHONPATH=src python -m tests.eda.flow_fixtures

``golden_flow.json`` was captured from the single-step flow (synthesis
through DRC/LVS in one call, NumPy table lookups) once its iteration
order no longer depended on the hash seed; a flow change that alters
any value is a behaviour change, not a reason to recapture.
"""

from __future__ import annotations

import json
import sys

from repro.cells import get_cell
from repro.charlib.liberty import LibCell, Library, TimingTable

#: The quickstart configuration's cell set.
QUICKSTART_CELLS = ("INV_X1", "NAND2_X1", "NOR2_X1", "AND2_X1", "XOR2_X1",
                    "DFF_X1")

#: The quickstart's 1x1 NLDM grid.
QUICKSTART_GRID = ((8e-9,), (15e-15,))
#: A slews x loads grid wide enough that flow loads fall inside it, on
#: both sides of it, and between its points.
MULTI_GRID = ((2e-9, 8e-9, 20e-9), (5e-15, 15e-15, 40e-15, 90e-15))

#: Flow outputs compared exactly (``critical_path`` comes from STA).
GOLDEN_FIELDS = ("area_um2", "wirelength_um", "min_period_s", "fmax_hz",
                 "total_power_w", "dynamic_power_w", "leakage_power_w",
                 "gates", "flops", "drc_violations", "lvs_violations")


def _table(slews, loads, base: float, k: int) -> TimingTable:
    values = [[base * (1.0 + 0.37 * k) + 0.21 * s + 1.9e5 * ld
               + 1e-9 * ((7 * i + 3 * j + k) % 5) / 4.0
               for j, ld in enumerate(loads)]
              for i, s in enumerate(slews)]
    return TimingTable(list(slews), list(loads), values)


def make_library(grid=QUICKSTART_GRID, cells=QUICKSTART_CELLS) -> Library:
    """A library over ``grid`` = (slews, loads) with fixed values."""
    slews, loads = grid
    lib = Library(technology="ltps", vdd=3.3,
                  meta={"source": "fixture", "grid": [list(slews),
                                                       list(loads)]})
    for k, name in enumerate(cells):
        cell = get_cell(name)
        lib.cells[name] = LibCell(
            name=name, area=cell.area,
            input_caps={p: (2.1e-15 + 0.43e-15 * k) * (1.0 + 0.11 * n)
                        for n, p in enumerate(cell.inputs)},
            delay=_table(slews, loads, 3.3e-9, k),
            output_slew=_table(slews, loads, 5.7e-9, k),
            leakage=1.3e-9 * (1.0 + 0.29 * k),
            switch_energy=4.1e-13 * (1.0 + 0.17 * k),
            is_sequential=cell.is_sequential,
            setup=2.7e-9 if cell.is_sequential else 0.0,
            hold=0.4e-9 if cell.is_sequential else 0.0,
            clk_q=6.1e-9 if cell.is_sequential else 0.0,
            min_pulse_width=3.9e-9 if cell.is_sequential else 0.0)
    return lib


def libraries() -> dict:
    return {"quickstart": make_library(QUICKSTART_GRID),
            "multi_grid": make_library(MULTI_GRID)}


def flow_outputs(result, timing=None) -> dict:
    """The golden view of one flow: exact fields, plus the critical path
    when the timing result is given."""
    out = {name: getattr(result, name) for name in GOLDEN_FIELDS}
    if timing is not None:
        out["critical_path"] = list(timing.critical_path)
    return out


def capture() -> dict:
    """Every Table I design on both libraries: ``{lib: {design: out}}``."""
    from repro.eda import (analyze_timing, benchmark_names,
                           build_benchmark, evaluate_system, implement)
    out = {}
    for lib_name, lib in libraries().items():
        out[lib_name] = {}
        for design in benchmark_names():
            netlist = build_benchmark(design)
            impl = implement(netlist)
            result = evaluate_system(netlist, lib, implementation=impl)
            timing = analyze_timing(impl.netlist, lib, impl.routing)
            out[lib_name][design] = flow_outputs(result, timing)
    return out


if __name__ == "__main__":
    json.dump(capture(), sys.stdout, indent=1)
    sys.stdout.write("\n")
