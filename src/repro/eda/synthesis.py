"""Logic synthesis stage: drive selection and fanout buffering.

The benchmark generators emit technology-mapped netlists; this stage does
what a commercial synthesis tool's final mapping does for us: legalise
fanout (buffer trees on high-fanout nets) and upsize drivers of heavy
loads using the available drive variants.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cells import get_cell
from .netlist import GateNetlist, Instance

__all__ = ["SynthesisResult", "synthesize"]

_UPSIZE = {
    "INV_X1": ["INV_X2", "INV_X4", "INV_X8"],
    "BUF_X1": ["BUF_X2", "BUF_X4"],
    "NAND2_X1": ["NAND2_X2"],
    "NOR2_X1": ["NOR2_X2"],
    "DFF_X1": ["DFF_X2"],
}


@dataclass
class SynthesisResult:
    netlist: GateNetlist
    buffers_added: int
    cells_upsized: int


def synthesize(netlist: GateNetlist, max_fanout: int = 8,
               upsize_fanout: int = 4) -> SynthesisResult:
    """Fanout legalisation + drive selection, on a copy of ``netlist``
    (the input is not mutated: :func:`~repro.eda.build_benchmark` hands
    every caller one shared netlist).

    Nets with more than ``max_fanout`` sinks get a BUF_X2 tree; drivers of
    more than ``upsize_fanout`` sinks are swapped to the next drive
    variant when one exists. The result's ``netlist`` is the copy.
    """
    netlist = netlist.copy()
    loads = netlist.loads()
    drivers = netlist.drivers()
    buffers = 0
    upsized = 0

    # Upsize heavily loaded drivers.
    for net, sinks in loads.items():
        drv = drivers.get(net)
        if drv is None or len(sinks) <= upsize_fanout:
            continue
        inst = netlist.instances[drv]
        variants = _UPSIZE.get(inst.cell)
        if variants:
            steps = min(len(variants) - 1,
                        (len(sinks) - upsize_fanout) // upsize_fanout)
            inst.cell = variants[steps]
            upsized += 1

    # Buffer trees for high fanout (iterative: a buffer's own input pin
    # loads the net, and a buffer's output may itself need splitting).
    # The clock net is excluded — clock distribution is a separate tree.
    for _ in range(6):
        loads = netlist.loads()
        oversized = [(net, sinks) for net, sinks in loads.items()
                     if len(sinks) > max_fanout and net != netlist.clock]
        if not oversized:
            break
        for net, sinks in oversized:
            keep = max_fanout - 1
            moved = sinks[keep:]
            buf_net = f"{net}_fb{buffers}"
            netlist.add(f"synbuf{buffers}", "BUF_X2", a=net, y=buf_net)
            buffers += 1
            for inst_name, pin in moved:
                netlist.instances[inst_name].pins[pin] = buf_net
    return SynthesisResult(netlist=netlist, buffers_added=buffers,
                           cells_upsized=upsized)
