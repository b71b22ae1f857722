"""Standard-cell abstraction: pins, transistor topology, logic function.

A :class:`Cell` stores a technology-independent transistor netlist (node
names + width multipliers). Binding it to a technology (N/P
:class:`~repro.compact.tft.TFTParams`) instantiates real TFTs into a
:class:`~repro.spice.netlist.Circuit` for characterization, while the
boolean/sequential model drives vector enumeration and the EDA flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..compact.tft import TFTParams
from ..spice.netlist import Circuit

__all__ = ["Transistor", "Cell", "SequentialSpec", "VDD_NET", "VSS_NET"]

VDD_NET = "vdd!"
VSS_NET = "0"


@dataclass(frozen=True)
class Transistor:
    """One FET of a cell: polarity, terminals (cell-local nets), W mult."""

    name: str
    polarity: str        # "n" | "p"
    drain: str
    gate: str
    source: str
    w_mult: float = 1.0

    def __post_init__(self):
        if self.polarity not in ("n", "p"):
            raise ValueError(f"{self.name}: polarity must be 'n' or 'p'")
        if self.w_mult <= 0:
            raise ValueError(f"{self.name}: w_mult must be positive")


@dataclass(frozen=True)
class SequentialSpec:
    """Sequential behaviour description."""

    kind: str               # "dff" | "dlatch"
    data: str
    clock: str
    reset: str | None = None      # async active-high reset (forces Q=0)
    set_pin: str | None = None    # async active-high set (forces Q=1)


@dataclass
class Cell:
    """A standard cell: interface + topology + behaviour.

    Attributes
    ----------
    name:
        Library name, e.g. ``NAND2_X1``.
    inputs, outputs:
        Pin name lists (order defines vector enumeration).
    transistors:
        Technology-independent FET list over cell-local nets. Input pins,
        output pins, ``vdd!`` and ``0`` are the external nets.
    logic:
        Output pin -> callable(dict of input bools) -> bool. For sequential
        cells this describes the *next state* / output of Q.
    seq:
        ``SequentialSpec`` for sequential cells, else None.
    drive:
        Drive strength multiplier (X1 = 1).
    """

    name: str
    inputs: list
    outputs: list
    transistors: list
    logic: dict = field(default_factory=dict)
    seq: SequentialSpec | None = None
    drive: float = 1.0

    def __post_init__(self):
        nets = self.nets()
        for pin in self.inputs + self.outputs:
            if pin not in nets:
                raise ValueError(f"{self.name}: pin {pin} not connected")
        for out in self.outputs:
            if out not in self.logic:
                raise ValueError(f"{self.name}: no logic for output {out}")

    # ------------------------------------------------------------------
    @property
    def is_sequential(self) -> bool:
        return self.seq is not None

    @property
    def num_transistors(self) -> int:
        return len(self.transistors)

    @property
    def area(self) -> float:
        """Area proxy: total transistor width [arbitrary units]."""
        return float(sum(t.w_mult for t in self.transistors))

    def nets(self) -> set:
        out = set()
        for t in self.transistors:
            out.update((t.drain, t.gate, t.source))
        return out

    def internal_nets(self) -> list:
        external = set(self.inputs) | set(self.outputs) | {VDD_NET, VSS_NET}
        return sorted(self.nets() - external)

    # ------------------------------------------------------------------
    def instantiate(self, circuit: Circuit, prefix: str, pin_map: dict,
                    nmos: TFTParams, pmos: TFTParams) -> None:
        """Add this cell's transistors to ``circuit``.

        Parameters
        ----------
        prefix:
            Instance prefix for element and internal-net names.
        pin_map:
            Cell net -> circuit node for the external pins (must cover
            inputs, outputs, ``vdd!``; ``0`` maps to ground implicitly).
        nmos, pmos:
            Base transistor parameters; widths are scaled by each FET's
            ``w_mult`` and the cell drive.
        """
        mapping = dict(pin_map)
        mapping.setdefault(VSS_NET, "0")
        if VDD_NET not in mapping:
            raise ValueError("pin_map must map the vdd! net")
        for net in self.internal_nets():
            mapping[net] = f"{prefix}.{net}"
        for t in self.transistors:
            params = nmos if t.polarity == "n" else pmos
            params = params.with_updates(
                w=params.w * t.w_mult * self.drive)
            circuit.tft(f"{prefix}.{t.name}", mapping[t.drain],
                        mapping[t.gate], mapping[t.source], params)

    # ------------------------------------------------------------------
    def evaluate(self, input_values: dict) -> dict:
        """Boolean outputs for an input assignment (combinational view;
        for sequential cells this evaluates the next-Q logic)."""
        missing = set(self.inputs) - set(input_values)
        if missing:
            raise ValueError(f"{self.name}: missing inputs {sorted(missing)}")
        return {out: bool(fn(input_values))
                for out, fn in self.logic.items()}

    def input_vectors(self):
        """Iterate all input assignments (dicts) in binary order."""
        n = len(self.inputs)
        for code in range(2 ** n):
            yield {pin: bool((code >> (n - 1 - i)) & 1)
                   for i, pin in enumerate(self.inputs)}

    def __repr__(self) -> str:
        kind = "seq" if self.is_sequential else "comb"
        return (f"Cell({self.name}, {kind}, in={self.inputs}, "
                f"out={self.outputs}, {self.num_transistors}T)")
