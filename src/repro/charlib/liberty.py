"""Liberty-style characterized library: NLDM lookup tables for the EDA flow.

A :class:`Library` is the hand-off artifact between the technology level
(characterization) and the system level (synthesis / STA / power): per-cell
delay and output-slew tables over (input slew x output load), pin
capacitances, leakage and switching energy, plus sequential constraints.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

__all__ = ["TimingTable", "LibCell", "Library", "interpolate"]


@dataclass
class TimingTable:
    """Bilinear-interpolated (slew x load) lookup table."""

    slews: np.ndarray
    loads: np.ndarray
    values: np.ndarray      # (n_slew, n_load)

    def __post_init__(self):
        self.slews = np.asarray(self.slews, dtype=np.float64)
        self.loads = np.asarray(self.loads, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.slews), len(self.loads)):
            raise ValueError("table shape mismatch")

    def lookup(self, slew: float, load: float) -> float:
        """Bilinear interpolation, clamped to the characterized window."""
        return float(interpolate(self.slews.tolist(), self.loads.tolist(),
                                 self.values.tolist(), slew, load))


def interpolate(slews: list, loads: list, values: list,
                slew: float, load: float) -> float:
    """:meth:`TimingTable.lookup` on plain-float grids (lists).

    Scalar float arithmetic in the operation order of the NumPy
    formulation it replaces (``np.clip``/``np.searchsorted`` bilinear,
    ``np.interp`` on one-row or one-column tables), so results are
    bit-identical; callers that look up one table many times convert it
    to lists once.
    """
    ns, nl = len(slews), len(loads)
    if ns == 1 and nl == 1:
        return values[0][0]
    s = min(max(slew, slews[0]), slews[-1])
    ld = min(max(load, loads[0]), loads[-1])
    if ns == 1:
        return _interp(ld, loads, values[0])
    if nl == 1:
        return _interp(s, slews, [row[0] for row in values])
    i = min(max(bisect_left(slews, s) - 1, 0), ns - 2)
    j = min(max(bisect_left(loads, ld) - 1, 0), nl - 2)
    s0, s1 = slews[i], slews[i + 1]
    l0, l1 = loads[j], loads[j + 1]
    fs = (s - s0) / (s1 - s0)
    fl = (ld - l0) / (l1 - l0)
    return (values[i][j] * (1 - fs) * (1 - fl)
            + values[i + 1][j] * fs * (1 - fl)
            + values[i][j + 1] * (1 - fs) * fl
            + values[i + 1][j + 1] * fs * fl)


def _interp(x: float, xs: list, ys: list) -> float:
    """``np.interp`` of one in-range point (``xs`` ascending, len >= 2)."""
    j = bisect_right(xs, x) - 1
    if j == len(xs) - 1 or xs[j] == x:
        return ys[j]
    slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
    return slope * (x - xs[j]) + ys[j]


@dataclass
class LibCell:
    """Characterized view of one standard cell."""

    name: str
    area: float
    input_caps: dict                    # pin -> F
    delay: TimingTable
    output_slew: TimingTable
    leakage: float                      # W (mean over vectors)
    switch_energy: float                # J per output transition
    is_sequential: bool = False
    setup: float = 0.0                  # s
    hold: float = 0.0
    clk_q: float = 0.0
    min_pulse_width: float = 0.0

    @property
    def max_input_cap(self) -> float:
        return max(self.input_caps.values()) if self.input_caps else 0.0

    def pin_cap(self, pin: str) -> float:
        if pin in self.input_caps:
            return self.input_caps[pin]
        return self.max_input_cap


@dataclass
class Library:
    """A corner-resolved characterized library."""

    technology: str
    vdd: float
    cells: dict = field(default_factory=dict)    # name -> LibCell
    meta: dict = field(default_factory=dict)

    def cell(self, name: str) -> LibCell:
        try:
            return self.cells[name]
        except KeyError:
            raise ValueError(f"library has no cell {name!r}") from None

    def __contains__(self, name) -> bool:
        return name in self.cells

    def names(self):
        return sorted(self.cells)
