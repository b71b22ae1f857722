"""Technology design space for STCO exploration.

The paper's framework explores technology knobs — the same three the cell
characterization varies: supply voltage VDD, threshold voltage Vth, and
gate unit capacitance Cox — searching for the best PPA at the system
level. The space is discretised so tabular RL applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from types import MappingProxyType

import numpy as np

from ..charlib.corners import Corner

__all__ = ["DesignSpace", "default_space"]


@dataclass
class DesignSpace:
    """Discrete grid over (vdd_scale, vth_shift, cox_scale)."""

    vdd_scales: tuple = (0.8, 0.9, 1.0, 1.1, 1.2)
    vth_shifts: tuple = (-0.1, 0.0, 0.1)
    cox_scales: tuple = (0.8, 1.0, 1.2)

    def __post_init__(self):
        axes = (tuple(self.vdd_scales), tuple(self.vth_shifts),
                tuple(self.cox_scales))
        self._points, self._index = _grid(axes, repr(axes))
        self._neighbors = None

    @property
    def size(self) -> int:
        return len(self._points)

    def point(self, index: int) -> Corner:
        return self._points[index]

    def index_of(self, corner: Corner) -> int:
        try:
            return self._index[corner.key()]
        except KeyError:
            raise ValueError(f"{corner} is not a point of this space") \
                from None

    def points(self) -> list:
        return list(self._points)

    def neighbors(self, index: int) -> list:
        """Indices reachable by one step along any axis (table built on
        first use: only Q-learning asks)."""
        if self._neighbors is None:
            from ..search.spaces import grid_neighbor_table
            self._neighbors = grid_neighbor_table(
                [len(self.vdd_scales), len(self.vth_shifts),
                 len(self.cox_scales)])
        return list(self._neighbors[index])

    def random_index(self, rng: np.random.Generator) -> int:
        return int(rng.integers(0, self.size))


@lru_cache(maxsize=32)
def _grid(axes: tuple, spelling: str) -> tuple:
    """A grid's points and its corner-key -> index map, built once per
    process and shared read-only by every space over the same axes
    (``Corner`` is frozen). ``spelling``, the axes' repr, keeps axes that
    compare equal but render differently (``0.0``/``-0.0``, ``1``/``1.0``)
    apart.

    The index map, not float equality against Corner fields: that made
    every ``index_of`` an O(n) linear scan, and the optimizers call it
    every iteration. Neighbor lists are built per space on first use."""
    points = tuple(Corner(v, t, c) for v, t, c in product(*axes))
    return points, MappingProxyType({p.key(): i
                                     for i, p in enumerate(points)})


def default_space() -> DesignSpace:
    """The 5 x 3 x 3 = 45-point default exploration grid."""
    return DesignSpace()
