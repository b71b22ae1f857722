"""TCAD simulator facade: one entry point for Poisson and IV simulation.

Wraps :class:`~repro.tcad.poisson.PoissonSolver` and
:class:`~repro.tcad.iv.ChargeSheetIV` behind a device-level API. Each task
runs in a ``poisson`` or ``iv`` span, so its wall-clock lands in the trace
tree and in ``repro_span_seconds{span=...}``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs.trace import span
from .device import PlanarTFT
from .iv import ChargeSheetIV, IVResult
from .mesh import DeviceMesh
from .poisson import PoissonSolution, PoissonSolver

__all__ = ["TCADSimulator", "DeviceSolution"]


@dataclass
class DeviceSolution:
    """Everything the dataset builder needs for one (device, bias) point."""

    device: PlanarTFT
    mesh: DeviceMesh
    poisson: PoissonSolution
    ids: float
    vg: float
    vd: float


class TCADSimulator:
    """Simulate planar TFT devices with the full (non-surrogate) physics."""

    def solve_poisson(self, device: PlanarTFT, vg: float,
                      vd: float) -> tuple[DeviceMesh, PoissonSolution]:
        """2-D self-consistent electrostatics at one bias point."""
        with span("poisson"):
            mesh = device.mesh()
            solver = PoissonSolver(mesh)
            sol = solver.solve(vg, vd)
            if not sol.converged:
                sol = solver.solve_ramped(vg, vd, steps=4)
        return mesh, sol

    def simulate_iv(self, device: PlanarTFT, vgs, vds) -> IVResult:
        """Quasi-2D IV surface over a bias grid."""
        with span("iv"):
            engine = ChargeSheetIV(device)
            return engine.iv_surface(np.atleast_1d(vgs), np.atleast_1d(vds))

    def simulate_point(self, device: PlanarTFT, vg: float,
                       vd: float) -> DeviceSolution:
        """Full solution at one bias: 2-D fields plus the drain current."""
        mesh, sol = self.solve_poisson(device, vg, vd)
        with span("iv"):
            ids = ChargeSheetIV(device).ids(vg, vd)
        return DeviceSolution(device=device, mesh=mesh, poisson=sol,
                              ids=ids, vg=vg, vd=vd)
