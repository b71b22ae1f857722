"""Evaluation-outcome types shared by the engine and the STCO layer.

They live here so the evaluation engine (cache, executor) can
produce and consume them without depending on the search layer.
:mod:`repro.stco` re-exports both names.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..charlib.corners import Corner
from ..eda.flow import SystemResult

__all__ = ["PPAWeights", "EvaluationRecord"]


@dataclass(frozen=True)
class PPAWeights:
    """Scalarisation of the PPA objectives (log-domain weighted sum)."""

    power: float = 1.0
    performance: float = 1.0
    area: float = 0.5

    def score(self, result: SystemResult) -> float:
        """Higher is better: reward performance, penalise power and area."""
        perf = np.log10(max(result.fmax_hz, 1.0))
        pwr = np.log10(max(result.total_power_w, 1e-12))
        area = np.log10(max(result.area_um2, 1.0))
        return float(self.performance * perf - self.power * pwr
                     - self.area * area)

    def key(self) -> tuple:
        """Stable identity tuple (used in engine cache keys)."""
        return (round(self.power, 9), round(self.performance, 9),
                round(self.area, 9))


@dataclass
class EvaluationRecord:
    """One corner evaluation's outcome (one STCO iteration).

    ``predicted`` marks surrogate-filled records (see
    :mod:`repro.surrogate.fidelity`) that never touched the engine —
    consumers that require ground truth must check it (old pickled
    records predate the field, so read via
    ``getattr(record, "predicted", False)``).
    """

    corner: Corner
    result: SystemResult
    reward: float
    library_runtime_s: float
    flow_runtime_s: float
    cached: bool = False
    predicted: bool = False
