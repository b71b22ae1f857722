"""The STCO design space: the technology knobs every search explores.

Runs themselves go through :func:`repro.api.run` (``mode="fast"`` /
``"traditional"`` are the paper's two Table I rows); the optimizers live
in :mod:`repro.search.optimizers`. ``PPAWeights`` and
``EvaluationRecord`` are re-exported from :mod:`repro.engine.records`.
"""

from ..engine.records import EvaluationRecord, PPAWeights
from .space import DesignSpace, default_space

__all__ = ["DesignSpace", "default_space", "PPAWeights",
           "EvaluationRecord"]
