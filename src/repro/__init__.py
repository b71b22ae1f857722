"""Fast System Technology Co-Optimization (STCO) framework — reproduction.

Reproduces Ma et al., "Late Breaking Results: Fast System Technology
Co-Optimization Framework for Emerging Technology Based on Graph Neural
Networks" (DAC 2024) as a self-contained Python library:

* :mod:`repro.nn` — numpy autograd + GNN framework (GCN, RelGAT)
* :mod:`repro.tcad` — 2-D TFT device simulator (Poisson + quasi-2D IV)
* :mod:`repro.encoding` — unified device / cell graph encodings
* :mod:`repro.compact` — unified TFT compact model for CNT/IGZO/LTPS
* :mod:`repro.surrogate` — GNN TCAD surrogates (Poisson emulator, IV predictor)
* :mod:`repro.spice` — MNA circuit simulator for cell characterization
* :mod:`repro.cells` — 35-cell standard library
* :mod:`repro.charlib` — GNN fast cell-library characterization
* :mod:`repro.eda` — synthesis / place & route / STA / power evaluation flow
* :mod:`repro.stco` — the STCO design space (technology knobs) every
  search explores
* :mod:`repro.engine` — parallel evaluation engine with content caching
* :mod:`repro.search` — multi-objective design-space exploration
* :mod:`repro.api` — the declarative entry point: typed configs →
  :class:`~repro.api.workspace.Workspace` → :func:`~repro.api.runner.run`
  → :class:`~repro.api.report.RunReport`, plus the ``repro`` CLI
"""

__version__ = "1.0.0"
