"""SPICE-class circuit simulator: MNA + Newton DC + BE/trap transient.

Stands in for the commercial transistor-level SPICE the paper used to
generate cell-characterization datasets. Devices: R, C, V/I sources and the
unified-compact-model TFT (vectorised evaluation with complex-step
derivatives).
"""

from .waveforms import DC, Pulse, PWL
from .netlist import (Circuit, Resistor, Capacitor, VoltageSource,
                      CurrentSource, TFT, GROUND)
from .mna import CircuitBatch, CompiledCircuit, NewtonResult
from .dc import OperatingPoint, dc_operating_point, dc_sweep
from .transient import TransientResult, transient, transient_batch
from .measure import (crossing_times, first_crossing, propagation_delay,
                      transition_time, integrate_supply_energy,
                      average_power, settles_to)

__all__ = [
    "DC", "Pulse", "PWL",
    "Circuit", "Resistor", "Capacitor", "VoltageSource", "CurrentSource",
    "TFT", "GROUND",
    "CircuitBatch", "CompiledCircuit", "NewtonResult",
    "OperatingPoint", "dc_operating_point", "dc_sweep",
    "TransientResult", "transient", "transient_batch",
    "crossing_times", "first_crossing", "propagation_delay",
    "transition_time", "integrate_supply_energy", "average_power",
    "settles_to",
]
