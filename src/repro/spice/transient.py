"""Transient analysis with backward-Euler / trapezoidal integration.

Fixed-step integration with per-step Newton. Explicit capacitors use exact
companion models; the TFT Meyer capacitances are evaluated at the start of
each step (linearised within the step), the standard fast-SPICE treatment.

:func:`transient_batch` integrates B circuits of one topology in lockstep:
one Newton loop per time step for the whole batch, on a
:class:`~repro.spice.mna.CircuitBatch`. Members may differ in element
values, sources, stop time and step; each member's waveforms are bit for
bit what it gets integrated alone, and :func:`transient` is the batch of
one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs.metrics import get_registry
from .dc import dc_operating_point
from .mna import CircuitBatch, CompiledCircuit
from .netlist import Circuit

__all__ = ["TransientResult", "transient", "transient_batch"]

_registry = get_registry()
_M_TRANSIENTS = _registry.counter(
    "repro_spice_transients_total", "Transient analyses integrated.")
_M_NEWTON = _registry.counter(
    "repro_spice_newton_iterations_total",
    "Newton iterations over transient time steps, summed over circuits.")
_M_NONCONVERGED = _registry.counter(
    "repro_spice_nonconverged_total",
    "Transient analyses returned with converged=False.")


@dataclass
class TransientResult:
    """Waveforms from a transient run."""

    t: np.ndarray                 # (T,)
    voltages: dict                # node -> (T,) volts
    source_currents: dict         # vsource -> (T,) amps
    converged: bool

    def v(self, node: str) -> np.ndarray:
        if Circuit.is_ground(node):
            return np.zeros_like(self.t)
        return self.voltages[node]

    def i(self, source: str) -> np.ndarray:
        return self.source_currents[source]


def transient(circuit: Circuit | CompiledCircuit, t_stop: float, dt: float,
              method: str = "be", x0: np.ndarray | None = None,
              record_nodes=None) -> TransientResult:
    """Integrate the circuit from its DC point at ``t = 0``.

    Parameters
    ----------
    circuit:
        Circuit (or an already compiled one, reused across runs).
    t_stop, dt:
        Stop time and fixed step [s].
    method:
        ``"be"`` (backward Euler, default) or ``"trap"`` (trapezoidal).
    x0:
        Optional initial unknown vector (skips the DC solve), e.g. to
        start a latch in a known state.
    """
    return transient_batch([circuit], [t_stop], [dt], method,
                           x0s=None if x0 is None else [x0],
                           record_nodes=record_nodes)[0]


def _tabulate(sources_per_member: list, times: list, steps: int):
    """``(steps + 1, B, n_sources)`` source values at every member's
    time points; rows past a member's last step stay 0."""
    n = len(sources_per_member[0])
    out = np.zeros((steps + 1, len(times), n))
    for j, (sources, t) in enumerate(zip(sources_per_member, times)):
        for k, src in enumerate(sources):
            out[:len(t), j, k] = [src.value(tk) for tk in t]
    return out


def _start_points(batch: CircuitBatch, x0s) -> tuple:
    """Initial states and their convergence. A member without an ``x0``
    starts from its DC point, solved once per distinct set of source
    values at ``t = 0`` (DC ignores capacitors)."""
    X = np.zeros((batch.B, batch.size))
    ok = np.ones(batch.B, dtype=bool)
    solved: dict = {}
    for j, member in enumerate(batch.members):
        if x0s is not None and x0s[j] is not None:
            X[j] = np.array(x0s[j], dtype=np.float64)
            continue
        key = (tuple(src.value(0.0) for src in member.vsources),
               tuple(src.value(0.0) for src in member.isources),
               batch.member_key(j))
        if key not in solved:
            solved[key] = dc_operating_point(member, t=0.0)
        op = solved[key]
        X[j] = op.x
        ok[j] = op.converged
    return X, ok


def transient_batch(circuits: list, t_stops, dts, method: str = "be",
                    x0s=None, record_nodes=None) -> list:
    """Integrate B circuits of one topology in lockstep.

    ``circuits`` (or compiled ones) must share nodes and element
    connectivity; element values, sources, ``t_stops`` and ``dts`` are
    per member, so step counts may differ: a member that has run its
    ``ceil(t_stop / dt)`` steps sits out the rest. ``x0s`` optionally
    gives start vectors (``None`` entries start from DC). Returns one
    :class:`TransientResult` per circuit, in order.

    Raises ``ValueError`` on a topology mismatch or mismatched lengths.
    """
    if method not in ("be", "trap"):
        raise ValueError("method must be 'be' or 'trap'")
    members = [c if isinstance(c, CompiledCircuit) else CompiledCircuit(c)
               for c in circuits]
    t_stops, dts = list(t_stops), list(dts)
    if len(t_stops) != len(members) or len(dts) != len(members) or (
            x0s is not None and len(x0s) != len(members)):
        raise ValueError("circuits, t_stops, dts and x0s must have equal "
                         "lengths")
    batch = CircuitBatch(members)
    B = batch.B

    n_steps = np.array([int(np.ceil(t / d)) for t, d in zip(t_stops, dts)])
    times = [np.linspace(0.0, k * d, k + 1) for k, d in zip(n_steps, dts)]
    steps = int(n_steps.max())
    dt = np.array(dts, dtype=np.float64)[:, None]
    v_src = _tabulate([m.vsources for m in members], times, steps)
    i_src = _tabulate([m.isources for m in members], times, steps)

    X, all_ok = _start_points(batch, x0s)
    history = np.empty((steps + 1, B, batch.size))
    history[0] = X

    has_caps, has_tft = batch.n_caps > 0, batch.n_tft > 0
    c_val = batch.c_val
    i_cap_prev = np.zeros((B, batch.n_caps))
    i_gs_prev = np.zeros((B, batch.n_tft))
    i_gd_prev = np.zeros((B, batch.n_tft))
    geq = ieq = tft_caps = None
    iterations = 0

    for k in range(1, steps + 1):
        active = n_steps >= k
        # Companion models from the previous accepted solution.
        if has_caps:
            va, vb = batch.cap_voltages(X)
            v_prev = va - vb
            if method == "be":
                geq = c_val / dt
                ieq = -geq * v_prev
            else:
                geq = 2.0 * c_val / dt
                ieq = -geq * v_prev - i_cap_prev
        if has_tft:
            vd, vg, vs = batch.tft_voltages(X)
            cgs, cgd = batch.tfts.capacitances(vg - vs, vd - vs)
            v_gs_prev = vg - vs
            v_gd_prev = vg - vd
            if method == "be":
                g_gs = cgs / dt
                g_gd = cgd / dt
                ieq_gs = -g_gs * v_gs_prev
                ieq_gd = -g_gd * v_gd_prev
            else:
                g_gs = 2.0 * cgs / dt
                g_gd = 2.0 * cgd / dt
                ieq_gs = -g_gs * v_gs_prev - i_gs_prev
                ieq_gd = -g_gd * v_gd_prev - i_gd_prev
            tft_caps = (g_gs, ieq_gs, g_gd, ieq_gd)

        G, b = batch.step_system(v_src[k], i_src[k], cap_geq=geq,
                                 cap_ieq=ieq, tft_caps=tft_caps)
        X, converged, iters, _ = batch.newton(X, G, b, active=active,
                                              max_iter=40)
        all_ok &= converged | ~active
        iterations += int(iters.sum())
        if method == "trap":
            if has_caps:
                va, vb = batch.cap_voltages(X)
                i_cap_prev = geq * (va - vb) + ieq
            if has_tft:
                vd, vg, vs = batch.tft_voltages(X)
                i_gs_prev = g_gs * (vg - vs) + ieq_gs
                i_gd_prev = g_gd * (vg - vd) + ieq_gd
        history[k] = X

    _M_TRANSIENTS.inc(B)
    _M_NEWTON.inc(iterations)
    _M_NONCONVERGED.inc(int((~all_ok).sum()))

    names = list(record_nodes or batch.members[0].node_names)
    results = []
    for j, member in enumerate(members):
        h = history[:n_steps[j] + 1, j]
        volts = {}
        for node in names:
            i = member.node_index(node)
            volts[node] = (np.zeros(len(h)) if i < 0
                           else np.ascontiguousarray(h[:, i]))
        amps = {src.name: np.ascontiguousarray(h[:, member.n_nodes + q])
                for q, src in enumerate(member.vsources)}
        results.append(TransientResult(t=times[j], voltages=volts,
                                       source_currents=amps,
                                       converged=bool(all_ok[j])))
    return results
