"""SPICE-based cell characterization: the nine Table IV metrics.

For each cell/corner the characterizer measures, with transistor-level
transient / DC simulation:

* **delay** and **output slew** per timing arc over a slew x load grid;
* **capacitance** — effective input capacitance per input pin (charge
  injected during an input edge divided by the swing);
* **flip power** — energy per transition when input and output both flip;
* **non-flip power** — energy per transition when only inputs flip;
* **leakage power** — static power per input vector;
* **min setup / min hold / min pulse width** for sequential cells, by
  bisection on pass/fail capture transients.

Every characterization is a plan that yields its transients round by
round and receives their results: a combinational cell's arcs in one
round, a sequential cell's fixed runs plus the first probes of all its
bisections in one, then one round per bisection step. A *cohort*
(:meth:`CellCharacterizer.cohort`) is one cell at many corners whose
plans advance together: each round integrates every member's runs as one
lockstep batch (:func:`repro.spice.transient_batch`), and each member's
waveforms are bit for bit what it gets alone. A lone characterizer is a
cohort of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..cells.cell import Cell, VDD_NET
# ``transient`` is not called here any more; it stays importable from this
# module for callers (and tracers) that look it up by name.
from ..spice import (Circuit, DC, PWL, Pulse, dc_operating_point,
                     integrate_supply_energy, propagation_delay, settles_to,
                     transient, transient_batch, transition_time)
from .corners import Corner
from .technology import TechnologyPair

__all__ = ["CharConfig", "Measurement", "CellCharacterizer",
           "bisect_lockstep"]


@dataclass(frozen=True)
class CharConfig:
    """Characterization effort knobs."""

    slews: tuple = (5e-9, 20e-9)
    loads: tuple = (10e-15, 40e-15)
    cap_slew: float = 10e-9
    seq_slew: float = 8e-9
    seq_load: float = 20e-15
    n_bisect: int = 7
    max_steps: int = 420
    min_steps: int = 120


@dataclass
class Measurement:
    """One characterized data point (a row of the paper's dataset)."""

    cell: str
    metric: str
    value: float
    technology: str
    corner: Corner
    pin: str | None = None
    output: str | None = None
    slew: float = 0.0
    load: float = 0.0
    states: dict = field(default_factory=dict)   # pin -> (cur, nxt) bools


class CellCharacterizer:
    """Characterize one cell at one technology corner."""

    def __init__(self, cell: Cell, tech: TechnologyPair,
                 corner: Corner | None = None,
                 config: CharConfig | None = None):
        self.cell = cell
        self.corner = corner if corner is not None else Corner(1.0, 0.0, 1.0)
        self.tech = tech.at_corner(vdd=tech.vdd * self.corner.vdd_scale,
                                   vth_shift=self.corner.vth_shift,
                                   cox_scale=self.corner.cox_scale)
        self.config = config if config is not None else CharConfig()
        self.vdd = self.tech.vdd
        self._tau = self._estimate_tau()
        # The cohort this characterizer measures with, and the rows its
        # run measured for members that have not asked for them yet.
        self._peers: list = [self]
        self._waiting: dict = {}

    @classmethod
    def cohort(cls, cell: Cell, tech: TechnologyPair, corners,
               config: CharConfig | None = None) -> list:
        """One characterizer of ``cell`` per corner, as one cohort: the
        first :meth:`characterize` call measures every member, one
        lockstep batch per round, and each call returns its own rows."""
        members = [cls(cell, tech, corner, config) for corner in corners]
        waiting: dict = {}
        for member in members:
            member._peers, member._waiting = members, waiting
        return members

    # ------------------------------------------------------------------
    def _estimate_tau(self) -> float:
        """Drive-strength time constant for window sizing."""
        n = self.tech.nmos
        ov = max(self.vdd - n.vth, 0.3)
        g2 = n.gamma + 2.0
        i_on = (n.w / n.l) * n.mu0 * n.cox / g2 * ov ** g2
        c = max(self.config.loads) + 50e-15
        return c * self.vdd / max(i_on, 1e-12)

    def _build(self, waveforms: dict, load: float) -> Circuit:
        """Cell testbench: supplies, input sources, output loads."""
        ckt = Circuit(self.cell.name)
        ckt.vsource("vdd", "vddn", "0", DC(self.vdd))
        pin_map = {VDD_NET: "vddn"}
        for pin in self.cell.inputs:
            wf = waveforms.get(pin, DC(0.0))
            ckt.vsource(f"v_{pin}", f"n_{pin}", "0", wf)
            pin_map[pin] = f"n_{pin}"
        for pin in self.cell.outputs:
            pin_map[pin] = f"n_{pin}"
            ckt.capacitor(f"cl_{pin}", f"n_{pin}", "0", load)
        self.cell.instantiate(ckt, "u0", pin_map, self.tech.nmos,
                              self.tech.pmos)
        return ckt

    def _leakage_current(self, vector: dict) -> float:
        wf = {p: DC(self.vdd if vector[p] else 0.0) for p in self.cell.inputs}
        ckt = self._build(wf, load=1e-15)
        op = dc_operating_point(ckt)
        return abs(op.i("vdd"))

    # ------------------------------------------------------------------
    def _sensitizing_vectors(self):
        """(pin, base vector) pairs where toggling pin flips an output,
        plus (pin, vector) pairs where it flips no output."""
        flips, nonflips = [], []
        for pin in self.cell.inputs:
            flip_found = nonflip_found = None
            for vec in self.cell.input_vectors():
                if vec[pin]:
                    continue
                lo = self.cell.evaluate(vec)
                hi = self.cell.evaluate({**vec, pin: True})
                changed = [o for o in self.cell.outputs if lo[o] != hi[o]]
                if changed and flip_found is None:
                    flip_found = (vec, changed[0])
                if not changed and nonflip_found is None:
                    nonflip_found = vec
                if flip_found and nonflip_found:
                    break
            if flip_found:
                flips.append((pin, *flip_found))
            if nonflip_found is not None:
                nonflips.append((pin, nonflip_found))
        return flips, nonflips

    def _states(self, vector: dict, toggling: str | None = None) -> dict:
        return {p: ((vector[p], not vector[p]) if p == toggling
                    else (vector[p], vector[p]))
                for p in self.cell.inputs}

    # ------------------------------------------------------------------
    def _combinational_plan(self):
        """All nine-metric rows for a combinational cell, as a plan: one
        round of ``(waveforms, load, t_stop)`` runs."""
        cell, cfg, vdd = self.cell, self.config, self.vdd
        rows: list[Measurement] = []
        flips, nonflips = self._sensitizing_vectors()
        tau = self._tau

        def mk(metric, value, **kw):
            rows.append(Measurement(cell=cell.name, metric=metric,
                                    value=value, technology=self.tech.name,
                                    corner=self.corner, **kw))

        leak_i = self._leakage_current(
            {p: False for p in cell.inputs})

        def pulse(vec, pin, slew, td, pw, load, t_stop):
            wf = {p: DC(vdd if vec[p] else 0.0) for p in cell.inputs}
            wf[pin] = Pulse(0.0, vdd, td=td, tr=slew, tf=slew, pw=pw)
            return wf, load, t_stop

        def arc(pin, vec, out, slew, load):
            """Delay, output slew and flip power of one arc."""
            out_rises_with_pin = not self.cell.evaluate(vec)[out]
            t_edge = 3 * slew + 6 * tau
            td = 2 * slew + 2 * tau
            pw = t_edge + 4 * slew
            t_stop = td + pw + t_edge + 4 * slew

            def measure(res):
                t = res.t
                v_in = res.v(f"n_{pin}")
                v_out = res.v(f"n_{out}")
                d1 = propagation_delay(t, v_in, v_out, vdd, in_rising=True,
                                       out_rising=out_rises_with_pin,
                                       after=td * 0.5)
                d2 = propagation_delay(t, v_in, v_out, vdd, in_rising=False,
                                       out_rising=not out_rises_with_pin,
                                       after=td + pw - slew)
                s1 = transition_time(t, v_out, vdd,
                                     rising=out_rises_with_pin,
                                     after=td * 0.5)
                s2 = transition_time(t, v_out, vdd,
                                     rising=not out_rises_with_pin,
                                     after=td + pw - slew)
                for d, s, rising in ((d1, s1, True), (d2, s2, False)):
                    states = self._states({**vec, pin: not rising},
                                          toggling=pin)
                    if np.isfinite(d) and d > 0:
                        mk("delay", d, pin=pin, output=out, slew=slew,
                           load=load, states=states)
                    if np.isfinite(s) and s > 0:
                        mk("output_slew", s, pin=pin, output=out,
                           slew=slew, load=load, states=states)
                # Flip power: supply energy minus leakage, split over the
                # two transitions.
                e_tot = integrate_supply_energy(t, res.i("vdd"), vdd)
                e_dyn = max(e_tot - leak_i * vdd * t[-1], 0.0)
                mk("flip_power", e_dyn / 2.0, pin=pin, output=out,
                   slew=slew, load=load,
                   states=self._states(vec, toggling=pin))

            return pulse(vec, pin, slew, td, pw, load, t_stop), measure

        def capacitance(pin, vec):
            """Input capacitance of one pin (single condition)."""
            slew = cfg.cap_slew
            td = 2 * slew + 2 * tau
            pw = 4 * slew + 6 * tau
            t_stop = td + pw + 6 * slew

            def measure(res):
                t = res.t
                i_pin = res.i(f"v_{pin}")
                mask = (t >= td - slew) & (t <= td + 3 * slew)
                q = abs(np.trapezoid(i_pin[mask], t[mask]))
                mk("capacitance", q / vdd, pin=pin,
                   states=self._states(vec, toggling=pin))

            return (pulse(vec, pin, slew, td, pw, min(cfg.loads), t_stop),
                    measure)

        def non_flip(pin, vec):
            """Non-flip power of one pin under a masking vector."""
            slew = cfg.slews[0]
            td = 2 * slew + 2 * tau
            pw = 4 * slew + 4 * tau
            t_stop = td + pw + 6 * slew

            def measure(res):
                e_tot = integrate_supply_energy(res.t, res.i("vdd"), vdd)
                e_dyn = max(e_tot - leak_i * vdd * res.t[-1], 0.0)
                mk("non_flip_power", e_dyn / 2.0, pin=pin, slew=slew,
                   load=min(cfg.loads),
                   states=self._states(vec, toggling=pin))

            return (pulse(vec, pin, slew, td, pw, min(cfg.loads), t_stop),
                    measure)

        plan = ([arc(pin, vec, out, slew, load) for pin, vec, out in flips
                 for slew in cfg.slews for load in cfg.loads]
                + [capacitance(pin, vec) for pin, vec, _ in flips]
                + [non_flip(pin, vec) for pin, vec in nonflips])
        if plan:
            runs, measures = zip(*plan)
            results = yield list(runs)
            for measure, res in zip(measures, results):
                measure(res)

        # Leakage per input vector.
        for vec in cell.input_vectors():
            p_leak = self._leakage_current(vec) * vdd
            mk("leakage_power", p_leak, states=self._states(vec))
        return rows

    # ------------------------------------------------------------------
    # Sequential characterization
    # ------------------------------------------------------------------
    def _seq_nets(self):
        seq = self.cell.seq
        others = [p for p in self.cell.inputs
                  if p not in (seq.data, seq.clock)]
        q = self.cell.outputs[0]
        return seq, others, q

    def _capture_run(self, d_times, d_values, clk_wf, t_stop):
        """A capture testbench run: data and clock waveforms, every other
        input (reset/set) held inactive."""
        seq, others, _ = self._seq_nets()
        wf = {seq.data: PWL(tuple(d_times), tuple(d_values)),
              seq.clock: clk_wf}
        for p in others:
            wf[p] = DC(0.0)   # reset/set inactive
        return wf, self.config.seq_load, t_stop

    def _settles(self, want: float):
        """Pass check: q settles to ``want`` by the end of the run."""
        q = self.cell.outputs[0]
        return lambda res: settles_to(res.t, res.v(f"n_{q}"), want,
                                      tol=0.2 * self.vdd)

    def _two_edge_clock(self, t_first: float, period: float, slew: float,
                        t_stop: float):
        """Clock with exactly two rising edges: a priming edge at
        ``t_first`` (loads a known initial state) and the measurement edge
        at ``t_first + period``. No further edges — stray captures would
        corrupt the setup/hold pass/fail tests."""
        vdd = self.vdd
        half = period / 2.0
        t2 = t_first + period
        return PWL((0.0, t_first, t_first + slew, t_first + half,
                    t_first + half + slew, t2, t2 + slew, t2 + half,
                    t2 + half + slew, t_stop),
                   (0.0, 0.0, vdd, vdd, 0.0, 0.0, vdd, vdd, 0.0, 0.0))

    def _capture_trial(self, setup: float, hold_window: float,
                       capture_one: bool, t_clk: float, slew: float,
                       t_stop: float):
        """Single capture trial, as ``(run, check)``: the FF is primed to
        the opposite state by a first clock edge; data then toggles
        ``setup`` before the measurement edge and toggles back
        ``hold_window`` after it."""
        vdd = self.vdd
        start, target = (0.0, vdd) if capture_one else (vdd, 0.0)
        period = t_clk / 2.0
        t_prime = t_clk - period           # priming edge
        t_d = t_clk - setup
        t_back = t_clk + hold_window
        t_d = max(t_d, t_prime + period * 0.25)   # after priming capture
        times = [0.0, t_d, t_d + slew,
                 max(t_back, t_d + slew + 1e-12),
                 max(t_back, t_d + slew + 1e-12) + slew, t_stop]
        values = [start, start, target, target, start, start]
        clk = self._two_edge_clock(t_prime, period, slew, t_stop)
        return (self._capture_run(times, values, clk, t_stop),
                self._settles(vdd if capture_one else 0.0))

    def _pulse_trial(self, width: float, t_clk: float, slew: float,
                     t_stop: float):
        """Clock pulse-width trial, as ``(run, check)``: prime to 0 with a
        long first pulse, then capture a 1 on a high phase of ``width``."""
        vdd = self.vdd
        period = t_clk / 2.0
        t_prime = t_clk - period
        t_d = t_prime + period * 0.4
        times = (0.0, t_d, t_d + slew, t_stop)
        values = (0.0, 0.0, vdd, vdd)
        clk = PWL(
            (0.0, t_prime, t_prime + slew, t_prime + period * 0.3,
             t_prime + period * 0.3 + slew,
             t_clk, t_clk + slew, t_clk + slew + width,
             t_clk + 2 * slew + width, t_stop),
            (0.0, 0.0, vdd, vdd, 0.0, 0.0, vdd, vdd, 0.0, 0.0))
        return (self._capture_run(times, values, clk, t_stop),
                self._settles(vdd))

    def _sequential_plan(self):
        """Sequential metrics: clk->q delay/slew/power + setup/hold/MPW,
        as a plan.

        Round 0 holds both clk->q runs, both leakage runs, the check at
        the top of every bisection range and every bisection's first
        midpoint. The five bisections then advance in lockstep, one round
        per step."""
        cell, cfg, vdd = self.cell, self.config, self.vdd
        rows: list[Measurement] = []
        seq, others, q = self._seq_nets()
        slew = cfg.seq_slew
        tau = self._tau
        # The NAND-latch q transitions take tens of gate delays; the settle
        # window must cover the slowest one or pass/fail bisection lies.
        guard = 30 * tau + 12 * slew
        t_clk = guard
        t_stop = t_clk + guard
        period = t_clk / 2.0
        t_prime = t_clk - period

        def mk(metric, value, **kw):
            rows.append(Measurement(cell=cell.name, metric=metric,
                                    value=value, technology=self.tech.name,
                                    corner=self.corner, **kw))

        # clk->q runs for both captured values: a first clock edge primes
        # the FF with the opposite value so q makes a real transition at
        # the measurement edge.
        fixed = []
        for capture_one in (True, False):
            start = 0.0 if capture_one else vdd
            target = vdd if capture_one else 0.0
            t_d = t_prime + period * 0.4      # ample setup to second edge
            fixed.append(self._capture_run(
                (0.0, t_d, t_d + slew, t_stop),
                (start, start, target, target),
                self._two_edge_clock(t_prime, period, slew, t_stop), t_stop))
        # Leakage runs per data value with a *settled* internal state:
        # clock a full cycle (so the FF holds a definite value), then
        # average the supply current over the quiet tail. A cold DC solve
        # would sit at the latch's metastable point and report crowbar
        # current instead.
        for d_high in (False, True):
            d_v = vdd if d_high else 0.0
            clk = PWL((0.0, t_prime, t_prime + slew,
                       t_prime + period * 0.5,
                       t_prime + period * 0.5 + slew, t_stop),
                      (0.0, 0.0, vdd, vdd, 0.0, 0.0))
            fixed.append(self._capture_run((0.0, t_stop), (d_v, d_v), clk,
                                           t_stop))

        # Setup / hold (both data polarities) and the minimum clock pulse
        # width (high phase). Ranges stay inside the half-period around
        # the measurement edge. A probe is named by its trial's
        # arguments, so probes that coincide (the setup and hold checks
        # at the top of their ranges) run once.
        hold_safe = period * 0.45
        setup_max = period * 0.6
        searches = []
        for capture_one in (True, False):
            searches.append(((0.0, setup_max),
                             lambda x, c=capture_one: (x, hold_safe, c)))
            searches.append(((0.0, hold_safe),
                             lambda x, c=capture_one: (setup_max, x, c)))
        searches.append(((slew * 0.5, guard * 0.9), lambda x: (x,)))

        def trial(args):
            if len(args) == 1:
                return self._pulse_trial(args[0], t_clk, slew, t_stop)
            return self._capture_trial(*args, t_clk, slew, t_stop)

        search = bisect_lockstep([bounds for bounds, _ in searches],
                                 cfg.n_bisect)
        fixed_results: list = []
        passed = None
        while True:
            try:
                probes = search.send(passed)
            except StopIteration as stop:
                found = stop.value
                break
            keys = [searches[i][1](x) for i, x in probes]
            unique = list(dict.fromkeys(keys))
            trials = [trial(k) for k in unique]
            # The fixed runs ride along with the first round.
            extra = [] if fixed_results else fixed
            results = yield extra + [run for run, _ in trials]
            fixed_results.extend(results[:len(extra)])
            ok = {k: check(res) for k, (_, check), res
                  in zip(unique, trials, results[len(extra):])}
            passed = [ok[k] for k in keys]

        for capture_one, res in zip((True, False), fixed_results[:2]):
            t = res.t
            v_clk = res.v(f"n_{seq.clock}")
            v_q = res.v(f"n_{q}")
            d = propagation_delay(t, v_clk, v_q, vdd, in_rising=True,
                                  out_rising=capture_one,
                                  after=t_clk - 2 * slew)
            s = transition_time(t, v_q, vdd, rising=capture_one,
                                after=t_clk - 2 * slew)
            states = {seq.data: (capture_one, capture_one),
                      seq.clock: (False, True)}
            for p in others:
                states[p] = (False, False)
            if np.isfinite(d) and d > 0:
                mk("delay", d, pin=seq.clock, output=q, slew=slew,
                   load=cfg.seq_load, states=states)
            if np.isfinite(s) and s > 0:
                mk("output_slew", s, pin=seq.clock, output=q, slew=slew,
                   load=cfg.seq_load, states=states)
            e = integrate_supply_energy(t, res.i("vdd"), vdd)
            mk("flip_power", max(e, 0.0) / 2.0, pin=seq.clock, output=q,
               slew=slew, load=cfg.seq_load, states=states)

        for capture_one, ts, th in ((True, found[0], found[1]),
                                    (False, found[2], found[3])):
            states = {seq.data: (not capture_one, capture_one),
                      seq.clock: (False, True)}
            for p in others:
                states[p] = (False, False)
            if np.isfinite(ts):
                mk("min_setup", ts, pin=seq.data, slew=slew,
                   load=cfg.seq_load, states=states)
            if np.isfinite(th):
                mk("min_hold", th, pin=seq.data, slew=slew,
                   load=cfg.seq_load, states=states)

        w = found[4]
        if np.isfinite(w):
            states = {seq.data: (True, True), seq.clock: (False, True)}
            for p in others:
                states[p] = (False, False)
            mk("min_pulse_width", w, pin=seq.clock, slew=slew,
               load=cfg.seq_load, states=states)

        for d_high, res in zip((False, True), fixed_results[2:]):
            tail = res.t > 0.9 * t_stop
            i_leak = float(np.mean(np.abs(res.i("vdd")[tail])))
            vec = {p: False for p in cell.inputs}
            vec[seq.data] = d_high
            mk("leakage_power", i_leak * vdd, states=self._states(vec))
        return rows

    # ------------------------------------------------------------------
    def _plan(self):
        if self.cell.is_sequential:
            return self._sequential_plan()
        return self._combinational_plan()

    def characterize(self) -> list:
        """All measurements for this cell/corner.

        The first call of a cohort member measures every member of its
        cohort that has no rows waiting; each call returns (and hands
        over) its own member's rows."""
        waiting = self._waiting
        if self not in waiting:
            members = [m for m in self._peers if m not in waiting]
            waiting.update(zip(members, _measure_together(members)))
        return waiting.pop(self)


def _measure_together(members: list) -> list:
    """Each member's rows. The members' plans advance in lockstep: every
    round integrates all their runs as one :func:`transient_batch` (one
    cell's testbenches share a topology), and a member whose plan is done
    sits out the rest."""
    plans = [m._plan() for m in members]
    rows: list = [None] * len(members)
    sent: list = [None] * len(members)
    while True:
        rounds = []
        for j, plan in enumerate(plans):
            if rows[j] is not None:
                continue
            try:
                rounds.append((j, plan.send(sent[j])))
            except StopIteration as stop:
                rows[j] = stop.value
        if not rounds:
            return rows
        circuits, t_stops, dts = [], [], []
        for j, runs in rounds:
            member = members[j]
            for waveforms, load, t_stop in runs:
                circuits.append(member._build(waveforms, load))
                t_stops.append(t_stop)
                dts.append(t_stop / member.config.max_steps)
        results = transient_batch(circuits, t_stops, dts)
        at = 0
        for j, runs in rounds:
            sent[j] = results[at:at + len(runs)]
            at += len(runs)


def bisect_lockstep(bounds: list, n_bisect: int):
    """Smallest passing x in each ``(lo, hi)`` of ``bounds``, with every
    search advanced in lockstep.

    Each search is a sequential bisection for a monotone predicate: check
    ``hi`` (a search that fails it yields nan), then halve the range
    ``n_bisect`` times, keeping ``hi`` on the passing side. For any
    predicate, monotone or not, a search probes exactly the points and
    returns exactly the value it would alone. This is a generator: it
    yields one round's ``(search index, x)`` probes, is sent the
    predicate at each, and returns the found values; the checks at ``hi``
    ride in the first round with the first midpoints, and a search that
    fails its check leaves after that round.
    """
    lo = [a for a, _ in bounds]
    hi = [b for _, b in bounds]
    live = list(range(len(bounds)))
    ok_at_hi = [False] * len(bounds)
    for r in range(max(n_bisect, 1)):
        probes = ([(i, 0.5 * (lo[i] + hi[i])) for i in live]
                  if r < n_bisect else [])
        checks = [(i, hi[i]) for i in live] if r == 0 else []
        if not probes and not checks:
            break
        passed = yield probes + checks
        for (i, mid), ok in zip(probes, passed):
            if ok:
                hi[i] = mid
            else:
                lo[i] = mid
        if r == 0:
            for (i, _), ok in zip(checks, passed[len(probes):]):
                ok_at_hi[i] = bool(ok)
            live = [i for i in live if ok_at_hi[i]]
    return [hi[i] if ok_at_hi[i] else math.nan for i in range(len(bounds))]
