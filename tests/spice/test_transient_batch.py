"""Lockstep batched transients: every member equals its lone run, bit
for bit."""

import numpy as np
import pytest

from repro.compact import TFTParams
from repro.obs.metrics import get_registry
from repro.spice import (CircuitBatch, CompiledCircuit, Circuit, Pulse, PWL,
                         transient, transient_batch)

NMOS = TFTParams(polarity="n", vth=0.8, mu0=50e-4, gamma=0.2, ss=0.2,
                 cox=1e-4, w=20e-6, l=4e-6, cov=2e-10)
PMOS = TFTParams(polarity="p", vth=-0.8, mu0=25e-4, gamma=0.2, ss=0.2,
                 cox=1e-4, w=40e-6, l=4e-6, cov=2e-10)
VDD = 3.0


def inverter(load=50e-15, vin=None, i_out=0.0, nmos=NMOS, vdd=VDD):
    """Inverter testbench with a current source into the output node, so
    one member can be driven where Newton cannot follow."""
    ckt = Circuit("inv")
    ckt.vsource("vdd", "vdd", "0", vdd)
    ckt.vsource("vin", "in", "0", vin if vin is not None else
                Pulse(0.0, vdd, td=1e-7, tr=2e-8, tf=2e-8, pw=3e-7))
    ckt.tft("mp", "out", "in", "vdd", PMOS)
    ckt.tft("mn", "out", "in", "0", nmos)
    ckt.capacitor("cl", "out", "0", load)
    ckt.isource("iout", "0", "out",
                Pulse(0.0, i_out, td=1.5e-7, tr=1e-9, tf=1e-9, pw=1.0))
    return ckt


def assert_same(a, b):
    assert a.converged == b.converged
    assert np.array_equal(a.t, b.t)
    assert a.voltages.keys() == b.voltages.keys()
    for node in a.voltages:
        assert np.array_equal(a.v(node), b.v(node), equal_nan=True), node
    assert a.source_currents.keys() == b.source_currents.keys()
    for src in a.source_currents:
        assert np.array_equal(a.i(src), b.i(src), equal_nan=True), src


def run_both(make, t_stops, dts, method):
    batch = transient_batch([make(j) for j in range(len(t_stops))],
                            t_stops, dts, method)
    alone = [transient(make(j), t_stop=t, dt=d, method=method)
             for j, (t, d) in enumerate(zip(t_stops, dts))]
    return batch, alone


MEMBERS = [
    dict(load=50e-15),
    dict(load=10e-15, vin=Pulse(0.0, VDD, td=5e-8, tr=5e-9, tf=5e-9,
                                pw=1e-7)),
    dict(load=80e-15, nmos=TFTParams(polarity="n", vth=0.9, mu0=40e-4,
                                     gamma=0.25, ss=0.25, cox=1.2e-4,
                                     w=20e-6, l=4e-6, cov=2e-10)),
    dict(load=30e-15, vdd=2.5, vin=PWL((0.0, 1e-7, 1.2e-7, 4e-7),
                                       (2.5, 2.5, 0.0, 0.0))),
]


class TestEquivalence:
    @pytest.mark.parametrize("method", ["be", "trap"])
    def test_batch_equals_lone_runs(self, method):
        t_stops = [4e-7, 3e-7, 4.5e-7, 3.5e-7]
        dts = [2e-9, 2e-9, 3e-9, 2.5e-9]
        batch, alone = run_both(lambda j: inverter(**MEMBERS[j]), t_stops,
                                dts, method)
        for a, b in zip(batch, alone):
            assert a.converged
            assert_same(a, b)

    def test_ragged_step_counts(self):
        # ceil(t_stop / (t_stop / 220)) is 221 for this t_stop: one more
        # step than its neighbours.
        t_stops = [3.08e-7, 3.1e-7, 2e-7]
        dts = [t / 220 for t in t_stops[:2]] + [4e-9]
        batch, alone = run_both(lambda j: inverter(**MEMBERS[j]), t_stops,
                                dts, "be")
        assert [len(r.t) for r in batch] == [222, 221, 51]
        for a, b in zip(batch, alone):
            assert_same(a, b)

    def test_order_and_company_do_not_matter(self):
        make = lambda j: inverter(**MEMBERS[j])   # noqa: E731
        fwd = transient_batch([make(j) for j in range(4)], [3e-7] * 4,
                              [2e-9] * 4)
        rev = transient_batch([make(j) for j in reversed(range(4))],
                              [3e-7] * 4, [2e-9] * 4)
        pair = transient_batch([make(1), make(1)], [3e-7] * 2, [2e-9] * 2)
        for a, b in zip(fwd, reversed(rev)):
            assert_same(a, b)
        assert_same(pair[0], fwd[1])
        assert_same(pair[1], fwd[1])

    def test_nonconverging_member_leaves_others_untouched(self):
        # 1 A into a 50 fF node: Newton's clamped steps cannot follow.
        kwargs = [dict(load=50e-15), dict(load=50e-15, i_out=1.0),
                  dict(load=20e-15)]
        before = get_registry().snapshot()
        batch = transient_batch([inverter(**k) for k in kwargs],
                                [3e-7] * 3, [2e-9] * 3)
        delta = get_registry().delta(before)
        assert [r.converged for r in batch] == [True, False, True]
        assert delta["repro_spice_transients_total"] == 3
        assert delta["repro_spice_nonconverged_total"] == 1
        for k, res in zip(kwargs, batch):
            assert_same(res, transient(inverter(**k), t_stop=3e-7, dt=2e-9))

    def test_start_vector_skips_dc(self):
        x0 = np.full(CompiledCircuit(inverter()).size, 0.5)
        batch = transient_batch([inverter(), inverter()], [1e-7] * 2,
                                [2e-9] * 2, x0s=[x0, None])
        assert_same(batch[0], transient(inverter(), 1e-7, 2e-9, x0=x0))
        assert_same(batch[1], transient(inverter(), 1e-7, 2e-9))
        assert batch[0].v("out")[0] == 0.5


class TestValidation:
    def _rc(self):
        ckt = Circuit("rc")
        ckt.vsource("v1", "a", "0", 1.0)
        ckt.resistor("r1", "a", "b", 1e3)
        ckt.capacitor("c1", "b", "0", 1e-9)
        return ckt

    def test_topology_mismatch_raises(self):
        with pytest.raises(ValueError, match="topology"):
            transient_batch([inverter(), self._rc()], [1e-7] * 2,
                            [1e-9] * 2)

    def test_same_nodes_different_wiring_raises(self):
        other = inverter()
        other.elements[-2] = type(other.elements[-2])("cl", "in", "0",
                                                      50e-15)
        with pytest.raises(ValueError, match="topology"):
            CircuitBatch([CompiledCircuit(inverter()),
                          CompiledCircuit(other)])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            transient_batch([inverter(), inverter()], [1e-7], [1e-9] * 2)

    def test_bad_method_raises(self):
        with pytest.raises(ValueError):
            transient_batch([inverter()], [1e-7], [1e-9], method="euler")
