"""Tests for the Poisson solver, charge physics, and charge-sheet IV."""

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry, use_registry
from repro.tcad import (ChargeModel, ChargeSheetIV, PlanarTFT, PoissonSolver,
                        Region, TCADSimulator, material, tdt_gamma,
                        tdt_mobility)
from repro.tcad.physics import srh_recombination


@pytest.fixture(scope="module")
def ltps_device():
    return PlanarTFT(channel_material="ltps")


@pytest.fixture(scope="module")
def ltps_solver(ltps_device):
    return PoissonSolver(ltps_device.mesh())


class TestChargeModel:
    def test_rejects_metal(self):
        with pytest.raises(ValueError):
            ChargeModel(material("al"))

    def test_np_product_at_equilibrium(self):
        model = ChargeModel(material("ltps"))
        psi = np.linspace(-0.4, 0.4, 9)
        np.testing.assert_allclose(model.n(psi) * model.p(psi),
                                   model.ni ** 2, rtol=1e-9)

    def test_tail_occupation_bounded(self):
        model = ChargeModel(material("igzo"))
        psi = np.linspace(-3, 5, 50)
        nt = model.n_tail(psi)
        assert np.all(nt >= 0)
        assert np.all(nt <= model.mat.tail_nt)

    def test_drho_matches_finite_difference(self):
        model = ChargeModel(material("cnt"))
        psi = np.linspace(-0.5, 1.0, 11)
        h = 1e-7
        fd = (model.rho(psi + h, 1e21) - model.rho(psi - h, 1e21)) / (2 * h)
        np.testing.assert_allclose(model.drho_dpsi(psi), fd, rtol=1e-4)

    def test_builtin_potential_sign(self):
        model = ChargeModel(material("ltps"))
        assert model.builtin_potential(1e25) > 0
        assert model.builtin_potential(-1e25) < 0

    def test_neutrality_at_builtin(self):
        """rho = 0 at psi = builtin potential (ignoring tail traps for a
        low-trap check via direct n/p balance)."""
        model = ChargeModel(material("cnt"))
        nd = 1e24
        psi_b = float(model.builtin_potential(nd))
        n, p = model.n(psi_b), model.p(psi_b)
        np.testing.assert_allclose(n - p, nd, rtol=1e-9)

    def test_srh_zero_at_equilibrium(self):
        ni = 1e16
        assert srh_recombination(ni, ni, ni, 1e-7) == pytest.approx(0.0)

    def test_srh_positive_above_equilibrium(self):
        assert srh_recombination(1e20, 1e20, 1e16, 1e-7) > 0


class TestTDTMobility:
    def test_gamma_increases_with_tail_energy(self):
        assert tdt_gamma(material("igzo")) > tdt_gamma(material("ltps"))

    def test_mobility_below_band(self):
        mat = material("igzo")
        mu = tdt_mobility(mat, 1e-4)  # small sheet charge
        assert mu < mat.mu_band

    def test_mobility_monotone_in_charge(self):
        mat = material("cnt")
        qs = np.logspace(-6, -2, 10)
        mu = tdt_mobility(mat, qs)
        assert np.all(np.diff(mu) >= 0)


class TestPoissonSolver:
    def test_converges_across_bias(self, ltps_solver):
        for vg, vd in [(-1, 0.5), (0, 0), (2, 1), (4, 3)]:
            sol = ltps_solver.solve(vg, vd)
            assert sol.converged, (vg, vd)

    def test_dirichlet_values_respected(self, ltps_device, ltps_solver):
        mesh = ltps_solver.mesh
        sol = ltps_solver.solve(vg=2.0, vd=1.0)
        gate = mesh.region == Region.GATE
        expected = 2.0 - ltps_solver._phi_ms_offset["gate"]
        np.testing.assert_allclose(sol.psi[gate], expected)

    def test_drain_contact_offset_by_vd(self, ltps_solver):
        mesh = ltps_solver.mesh
        src_ids = [i for i, k in enumerate(mesh.dirichlet_kind)
                   if k == "source"]
        drn_ids = [i for i, k in enumerate(mesh.dirichlet_kind)
                   if k == "drain"]
        sol = ltps_solver.solve(vg=1.0, vd=1.5)
        diff = sol.psi[drn_ids].mean() - sol.psi[src_ids].mean()
        assert diff == pytest.approx(1.5, abs=1e-9)

    def test_gate_bias_accumulates_channel(self, ltps_solver):
        mesh = ltps_solver.mesh
        iface = (mesh.region == Region.CHANNEL) & (
            mesh.node_xy[:, 1] == mesh.ys[mesh.ny - mesh.meta.get("", 0) - 1]
            if False else mesh.region == Region.CHANNEL)
        sol_on = ltps_solver.solve(3.0, 0.5)
        sol_off = ltps_solver.solve(-1.0, 0.5)
        assert sol_on.n[iface].max() > 1e4 * sol_off.n[iface].max()

    def test_warm_start_matches_cold(self, ltps_solver):
        cold = ltps_solver.solve(2.5, 1.0)
        warm = ltps_solver.solve(2.5, 1.0,
                                 psi0=ltps_solver.solve(2.0, 1.0).psi)
        np.testing.assert_allclose(cold.psi, warm.psi, atol=1e-6)

    def test_solve_ramped(self, ltps_solver):
        sol = ltps_solver.solve_ramped(4.0, 3.0, steps=3)
        assert sol.converged
        assert sol.vg == pytest.approx(4.0)

    def test_zero_bias_near_neutral(self):
        """At vg=vd=0 with an Al gate on LTPS the channel stays within a
        volt of its neutral level (no contact injection)."""
        dev = PlanarTFT(channel_material="ltps")
        solver = PoissonSolver(dev.mesh())
        sol = solver.solve(0.0, 0.0)
        mesh = solver.mesh
        ch = mesh.region == Region.CHANNEL
        neutral = float(
            solver._channel_model.builtin_potential(1e21))
        assert np.all(np.abs(sol.psi[ch] - neutral) < 1.0)

    @pytest.mark.parametrize("mat", ["cnt", "igzo", "a-si"])
    def test_other_materials_converge(self, mat):
        dev = PlanarTFT(channel_material=mat)
        sol = PoissonSolver(dev.mesh()).solve(2.0, 1.0)
        assert sol.converged


class TestChargeSheetIV:
    def test_sheet_charge_increases_with_vg(self, ltps_device):
        engine = ChargeSheetIV(ltps_device)
        qs = [engine.sheet_charge(vg, 0.0) for vg in (-1.0, 1.0, 3.0)]
        assert qs[0] < qs[1] < qs[2]

    def test_sheet_charge_decreases_with_vch(self, ltps_device):
        engine = ChargeSheetIV(ltps_device)
        q0 = engine.sheet_charge(3.0, 0.0)
        q1 = engine.sheet_charge(3.0, 1.5)
        assert q1 < q0

    def test_current_zero_at_zero_vd(self, ltps_device):
        engine = ChargeSheetIV(ltps_device)
        assert engine.ids(3.0, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_transfer_monotone(self, ltps_device):
        engine = ChargeSheetIV(ltps_device)
        ids = [engine.ids(vg, 2.0) for vg in (-1, 0, 1, 2, 3)]
        assert all(b > a for a, b in zip(ids, ids[1:]))

    def test_on_off_ratio(self, ltps_device):
        engine = ChargeSheetIV(ltps_device)
        on = engine.ids(4.0, 2.0)
        off = engine.ids(-1.0, 2.0)
        assert on / max(off, 1e-30) > 1e6

    def test_output_saturates(self, ltps_device):
        engine = ChargeSheetIV(ltps_device)
        res = engine.iv_surface([3.0], np.linspace(0.2, 4.0, 8))
        ids = res.ids[0]
        early_slope = (ids[1] - ids[0]) / (res.vds[1] - res.vds[0])
        late_slope = (ids[-1] - ids[-2]) / (res.vds[-1] - res.vds[-2])
        assert late_slope < early_slope / 3

    def test_surface_matches_pointwise(self, ltps_device):
        engine = ChargeSheetIV(ltps_device)
        res = engine.iv_surface([2.0, 3.0], [0.5, 1.5])
        direct = engine.ids(3.0, 1.5)
        assert res.at(3.0, 1.5) == pytest.approx(direct, rel=0.05)

    def test_width_scaling(self):
        d1 = PlanarTFT(channel_material="ltps", w=50e-6)
        d2 = PlanarTFT(channel_material="ltps", w=100e-6)
        i1 = ChargeSheetIV(d1).ids(3.0, 1.0)
        i2 = ChargeSheetIV(d2).ids(3.0, 1.0)
        assert i2 == pytest.approx(2 * i1, rel=1e-6)


class TestSimulatorFacade:
    def test_simulate_point(self):
        with use_registry(MetricsRegistry()) as registry:
            sol = TCADSimulator().simulate_point(
                PlanarTFT(channel_material="ltps"), 2.0, 1.0)
            snap = registry.snapshot()
        assert sol.poisson.converged
        assert sol.ids > 0
        for stage in ("poisson", "iv"):
            assert snap[f'repro_span_seconds_count{{span="{stage}"}}'] == 1
            assert snap[f'repro_span_seconds_sum{{span="{stage}"}}'] > 0

    def test_simulate_iv_shape(self):
        sim = TCADSimulator()
        res = sim.simulate_iv(PlanarTFT(channel_material="ltps"),
                              [0.0, 2.0], [0.5, 1.0, 2.0])
        assert res.ids.shape == (2, 3)
