"""Tests for corners, technology pairs, characterization, encoding,
GNN model and library builders."""

import numpy as np
import pytest

from repro.cells import get_cell
from repro.charlib import (CellCharGCN, CellCharGCNConfig, CharConfig,
                           CharTrainConfig, Corner, GNNLibraryBuilder,
                           SpiceLibraryBuilder, TimingTable,
                           build_char_dataset, ci_test_corners,
                           ci_train_corners, corner_grid,
                           evaluate_char_model, paper_test_corners,
                           paper_train_corners, technology_pair,
                           train_char_model, CellCharacterizer,
                           MetricNormalizer)
from repro.encoding.cell_encoding import CellGraphEncoder, NUM_CELL_FEATURES

from .conftest import FAST_CFG


class TestCorners:
    def test_paper_grid_sizes(self):
        assert len(paper_train_corners()) == 125
        assert len(paper_test_corners()) == 512

    def test_ci_grid_sizes(self):
        assert len(ci_train_corners()) == 8
        assert len(ci_test_corners()) == 27

    def test_test_grid_disjoint_from_train(self):
        train = {c.key() for c in paper_train_corners()}
        test = {c.key() for c in paper_test_corners()}
        assert not train & test

    def test_single_point_grid(self):
        grid = corner_grid(1)
        assert len(grid) == 1
        assert grid[0].vdd_scale == pytest.approx(1.0)

    def test_feature_vector(self):
        c = Corner(1.1, 0.05, 0.9)
        v = c.feature_vector()
        assert v.shape == (3,)
        assert np.all(np.isfinite(v))


class TestTechnology:
    def test_both_technologies(self):
        for name in ("ltps", "cnt"):
            pair = technology_pair(name)
            assert pair.nmos.polarity == "n"
            assert pair.pmos.polarity == "p"
            assert pair.vdd > 0

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            technology_pair("igzo")   # single-carrier, not in Table IV

    def test_corner_application(self):
        pair = technology_pair("ltps")
        c = pair.at_corner(vdd=2.5, vth_shift=0.1, cox_scale=1.2)
        assert c.vdd == 2.5
        assert c.nmos.vth == pytest.approx(pair.nmos.vth + 0.1)
        assert c.pmos.vth == pytest.approx(pair.pmos.vth - 0.1)
        assert c.nmos.cox == pytest.approx(pair.nmos.cox * 1.2)

    def test_invalid_cox_scale(self):
        with pytest.raises(ValueError):
            technology_pair("ltps").at_corner(cox_scale=0.0)


class TestCellEncoding:
    def test_feature_width_is_12(self):
        enc = CellGraphEncoder()
        tech = technology_pair("ltps")
        g = enc.encode(get_cell("NAND2_X1"), tech.nmos, tech.pmos, tech.vdd)
        assert g.num_node_features == NUM_CELL_FEATURES == 12

    def test_node_count(self):
        """Nodes = inputs + outputs + transistors + VDD + VSS."""
        enc = CellGraphEncoder()
        tech = technology_pair("ltps")
        cell = get_cell("NAND2_X1")
        g = enc.encode(cell, tech.nmos, tech.pmos, tech.vdd)
        assert g.num_nodes == 2 + 1 + cell.num_transistors + 2

    def test_table3_bit_layout(self):
        enc = CellGraphEncoder()
        tech = technology_pair("ltps")
        cell = get_cell("INV_X1")
        g = enc.encode(cell, tech.nmos, tech.pmos, vdd=3.0, slew=20e-9,
                       load=40e-15, slew_pin="a",
                       states={"a": (False, True)})
        x = g.x
        # node order: in a, out y, fets..., vdd, vss
        in_row, out_row = x[0], x[1]
        fet_rows = x[2:4]
        vdd_row, vss_row = x[-2], x[-1]
        assert in_row[2] == 1.0 and in_row[8] > 0      # slew on IN
        assert in_row[10] == 0.0 and in_row[11] == 1.0  # rising state
        assert out_row[1] == 1.0 and out_row[9] > 0    # load on OUT
        assert vdd_row[0] == 1.0 and vdd_row[4] == 1.0  # vdd value (3/3)
        assert vss_row[0] == 1.0 and vss_row[2] == 1.0
        polarities = sorted(fet_rows[:, 3])
        assert polarities == [-1.0, 1.0]
        assert np.all(fet_rows[:, 5] > 0)  # widths
        assert np.all(fet_rows[:, 6] > 0)  # cox

    def test_structure_cached(self):
        enc = CellGraphEncoder()
        tech = technology_pair("ltps")
        cell = get_cell("NAND2_X1")
        g1 = enc.encode(cell, tech.nmos, tech.pmos, tech.vdd)
        g2 = enc.encode(cell, tech.nmos, tech.pmos, tech.vdd)
        np.testing.assert_array_equal(g1.edge_index, g2.edge_index)

    def test_edges_bidirectional(self):
        enc = CellGraphEncoder()
        tech = technology_pair("ltps")
        g = enc.encode(get_cell("AOI21_X1"), tech.nmos, tech.pmos, tech.vdd)
        pairs = set(map(tuple, g.edge_index.T))
        assert all((b, a) in pairs for a, b in pairs)


class TestNormalizer:
    def test_roundtrip(self):
        vals = np.array([1e-12, 5e-11, 2e-10])
        norm = MetricNormalizer.fit(vals)
        back = norm.denormalize(norm.normalize(vals))
        np.testing.assert_allclose(back, vals, rtol=1e-6)

    def test_normalized_zero_mean(self):
        vals = np.logspace(-12, -8, 20)
        norm = MetricNormalizer.fit(vals)
        normed = norm.normalize(vals)
        assert abs(float(np.mean(normed))) < 1e-9


class TestCharacterizer:
    def test_inverter_metrics_present(self):
        tech = technology_pair("ltps")
        rows = CellCharacterizer(get_cell("INV_X1"), tech,
                                 Corner(1.0, 0.0, 1.0),
                                 FAST_CFG).characterize()
        metrics = {r.metric for r in rows}
        assert {"delay", "output_slew", "capacitance", "flip_power",
                "leakage_power"} <= metrics

    def test_delay_increases_with_load(self):
        tech = technology_pair("ltps")
        cfg = CharConfig(slews=(8e-9,), loads=(10e-15, 60e-15),
                         max_steps=260)
        rows = CellCharacterizer(get_cell("INV_X1"), tech,
                                 Corner(1.0, 0.0, 1.0), cfg).characterize()
        delays = {}
        for r in rows:
            if r.metric == "delay":
                delays.setdefault(r.load, []).append(r.value)
        assert max(delays[60e-15]) > max(delays[10e-15])

    def test_lower_vdd_slower(self):
        tech = technology_pair("ltps")
        def worst_delay(corner):
            rows = CellCharacterizer(get_cell("INV_X1"), tech, corner,
                                     FAST_CFG).characterize()
            return max(r.value for r in rows if r.metric == "delay")
        assert worst_delay(Corner(0.8, 0.0, 1.0)) > \
            worst_delay(Corner(1.2, 0.0, 1.0))


class TestDatasetAndModel:
    def test_dataset_counts(self, dataset):
        counts = dataset.counts()
        assert counts["delay"]["train"] > 0
        assert counts["min_setup"]["train"] > 0
        assert "test" in counts["delay"]

    def test_targets_normalised(self, dataset):
        for g in dataset.graphs["delay"]["train"]:
            assert abs(float(g.y[0])) < 6.0

    def test_cache_roundtrip(self, dataset, tmp_path):
        ds2 = build_char_dataset(
            "ltps", cells=("INV_X1",),
            train_corners=[Corner(1.0, 0.0, 1.0)],
            test_corners=[Corner(1.05, -0.02, 0.95)],
            config=FAST_CFG, cache_dir=tmp_path)
        ds3 = build_char_dataset(
            "ltps", cells=("INV_X1",),
            train_corners=[Corner(1.0, 0.0, 1.0)],
            test_corners=[Corner(1.05, -0.02, 0.95)],
            config=FAST_CFG, cache_dir=tmp_path)
        assert ds2.counts() == ds3.counts()

    def test_train_and_evaluate(self, dataset):
        model = train_char_model(
            dataset, train_config=CharTrainConfig(epochs=10))
        mapes = evaluate_char_model(model, dataset)
        assert "delay" in mapes
        for metric, val in mapes.items():
            assert np.isfinite(val), metric

    def test_model_head_per_metric(self, dataset):
        metrics = tuple(dataset.metrics_present())
        model = CellCharGCN(CellCharGCNConfig(metrics=metrics))
        assert set(model.heads) == set(metrics)
        with pytest.raises(KeyError):
            model.predict(dataset.graphs["delay"]["train"][:1], "nosuch")


class TestTimingTable:
    def test_bilinear_interpolation(self):
        t = TimingTable([1.0, 2.0], [10.0, 20.0],
                        [[1.0, 2.0], [3.0, 4.0]])
        assert t.lookup(1.5, 15.0) == pytest.approx(2.5)

    def test_clamping(self):
        t = TimingTable([1.0, 2.0], [10.0, 20.0],
                        [[1.0, 2.0], [3.0, 4.0]])
        assert t.lookup(0.0, 0.0) == pytest.approx(1.0)
        assert t.lookup(99.0, 99.0) == pytest.approx(4.0)

    def test_single_point_table(self):
        t = TimingTable([1.0], [10.0], [[7.0]])
        assert t.lookup(5.0, 5.0) == 7.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TimingTable([1.0], [10.0], [[1.0, 2.0]])


class TestLibraryBuilders:
    def test_spice_vs_gnn_library(self, dataset):
        cells = ("INV_X1", "NAND2_X1", "DFF_X1")
        model = train_char_model(
            dataset, train_config=CharTrainConfig(epochs=10))
        sb = SpiceLibraryBuilder("ltps", cells=cells, config=FAST_CFG)
        lib_s = sb.build()
        gb = GNNLibraryBuilder(model, dataset, cells=cells, config=FAST_CFG)
        lib_g = gb.build()
        assert set(lib_s.cells) == set(lib_g.cells) == set(cells)
        # The GNN path must be dramatically faster (paper: >100x).
        assert gb.last_runtime_s < sb.last_runtime_s / 20
        for name in cells:
            cs, cg = lib_s.cell(name), lib_g.cell(name)
            assert cs.is_sequential == cg.is_sequential
            d_s = cs.delay.lookup(8e-9, 15e-15)
            d_g = cg.delay.lookup(8e-9, 15e-15)
            assert d_s > 0 and d_g > 0

    def test_library_lookup_unknown_cell(self, dataset):
        sb = SpiceLibraryBuilder("ltps", cells=("INV_X1",), config=FAST_CFG)
        lib = sb.build()
        with pytest.raises(ValueError):
            lib.cell("NAND4_X1")
