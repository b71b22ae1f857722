"""Integration tests: the paper's full loop across package boundaries."""

import numpy as np
import pytest

from repro.charlib import (CharConfig, CharTrainConfig, Corner,
                           GNNLibraryBuilder, SpiceLibraryBuilder,
                           build_char_dataset, train_char_model)
from repro.api import execute_search
from repro.eda import build_benchmark, evaluate_system, table1_rows
from repro.engine import EvaluationEngine, PPAWeights
from repro.nn import TrainConfig
from repro.search.optimizers import make_optimizer
from repro.stco import DesignSpace
from repro.surrogate import train_surrogates
from repro.tcad import TCADDatasetBuilder

CELLS = ("INV_X1", "NAND2_X1", "NOR2_X1", "DFF_X1")
CFG = CharConfig(slews=(8e-9,), loads=(15e-15,), n_bisect=3, max_steps=200)
SMALL_MESH = {"nx_channel": 7, "nx_overlap": 2, "ny_semi": 3, "ny_ox": 3}


@pytest.fixture(scope="module")
def char_assets(tmp_path_factory):
    cache = tmp_path_factory.mktemp("e2e")
    dataset = build_char_dataset(
        "ltps", cells=CELLS,
        train_corners=[Corner(1.0, 0.0, 1.0), Corner(0.9, 0.05, 1.1)],
        test_corners=[Corner(0.95, 0.02, 1.05)],
        config=CFG, cache_dir=cache)
    model = train_char_model(dataset,
                             train_config=CharTrainConfig(epochs=12))
    return dataset, model


class TestTechnologyToSystem:
    def test_spice_library_drives_flow(self):
        lib = SpiceLibraryBuilder("ltps", cells=CELLS, config=CFG).build()
        result = evaluate_system(build_benchmark("s298"), lib)
        assert result.fmax_hz > 0
        assert result.lvs_violations == 0

    def test_gnn_library_drives_flow(self, char_assets):
        dataset, model = char_assets
        lib = GNNLibraryBuilder(model, dataset, cells=CELLS,
                                config=CFG).build()
        result = evaluate_system(build_benchmark("s298"), lib)
        assert result.fmax_hz > 0

    def test_gnn_and_spice_ppa_agree_in_order_of_magnitude(self,
                                                           char_assets):
        """The GNN library's PPA must land near the SPICE library's —
        the surrogate feeds the same downstream flow."""
        dataset, model = char_assets
        nl = build_benchmark("s298")
        r_spice = evaluate_system(
            nl, SpiceLibraryBuilder("ltps", cells=CELLS,
                                    config=CFG).build())
        r_gnn = evaluate_system(
            nl, GNNLibraryBuilder(model, dataset, cells=CELLS,
                                  config=CFG).build())
        ratio = r_gnn.fmax_hz / r_spice.fmax_hz
        assert 0.2 < ratio < 5.0
        ratio_p = r_gnn.total_power_w / r_spice.total_power_w
        assert 0.1 < ratio_p < 10.0


def _fast_stco(char_assets, netlist, space, iterations):
    """The paper's fast STCO loop: Q-learning over a GNN-built engine."""
    dataset, model = char_assets
    engine = EvaluationEngine(GNNLibraryBuilder(model, dataset,
                                                cells=CELLS, config=CFG))
    return execute_search(netlist, make_optimizer("qlearning", space),
                          engine, PPAWeights(), iterations)


class TestFullSTCOCampaign:
    def test_fast_stco_tracks_best_of_history(self, char_assets):
        """The campaign's best must equal the best corner it evaluated,
        and exploration must cover more than one corner."""
        space = DesignSpace(vdd_scales=(0.85, 1.0, 1.15),
                            vth_shifts=(0.0,), cox_scales=(0.9, 1.1))
        outcome = _fast_stco(char_assets, build_benchmark("s298"), space,
                             6).result
        history = [r.reward for r in outcome.records]
        assert outcome.best_reward == pytest.approx(max(history))
        assert outcome.evaluations >= 2
        assert outcome.best_reward >= min(history)

    def test_campaign_runtime_structure(self, char_assets):
        space = DesignSpace(vdd_scales=(0.9, 1.1), vth_shifts=(0.0,),
                            cox_scales=(1.0,))
        execution = _fast_stco(char_assets, build_benchmark("s386"),
                               space, 4)
        assert execution.runtime_s < 30.0
        assert execution.result.evaluations <= 2     # space has 2 points


class TestSurrogatePipeline:
    def test_tcad_to_surrogate_to_metrics(self):
        builder = TCADDatasetBuilder(seed=3, mesh_resolution=SMALL_MESH)
        ds = builder.build(n_train=8, n_val=3, n_test=3, n_unseen=3)
        metrics, pm, im = train_surrogates(
            ds, TrainConfig(epochs=6, batch_size=4, lr=3e-3))
        assert np.isfinite(metrics["poisson"].mse_unseen)
        psi = pm.predict_potential(ds.poisson["unseen"][0])
        assert np.all(np.isfinite(psi))
        ids = im.predict_current(ds.iv["unseen"][:2])
        assert np.all(ids > 0)


class TestHeadlineClaims:
    def test_speedup_ladder_published(self):
        """1.9x to 14.1x over the ten benchmarks (Table I)."""
        speedups = [r["speedup"] for r in table1_rows()]
        assert min(speedups) == pytest.approx(1.9, abs=0.1)
        assert max(speedups) == pytest.approx(14.1, abs=0.1)

    def test_measured_charlib_speedup_over_100x(self, char_assets):
        """The >100x characterization claim, measured on this substrate."""
        dataset, model = char_assets
        spice = SpiceLibraryBuilder("ltps", cells=CELLS, config=CFG)
        spice.build()
        gnn = GNNLibraryBuilder(model, dataset, cells=CELLS, config=CFG)
        gnn.build()
        assert spice.last_runtime_s / gnn.last_runtime_s > 100
