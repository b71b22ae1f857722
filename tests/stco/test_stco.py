"""Tests for the STCO layer: the design space, the PPA scalarisation,
and the fast STCO loop (GNN-characterized engine + search strategies)."""

import numpy as np
import pytest

from repro.api import execute_search
from repro.charlib import (CharConfig, CharTrainConfig, Corner,
                           GNNLibraryBuilder, build_char_dataset,
                           train_char_model)
from repro.eda import build_benchmark
from repro.engine import EvaluationEngine
from repro.search.optimizers import make_optimizer
from repro.stco import DesignSpace, PPAWeights, default_space

FAST_CFG = CharConfig(slews=(8e-9,), loads=(15e-15,), n_bisect=3,
                      max_steps=200)
CELLS = ("INV_X1", "NAND2_X1", "NOR2_X1", "DFF_X1")


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    cache = tmp_path_factory.mktemp("stco_cache")
    ds = build_char_dataset(
        "ltps", cells=CELLS,
        train_corners=[Corner(1.0, 0.0, 1.0), Corner(0.9, 0.05, 1.1),
                       Corner(1.1, -0.05, 0.9)],
        test_corners=[Corner(0.95, 0.02, 1.05)],
        config=FAST_CFG, cache_dir=cache)
    model = train_char_model(ds, train_config=CharTrainConfig(epochs=12))
    return model, ds


@pytest.fixture(scope="module")
def small_space():
    return DesignSpace(vdd_scales=(0.9, 1.0, 1.1), vth_shifts=(0.0,),
                       cox_scales=(0.9, 1.1))


@pytest.fixture(scope="module")
def netlist():
    return build_benchmark("s298")


@pytest.fixture(scope="module")
def engine(trained):
    model, ds = trained
    return EvaluationEngine(
        GNNLibraryBuilder(model, ds, cells=CELLS, config=FAST_CFG))


def explore(engine, netlist, space, name, iterations, seed=0):
    return execute_search(netlist, make_optimizer(name, space, seed=seed),
                          engine, PPAWeights(), iterations)


class TestDesignSpace:
    def test_default_size(self):
        assert default_space().size == 5 * 3 * 3

    def test_point_roundtrip(self):
        space = default_space()
        for i in (0, 7, space.size - 1):
            assert space.index_of(space.point(i)) == i

    def test_neighbors_are_adjacent(self):
        space = default_space()
        idx = space.size // 2
        corner = space.point(idx)
        for n in space.neighbors(idx):
            other = space.point(n)
            diffs = sum(1 for a, b in (
                (corner.vdd_scale, other.vdd_scale),
                (corner.vth_shift, other.vth_shift),
                (corner.cox_scale, other.cox_scale)) if a != b)
            assert diffs == 1

    def test_corner_neighbors_fewer(self):
        space = default_space()
        assert len(space.neighbors(0)) == 3   # corner of the 3-D grid


class TestPPAWeights:
    def test_faster_is_better(self):
        from repro.eda import SystemResult
        base = dict(design="d", gates=1, flops=0, area_um2=1e4,
                    wirelength_um=1.0, min_period_s=1e-6,
                    total_power_w=1e-5, dynamic_power_w=1e-5,
                    leakage_power_w=0.0, drc_violations=0,
                    lvs_violations=0)
        slow = SystemResult(fmax_hz=1e6, **base)
        fast = SystemResult(fmax_hz=2e6, **base)
        w = PPAWeights()
        assert w.score(fast) > w.score(slow)

    def test_lower_power_is_better(self):
        from repro.eda import SystemResult
        base = dict(design="d", gates=1, flops=0, area_um2=1e4,
                    wirelength_um=1.0, min_period_s=1e-6, fmax_hz=1e6,
                    dynamic_power_w=0.0, leakage_power_w=0.0,
                    drc_violations=0, lvs_violations=0)
        hungry = SystemResult(total_power_w=1e-4, **base)
        frugal = SystemResult(total_power_w=1e-6, **base)
        assert PPAWeights().score(frugal) > PPAWeights().score(hungry)


class TestEnvironment:
    """One STCO step: a corner in, a scored system evaluation out."""

    def test_evaluate_returns_record(self, engine, netlist, small_space):
        rec = engine.evaluate(netlist, small_space.point(0))
        assert rec.result.fmax_hz > 0
        assert np.isfinite(rec.reward)

    def test_evaluation_cached(self, engine, netlist, small_space):
        r1 = engine.evaluate(netlist, small_space.point(1))
        flows = engine.flow_evaluations
        r2 = engine.evaluate(netlist, small_space.point(1))
        assert r2.cached and r2.reward == r1.reward
        assert engine.flow_evaluations == flows

    def test_best_tracks_max(self, engine, netlist, small_space):
        result = explore(engine, netlist, small_space, "random", 4).result
        assert result.best_reward == max(r.reward for r in result.records)


class TestAgents:
    def test_qlearning_explores(self, engine, netlist, small_space):
        result = explore(engine, netlist, small_space, "qlearning", 6,
                         seed=3).result
        assert np.isfinite(result.best_reward)
        assert result.evaluations >= 1
        assert len(result.rewards) == 6

    def test_grid_search_finds_global_best(self, engine, netlist,
                                           small_space):
        grid = explore(engine, netlist, small_space, "grid",
                       small_space.size).result
        assert grid.evaluations == small_space.size
        # Q-learning can't beat exhaustive search.
        q = explore(engine, netlist, small_space, "qlearning", 8).result
        assert q.best_reward <= grid.best_reward + 1e-9

    def test_random_search(self, engine, netlist, small_space):
        result = explore(engine, netlist, small_space, "random", 5,
                         seed=1).result
        assert len(result.rewards) == 5


class TestFastSTCO:
    def test_campaign(self, trained, netlist, small_space):
        model, ds = trained
        engine = EvaluationEngine(
            GNNLibraryBuilder(model, ds, cells=CELLS, config=FAST_CFG))
        execution = explore(engine, netlist, small_space, "qlearning", 5)
        out = execution.result
        assert len(out.rewards) == 5
        assert out.best_reward > -np.inf
        assert set(out.best_record.result.ppa()) == {
            "power_w", "performance_hz", "area_um2"}
        # The GNN path must be fast.
        assert execution.runtime_s / 5 < 5.0


class TestRuntimeLedger:
    """The calibrated Table I ledger: the paper's published costs."""

    def test_calibrated_matches_paper(self):
        from repro.eda.cost_model import table1_row
        assert table1_row("s386")["speedup"] == pytest.approx(14.1,
                                                              abs=0.15)
