"""Search-strategy guarantees over the STCO design space: seeded
determinism, best-reward consistency, and the O(1) design-space index
fast paths.

These run the registry optimizers through
:class:`~repro.search.driver.SearchRun` against an analytic engine (no
GNN training), so they pin the exact trajectories cheaply — the
contract campaign checkpoint/resume relies on.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.charlib import Corner
from repro.search import SearchRun
from repro.search.optimizers import make_optimizer
from repro.stco import DesignSpace, default_space

from ..search.conftest import FakeEngine

SPACE = DesignSpace(vdd_scales=(0.8, 1.0, 1.2), vth_shifts=(-0.1, 0.1),
                    cox_scales=(0.9, 1.1))


def explore(name, budget=None, seed=0, engine=None):
    """One seeded search of ``SPACE`` (grid: the whole space)."""
    engine = engine if engine is not None else FakeEngine()
    return SearchRun(SimpleNamespace(name="fake"),
                     make_optimizer(name, SPACE, seed=seed),
                     engine).run(budget=budget or SPACE.size)


class TestDeterminism:
    @pytest.mark.parametrize("name", ["qlearning", "random"])
    def test_same_seed_same_trajectory(self, name):
        runs = [explore(name, 10, seed=11) for _ in range(2)]
        assert runs[0].rewards == runs[1].rewards
        assert runs[0].best_corner == runs[1].best_corner
        assert runs[0].best_reward == runs[1].best_reward

    @pytest.mark.parametrize("name", ["qlearning", "random"])
    def test_different_seeds_diverge(self, name):
        a = explore(name, 10, seed=0)
        b = explore(name, 10, seed=1)
        assert a.rewards != b.rewards

    def test_grid_agent_is_seedless_and_deterministic(self):
        a = explore("grid", seed=0)
        b = explore("grid", seed=1)
        assert a.rewards == b.rewards
        assert a.evaluations == SPACE.size


class TestBestRewardConsistency:
    @pytest.mark.parametrize("name", ["qlearning", "random", "grid"])
    def test_best_is_max_of_trajectory(self, name):
        result = explore(name, 12, seed=3)
        assert result.best_reward == max(result.rewards)
        # The reported best corner really is the argmax evaluated.
        best = max(result.records, key=lambda r: r.reward)
        assert best.reward == result.best_reward
        assert best.corner.key() == result.best_record.corner.key()

    def test_running_best_is_monotone(self):
        result = explore("qlearning", 12, seed=5)
        running = np.maximum.accumulate(result.rewards)
        assert running[-1] == result.best_reward
        assert all(x <= y for x, y in zip(running, running[1:]))

    def test_grid_finds_global_optimum(self):
        engine = FakeEngine()
        grid = explore("grid", engine=engine)
        rewards = [engine.evaluate(None, c).reward
                   for c in SPACE.points()]
        assert grid.best_reward == max(rewards)


class TestSpaceFastPaths:
    def test_index_roundtrip_entire_space(self):
        space = default_space()
        for i in range(space.size):
            assert space.index_of(space.point(i)) == i

    def test_neighbors_match_bruteforce(self):
        space = DesignSpace(vdd_scales=(0.8, 0.9, 1.0, 1.1),
                            vth_shifts=(-0.1, 0.0, 0.1),
                            cox_scales=(0.8, 1.0, 1.2))

        def brute(index):
            corner = space.point(index)
            out = []
            axes = (space.vdd_scales, space.vth_shifts, space.cox_scales)
            values = (corner.vdd_scale, corner.vth_shift,
                      corner.cox_scale)
            for axis_i, (axis, value) in enumerate(zip(axes, values)):
                k = axis.index(value)
                for dk in (-1, 1):
                    if 0 <= k + dk < len(axis):
                        new = list(values)
                        new[axis_i] = axis[k + dk]
                        out.append(space.points().index(Corner(*new)))
            return out

        for i in range(space.size):
            assert space.neighbors(i) == brute(i)

    def test_index_of_foreign_corner_raises(self):
        with pytest.raises(ValueError, match="not a point"):
            default_space().index_of(Corner(0.123, 0.456, 0.789))

    def test_grid_built_once_per_process(self):
        axes = dict(vdd_scales=(0.85, 1.0, 1.15), vth_shifts=(-0.05, 0.0),
                    cox_scales=(0.9, 1.1))
        a, b = DesignSpace(**axes), DesignSpace(**axes)
        assert a._points is b._points and a._index is b._index
        # Lists spell the same axes: the same grid.
        listed = DesignSpace(**{k: list(v) for k, v in axes.items()})
        assert listed._points is a._points
        # points() is the caller's own list.
        pts = a.points()
        pts.clear()
        assert b.size == 12 and len(b.points()) == 12
        # Axes that compare equal but render differently stay apart.
        neg = DesignSpace(**{**axes, "vth_shifts": (-0.05, -0.0)})
        assert neg._points is not a._points
        assert str(neg.point(2).vth_shift) == "-0.0"
        assert str(a.point(2).vth_shift) == "0.0"

    def test_large_space_indexes_fast(self):
        import time
        big = DesignSpace(vdd_scales=tuple(0.5 + 0.01 * i
                                           for i in range(20)),
                          vth_shifts=tuple(-0.1 + 0.01 * i
                                           for i in range(20)),
                          cox_scales=tuple(0.5 + 0.05 * i
                                           for i in range(20)))
        t0 = time.perf_counter()
        for i in range(0, big.size, 7):
            assert big.index_of(big.point(i)) == i
            big.neighbors(i)
        # 8000 points, ~1100 lookups: the precomputed maps make this
        # effectively instant (the old linear scans took seconds).
        assert time.perf_counter() - t0 < 1.0
