"""SearchRun end-to-end: real engine, real GNN builder, real flow.

Includes the subsystem's acceptance test: the default scalarised
annealing/evolutionary optimizers must find the grid optimum of
``default_space()`` in fewer engine evaluations (cache misses) than
the exhaustive grid's 45.
"""

import numpy as np
import pytest

from repro.engine import EngineConfig, EvaluationEngine, PPAWeights
from repro.search import (EvolutionaryOptimizer, ParetoArchive, SearchRun,
                          SimulatedAnnealing, SurrogateGuidedOptimizer,
                          non_dominated)
from repro.stco import default_space

from .conftest import FakeEngine


class TestSearchRunMechanics:
    def test_dedup_and_counters(self, fake_engine):
        space = default_space()
        anneal = SimulatedAnnealing(space, seed=0)
        result = SearchRun(None, anneal, fake_engine).run(budget=30)
        assert len(result.rewards) == 30
        assert result.evaluations <= 30
        # Engine only ran flows for distinct corners.
        assert fake_engine.flow_evaluations == result.evaluations
        assert result.engine_misses == result.evaluations
        assert len(result.records) == result.evaluations
        assert 1 <= result.evaluations_to_optimum <= result.evaluations

    def test_budget_is_hard(self, fake_engine):
        space = default_space()
        evo = EvolutionaryOptimizer(space, seed=0, mu=8, lam=8)
        result = SearchRun(None, evo, fake_engine).run(budget=10)
        assert len(result.rewards) == 10

    def test_shared_archive_accumulates(self, fake_engine):
        space = default_space()
        archive = ParetoArchive()
        SearchRun(None, SimulatedAnnealing(space, seed=0), fake_engine,
                  archive=archive).run(budget=10)
        seen_one = archive.seen
        SearchRun(None, SimulatedAnnealing(space, seed=1), fake_engine,
                  archive=archive).run(budget=10)
        assert archive.seen == seen_one + 10

    def test_result_to_dict_json(self, fake_engine):
        import json
        space = default_space()
        result = SearchRun(None, SimulatedAnnealing(space, seed=0),
                           fake_engine).run(budget=8)
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["optimizer"] == "anneal"
        assert len(payload["rewards"]) == 8


class TestProgressCallback:
    def test_snapshot_per_round(self, fake_engine):
        import json
        space = default_space()
        snapshots = []
        result = SearchRun(None, SimulatedAnnealing(space, seed=0),
                           fake_engine).run(
            budget=8, progress_callback=snapshots.append)
        # Annealing asks one corner per round: one snapshot per told
        # evaluation, monotonically advancing.
        assert [s["round"] for s in snapshots] == list(range(1, 9))
        assert snapshots[-1]["told"] == 8
        assert snapshots[-1]["budget"] == 8
        best_seen = [s["best_reward"] for s in snapshots]
        assert best_seen == sorted(best_seen)      # best only improves
        assert best_seen[-1] == result.best_reward
        assert snapshots[-1]["evaluations"] == result.evaluations
        assert snapshots[-1]["engine_misses"] == result.engine_misses
        json.dumps(snapshots)                      # JSON-able contract

    def test_none_callback_is_bit_identical(self, fake_engine):
        space = default_space()
        plain = SearchRun(None, SimulatedAnnealing(space, seed=0),
                          fake_engine).run(budget=10)
        hooked = SearchRun(None, SimulatedAnnealing(space, seed=0),
                           fake_engine).run(
            budget=10, progress_callback=lambda s: None)
        assert hooked.rewards == plain.rewards
        assert hooked.best_corner == plain.best_corner

    def test_callback_exception_aborts_run(self, fake_engine):
        space = default_space()

        class Abort(Exception):
            pass

        def bomb(snapshot):
            if snapshot["round"] >= 3:
                raise Abort()

        with pytest.raises(Abort):
            SearchRun(None, SimulatedAnnealing(space, seed=0),
                      fake_engine).run(budget=30,
                                       progress_callback=bomb)
        # The abort fired mid-run: only the rounds before it executed.
        assert fake_engine.flow_evaluations <= 3


class TestAcceptance:
    """Real engine + GNN builder on the 45-point default space."""

    def test_beats_exhaustive_grid(self, builder, netlist):
        space = default_space()
        weights = PPAWeights()
        found = {}
        for make in (lambda: SimulatedAnnealing(space, seed=0),
                     lambda: EvolutionaryOptimizer(space, seed=0)):
            engine = EvaluationEngine(builder, EngineConfig())
            optimizer = make()
            result = SearchRun(netlist, optimizer, engine,
                               weights=weights).run(budget=32)
            # Fewer engine evaluations (cache misses) than the
            # exhaustive 45-point sweep.
            assert result.engine_misses < space.size
            assert result.evaluations < space.size
            # Exhaustive ground truth through the same engine (already
            # -explored corners are cache hits, so total misses ≤ 45).
            records = engine.evaluate_many(netlist, space.points(),
                                           weights)
            best = max(records, key=lambda r: r.reward)
            assert result.best_corner == best.corner.key()
            assert result.best_reward == pytest.approx(best.reward)
            found[optimizer.name] = (result.engine_misses,
                                     result.evaluations_to_optimum)
        assert set(found) == {"anneal", "evolution"}

    def test_surrogate_ranker_uses_gnn_hook(self, builder, netlist):
        space = default_space()
        engine = EvaluationEngine(builder, EngineConfig())
        guided = SurrogateGuidedOptimizer.from_builder(
            space, builder, weights=PPAWeights(), seed=0, pool=10,
            batch=2)
        assert guided.ranker is not None
        result = SearchRun(netlist, guided, engine).run(budget=10)
        # Ranking happens outside the engine: far fewer flows than the
        # candidates the surrogate screened.
        assert result.engine_misses <= 10
        assert np.isfinite(result.best_reward)
        assert result.pareto_front

    def test_multi_objective_front_on_real_flow(self, builder, netlist):
        space = default_space()
        engine = EvaluationEngine(builder, EngineConfig())
        evo = EvolutionaryOptimizer(space, seed=0, mode="pareto")
        result = SearchRun(netlist, evo, engine).run(budget=24)
        front = result.pareto_front
        assert front
        vectors = [(f["power_w"], f["delay_s"], f["area_um2"])
                   for f in front]
        assert len(non_dominated(vectors)) == len(vectors)
        assert result.hypervolume > 0 or len(front) == 1
