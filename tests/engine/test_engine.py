"""EvaluationEngine semantics: seed equivalence, caching, parallelism."""

import time

import numpy as np
import pytest

from repro.eda import evaluate_system
from repro.engine import EngineConfig, EvaluationEngine, PPAWeights


@pytest.fixture
def engine(builder):
    return EvaluationEngine(builder, EngineConfig())


class TestSerialEquivalence:
    def test_matches_seed_serial_loop(self, builder, netlist, corners):
        """The engine's default path must be bit-identical to the
        historical loop: build library, run flow, score."""
        weights = PPAWeights()
        engine = EvaluationEngine(builder, EngineConfig())
        records = engine.evaluate_many(netlist, corners[:3], weights)
        for corner, record in zip(corners[:3], records):
            library = builder.build(corner)
            result = evaluate_system(netlist, library)
            assert record.reward == weights.score(result)
            assert record.result.fmax_hz == result.fmax_hz
            assert record.result.total_power_w == result.total_power_w
            assert record.result.area_um2 == result.area_um2

    def test_input_order_preserved(self, engine, netlist, corners):
        forward = engine.evaluate_many(netlist, corners)
        backward = engine.evaluate_many(netlist, corners[::-1])
        assert [r.corner for r in backward] == [
            r.corner for r in forward[::-1]]


class TestCaching:
    def test_warm_rerun_hits_cache(self, builder, netlist, corners):
        engine = EvaluationEngine(builder, EngineConfig())
        cold = engine.evaluate_many(netlist, corners)
        assert engine.characterizations == len(corners)
        assert not any(r.cached for r in cold)
        warm = engine.evaluate_many(netlist, corners)
        assert engine.characterizations == len(corners)   # unchanged
        assert all(r.cached for r in warm)
        assert [r.reward for r in warm] == [r.reward for r in cold]

    def test_library_reused_across_weights(self, builder, netlist,
                                           corners):
        """New PPA trade-off: new rewards, but zero re-characterization."""
        engine = EvaluationEngine(builder, EngineConfig())
        engine.evaluate_many(netlist, corners[:2], PPAWeights())
        chars = engine.characterizations
        flows = engine.flow_evaluations
        records = engine.evaluate_many(netlist, corners[:2],
                                       PPAWeights(power=2.0))
        assert engine.characterizations == chars          # libs reused
        assert engine.flow_evaluations == flows + 2       # flows re-run
        assert not any(r.cached for r in records)

    def test_disk_cache_survives_engine_restart(self, builder, netlist,
                                                corners, tmp_path):
        config = EngineConfig(cache_dir=tmp_path / "engine")
        first = EvaluationEngine(builder, config)
        cold = first.evaluate_many(netlist, corners)
        assert first.characterizations == len(corners)
        second = EvaluationEngine(builder, config)        # fresh process sim
        warm = second.evaluate_many(netlist, corners)
        assert second.characterizations == 0              # zero re-chars
        assert second.flow_evaluations == 0
        assert [r.reward for r in warm] == [r.reward for r in cold]

    def test_result_caching_can_be_disabled(self, builder, netlist,
                                            corners):
        engine = EvaluationEngine(builder,
                                  EngineConfig(cache_results=False))
        engine.evaluate_many(netlist, corners[:2])
        again = engine.evaluate_many(netlist, corners[:2])
        assert not any(r.cached for r in again)
        assert engine.flow_evaluations == 4
        assert engine.characterizations == 2              # libs still cached

    def test_duplicate_corners_evaluated_once(self, builder, netlist,
                                              corners):
        engine = EvaluationEngine(builder, EngineConfig())
        records = engine.evaluate_many(
            netlist, [corners[0], corners[1], corners[0]])
        assert engine.characterizations == 2
        assert engine.flow_evaluations == 2
        assert records[0] is records[2]
        assert records[0].reward != records[1].reward or \
            records[0].corner != records[1].corner

    def test_stats_shape(self, engine, netlist, corners):
        engine.evaluate(netlist, corners[0])
        stats = engine.stats()
        assert stats["characterizations"] == 1
        assert stats["flow_evaluations"] == 1
        assert "memory" in stats["library_cache"]
        assert "timing_s" in stats


class TestBackends:
    def test_parallel_matches_serial(self, builder, netlist, corners):
        serial = EvaluationEngine(builder, EngineConfig())
        reference = serial.evaluate_many(netlist, corners)
        with EvaluationEngine(
                builder, EngineConfig(backend="process:2")) as parallel:
            records = parallel.evaluate_many(netlist, corners)
        assert [r.reward for r in records] == [
            r.reward for r in reference]
        assert [r.corner for r in records] == [
            r.corner for r in reference]

    def test_parallel_populates_library_cache(self, builder, netlist,
                                              corners):
        with EvaluationEngine(
                builder, EngineConfig(backend="process:2")) as engine:
            engine.evaluate_many(netlist, corners[:2])
            libs = engine.libraries(corners[:2])
            assert engine.characterizations == 2          # no rebuilds
            assert all(lib is not None for lib in libs)

    def test_thread_backend_matches_serial(self, builder, netlist,
                                           corners):
        serial = EvaluationEngine(builder, EngineConfig())
        reference = serial.evaluate_many(netlist, corners)
        with EvaluationEngine(
                builder, EngineConfig(backend="thread:4")) as threaded:
            records = threaded.evaluate_many(netlist, corners)
            # Characterization stays in the calling thread (autograd
            # state is process-global); flows fan out.
            assert threaded.characterizations == len(corners)
        assert [r.reward for r in records] == [
            r.reward for r in reference]

    def test_batched_matches_serial(self, builder, netlist, corners):
        serial = EvaluationEngine(builder, EngineConfig())
        reference = serial.evaluate_many(netlist, corners)
        batched = EvaluationEngine(
            builder, EngineConfig(batch_characterization=True))
        records = batched.evaluate_many(netlist, corners)
        np.testing.assert_allclose([r.reward for r in records],
                                   [r.reward for r in reference],
                                   rtol=1e-9)
        assert ([r.corner.key() for r in records]
                == [r.corner.key() for r in reference])

    def test_process_backend_honors_batching(self, builder, netlist,
                                             corners):
        """process + batch_characterization: packed forward passes run
        in this process, only the flows fan out."""
        serial = EvaluationEngine(builder, EngineConfig())
        reference = serial.evaluate_many(netlist, corners)
        config = EngineConfig(backend="process:2",
                              batch_characterization=True)
        with EvaluationEngine(builder, config) as engine:
            records = engine.evaluate_many(netlist, corners)
            assert "characterization" in engine.timing.totals
            assert engine.characterizations == len(corners)
        np.testing.assert_allclose([r.reward for r in records],
                                   [r.reward for r in reference],
                                   rtol=1e-9)


class TestBuilderFingerprintFallback:
    def test_fingerprintless_builders_never_share_identity(self):
        class BareBuilder:
            def build(self, corner):
                raise NotImplementedError

        a = EvaluationEngine(BareBuilder(), EngineConfig())
        b = EvaluationEngine(BareBuilder(), EngineConfig())
        assert a.builder_fingerprint() != b.builder_fingerprint()
        assert a.builder_fingerprint() == a.builder_fingerprint()


class TestFastSTCOEquivalence:
    def test_engine_backends_agree_on_best_corner(self, builder,
                                                  small_space):
        """The fast STCO loop through the default serial engine and
        through a batched engine must find the identical best corner
        and rewards."""
        from repro.api import execute_search
        from repro.eda import build_benchmark
        from repro.search.optimizers import make_optimizer
        runs = {}
        for label, config in {
            "serial": EngineConfig(),
            "batched": EngineConfig(batch_characterization=True),
        }.items():
            runs[label] = execute_search(
                build_benchmark("s298"),
                make_optimizer("qlearning", small_space, seed=7),
                EvaluationEngine(builder, config), PPAWeights(), 6).result
        assert (runs["serial"].best_corner
                == runs["batched"].best_corner)
        np.testing.assert_allclose(runs["serial"].rewards,
                                   runs["batched"].rewards, rtol=1e-9)
        assert runs["serial"].characterizations >= 1


class TestSnapshotDelta:
    def test_snapshot_is_flat_and_numeric(self, builder):
        engine = EvaluationEngine(builder, EngineConfig())
        snap = engine.snapshot()
        assert snap["characterizations"] == 0
        assert snap["flow_evaluations"] == 0
        assert all(isinstance(v, (int, float)) for v in snap.values())
        assert not any(k.endswith("hit_rate") for k in snap)
        assert "backend" not in snap            # strings excluded

    def test_delta_brackets_a_window_of_work(self, builder, netlist,
                                             corners):
        engine = EvaluationEngine(builder, EngineConfig())
        engine.evaluate_many(netlist, corners[:2])
        before = engine.snapshot()
        engine.evaluate_many(netlist, corners[:3])   # 2 hits + 1 miss
        delta = engine.delta(before)
        assert delta["flow_evaluations"] == 1
        assert delta["characterizations"] == 1
        assert delta["result_cache.memory.hits"] == 2
        # Untouched counters report zero movement, not absence.
        assert delta["result_cache.memory.evictions"] == 0

    def test_delta_tolerates_new_counter_keys(self, builder):
        engine = EvaluationEngine(builder, EngineConfig())
        delta = engine.delta({})                # e.g. older snapshot
        assert delta["flow_evaluations"] == 0


class TestSnapshotConsistency:
    def test_concurrent_snapshots_never_tear(self, builder, netlist,
                                             small_space):
        """A reader bracketing windows while a worker evaluates must
        never see a result-cache put without the flow tally that
        produced it (or vice versa): both move under one lock."""
        import threading

        engine = EvaluationEngine(builder, EngineConfig())
        corners = small_space.points()
        stop = threading.Event()
        torn = []

        def reader():
            while not stop.is_set():
                snap = engine.snapshot()
                if snap["result_cache.memory.puts"] \
                        != snap["flow_evaluations"]:
                    torn.append(snap)

        t = threading.Thread(target=reader)
        t.start()
        try:
            # Fresh corners each pass: every record is a miss, so every
            # flow evaluation pairs with exactly one result-cache put.
            for corner in corners:
                engine.evaluate_many(netlist, [corner])
        finally:
            stop.set()
            t.join()
        assert torn == []
        final = engine.snapshot()
        assert final["flow_evaluations"] == len(corners)
        assert final["result_cache.memory.puts"] == len(corners)

    def test_cache_event_counters_match_cache_stats(self, builder,
                                                    netlist, corners):
        """The exported repro_engine_cache_events_total series agree
        exactly with the caches' own stats() tallies."""
        from repro.obs.metrics import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        with use_registry(registry):
            engine = EvaluationEngine(builder, EngineConfig())
            engine.evaluate_many(netlist, corners[:3])
            engine.evaluate_many(netlist, corners[:3])    # warm pass
        snap = registry.snapshot()
        for cache, tier_stats in (
                ("result", engine.result_cache.stats()),
                ("library", engine.library_cache.stats())):
            memory = tier_stats["memory"]
            for event, stat in (("hit", "hits"), ("miss", "misses"),
                                ("put", "puts"),
                                ("eviction", "evictions")):
                series = (f'repro_engine_cache_events_total{{'
                          f'cache="{cache}",tier="memory",'
                          f'event="{event}"}}')
                assert snap.get(series, 0) == memory[stat], series
        assert snap["repro_engine_flow_evaluations_total"] \
            == engine.flow_evaluations
        assert snap["repro_engine_characterizations_total"] \
            == engine.characterizations
