"""EvaluationEngine semantics: seed equivalence, caching, parallelism."""

import gc
import pickle
import time
import weakref

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
        assert set(stats["timing_s"]) == {"characterization",
                                          "system_flow", "evaluate_many"}

    def test_timing_tally_survives_disabled_obs(self, builder, netlist,
                                                corners):
        from repro import obs
        with obs.disabled():
            engine = EvaluationEngine(builder, EngineConfig())
            engine.evaluate_many(netlist, corners[:2])
        timing = engine.stats()["timing_s"]
        assert set(timing) == {"characterization", "system_flow",
                               "evaluate_many"}
        assert all(seconds > 0 for seconds in timing.values())
        engine.reset_counters()
        assert engine.stats()["timing_s"] == {}

    def test_stage_seconds_are_spans_only(self, builder, netlist,
                                          corners):
        """Engine stage seconds are exported once, as spans."""
        from repro.obs import MetricsRegistry, use_registry
        with use_registry(MetricsRegistry()) as registry:
            engine = EvaluationEngine(builder, EngineConfig())
            engine.evaluate_many(netlist, corners[:2])
            snap = registry.snapshot()
        for stage in ("engine.characterize", "engine.executor"):
            assert snap[f'repro_span_seconds_count{{span="{stage}"}}'] == 1
        assert not any(n.startswith(("repro_engine_executor_seconds",
                                     "repro_stage_seconds"))
                       for n in snap)


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

    def test_engine_libraries_match_builder(self, builder, netlist,
                                            corners):
        """The engine characterizes with one ``builder.build`` per
        corner: its libraries pickle byte-equal to direct builds."""
        engine = EvaluationEngine(builder, EngineConfig())
        engine.evaluate_many(netlist, corners)
        assert engine.characterizations == len(corners)
        for corner, lib in zip(corners, engine.libraries(corners)):
            assert pickle.dumps(lib) == pickle.dumps(builder.build(corner))

    def test_process_backend_characterizes_in_workers(self, builder,
                                                      netlist, corners):
        """process:N fans characterization and flow out together; the
        rewards are the serial ones exactly."""
        serial = EvaluationEngine(builder, EngineConfig())
        reference = serial.evaluate_many(netlist, corners)
        with EvaluationEngine(
                builder, EngineConfig(backend="process:2")) as engine:
            records = engine.evaluate_many(netlist, corners)
            assert set(engine.stats()["timing_s"]) == {
                "parallel_evaluate", "evaluate_many"}
            assert engine.characterizations == len(corners)
        assert [r.reward for r in records] == [
            r.reward for r in reference]


def _ppa_fields(record):
    r = record.result
    return (record.corner.key(), record.reward, r.area_um2,
            r.wirelength_um, r.min_period_s, r.fmax_hz, r.total_power_w,
            r.dynamic_power_w, r.leakage_power_w, r.gates, r.flops,
            r.drc_violations, r.lvs_violations)


class TestImplementationReuse:
    """A design is implemented once per engine; corners only sign off."""

    @pytest.fixture
    def counted(self, monkeypatch):
        from repro.engine import engine as engine_mod
        calls = []
        real = engine_mod.implement

        def implement(netlist):
            calls.append(netlist.name)
            return real(netlist)

        monkeypatch.setattr(engine_mod, "implement", implement)
        return calls

    def test_sweep_implements_once(self, builder, netlist, corners,
                                   counted):
        weights = PPAWeights()
        engine = EvaluationEngine(builder, EngineConfig())
        first = engine.evaluate_many(netlist, corners[:3], weights)
        rest = engine.evaluate_many(netlist, corners[3:], weights)
        assert counted == [netlist.name]
        records = first + rest
        for corner, record in zip(corners, records):
            fresh = evaluate_system(netlist, builder.build(corner))
            assert record.reward == weights.score(fresh)
            assert _ppa_fields(record)[2:] == (
                fresh.area_um2, fresh.wirelength_um, fresh.min_period_s,
                fresh.fmax_hz, fresh.total_power_w, fresh.dynamic_power_w,
                fresh.leakage_power_w, fresh.gates, fresh.flops,
                fresh.drc_violations, fresh.lvs_violations)
        # Only the evaluation that built the implementation pays for it.
        stages = ("synthesis", "placement", "routing", "drc_lvs")
        assert all(records[0].result.stage_runtimes_s[s] > 0.0
                   for s in stages)
        assert all(r.result.stage_runtimes_s[s] == 0.0
                   for r in records[1:] for s in stages)

    @pytest.mark.parametrize("backend", ["process:2"])
    def test_parallel_backends_match_serial(self, builder, netlist,
                                            corners, backend):
        reference = EvaluationEngine(builder, EngineConfig()) \
            .evaluate_many(netlist, corners)
        with EvaluationEngine(builder,
                              EngineConfig(backend=backend)) as engine:
            records = engine.evaluate_many(netlist, corners)
        assert [_ppa_fields(r) for r in records] == [
            _ppa_fields(r) for r in reference]

    def test_new_design_replaces_the_slot(self, builder, netlist,
                                          corners, counted):
        from repro.eda import build_benchmark
        other = build_benchmark("s386")
        engine = EvaluationEngine(builder, EngineConfig())
        engine.evaluate_many(netlist, corners[:2])
        first = weakref.ref(engine._impl_slot[1])
        engine.evaluate_many(other, corners[:2])
        assert engine._impl_slot[1].netlist.name == "s386"
        gc.collect()
        assert first() is None          # nothing else keeps it alive
        engine.evaluate_many(netlist, corners[2:4])
        assert engine._impl_slot[1].netlist.name == netlist.name
        assert counted == [netlist.name, "s386", netlist.name]
        # Result-cache hits run no flow and implement nothing.
        engine.evaluate_many(netlist, corners[:4])
        assert len(counted) == 3


    def test_concurrent_designs_get_their_own_implementation(
            self, monkeypatch):
        """Threads alternating two designs on one engine: every caller
        gets its own design's implementation, and the slot's key always
        matches the implementation stored under it."""
        import sys
        import threading
        from repro.eda import build_benchmark
        from repro.engine import engine as engine_mod
        from repro.engine import netlist_fingerprint

        class Impl:
            def __init__(self, name):
                self.name = name

            def reused(self):
                return self

        def implement(netlist):
            time.sleep(0)               # yield mid-build, as a real one
            return Impl(netlist.name)

        monkeypatch.setattr(engine_mod, "implement", implement)
        engine = EvaluationEngine(object(), EngineConfig())
        designs = [build_benchmark("s298"), build_benchmark("s386")]
        names = {netlist_fingerprint(d): d.name for d in designs}
        errors = []

        def worker(k):
            for i in range(300):
                design = designs[(i + k) % 2]
                if engine.implementation(design).name != design.name:
                    errors.append((k, i))
                slot = engine._impl_slot
                if slot is not None and names[slot[0]] != slot[1].name:
                    errors.append(("slot", k, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []


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
        through a process-pool engine must find the identical best
        corner and rewards."""
        from repro.api import execute_search
        from repro.eda import build_benchmark
        from repro.search.optimizers import make_optimizer
        runs = {}
        for label, config in {
            "serial": EngineConfig(),
            "process": EngineConfig(backend="process:2"),
        }.items():
            with EvaluationEngine(builder, config) as engine:
                runs[label] = execute_search(
                    build_benchmark("s298"),
                    make_optimizer("qlearning", small_space, seed=7),
                    engine, PPAWeights(), 6).result
        assert (runs["serial"].best_corner
                == runs["process"].best_corner)
        np.testing.assert_array_equal(runs["serial"].rewards,
                                      runs["process"].rewards)
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
