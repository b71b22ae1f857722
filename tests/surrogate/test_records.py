"""Record harvesting: featurizer, content-keyed store, engine listener."""

import numpy as np
import pytest

from repro.charlib import Corner
from repro.eda import build_benchmark
from repro.surrogate import (Featurizer, RecordHarvester, RecordStore,
                             targets_of)

from .conftest import SPACE, analytic_records


@pytest.fixture(scope="module")
def netlist():
    return build_benchmark("s298")


class TestFeaturizer:
    def test_corner_plus_netlist_features(self, netlist):
        f = Featurizer()
        row = f.features(netlist, Corner(1.1, 0.05, 0.9))
        assert row.shape == (len(f.names()),)
        # Corner descriptor leads, normalised around nominal.
        np.testing.assert_allclose(row[:3], [0.1, 0.25, -0.1],
                                   atol=1e-12)
        assert (row[3:] > 0).all()       # log(1 + counts) of a real design

    def test_netlist_features_cached_per_design(self, netlist):
        f = Featurizer()
        f.features(netlist, Corner(1.0, 0.0, 1.0))
        f.features(netlist, Corner(0.9, 0.0, 1.0))
        assert f.calls == 2
        assert len(f._netlist_cache) == 1

    def test_fingerprint_separates_featurizations(self):
        assert Featurizer().fingerprint() == Featurizer().fingerprint()
        assert Featurizer().fingerprint() != \
            Featurizer(include_netlist=False).fingerprint()

        def extra(netlist, corner):
            return (corner.vdd_scale ** 2,)
        assert Featurizer(extra=extra).fingerprint() != \
            Featurizer().fingerprint()


class TestRecordStore:
    def test_add_and_dedupe(self, tmp_path):
        store = RecordStore(tmp_path)
        corner = Corner(1.0, 0.0, 1.0)
        key = store.row_key("design-a", corner)
        assert store.add(key, "design-a", corner, [0.0, 0.0, 0.0],
                         [-5.0, -7.0, 4.0])
        assert not store.add(key, "design-a", corner, [0.0, 0.0, 0.0],
                             [-5.0, -7.0, 4.0])
        assert len(store) == 1
        assert key in store

    def test_rows_survive_reload(self, tmp_path):
        store = RecordStore(tmp_path)
        for i, corner in enumerate(SPACE.points()[:7]):
            store.add(store.row_key("d", corner), "d", corner,
                      [float(i), 0.0, 0.0], [-5.0, -7.0, float(i)])
        fresh = RecordStore(tmp_path)
        assert len(fresh) == 7
        assert fresh.loaded == 7
        X, Y = fresh.matrices()
        assert X.shape == (7, 3) and Y.shape == (7, 3)
        assert fresh.designs() == {"d": 7}

    def test_distinct_designs_separate_matrices(self, tmp_path):
        store = RecordStore(tmp_path)
        corner = Corner(1.0, 0.0, 1.0)
        store.add(store.row_key("a", corner), "a", corner,
                  [0.0] * 3, [0.0] * 3)
        store.add(store.row_key("b", corner), "b", corner,
                  [1.0] * 3, [1.0] * 3)
        X, _ = store.matrices(design="a")
        assert len(X) == 1

    def test_torn_tail_is_skipped(self, tmp_path):
        store = RecordStore(tmp_path)
        corner = Corner(1.0, 0.0, 1.0)
        store.add(store.row_key("d", corner), "d", corner,
                  [0.0] * 3, [0.0] * 3)
        with open(store.path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "torn')
        assert len(RecordStore(tmp_path)) == 1


class TestFeatureStats:
    """The training envelope the predict edge scores drift against."""

    def test_empty_store_has_no_stats(self, tmp_path):
        store = RecordStore(tmp_path)
        assert store.feature_stats() == {}
        assert store.save_feature_stats() == {}
        assert not store.stats_path.exists()
        assert store.load_feature_stats() == {}

    def test_save_and_load_round_trip(self, tmp_path):
        store = RecordStore(tmp_path)
        for i, corner in enumerate(SPACE.points()[:5]):
            store.add(store.row_key("d", corner), "d", corner,
                      [float(i), 2.0, -float(i)], [-5.0, -7.0, 1.0])
        saved = store.save_feature_stats()
        loaded = RecordStore(tmp_path).load_feature_stats()
        assert loaded == saved
        assert loaded["rows"] == 5
        assert loaded["min"][0] == 0.0 and loaded["max"][0] == 4.0
        assert loaded["mean"][1] == 2.0 and loaded["std"][1] == 0.0
        assert loaded["featurizer"] == store.featurizer.fingerprint()

    def test_corrupt_stats_file_loads_as_empty(self, tmp_path):
        store = RecordStore(tmp_path)
        store.stats_path.write_text("{broken json")
        assert store.load_feature_stats() == {}


class TestRecordHarvester:
    def test_harvests_and_skips_known_rows(self, tmp_path, netlist):
        store = RecordStore(tmp_path)
        harvester = RecordHarvester(store)
        records = analytic_records(SPACE.points()[:5])
        harvester.observe(netlist, records)
        assert harvester.harvested == 5
        assert harvester.featurizer.calls == 5
        # The same records again: key lookups only, no featurization.
        harvester.observe(netlist, records)
        assert harvester.harvested == 5
        assert harvester.skipped == 5
        assert harvester.featurizer.calls == 5

    def test_fresh_harvester_reuses_persisted_store(self, tmp_path,
                                                    netlist):
        records = analytic_records(SPACE.points()[:5])
        RecordHarvester(RecordStore(tmp_path)).observe(netlist, records)
        fresh = RecordHarvester(RecordStore(tmp_path))
        fresh.observe(netlist, records)
        assert fresh.harvested == 0
        assert fresh.skipped == 5
        assert fresh.featurizer.calls == 0   # zero re-featurization
        assert fresh.stats()["store_rows"] == 5

    def test_predicted_records_are_not_ground_truth(self, tmp_path,
                                                    netlist):
        from dataclasses import replace
        store = RecordStore(tmp_path)
        harvester = RecordHarvester(store)
        (record,) = analytic_records(SPACE.points()[:1])
        harvester.observe(netlist, [replace(record, predicted=True)])
        assert len(store) == 0
        harvester.observe(netlist, [record])
        assert len(store) == 1

    def test_targets_are_log10_objectives(self, tmp_path, netlist):
        store = RecordStore(tmp_path)
        harvester = RecordHarvester(store)
        (record,) = analytic_records(SPACE.points()[:1])
        harvester.observe(netlist, [record])
        _, Y = store.matrices()
        np.testing.assert_allclose(Y[0], targets_of(record.result))


class TestEngineListener:
    """The record stream through a real EvaluationEngine (flow stubbed)."""

    class _Builder:
        def fingerprint(self):
            return "stub-builder"

        def build(self, corner):
            self.last_runtime_s = 0.0
            return {"corner": corner.key()}

    def _engine(self, monkeypatch):
        from repro.engine import engine as engine_mod
        from .conftest import smooth_ppa
        monkeypatch.setattr(engine_mod, "evaluate_system",
                            lambda netlist, library, **_: smooth_ppa(
                                Corner(*library["corner"])))
        return engine_mod.EvaluationEngine(self._Builder())

    def test_listener_sees_misses_and_hits(self, tmp_path, monkeypatch,
                                           netlist):
        engine = self._engine(monkeypatch)
        store = RecordStore(tmp_path)
        harvester = RecordHarvester(store)
        engine.add_record_listener(harvester.observe)
        corners = SPACE.points()[:4]
        engine.evaluate_many(netlist, corners)
        assert harvester.harvested == 4
        # Warm pass: records arrive cached; harvest costs zero features.
        engine.evaluate_many(netlist, corners)
        assert harvester.harvested == 4
        assert harvester.skipped == 4
        assert harvester.featurizer.calls == 4

    def test_remove_listener_is_idempotent(self, tmp_path, monkeypatch,
                                           netlist):
        engine = self._engine(monkeypatch)
        harvester = RecordHarvester(RecordStore(tmp_path))
        engine.add_record_listener(harvester.observe)
        engine.add_record_listener(harvester.observe)   # no duplicate
        engine.evaluate_many(netlist, SPACE.points()[:2])
        assert harvester.harvested == 2
        engine.remove_record_listener(harvester.observe)
        engine.remove_record_listener(harvester.observe)
        engine.evaluate_many(netlist, SPACE.points()[2:4])
        assert harvester.harvested == 2
