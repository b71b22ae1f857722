"""PredictService: model loading, the content-keyed LRU, batching."""

import numpy as np
import pytest

from repro.api import Workspace
from repro.predict import PredictError, PredictService

from .conftest import DESIGN

CORNER = (0.85, -0.05, 0.9)
OTHER = (1.05, 0.05, 1.1)


class TestModelLoading:
    def test_fresh_workspace_answers_409(self, tmp_path):
        service = PredictService(Workspace(tmp_path))
        with pytest.raises(PredictError) as exc:
            service.predict(DESIGN, CORNER)
        assert exc.value.status == 409

    def test_loads_newest_registered_artifact(self, predict_ws):
        """The service serves whatever ensemble the registry holds —
        config-independent, so a CLI-trained model works unseen."""
        service = PredictService(predict_ws)
        loaded_before = predict_ws.counters["surrogates_loaded"]
        service.predict(DESIGN, CORNER)
        info = service.info()
        assert info["loaded"]
        assert info["trained_rows"] >= 8
        assert predict_ws.counters["surrogates_loaded"] == \
            loaded_before + 1

    def test_model_loaded_once_across_requests(self, predict_ws):
        service = PredictService(predict_ws)
        loaded_before = predict_ws.counters["surrogates_loaded"]
        for _ in range(3):
            service.predict(DESIGN, CORNER)
        assert predict_ws.counters["surrogates_loaded"] == \
            loaded_before + 1


class TestValidation:
    def test_rejects_bad_corner(self, predict_ws):
        service = PredictService(predict_ws)
        for bad in ([1.0], [1.0, 2.0, "x"], "corner", None):
            with pytest.raises(PredictError):
                service.predict(DESIGN, bad)

    def test_rejects_unknown_design(self, predict_ws):
        service = PredictService(predict_ws)
        with pytest.raises(PredictError, match="unknown design"):
            service.predict("not-a-benchmark", CORNER)

    def test_rejects_empty_batch(self, predict_ws):
        service = PredictService(predict_ws)
        with pytest.raises(PredictError, match="non-empty"):
            service.predict_batch(DESIGN, [])


class TestPrediction:
    def test_document_shape(self, predict_ws):
        doc = PredictService(predict_ws).predict(DESIGN, CORNER)
        assert doc["design"] == DESIGN
        pred = doc["prediction"]
        assert pred["power_w"] > 0
        assert pred["delay_s"] > 0
        assert pred["area_um2"] > 0
        assert pred["performance_hz"] == \
            pytest.approx(1.0 / pred["delay_s"])
        unc = doc["uncertainty"]
        for name in ("log_power", "log_delay", "log_area", "mean_std"):
            assert unc[name] >= 0.0
        assert doc["model"]["fingerprint"]
        assert doc["cached"] is False

    def test_lru_hit_on_identical_query(self, predict_ws):
        service = PredictService(predict_ws)
        first = service.predict(DESIGN, CORNER)
        second = service.predict(DESIGN, CORNER)
        assert second["cached"] is True
        assert second["prediction"] == first["prediction"]

    def test_lru_evicts_oldest(self, predict_ws):
        service = PredictService(predict_ws, cache_size=1)
        service.predict(DESIGN, CORNER)
        service.predict(DESIGN, OTHER)       # evicts CORNER
        assert service.predict(DESIGN, CORNER)["cached"] is False

    def test_swap_model_invalidates_cache(self, predict_ws):
        """LRU keys embed the model fingerprint, so a swap makes every
        old entry unreachable without an explicit flush."""
        import copy
        service = PredictService(predict_ws)
        service.predict(DESIGN, CORNER)
        model = copy.deepcopy(service.model())
        X, Y = predict_ws.record_store().matrices()
        model.refit(X, Y, epochs=5)
        service.swap_model(model)
        assert service.predict(DESIGN, CORNER)["cached"] is False

    def test_batch_is_one_forward_and_matches_single(self, predict_ws):
        service = PredictService(predict_ws)
        single = service.predict(DESIGN, OTHER)
        fresh = PredictService(predict_ws)
        batch = fresh.predict_batch(DESIGN, [CORNER, OTHER])
        assert batch["count"] == 2
        by_corner = {tuple(p["corner"]): p
                     for p in batch["predictions"]}
        got = by_corner[tuple(OTHER)]["prediction"]
        want = single["prediction"]
        assert np.isclose(got["power_w"], want["power_w"])
        assert np.isclose(got["delay_s"], want["delay_s"])

    def test_batch_answers_cached_corners_from_lru(self, predict_ws):
        service = PredictService(predict_ws)
        service.predict(DESIGN, CORNER)
        batch = service.predict_batch(DESIGN, [CORNER, OTHER])
        flags = {tuple(p["corner"]): p["cached"]
                 for p in batch["predictions"]}
        assert flags[tuple(CORNER)] is True
        assert flags[tuple(OTHER)] is False

    def test_uncertainty_matches_ensemble_spread(self, predict_ws):
        """The served uncertainty IS the member spread — no scaling,
        no calibration knob hiding in the service."""
        service = PredictService(predict_ws)
        doc = service.predict(DESIGN, CORNER)
        model = service.model()
        X = service._featurize(DESIGN, [_corner(CORNER)])
        _, std = model.predict(X)
        assert doc["uncertainty"]["log_power"] == \
            pytest.approx(float(std[0, 0]))


class TestDriftTelemetry:
    """Every answer is scored against the persisted training envelope;
    the score rides on the response and feeds the drift gauge/counter."""

    FAR_OOD = (5.0, 1.0, 5.0)            # way outside every knob range

    @staticmethod
    def _vitals():
        from repro.obs.metrics import get_registry
        snap = get_registry().snapshot()
        return (snap.get("repro_predict_drift", 0.0),
                snap.get("repro_predict_ood_total", 0.0))

    def test_stats_file_exists_after_harvest_run(self, predict_ws):
        stats = predict_ws.record_store().load_feature_stats()
        assert stats["rows"] >= 8
        assert len(stats["min"]) == len(stats["names"])

    def test_in_distribution_request_scores_low(self, predict_ws):
        doc = PredictService(predict_ws).predict(DESIGN, CORNER)
        assert 0.0 <= doc["drift"] <= 1.0

    def test_ood_request_scores_high_and_counts(self, predict_ws):
        service = PredictService(predict_ws)
        _, ood_before = self._vitals()
        doc = service.predict(DESIGN, self.FAR_OOD)
        assert doc["drift"] > 1.0
        gauge, ood = self._vitals()
        assert ood == ood_before + 1
        assert gauge > 0.0

    def test_cache_hits_replay_their_stored_score(self, predict_ws):
        """A repeated out-of-distribution query is still sustained
        drift: the LRU hit re-feeds the stored score instead of going
        silent, so the gauge cannot decay through caching."""
        service = PredictService(predict_ws)
        first = service.predict(DESIGN, self.FAR_OOD)
        _, ood_before = self._vitals()
        again = service.predict(DESIGN, self.FAR_OOD)
        assert again["cached"] is True
        assert again["drift"] == first["drift"]
        gauge, ood = self._vitals()
        assert ood == ood_before + 1     # the replay counted too
        assert gauge > 1.0 * 0.3         # EMA pulled up by the replays

    def test_batch_scores_every_row(self, predict_ws):
        batch = PredictService(predict_ws).predict_batch(
            DESIGN, [CORNER, self.FAR_OOD])
        scores = {tuple(p["corner"]): p["drift"]
                  for p in batch["predictions"]}
        assert scores[tuple(self.FAR_OOD)] > 1.0
        assert scores[tuple(CORNER)] < scores[tuple(self.FAR_OOD)]

    def test_missing_envelope_scores_zero(self, predict_ws,
                                          monkeypatch):
        from repro.surrogate.records import RecordStore
        monkeypatch.setattr(RecordStore, "load_feature_stats",
                            lambda self: {})
        doc = PredictService(predict_ws).predict(DESIGN, self.FAR_OOD)
        assert doc["drift"] == 0.0

    def test_swap_model_reloads_the_envelope(self, predict_ws):
        import copy
        service = PredictService(predict_ws)
        service.predict(DESIGN, CORNER)
        assert service._drift_arrays is not None
        service.swap_model(copy.deepcopy(service.model()))
        assert service._drift_arrays is None     # lazy reload armed
        assert "drift" in service.predict(DESIGN, CORNER)


def _corner(triple):
    from repro.charlib.corners import Corner
    return Corner(*triple)
