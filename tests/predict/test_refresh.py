"""ModelRefresher: warm refits track harvested truth without restarts."""

from dataclasses import replace

import pytest

from repro.api import run
from repro.predict import ModelRefresher, PredictService

from .conftest import DESIGN, SEARCH, SURROGATE, make_config


@pytest.fixture(scope="module")
def grown_ws(predict_ws):
    """The session workspace after a second, harvest-only run that
    visits corners the first run never evaluated — the registered
    ensemble goes stale, which is exactly the refresher's job (a
    ``persist_model`` run would retrain from scratch instead). Returns
    ``(ws, new_X)`` with the feature rows the second run added."""
    store = predict_ws.record_store()
    X_before, _ = store.matrices()
    run(make_config(search=replace(SEARCH, optimizer="anneal",
                                   seed=7, iterations=16),
                    surrogate=replace(SURROGATE,
                                      persist_model=False)),
        predict_ws)
    X_after, _ = store.matrices()
    assert len(X_after) > len(X_before), \
        "second run must harvest new corners"
    return predict_ws, X_after[len(X_before):]


class TestRefreshNow:
    def test_noop_below_delta(self, predict_ws):
        service = PredictService(predict_ws)
        service.predict(DESIGN, (0.85, -0.05, 0.9))
        refresher = ModelRefresher(predict_ws, service=service,
                                   delta_rows=10_000)
        out = refresher.refresh_now()
        assert out["refit"] is False

    def test_rejects_bad_delta(self, predict_ws):
        with pytest.raises(ValueError, match="delta_rows"):
            ModelRefresher(predict_ws, delta_rows=0)

    def test_refit_swaps_served_model_without_restart(self, grown_ws):
        ws, new_X = grown_ws
        service = PredictService(ws)
        service.predict(DESIGN, (0.85, -0.05, 0.9))
        before = service.info()
        stale_model = service.model()
        stale_std = stale_model.predict(new_X)[1].mean()

        refresher = ModelRefresher(ws, service=service, delta_rows=1)
        out = refresher.refresh_now()
        assert out["refit"] is True
        assert out["trained_rows"] == len(ws.record_store())

        after = service.info()
        assert after["fingerprint"] != before["fingerprint"]
        assert after["trained_rows"] > before["trained_rows"]

        # The acceptance property: epistemic spread on the corners the
        # engine just ground-truthed strictly decreases.
        fresh_std = service.model().predict(new_X)[1].mean()
        assert fresh_std < stale_std

        # Swap is visible to requests immediately (and the LRU key
        # change means no stale answer survives).
        doc = service.predict(DESIGN, (0.85, -0.05, 0.9))
        assert doc["model"]["fingerprint"] == after["fingerprint"]

    def test_refit_registers_artifact_in_stats(self, grown_ws):
        """The new fingerprint and row count surface through
        ``surrogate_stats`` — what /v1/workspace/stats serves."""
        ws, _ = grown_ws
        service = PredictService(ws)
        service.predict(DESIGN, (0.85, -0.05, 0.9))
        refresher = ModelRefresher(ws, service=service, delta_rows=1)
        refresher.refresh_now()           # refit (or no-op if current)
        stats = ws.surrogate_stats()
        latest = stats["latest_model"]
        assert latest["fingerprint"] == service.info()["fingerprint"]
        assert latest["trained_rows"] == len(ws.record_store())
        assert stats["rows_since_train"] == 0

    def test_second_refresh_is_noop(self, grown_ws):
        ws, _ = grown_ws
        service = PredictService(ws)
        service.predict(DESIGN, (0.85, -0.05, 0.9))
        refresher = ModelRefresher(ws, service=service, delta_rows=1)
        refresher.refresh_now()
        out = refresher.refresh_now()
        assert out["refit"] is False
        assert out["delta"] == 0


class TestBackgroundThread:
    def test_loop_refits_and_stops_cleanly(self, grown_ws):
        ws, _ = grown_ws
        service = PredictService(ws)
        service.predict(DESIGN, (0.85, -0.05, 0.9))
        # Force staleness: serve a model fitted on a strict row subset.
        from repro.surrogate.models import EnsembleConfig, EnsemblePPAModel
        X, Y = ws.record_store().matrices()
        stale = EnsemblePPAModel(
            EnsembleConfig(members=2, hidden=8, epochs=10,
                           seed=3)).fit(X[:-2], Y[:-2])
        service.swap_model(stale)
        assert service.info()["trained_rows"] < len(ws.record_store())

        refresher = ModelRefresher(ws, service=service, delta_rows=1,
                                   interval_s=0.05)
        refresher.start()
        try:
            import time
            deadline = time.monotonic() + 20
            while refresher.refits == 0 and time.monotonic() < deadline:
                time.sleep(0.05)
        finally:
            refresher.close()
        assert refresher.refits >= 1
        assert service.info()["trained_rows"] == len(ws.record_store())
        assert refresher._thread is None
