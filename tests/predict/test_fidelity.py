"""Surrogate-fidelity runs and uncertainty-gated escalation economics."""

import json
import threading
from dataclasses import replace

import pytest

from repro.api import Workspace, run
from repro.api.config import PredictConfig
from repro.api.report import RunReport
from repro.predict.fidelity import escalation_config
from repro.serve import ServeClient, ServeService, StcoServer
from tests.serve.conftest import StubRunner

from .conftest import make_config


def surrogate_config(**predict_overrides):
    return make_config(predict=PredictConfig(fidelity="surrogate",
                                             **predict_overrides))


@pytest.fixture(scope="module")
def surrogate_report(predict_ws):
    return run(surrogate_config(), predict_ws)


class TestSurrogateFidelityRun:
    def test_runs_in_milliseconds_with_zero_engine_work(
            self, surrogate_report):
        """The tier-0 promise: a whole search, no engine, honest
        counters."""
        assert surrogate_report.evaluations > 0
        assert surrogate_report.engine_misses == 0
        assert surrogate_report.characterizations == 0
        assert surrogate_report.runtime["charlib_s"] == 0.0
        assert surrogate_report.runtime["flow_s"] == 0.0
        assert surrogate_report.runtime["total_s"] < 5.0

    def test_reports_real_best_corner_and_ppa(self, surrogate_report):
        assert len(surrogate_report.best_corner) == 3
        assert surrogate_report.best_ppa["power_w"] > 0
        assert surrogate_report.best_ppa["area_um2"] > 0

    def test_uncertainty_block(self, surrogate_report):
        unc = surrogate_report.uncertainty
        assert unc["fidelity"] == "surrogate"
        assert unc["corners"] >= 1
        for name in ("log_power", "log_delay", "log_area"):
            per = unc["per_objective"][name]
            assert per["max_std"] >= per["mean_std"] >= 0.0
        assert unc["best_corner_std"] >= 0.0
        assert unc["escalated"] is False
        assert unc["model"]["fingerprint"]

    def test_surrogate_block_counts_predictions(self, surrogate_report):
        sg = surrogate_report.surrogate
        assert sg["predictions"] >= surrogate_report.evaluations
        assert sg["model_fingerprint"]

    def test_report_json_round_trip(self, surrogate_report):
        text = json.dumps(surrogate_report.to_dict())
        loaded = RunReport.from_dict(json.loads(text))
        assert loaded.uncertainty == surrogate_report.uncertainty
        assert loaded.best_corner == surrogate_report.best_corner
        assert loaded.engine_misses == 0

    def test_summary_rows_show_fidelity(self, surrogate_report):
        rows = {name: value
                for name, value in surrogate_report.summary_rows()}
        assert rows["fidelity"] == "surrogate"
        assert "best-corner spread (log10)" in rows

    def test_predicted_records_never_harvested(self, predict_ws,
                                               surrogate_report):
        """Surrogate outputs must not feed the surrogate's own training
        set — the store holds engine truth only."""
        rows_before = len(predict_ws.record_store())
        run(surrogate_config(), predict_ws)
        assert len(predict_ws.record_store()) == rows_before

    def test_thin_store_fails_clean(self, tmp_path):
        with pytest.raises(ValueError, match="rows"):
            run(surrogate_config(), Workspace(tmp_path / "empty"))

    def test_unconfigured_escalation_is_reported(self, predict_ws):
        report = run(surrogate_config(escalate_threshold=1e-12),
                     predict_ws)
        unc = report.uncertainty
        assert unc["escalated"] is False
        assert "escalate_url" in unc["escalation_error"]


class TestEscalationConfig:
    def test_twin_flips_only_the_predict_block(self):
        cfg = surrogate_config(escalate_threshold=0.5,
                               escalate_url="http://x:1")
        twin = escalation_config(cfg)
        assert twin.predict.fidelity == "engine"
        assert twin.predict.escalate_threshold == 0.0
        assert twin.predict.escalate_url == ""
        assert twin.search == cfg.search
        assert twin.benchmark == cfg.benchmark

    def test_identical_runs_escalate_identical_documents(self):
        a = escalation_config(surrogate_config(
            escalate_threshold=0.3, escalate_url="http://a:1"))
        b = escalation_config(surrogate_config(
            escalate_threshold=0.7, escalate_url="http://b:2"))
        assert a.to_dict() == b.to_dict()


class TestEscalationEconomics:
    @pytest.fixture()
    def stub_server(self, tmp_path):
        runner = StubRunner()
        runner.gate = threading.Event()
        service = ServeService(Workspace(tmp_path / "ws"),
                               jobs_dir=tmp_path / "jobs",
                               workers=1, runner=runner)
        server = StcoServer(service).start()
        yield runner, server
        runner.gate.set()
        server.close()
        service.close(timeout=10)

    def test_exactly_one_engine_execution(self, predict_ws,
                                          stub_server):
        """Two identical high-uncertainty surrogate runs + one direct
        engine submission coalesce into ONE execution."""
        runner, server = stub_server
        cfg = surrogate_config(escalate_threshold=1e-12,
                               escalate_url=server.url)
        first = run(cfg, predict_ws).uncertainty
        assert first["escalated"] is True
        job_id = first["escalated_job_id"]
        assert job_id
        assert runner.started.wait(10)

        second = run(cfg, predict_ws).uncertainty
        assert second["escalated"] is True
        assert second["escalation_coalesced_with"] == job_id

        # A user racing the gate with the identical engine document
        # lands on the same job too.
        with ServeClient(server.url) as client:
            direct = client.submit(escalation_config(cfg).to_dict())
            assert direct["coalesced_with"] == job_id

            runner.gate.set()
            job = client.wait(job_id, timeout_s=30)
        assert job["state"] == "succeeded"
        assert len(runner.calls) == 1

    def test_escalation_hop_carries_the_trace_context(self, predict_ws,
                                                      stub_server):
        """The engine twin joins the escalating run's trace: the hop's
        ``traceparent`` rides the auto-submit, so the twin's root span
        is parented on the surrogate run's active context."""
        from repro.obs.trace import mint_context, trace_context
        runner, server = stub_server
        runner.gate.set()                # twin may execute immediately
        ctx = mint_context()
        cfg = surrogate_config(escalate_threshold=1e-12,
                               escalate_url=server.url)
        with trace_context(ctx):
            unc = run(cfg, predict_ws).uncertainty
        assert unc["escalated"] is True
        with ServeClient(server.url) as client:
            client.wait(unc["escalated_job_id"], timeout_s=30)
            events = client.events(unc["escalated_job_id"])
            tree = [e for e in events
                    if isinstance(e, dict)
                    and e.get("kind") == "trace"][-1]["trace"]
            assert tree["name"] == "serve.job"
            assert tree["trace_id"] == ctx.trace_id
            assert tree["parent_span_id"] == ctx.span_id

    def test_confident_run_never_escalates(self, predict_ws,
                                           stub_server):
        runner, server = stub_server
        report = run(surrogate_config(escalate_threshold=1e9,
                                      escalate_url=server.url),
                     predict_ws)
        assert report.uncertainty["escalated"] is False
        assert "escalated_job_id" not in report.uncertainty
        assert not runner.calls
