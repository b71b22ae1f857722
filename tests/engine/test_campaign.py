"""Campaign sweeps: shared-engine amortization, checkpoint/resume and the
runtime split each scenario reports (:func:`repro.api.run_campaign`)."""

import json

import pytest

from repro.api import CampaignCheckpointError, ScenarioConfig, run_campaign
from repro.engine import EngineConfig, EvaluationEngine


@pytest.fixture
def scenarios():
    return [ScenarioConfig(benchmark=b, agent=a, iterations=4)
            for b in ("s298", "s386") for a in ("qlearning", "random")]


def campaign(builder, scenarios, space, engine=None, **kwargs):
    """Run a campaign on ``engine`` (a fresh serial one by default)."""
    if engine is None:
        engine = EvaluationEngine(builder, EngineConfig())
    return run_campaign(engine, scenarios, space, **kwargs)


def characterizations(report) -> int:
    return report.cache_stats["engine"]["characterizations"]


class TestScenario:
    def test_roundtrip(self):
        scenario = ScenarioConfig("s298", agent="random", seed=3,
                                  iterations=9, weights=(2.0, 1.0, 0.25))
        clone = ScenarioConfig.from_dict(
            json.loads(json.dumps(scenario.to_dict())))
        assert clone == scenario
        assert clone.scenario_id() == scenario.scenario_id()

    def test_weights_materialize(self):
        weights = ScenarioConfig("s298",
                                 weights=(2.0, 3.0, 0.5)).ppa_weights()
        assert (weights.power, weights.performance, weights.area) \
            == (2.0, 3.0, 0.5)


class TestCampaignRun:
    def test_shared_engine_amortizes(self, builder, small_space,
                                     scenarios):
        report = campaign(builder, scenarios, small_space)
        assert len(report.scenarios) == len(scenarios)
        assert report.resumed_scenarios == 0
        # Two agents × two benchmarks explore the same 6-point space:
        # far fewer characterizations than total evaluations.
        chars = characterizations(report)
        assert chars <= small_space.size
        assert report.evaluations > chars
        assert report.best_reward == max(
            r["best_reward"] for r in report.scenarios)

    def test_ledger_report(self, builder, small_space, scenarios):
        report = campaign(builder, scenarios, small_space)
        for benchmark in ("s298", "s386"):
            rows = [r for r in report.scenarios
                    if r["scenario"]["benchmark"] == benchmark]
            assert sum(r["flow_s"] for r in rows) > 0
            assert all(r["charlib_s"] >= 0 for r in rows)
        assert report.runtime["flow_s"] == sum(
            r["flow_s"] for r in report.scenarios)
        assert report.summary_rows()

    def test_prefetch_characterizes_space_upfront(self, builder,
                                                  small_space,
                                                  scenarios):
        plain = campaign(builder, scenarios, small_space)
        prefetched = campaign(
            builder, scenarios, small_space,
            engine=EvaluationEngine(builder, EngineConfig()),
            prefetch=True)
        # Prefetch characterizes every space point, then the agents run
        # entirely against the warm library cache.
        assert characterizations(prefetched) == small_space.size
        for a, b in zip(plain.scenarios, prefetched.scenarios):
            assert a["best_corner"] == b["best_corner"]

    def test_warm_scenarios_report_zero_charlib_time(self, builder,
                                                     small_space,
                                                     scenarios):
        engine = EvaluationEngine(builder, EngineConfig())
        campaign(builder, scenarios[:1], small_space, engine=engine)
        warm = campaign(builder, scenarios[:1], small_space,
                        engine=engine)
        row = warm.scenarios[0]
        # Every record came from the engine cache: no characterization
        # or flow time may be attributed to this scenario.
        assert row["charlib_s"] == 0.0
        assert row["flow_s"] == 0.0
        assert warm.characterizations == 0

    def test_unknown_agent_raises(self, builder, small_space):
        with pytest.raises(ValueError, match="unknown agent"):
            campaign(builder, [ScenarioConfig("s298", agent="sgd")],
                     small_space)


class TestMultiObjectiveCampaign:
    def test_search_agents_run(self, builder, small_space):
        scenarios = [ScenarioConfig("s298", agent=a, iterations=6)
                     for a in ("anneal", "evolution", "surrogate")]
        report = campaign(builder, scenarios, small_space)
        assert len(report.scenarios) == 3
        for r in report.scenarios:
            assert r["evaluations"] >= 1
            assert r["pareto_front"]       # every scenario emits a front
            assert r["evaluations_to_optimum"] >= 1

    def test_nsga2_front_is_non_dominated(self, builder, small_space):
        from repro.search import non_dominated
        report = campaign(builder,
                          [ScenarioConfig("s298", agent="nsga2",
                                          iterations=8)],
                          small_space)
        front = report.scenarios[0]["pareto_front"]
        assert front
        vectors = [(f["power_w"], f["delay_s"], f["area_um2"])
                   for f in front]
        assert len(non_dominated(vectors)) == len(vectors)
        assert report.pareto_fronts["s298"]

    def test_portfolio_agent_runs(self, builder, small_space):
        report = campaign(builder,
                          [ScenarioConfig("s386", agent="portfolio",
                                          iterations=8)],
                          small_space)
        row = report.scenarios[0]
        assert row["evaluations"] <= 8
        assert row["hypervolume"] >= 0.0

    def test_checkpoint_preserves_pareto_fields(self, builder,
                                                small_space, tmp_path):
        ckpt = tmp_path / "mo.json"
        scenarios = [ScenarioConfig("s298", agent="nsga2", iterations=6)]
        first = campaign(builder, scenarios, small_space, checkpoint=ckpt)
        resumed = campaign(builder, scenarios, small_space,
                           checkpoint=ckpt)
        a, b = first.scenarios[0], resumed.scenarios[0]
        assert b["resumed"]
        assert a["pareto_front"] == b["pareto_front"]
        assert a["hypervolume"] == pytest.approx(b["hypervolume"])
        assert a["evaluations_to_optimum"] == b["evaluations_to_optimum"]

    def test_pre_search_checkpoint_rows_still_parse(self, builder,
                                                    small_space, tmp_path):
        """Rows written before the search subsystem lack the Pareto
        fields; they must resume with defaults, not invalidate."""
        ckpt = tmp_path / "campaign.json"
        scenarios = [ScenarioConfig("s298", iterations=2)]
        campaign(builder, scenarios, small_space, checkpoint=ckpt)
        data = json.loads(ckpt.read_text())
        for row in data["completed"].values():
            for key in ("pareto_front", "hypervolume",
                        "evaluations_to_optimum"):
                del row[key]
        ckpt.write_text(json.dumps(data))
        row = campaign(builder, scenarios, small_space,
                       checkpoint=ckpt).scenarios[0]
        assert row["resumed"]
        assert row["pareto_front"] == []
        assert row["hypervolume"] == 0.0
        assert row["evaluations_to_optimum"] == 0


class TestCheckpointResume:
    def test_full_resume_roundtrip(self, builder, small_space, scenarios,
                                   tmp_path):
        ckpt = tmp_path / "campaign.json"
        report = campaign(builder, scenarios, small_space, checkpoint=ckpt)
        assert ckpt.exists()
        resumed = campaign(builder, scenarios, small_space,
                           checkpoint=ckpt)
        assert resumed.resumed_scenarios == len(scenarios)
        assert all(r["resumed"] for r in resumed.scenarios)
        for a, b in zip(report.scenarios, resumed.scenarios):
            assert a["scenario"] == b["scenario"]
            assert a["best_corner"] == b["best_corner"]
            assert a["best_reward"] == b["best_reward"]
            assert a["history_rewards"] == b["history_rewards"]

    def test_partial_resume_extends(self, builder, small_space,
                                    scenarios, tmp_path):
        """A checkpoint from a shorter campaign resumes inside a longer
        one — only the new scenarios actually run."""
        ckpt = tmp_path / "campaign.json"
        campaign(builder, scenarios[:2], small_space, checkpoint=ckpt)
        report = campaign(builder, scenarios, small_space,
                          checkpoint=ckpt)
        assert report.resumed_scenarios == 2
        assert [r["resumed"] for r in report.scenarios] == [
            True, True, False, False]

    def test_space_change_invalidates(self, builder, small_space,
                                      scenarios, tmp_path):
        from repro.stco import DesignSpace
        ckpt = tmp_path / "campaign.json"
        campaign(builder, scenarios[:1], small_space, checkpoint=ckpt)
        other_space = DesignSpace(vdd_scales=(0.8, 1.2),
                                  vth_shifts=(0.0,), cox_scales=(1.0,))
        report = campaign(builder, scenarios[:1], other_space,
                          checkpoint=ckpt)
        assert report.resumed_scenarios == 0

    def test_no_resume_flag(self, builder, small_space, scenarios,
                            tmp_path):
        ckpt = tmp_path / "campaign.json"
        campaign(builder, scenarios[:1], small_space, checkpoint=ckpt)
        report = campaign(builder, scenarios[:1], small_space,
                          checkpoint=ckpt, resume=False)
        assert report.resumed_scenarios == 0

    def test_corrupt_checkpoint_ignored(self, builder, small_space,
                                        scenarios, tmp_path):
        ckpt = tmp_path / "campaign.json"
        ckpt.write_text("{ not json")
        report = campaign(builder, scenarios[:1], small_space,
                          checkpoint=ckpt)
        assert report.resumed_scenarios == 0
        assert json.loads(ckpt.read_text())["completed"]

    def test_shared_disk_cache_between_campaigns(self, builder,
                                                 small_space, scenarios,
                                                 tmp_path):
        """Second campaign, fresh engine, same cache dir: zero
        re-characterizations (the acceptance criterion)."""
        config = EngineConfig(cache_dir=tmp_path / "shared")
        cold = campaign(builder, scenarios, small_space,
                        engine=EvaluationEngine(builder, config))
        assert characterizations(cold) > 0
        warm = campaign(builder, scenarios, small_space,
                        engine=EvaluationEngine(builder, config))
        assert characterizations(warm) == 0
        assert warm.best_corner == cold.best_corner


class TestCheckpointSchemaGuard:
    def test_checkpoint_records_config_schema(self, builder, small_space,
                                              scenarios, tmp_path):
        from repro.api.config import SCHEMA_VERSION
        ckpt = tmp_path / "campaign.json"
        campaign(builder, scenarios[:1], small_space, checkpoint=ckpt)
        assert json.loads(ckpt.read_text())["config_schema"] \
            == SCHEMA_VERSION

    def _foreign_schema(self, builder, small_space, scenarios, ckpt):
        campaign(builder, scenarios[:1], small_space, checkpoint=ckpt)
        data = json.loads(ckpt.read_text())
        data["config_schema"] = data["config_schema"] + 1
        ckpt.write_text(json.dumps(data))

    def test_foreign_schema_refused(self, builder, small_space,
                                    scenarios, tmp_path):
        ckpt = tmp_path / "campaign.json"
        self._foreign_schema(builder, small_space, scenarios, ckpt)
        with pytest.raises(CampaignCheckpointError,
                           match="config schema"):
            campaign(builder, scenarios[:1], small_space, checkpoint=ckpt)

    def test_resume_false_bypasses_guard(self, builder, small_space,
                                         scenarios, tmp_path):
        ckpt = tmp_path / "campaign.json"
        self._foreign_schema(builder, small_space, scenarios, ckpt)
        report = campaign(builder, scenarios[:1], small_space,
                          checkpoint=ckpt, resume=False)
        assert report.resumed_scenarios == 0

    def test_pre_schema_checkpoint_still_resumes(self, builder,
                                                 small_space, scenarios,
                                                 tmp_path):
        """Checkpoints written before schema tracking lack the field and
        must keep resuming (they predate any schema change)."""
        ckpt = tmp_path / "campaign.json"
        campaign(builder, scenarios[:1], small_space, checkpoint=ckpt)
        data = json.loads(ckpt.read_text())
        del data["config_schema"]
        ckpt.write_text(json.dumps(data))
        report = campaign(builder, scenarios[:1], small_space,
                          checkpoint=ckpt)
        assert report.resumed_scenarios == 1
