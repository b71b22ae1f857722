"""Runner: dispatch, warm-workspace reuse, golden-value equivalence."""

import json
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from repro.api import (CampaignCheckpointError, ConfigError, RunReport,
                       ScenarioConfig, SearchConfig, StcoConfig, Workspace,
                       run)
from tests.api.conftest import MODEL, SEARCH, TECH

GOLDEN_DIR = Path(__file__).resolve().parent

#: Timing fields of a checkpoint row: wall-clock, never golden.
TIMINGS = ("runtime_s", "charlib_s", "flow_s")


def _golden(name: str):
    return json.loads((GOLDEN_DIR / name).read_text())


def _golden_campaign(base_config, checkpoint: str) -> StcoConfig:
    """The two-scenario campaign the golden fixtures were captured from."""
    return replace(
        base_config, mode="campaign", checkpoint=checkpoint,
        scenarios=(ScenarioConfig(benchmark="s298", agent="qlearning",
                                  seed=0, iterations=5),
                   ScenarioConfig(benchmark="s386", agent="random",
                                  seed=1, iterations=5)))


class TestSearchMode:
    def test_search_runs_and_reports(self, base_config, workspace):
        report = run(base_config, workspace)
        assert report.mode == "search"
        assert report.design == "s298"
        assert len(report.best_corner) == 3
        assert report.evaluations >= 1
        assert report.rewards and len(report.rewards) == 6
        assert report.pareto_front
        assert report.hypervolume >= 0.0
        assert report.runtime["total_s"] > 0.0
        assert report.config == base_config.to_dict()

    def test_report_json_loadable(self, base_config, workspace,
                                  tmp_path):
        report = run(base_config, workspace)
        path = report.save(tmp_path / "report.json")
        assert RunReport.load(path).best_reward == report.best_reward

    def test_warm_workspace_skips_all_work(self, base_config, workspace):
        run(base_config, workspace)
        fresh = Workspace(workspace.root)    # new process simulation
        report = run(base_config, fresh)
        ws = report.cache_stats["workspace"]
        assert ws["models_trained"] == 0
        assert ws["models_loaded"] == 1
        assert report.characterizations == 0
        assert report.engine_misses == 0

    def test_config_accepts_dict_and_path(self, base_config, workspace,
                                          tmp_path):
        by_obj = run(base_config, workspace)
        by_dict = run(base_config.to_dict(), workspace)
        path = base_config.save(tmp_path / "cfg.json")
        by_path = run(path, workspace)
        assert by_obj.best_reward == by_dict.best_reward \
            == by_path.best_reward

    def test_bad_config_type(self):
        with pytest.raises(ConfigError, match="expects"):
            run(42)


class TestLegacyEquivalence:
    def test_fast_mode_matches_parent_golden(self, base_config,
                                             workspace):
        """``mode="fast"`` reproduces, exactly, what the paper's fast
        STCO loop returned for this config before the imperative
        front door was removed (fixed seeds, golden captured then)."""
        golden = _golden("golden_fast.json")
        report = run(replace(base_config, mode="fast"), workspace)
        assert list(report.best_corner) == golden["best_corner"]
        assert report.best_reward == golden["best_reward"]
        assert report.rewards == golden["rewards"]
        assert report.evaluations == golden["evaluations"]

    def test_traditional_mode_uses_spice(self, workspace, base_config):
        config = replace(
            base_config, mode="traditional",
            search=SearchConfig(iterations=2, vdd_scales=(1.0,),
                                vth_shifts=(0.0,), cox_scales=(1.0,)))
        report = run(config, workspace)
        assert report.best_corner == (1.0, 0.0, 1.0)


class TestPortfolioMode:
    def test_members_race(self, base_config, workspace):
        config = replace(
            base_config, mode="portfolio",
            search=replace(SEARCH, iterations=8,
                           members=("anneal", "random")))
        report = run(config, workspace)
        assert report.optimizer == "portfolio"
        assert report.evaluations >= 1


class TestCampaignMode:
    def test_campaign_runs_and_resumes(self, base_config, workspace):
        config = replace(
            base_config, mode="campaign", checkpoint="ckpt_runner.json",
            scenarios=(ScenarioConfig(benchmark="s298",
                                      agent="qlearning", iterations=3),
                       ScenarioConfig(benchmark="s298", agent="random",
                                      iterations=3)))
        report = run(config, workspace)
        assert report.mode == "campaign"
        assert len(report.scenarios) == 2
        assert report.resumed_scenarios == 0
        assert (workspace.root / "ckpt_runner.json").exists()
        again = run(config, workspace)
        assert again.resumed_scenarios == 2
        assert again.best_reward == report.best_reward
        # The memoized engine carries lifetime counters; the report must
        # show this run's deltas (a fully-resumed run does no work).
        assert again.characterizations == 0
        assert again.engine_misses == 0

    def test_campaign_reports_fronts_per_benchmark(self, base_config,
                                                   workspace):
        config = replace(
            base_config, mode="campaign",
            scenarios=(ScenarioConfig(benchmark="s298",
                                      agent="qlearning", iterations=3),))
        report = run(config, workspace)
        assert "s298" in report.pareto_fronts

    def test_internal_campaign_emits_no_deprecation(self, base_config,
                                                    workspace):
        config = replace(
            base_config, mode="campaign",
            scenarios=(ScenarioConfig(benchmark="s298", agent="random",
                                      iterations=2),))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run(config, workspace)


class TestCampaignGolden:
    """The campaign loop reproduces the values, the checkpoint format
    and the resume behaviour of the pre-refactor campaign exactly."""

    def test_campaign_matches_golden(self, base_config, workspace):
        golden = _golden("golden_campaign.json")
        config = _golden_campaign(base_config, "golden_fresh_ckpt.json")
        report = run(config, workspace, resume=False)
        assert report.best_reward == golden["best_reward"]
        assert list(report.best_corner) == golden["best_corner"]
        assert len(report.scenarios) == len(golden["scenarios"])
        for row, want in zip(report.scenarios, golden["scenarios"]):
            for key in ("scenario", "best_corner", "best_reward",
                        "history_rewards", "evaluations"):
                assert row[key] == want[key], key

        parent = _golden("golden_campaign_checkpoint.json")
        written = json.loads(
            (workspace.root / "golden_fresh_ckpt.json").read_text())
        assert list(written) == list(parent)
        for key in ("version", "config_schema", "campaign"):
            assert written[key] == parent[key], key
        assert list(written["completed"]) == list(parent["completed"])
        for sid, row in written["completed"].items():
            want = parent["completed"][sid]
            assert list(row) == list(want)
            for key in ("scenario", "best_corner", "best_reward",
                        "history_rewards", "evaluations",
                        "evaluations_to_optimum"):
                assert row[key] == want[key], key

    def test_parent_checkpoint_resumes(self, base_config, workspace):
        ckpt = workspace.root / "golden_parent_ckpt.json"
        source = GOLDEN_DIR / "golden_campaign_checkpoint.json"
        ckpt.write_bytes(source.read_bytes())
        report = run(_golden_campaign(base_config, ckpt.name), workspace)
        assert report.resumed_scenarios == 2
        assert report.characterizations == 0
        assert report.engine_misses == 0
        parent = json.loads(source.read_text())
        assert report.scenarios == [dict(row, resumed=True)
                                    for row in
                                    parent["completed"].values()]
        # Nothing re-ran, so the parent's file is left byte-for-byte.
        assert ckpt.read_bytes() == source.read_bytes()

    def _foreign_schema_checkpoint(self, workspace) -> Path:
        data = _golden("golden_campaign_checkpoint.json")
        data["config_schema"] += 1
        ckpt = workspace.root / "golden_foreign_ckpt.json"
        ckpt.write_text(json.dumps(data))
        return ckpt

    def test_foreign_schema_checkpoint_refused(self, base_config,
                                               workspace):
        ckpt = self._foreign_schema_checkpoint(workspace)
        with pytest.raises(CampaignCheckpointError, match="config schema"):
            run(_golden_campaign(base_config, ckpt.name), workspace)

    def test_cli_maps_checkpoint_error_to_exit_2(self, base_config,
                                                 workspace, tmp_path,
                                                 capsys):
        from repro.api.cli import main
        ckpt = self._foreign_schema_checkpoint(workspace)
        path = _golden_campaign(base_config, ckpt.name).save(
            tmp_path / "cfg.json")
        assert main(["run", str(path), "--workspace",
                     str(workspace.root), "--quiet"]) == 2
        assert "config schema" in capsys.readouterr().err


class TestTraceBlock:
    def test_report_carries_the_run_span_tree(self, base_config,
                                              workspace):
        report = run(base_config, workspace)
        trace = report.trace
        assert trace["name"] == "run"
        assert trace["attrs"]["mode"] == "search"
        assert trace["attrs"]["benchmark"] == "s298"
        assert trace["wall_s"] > 0.0
        names = [c["name"] for c in trace.get("children", [])]
        # The search driver's per-round spans nest under the run root.
        assert "search.round" in names
        rounds = [c for c in trace["children"]
                  if c["name"] == "search.round"]
        inner = {g["name"] for r in rounds
                 for g in r.get("children", [])}
        assert "optimizer.ask" in inner
        # The whole tree must serialize with the report.
        assert RunReport.from_json(report.to_json()).trace == trace

    def test_disabled_tracing_leaves_the_block_empty(self, base_config,
                                                     workspace):
        from repro.obs import disabled
        with disabled():
            report = run(base_config, workspace)
        assert report.trace == {}
