"""Config layer: round trips, unknown-key rejection, schema versioning."""

import json

import pytest

from repro.api import (SCHEMA_VERSION, ConfigError, EngineConfig,
                       ModelConfig, RunReport, ScenarioConfig,
                       SearchConfig, StcoConfig, TechnologyConfig)

ALL_CONFIGS = [
    TechnologyConfig(),
    TechnologyConfig(cells=("INV_X1",), train_corners=((1.0, 0.0, 1.0),),
                     slews=(8e-9,), loads=(15e-15,)),
    ModelConfig(),
    ModelConfig(kind="spice"),
    EngineConfig(),
    EngineConfig(backend="process:2", cache_max_bytes=1 << 20,
                 persist=False),
    SearchConfig(),
    SearchConfig(optimizer="anneal", members=("anneal", "random")),
    ScenarioConfig(),
    ScenarioConfig(benchmark="s386", agent="nsga2", weights=(2, 1, 1)),
    StcoConfig(),
    StcoConfig(mode="campaign",
               scenarios=(ScenarioConfig(), ScenarioConfig(seed=1))),
    StcoConfig(mode="portfolio",
               search=SearchConfig(members=("anneal", "evolution"))),
]


class TestRoundTrip:
    @pytest.mark.parametrize("config", ALL_CONFIGS,
                             ids=lambda c: type(c).__name__)
    def test_dict_round_trip(self, config):
        assert type(config).from_dict(config.to_dict()) == config

    @pytest.mark.parametrize("config", ALL_CONFIGS,
                             ids=lambda c: type(c).__name__)
    def test_json_round_trip(self, config):
        # Through real JSON text, so tuples must survive list form.
        data = json.loads(json.dumps(config.to_dict()))
        assert type(config).from_dict(data) == config

    def test_root_json_helpers(self, tmp_path):
        config = StcoConfig(mode="search", benchmark="s386")
        assert StcoConfig.from_json(config.to_json()) == config
        path = config.save(tmp_path / "cfg.json")
        assert StcoConfig.load(path) == config

    def test_to_dict_is_json_native(self):
        text = json.dumps(StcoConfig(mode="campaign",
                                     scenarios=(ScenarioConfig(),))
                          .to_dict())
        assert "scenarios" in json.loads(text)


class TestValidation:
    @pytest.mark.parametrize("cls", [TechnologyConfig, ModelConfig,
                                     EngineConfig, SearchConfig,
                                     ScenarioConfig, StcoConfig])
    def test_unknown_key_rejected(self, cls):
        with pytest.raises(ConfigError, match="unknown key.*bogus"):
            cls.from_dict({"bogus": 1})

    def test_nested_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key.*typo"):
            StcoConfig.from_dict({"search": {"typo": 3}})

    def test_schema_version_mismatch(self):
        with pytest.raises(ConfigError, match="schema_version"):
            StcoConfig.from_dict({"schema_version": SCHEMA_VERSION + 1})

    def test_schema_version_default_is_current(self):
        assert StcoConfig().schema_version == SCHEMA_VERSION

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            StcoConfig(mode="warp")

    def test_campaign_needs_scenarios(self):
        with pytest.raises(ConfigError, match="scenario"):
            StcoConfig(mode="campaign")

    def test_bad_model_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            ModelConfig(kind="tarot")

    def test_bad_corner_shape(self):
        with pytest.raises(ConfigError, match="triples"):
            TechnologyConfig(train_corners=((1.0, 0.0),))

    def test_non_mapping(self):
        with pytest.raises(ConfigError, match="mapping"):
            StcoConfig.from_dict([1, 2, 3])

    def test_negative_cache_bytes(self):
        with pytest.raises(ConfigError, match="cache_max_bytes"):
            EngineConfig(cache_max_bytes=-1)

    @pytest.mark.parametrize("backend, match", [
        ("bogus", "unknown backend"),
        ("thread", "'thread' backend was removed"),
        ("thread:2", "'thread' backend was removed"),
        ("serial:3", "takes no worker count"),
        ("process:x", "positive integer"),
        ("process:0", "positive integer"),
        ("process:-2", "positive integer"),
    ])
    def test_bad_backend_rejected(self, backend, match):
        with pytest.raises(ConfigError, match=f"engine.backend: .*{match}"):
            StcoConfig.from_dict({"engine": {"backend": backend}})

    def test_removed_batching_keys_dropped_from_stored_documents(self):
        """Schema-1 job records and reports carry the removed
        batched-characterization knobs at their off defaults."""
        stored = StcoConfig().to_dict()
        stored["engine"].update(batch_characterization=False,
                                max_graphs_per_batch=1024)
        assert StcoConfig.from_dict(stored) == StcoConfig()
        assert EngineConfig.from_dict(
            {"backend": "process:2", "max_graphs_per_batch": 64}
        ) == EngineConfig(backend="process:2")

    def test_removed_batching_requested_raises(self):
        stored = StcoConfig().to_dict()
        stored["engine"]["batch_characterization"] = True
        with pytest.raises(ConfigError,
                           match="batch_characterization was removed"):
            StcoConfig.from_dict(stored)


class TestMapping:
    def test_char_config(self):
        tech = TechnologyConfig(slews=(1e-9,), loads=(2e-15,),
                                n_bisect=3, max_steps=99)
        cfg = tech.char_config()
        assert cfg.slews == (1e-9,) and cfg.loads == (2e-15,)
        assert cfg.n_bisect == 3 and cfg.max_steps == 99

    def test_corner_defaults_are_ci_grids(self):
        tech = TechnologyConfig()
        assert len(tech.corners("train")) == 8
        assert len(tech.corners("test")) == 27

    def test_explicit_corners(self):
        tech = TechnologyConfig(train_corners=((1.0, 0.0, 1.0),))
        [corner] = tech.corners("train")
        assert corner.key() == (1.0, 0.0, 1.0)

    def test_search_space(self):
        space = SearchConfig(vdd_scales=(0.9, 1.1), vth_shifts=(0.0,),
                             cox_scales=(1.0,)).space()
        assert space.size == 2

    def test_search_weights(self):
        w = SearchConfig(weights=(2.0, 1.0, 0.25)).ppa_weights()
        assert (w.power, w.performance, w.area) == (2.0, 1.0, 0.25)

    def test_scenario_mapping(self):
        s = ScenarioConfig(benchmark="s386", agent="anneal", seed=3,
                           iterations=7, weights=(2.0, 1.0, 0.5))
        assert s.identity() == {"benchmark": "s386", "agent": "anneal",
                                "seed": 3, "iterations": 7,
                                "weights": [2.0, 1.0, 0.5]}
        # Integer weights name the same scenario as their float form.
        same = ScenarioConfig(benchmark="s386", agent="anneal", seed=3,
                              iterations=7, weights=(2, 1, 0.5))
        assert same.scenario_id() == s.scenario_id()

    def test_builder_kind_follows_mode(self):
        assert StcoConfig(mode="fast").builder_kind() == "gnn"
        assert StcoConfig(mode="traditional").builder_kind() == "spice"
        assert StcoConfig(mode="search",
                          model=ModelConfig(kind="spice")
                          ).builder_kind() == "spice"


class TestRunReport:
    def test_json_round_trip(self):
        report = RunReport(mode="search", design="s298",
                           best_corner=(1.0, 0.0, 1.0),
                           best_reward=8.25,
                           pareto_front=[{"corner": [1.0, 0.0, 1.0]}],
                           runtime={"total_s": 1.5})
        again = RunReport.from_json(report.to_json())
        assert again == report
        assert isinstance(again.best_corner, tuple)

    def test_save_load(self, tmp_path):
        report = RunReport(mode="fast", best_reward=1.0)
        path = report.save(tmp_path / "r.json")
        assert RunReport.load(path) == report

    def test_summary_rows_render(self):
        report = RunReport(mode="search", design="s298",
                           best_ppa={"power_w": 1e-5,
                                     "performance_hz": 1e6,
                                     "area_um2": 100.0})
        rows = report.summary_rows()
        assert all(len(r) == 2 for r in rows)


class TestDeclarativeAxes:
    def _axes_config(self):
        from repro.api import AxisConfig
        return SearchConfig(
            optimizer="anneal",
            axes=(AxisConfig(name="vdd_scale", lo=0.8, hi=1.2,
                             step=0.05),
                  AxisConfig(name="vth_shift",
                             values=(-0.1, 0.0, 0.1)),
                  AxisConfig(name="cox_scale", lo=0.8, hi=1.2)))

    def test_round_trips_through_json(self):
        config = StcoConfig(mode="search", search=self._axes_config())
        assert StcoConfig.from_json(config.to_json()) == config

    def test_builds_a_mixed_search_space(self):
        from repro.search.spaces import SearchSpace
        space = self._axes_config().space()
        assert isinstance(space, SearchSpace)
        assert not space.is_grid
        names = [a.name for a in space.axes]
        assert names == ["vdd_scale", "vth_shift", "cox_scale"]
        # The stepped continuous axis snaps off-grid values.
        assert space.axes[0].snap(0.837) == pytest.approx(0.85)

    def test_all_discrete_axes_stay_a_grid(self):
        from repro.api import AxisConfig
        config = SearchConfig(
            axes=(AxisConfig(name="vdd_scale", values=(0.9, 1.1)),
                  AxisConfig(name="vth_shift", values=(0.0,))))
        space = config.space()
        assert space.is_grid and space.size == 2

    def test_default_space_unchanged_without_axes(self):
        from repro.stco.space import DesignSpace
        assert isinstance(SearchConfig().space(), DesignSpace)

    def test_rejects_unknown_knob_names(self):
        from repro.api import AxisConfig
        with pytest.raises(ConfigError, match="axis name"):
            AxisConfig(name="finfet_pitch", lo=0.0, hi=1.0)

    def test_rejects_degenerate_boxes_and_duplicates(self):
        from repro.api import AxisConfig
        with pytest.raises(ConfigError, match="hi > lo"):
            AxisConfig(name="vdd_scale", lo=1.0, hi=1.0)
        with pytest.raises(ConfigError, match="unique"):
            SearchConfig(axes=(
                AxisConfig(name="vdd_scale", values=(1.0,)),
                AxisConfig(name="vdd_scale", values=(0.9,))))

    def test_axes_from_plain_json_document(self):
        document = {"mode": "search",
                    "search": {"optimizer": "bayes",
                               "axes": [{"name": "vdd_scale",
                                         "lo": 0.8, "hi": 1.2,
                                         "step": 0.1}]}}
        config = StcoConfig.from_dict(document)
        assert config.search.space().axes[0].step == pytest.approx(0.1)


class TestSurrogateConfig:
    def test_round_trip_and_defaults(self):
        from repro.api import SurrogateConfig
        config = StcoConfig(
            mode="search",
            surrogate=SurrogateConfig(harvest=True, screen=12,
                                      promote=3, ucb_beta=2.0))
        assert StcoConfig.from_json(config.to_json()) == config
        assert StcoConfig().surrogate == SurrogateConfig()
        assert not StcoConfig().surrogate.harvest

    def test_validation(self):
        from repro.api import SurrogateConfig
        with pytest.raises(ConfigError, match="screen"):
            SurrogateConfig(screen=2, promote=4)
        with pytest.raises(ConfigError, match="members"):
            SurrogateConfig(members=0)

    def test_optimizer_name_decides_the_acquisition(self):
        """surrogate options must never override the registry name:
        selecting optimizer=\"ucb\" has to produce a UCB optimizer."""
        from repro.api import SurrogateConfig
        from repro.search import make_optimizer
        from repro.stco import default_space
        options = SurrogateConfig().optimizer_options()
        assert "acquisition" not in options
        space = default_space()
        assert make_optimizer("ucb", space, options=options).name == "ucb"
        assert make_optimizer("bayes", space,
                              options=options).name == "bayes"

    def test_maps_to_schedule_and_ensemble(self):
        from repro.api import SurrogateConfig
        config = SurrogateConfig(screen=10, promote=2, kappa=0.5,
                                 members=4, hidden=8, epochs=12)
        schedule = config.schedule()
        assert schedule.screen == 10 and schedule.promote == 2
        assert schedule.kappa == 0.5
        model = config.model_config()
        assert model.members == 4 and model.epochs == 12
        assert SurrogateConfig().schedule() is None

    def test_portfolio_scoring_validated(self):
        with pytest.raises(ConfigError, match="portfolio_scoring"):
            SearchConfig(portfolio_scoring="best")
        assert SearchConfig(
            portfolio_scoring="hypervolume").portfolio_scoring \
            == "hypervolume"


class TestAxisMutualExclusion:
    def test_discrete_axis_rejects_continuous_fields(self):
        from repro.api import AxisConfig
        with pytest.raises(ConfigError, match="mixes discrete"):
            AxisConfig(name="vdd_scale", values=(0.9, 1.1),
                       lo=0.8, hi=1.2, step=0.025)
        with pytest.raises(ConfigError, match="mixes discrete"):
            AxisConfig(name="vdd_scale", values=(0.9, 1.1), step=0.05)
