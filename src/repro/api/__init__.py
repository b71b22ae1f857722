"""The declarative public API: typed configs → Workspace → Runner → Report.

One entry point for the whole paper pipeline (technology → GNN
characterization → system evaluation → optimization):

* :mod:`~repro.api.config` — typed, validating, JSON-round-trippable
  configs (:class:`StcoConfig` is the root document);
* :mod:`~repro.api.workspace` — :class:`Workspace` owns the expensive
  long-lived state (trained GNN weights, shared evaluation engines,
  on-disk caches) behind an artifact registry;
* :mod:`~repro.api.runner` — :func:`run` dispatches any config to
  fast/traditional STCO, a single search, a portfolio race or a full
  campaign, all returning one :class:`RunReport`;
* :mod:`~repro.api.cli` — the ``repro`` console script drives it all
  headlessly from JSON documents.

>>> from repro.api import StcoConfig, Workspace, run
>>> report = run(StcoConfig(mode="search"), Workspace(".cache/ws"))
"""

from .config import (SCHEMA_VERSION, MODES, ConfigError, TechnologyConfig,
                     ModelConfig, EngineConfig, AxisConfig, SearchConfig,
                     SurrogateConfig, ScenarioConfig, StcoConfig)
from .report import RunReport
from .workspace import Workspace
from .runner import (SearchExecution, execute_search,
                     CampaignCheckpointError, run_campaign, run)

__all__ = [
    "SCHEMA_VERSION", "MODES", "ConfigError",
    "TechnologyConfig", "ModelConfig", "EngineConfig", "AxisConfig",
    "SearchConfig", "SurrogateConfig", "ScenarioConfig", "StcoConfig",
    "RunReport", "Workspace",
    "SearchExecution", "execute_search", "CampaignCheckpointError",
    "run_campaign", "run",
]
