"""Typed, validating, JSON-round-trippable scenario configs.

One :class:`StcoConfig` document describes an entire run of the paper's
pipeline — technology → GNN characterization → system evaluation →
optimization — so every scenario is a serializable artifact: write it to
JSON, version it, hand it to the ``repro`` CLI, and get the same run
back. The config layer is deliberately dependency-free (stdlib only);
the :mod:`repro.api.runner` maps it onto live objects.

Guarantees:

* ``from_dict(to_dict(c)) == c`` for every config class (sequences are
  stored as tuples and serialized as JSON lists);
* unknown keys raise :class:`ConfigError` naming the offending keys and
  the accepted ones — a typo never silently becomes a default;
* the root document carries ``schema_version``; loading a document
  written under a different schema raises instead of misinterpreting it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import ClassVar

__all__ = ["SCHEMA_VERSION", "ConfigError", "TechnologyConfig",
           "ModelConfig", "EngineConfig", "AxisConfig", "SearchConfig",
           "SurrogateConfig", "PredictConfig", "ScenarioConfig",
           "StcoConfig", "MODES", "FIDELITIES"]

#: Version of the config document schema. Bumped whenever the meaning of
#: an existing field changes (adding fields with defaults does not bump).
SCHEMA_VERSION = 1

#: Run modes the runner dispatches on.
MODES = ("fast", "traditional", "search", "portfolio", "campaign")

#: Evaluation fidelities: tier-1 runs the engine; tier-0 runs the
#: whole search against the workspace's trained surrogate ensemble.
FIDELITIES = ("engine", "surrogate")


class ConfigError(ValueError):
    """A config document is malformed (unknown key, bad value, wrong
    schema version)."""


def _jsonable(value):
    """Recursively convert a config value to JSON-native types."""
    if isinstance(value, _Config):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return value


def _tuplify(value):
    """Recursively convert JSON lists back to tuples."""
    if isinstance(value, (list, tuple)):
        return tuple(_tuplify(v) for v in value)
    return value


@dataclass(frozen=True)
class _Config:
    """Shared to_dict / from_dict with unknown-key rejection."""

    #: Per-class nested-field registry: name -> config class, or
    #: ("tuple", config class) for a tuple of nested configs.
    _nested: ClassVar[dict] = {}

    def to_dict(self) -> dict:
        return {f.name: _jsonable(getattr(self, f.name))
                for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "_Config":
        if not isinstance(data, dict):
            raise ConfigError(
                f"{cls.__name__} expects a mapping, got "
                f"{type(data).__name__}")
        names = [f.name for f in fields(cls)]
        unknown = sorted(set(data) - set(names))
        if unknown:
            raise ConfigError(
                f"unknown key(s) {unknown} for {cls.__name__}; "
                f"expected a subset of {sorted(names)}")
        nested = cls._nested
        kwargs = {}
        for name in names:
            if name not in data:
                continue
            value = data[name]
            spec = nested.get(name)
            if spec is None:
                kwargs[name] = _tuplify(value)
            elif isinstance(spec, tuple):
                kwargs[name] = tuple(spec[1].from_dict(v) for v in value)
            else:
                kwargs[name] = spec.from_dict(value)
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(f"bad {cls.__name__}: {exc}") from None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class TechnologyConfig(_Config):
    """The technology + characterization side of the pipeline.

    ``train_corners`` / ``test_corners`` are explicit (vdd_scale,
    vth_shift, cox_scale) triples; empty tuples select the CI-scale
    default grids (2^3 train / 3^3 test, see
    :mod:`repro.charlib.corners`). The remaining fields mirror
    :class:`repro.charlib.characterizer.CharConfig`.
    """

    technology: str = "ltps"
    cells: tuple = ("INV_X1", "NAND2_X1", "NOR2_X1", "DFF_X1")
    train_corners: tuple = ()
    test_corners: tuple = ()
    slews: tuple = (5e-9, 20e-9)
    loads: tuple = (10e-15, 40e-15)
    cap_slew: float = 10e-9
    seq_slew: float = 8e-9
    seq_load: float = 20e-15
    n_bisect: int = 7
    max_steps: int = 420
    min_steps: int = 120

    def __post_init__(self):
        _require(bool(self.cells), "technology.cells must not be empty")
        _require(bool(self.slews) and bool(self.loads),
                 "technology.slews/loads must not be empty")
        for name in ("train_corners", "test_corners"):
            for c in getattr(self, name):
                _require(isinstance(c, tuple) and len(c) == 3,
                         f"technology.{name} entries must be "
                         f"(vdd_scale, vth_shift, cox_scale) triples")

    def char_config(self):
        """The :class:`repro.charlib.characterizer.CharConfig` this maps to."""
        from ..charlib.characterizer import CharConfig
        return CharConfig(slews=self.slews, loads=self.loads,
                          cap_slew=self.cap_slew, seq_slew=self.seq_slew,
                          seq_load=self.seq_load, n_bisect=self.n_bisect,
                          max_steps=self.max_steps,
                          min_steps=self.min_steps)

    def corners(self, split: str) -> list:
        """Corner objects for ``split`` ('train' / 'test')."""
        from ..charlib.corners import (Corner, ci_test_corners,
                                       ci_train_corners)
        spec = (self.train_corners if split == "train"
                else self.test_corners)
        if not spec:
            return (ci_train_corners() if split == "train"
                    else ci_test_corners())
        return [Corner(float(v), float(t), float(c)) for v, t, c in spec]


@dataclass(frozen=True)
class ModelConfig(_Config):
    """Characterization model: the GNN fast path or the SPICE baseline.

    ``kind="gnn"`` trains (or loads from the workspace registry) a
    :class:`~repro.charlib.model.CellCharGCN`; ``kind="spice"`` selects
    the full transistor-level characterizer and ignores the
    architecture / training fields.
    """

    kind: str = "gnn"
    hidden: int = 48
    num_layers: int = 3
    head_hidden: int = 48
    model_seed: int = 0
    epochs: int = 40
    batch_size: int = 32
    lr: float = 3e-3
    grad_clip: float = 2.0
    train_seed: int = 0

    def __post_init__(self):
        _require(self.kind in ("gnn", "spice"),
                 f"model.kind must be 'gnn' or 'spice', got {self.kind!r}")
        _require(self.epochs > 0, "model.epochs must be positive")


@dataclass(frozen=True)
class EngineConfig(_Config):
    """Evaluation-engine knobs (maps to :class:`repro.engine.engine.EngineConfig`).

    ``cache_max_bytes`` bounds each on-disk cache tier, evicting
    least-recently-used entries by mtime (see
    :class:`repro.engine.cache.DiskCache`). The cache directory itself
    is owned by the :class:`~repro.api.workspace.Workspace`;
    ``persist=False`` opts a run out of the disk tier entirely.
    """

    backend: str = "serial"
    cache_capacity: int = 512
    cache_results: bool = True
    cache_max_bytes: int = 0          # 0 = unbounded
    persist: bool = True

    @classmethod
    def from_dict(cls, data: dict) -> "EngineConfig":
        # Stored schema-1 documents (job records, reports) still carry
        # the removed batched-characterization keys: drop them, unless
        # a document asks for the feature that no longer exists.
        if isinstance(data, dict):
            if data.get("batch_characterization"):
                raise ConfigError(
                    "engine.batch_characterization was removed: the "
                    "per-corner GNN path is as fast and bit-identical; "
                    "drop the key or set it to false")
            data = {k: v for k, v in data.items()
                    if k not in ("batch_characterization",
                                 "max_graphs_per_batch")}
        return super().from_dict(data)

    def __post_init__(self):
        from ..engine.executor import parse_backend
        try:
            parse_backend(self.backend)
        except ValueError as exc:
            raise ConfigError(f"engine.backend: {exc}") from None
        _require(self.cache_capacity >= 0,
                 "engine.cache_capacity must be >= 0")
        _require(self.cache_max_bytes >= 0,
                 "engine.cache_max_bytes must be >= 0 (0 = unbounded)")

    def engine_config(self, cache_dir=None):
        """The :class:`repro.engine.engine.EngineConfig` this maps to."""
        from ..engine.engine import EngineConfig as _EngineConfig
        return _EngineConfig(
            backend=self.backend,
            cache_capacity=self.cache_capacity,
            cache_dir=str(cache_dir) if (self.persist
                                         and cache_dir is not None)
            else None,
            cache_results=self.cache_results,
            cache_max_bytes=self.cache_max_bytes or None)


@dataclass(frozen=True)
class AxisConfig(_Config):
    """One declarative design-space axis (maps to
    :class:`repro.search.spaces.Axis`).

    ``values`` (non-empty) declares a discrete axis; otherwise
    ``lo``/``hi`` declare a continuous box, with optional ``step``
    snapping resolution (0 = snap only to the cache-key precision).
    Axis names must be Corner knobs (``vdd_scale`` / ``vth_shift`` /
    ``cox_scale``) — config documents have no way to carry a custom
    ``corner_factory``.
    """

    name: str = ""
    values: tuple = ()
    lo: float = 0.0
    hi: float = 0.0
    step: float = 0.0

    def __post_init__(self):
        from ..search.spaces import DEFAULT_KNOBS
        _require(self.name in DEFAULT_KNOBS,
                 f"axis name must be one of {DEFAULT_KNOBS}, "
                 f"got {self.name!r}")
        if self.values:
            # Contradictory documents hard-fail (like unknown keys):
            # a discrete axis silently swallowing lo/hi/step would
            # explore a different space than the author wrote down.
            _require(self.lo == 0.0 and self.hi == 0.0
                     and self.step == 0.0,
                     f"axis {self.name!r} mixes discrete 'values' with "
                     f"continuous lo/hi/step; declare one or the other")
        else:
            _require(self.hi > self.lo,
                     f"continuous axis {self.name!r} needs hi > lo")
        _require(self.step >= 0.0,
                 f"axis {self.name!r} step must be >= 0")

    def axis(self):
        from ..search.spaces import Axis
        if self.values:
            return Axis.discrete(self.name, self.values)
        return Axis.continuous(self.name, self.lo, self.hi,
                               step=self.step or None)


@dataclass(frozen=True)
class SearchConfig(_Config):
    """One exploration: optimizer, budget, scalarisation, design space.

    Without ``axes`` the space is the discrete (vdd_scale × vth_shift ×
    cox_scale) grid of :class:`repro.stco.space.DesignSpace`; defaults
    reproduce the paper's 45-point grid. A non-empty ``axes`` tuple of
    :class:`AxisConfig` declares a generalised
    :class:`~repro.search.spaces.SearchSpace` instead — continuous
    boxes and mixed grids straight from a JSON document (index-based
    optimizers still require every axis to be discrete).

    ``members`` names the portfolio entrants (``mode="portfolio"``;
    empty means the registry default race) and ``portfolio_scoring``
    how the race ranks them (``scalar`` best reward, ``hypervolume``
    archive hypervolume, ``auto`` = hypervolume as soon as any member
    optimizes in pareto mode).
    """

    _nested: ClassVar[dict] = {"axes": ("tuple", AxisConfig)}

    optimizer: str = "qlearning"
    seed: int = 0
    iterations: int = 12
    weights: tuple = (1.0, 1.0, 0.5)    # (power, performance, area)
    vdd_scales: tuple = (0.8, 0.9, 1.0, 1.1, 1.2)
    vth_shifts: tuple = (-0.1, 0.0, 0.1)
    cox_scales: tuple = (0.8, 1.0, 1.2)
    axes: tuple = ()
    members: tuple = ()
    portfolio_scoring: str = "scalar"

    def __post_init__(self):
        _require(self.iterations > 0, "search.iterations must be positive")
        _require(len(self.weights) == 3,
                 "search.weights must be (power, performance, area)")
        for name in ("vdd_scales", "vth_shifts", "cox_scales"):
            _require(bool(getattr(self, name)),
                     f"search.{name} must not be empty")
        for axis in self.axes:
            _require(isinstance(axis, AxisConfig),
                     "search.axes entries must be axis mappings")
        names = [a.name for a in self.axes]
        _require(len(set(names)) == len(names),
                 f"search.axes names must be unique, got {names}")
        # One source of truth: the portfolio module owns the mode names.
        from ..search.portfolio import SCORING_MODES
        _require(self.portfolio_scoring in SCORING_MODES,
                 f"search.portfolio_scoring must be one of "
                 f"{SCORING_MODES}, got {self.portfolio_scoring!r}")

    def ppa_weights(self):
        from ..engine.records import PPAWeights
        power, performance, area = self.weights
        return PPAWeights(power=float(power),
                          performance=float(performance),
                          area=float(area))

    def space(self):
        if self.axes:
            from ..search.spaces import SearchSpace
            return SearchSpace([a.axis() for a in self.axes])
        from ..stco.space import DesignSpace
        return DesignSpace(vdd_scales=self.vdd_scales,
                           vth_shifts=self.vth_shifts,
                           cox_scales=self.cox_scales)


@dataclass(frozen=True)
class SurrogateConfig(_Config):
    """The learned multi-fidelity layer (``repro.surrogate``).

    ``harvest`` turns every engine evaluation of the run into a
    persisted training row (content-keyed in the workspace — warm runs
    re-featurize nothing). ``screen`` > 0 gates the optimizer behind a
    :class:`~repro.surrogate.fidelity.PromotionSchedule` that sends
    only ``promote`` of ``screen`` screened candidates per round to the
    engine. The ensemble fields parameterize both the online
    ``bayes`` / ``ucb`` surrogates and the promotion gate (the
    acquisition itself is the optimizer *name*: ``bayes`` = expected
    improvement, ``ucb`` = upper confidence bound with ``ucb_beta``);
    ``persist_model`` additionally trains an ensemble on the full
    record store after the run and registers it as a workspace
    artifact.
    """

    harvest: bool = False
    persist_model: bool = False
    members: int = 3
    hidden: int = 16
    depth: int = 2
    epochs: int = 60
    seed: int = 0
    ucb_beta: float = 1.0
    screen: int = 0                  # 0 = no promotion gate
    promote: int = 4
    min_observations: int = 6
    kappa: float = 1.0

    def __post_init__(self):
        _require(self.members >= 1,
                 "surrogate.members must be >= 1")
        _require(self.screen >= 0, "surrogate.screen must be >= 0")
        if self.screen:
            _require(self.promote >= 1,
                     "surrogate.promote must be >= 1")
            _require(self.screen >= self.promote,
                     "surrogate.screen must be >= surrogate.promote")

    def model_config(self):
        """The :class:`repro.surrogate.models.EnsembleConfig` this maps to."""
        from ..surrogate.models import EnsembleConfig
        return EnsembleConfig(members=self.members, hidden=self.hidden,
                              depth=self.depth, epochs=self.epochs,
                              seed=self.seed)

    def schedule(self):
        """The :class:`repro.surrogate.fidelity.PromotionSchedule` (or
        None when screening is off)."""
        if not self.screen:
            return None
        from ..surrogate.fidelity import PromotionSchedule
        return PromotionSchedule(screen=self.screen,
                                 promote=self.promote,
                                 min_observations=self.min_observations,
                                 kappa=self.kappa,
                                 ucb_beta=self.ucb_beta)

    def optimizer_options(self) -> dict:
        """Constructor kwargs for the ``bayes`` / ``ucb`` optimizers.

        Deliberately carries no ``acquisition`` key — the registry
        *name* decides that (``bayes`` = EI, ``ucb`` = UCB), and an
        explicit entry here would override it.
        """
        return {"ucb_beta": self.ucb_beta, "members": self.members,
                "hidden": self.hidden, "depth": self.depth,
                "epochs": self.epochs,
                "init": max(self.min_observations, 2)}


@dataclass(frozen=True)
class PredictConfig(_Config):
    """The tier-0 inference edge (``repro.predict``).

    ``fidelity="surrogate"`` reruns the whole search against the
    workspace's trained :class:`~repro.surrogate.models.EnsemblePPAModel`
    instead of the engine — the report carries an honest
    ``uncertainty`` block. ``escalate_threshold`` > 0 auto-submits an
    engine-backed job (``fidelity="engine"`` twin of the same document,
    through the serve/coalesce path at ``escalate_url``) when the
    best corner's mean predicted log10 spread exceeds it.

    The refresh fields drive the background
    :class:`~repro.predict.refresh.ModelRefresher`:
    ``refresh_delta_rows`` new harvested rows trigger a warm-started
    incremental refit (0 disables), checked every
    ``refresh_interval_s``; ``refresh_epochs`` 0 reuses the ensemble's
    configured epochs.
    """

    fidelity: str = "engine"
    escalate_threshold: float = 0.0   # 0 = never escalate
    escalate_url: str = ""
    min_rows: int = 8
    cache_size: int = 256
    refresh_delta_rows: int = 0       # 0 = refresher off
    refresh_interval_s: float = 2.0
    refresh_epochs: int = 0           # 0 = ensemble's epochs

    def __post_init__(self):
        _require(self.fidelity in FIDELITIES,
                 f"predict.fidelity must be one of {FIDELITIES}, "
                 f"got {self.fidelity!r}")
        _require(self.escalate_threshold >= 0.0,
                 "predict.escalate_threshold must be >= 0")
        _require(self.min_rows >= 1, "predict.min_rows must be >= 1")
        _require(self.cache_size >= 0,
                 "predict.cache_size must be >= 0")
        _require(self.refresh_delta_rows >= 0,
                 "predict.refresh_delta_rows must be >= 0")
        _require(self.refresh_interval_s > 0.0,
                 "predict.refresh_interval_s must be positive")
        _require(self.refresh_epochs >= 0,
                 "predict.refresh_epochs must be >= 0")


@dataclass(frozen=True)
class ScenarioConfig(_Config):
    """One campaign scenario: a benchmark, a PPA trade-off, an agent
    (any :func:`repro.search.optimizers.make_optimizer` name) and a
    seed."""

    benchmark: str = "s298"
    agent: str = "qlearning"
    seed: int = 0
    iterations: int = 12
    weights: tuple = (1.0, 1.0, 0.5)    # (power, performance, area)

    def __post_init__(self):
        _require(self.iterations > 0,
                 "scenario.iterations must be positive")
        _require(len(self.weights) == 3,
                 "scenario.weights must be (power, performance, area)")

    def identity(self) -> dict:
        """The scenario as campaign checkpoints record it."""
        return {"benchmark": self.benchmark, "agent": self.agent,
                "seed": self.seed, "iterations": self.iterations,
                "weights": [float(w) for w in self.weights]}

    def scenario_id(self) -> str:
        """Stable id keying this scenario's row in a checkpoint."""
        from ..engine.hashing import stable_hash
        return stable_hash(self.identity())

    def ppa_weights(self):
        from ..engine.records import PPAWeights
        power, performance, area = (float(w) for w in self.weights)
        return PPAWeights(power=power, performance=performance, area=area)


@dataclass(frozen=True)
class StcoConfig(_Config):
    """The root document: one complete, serializable run description.

    ``mode`` selects what :func:`repro.api.runner.run` executes:

    * ``"fast"`` — the paper's GNN-accelerated STCO on ``benchmark``;
    * ``"traditional"`` — the SPICE-characterized baseline;
    * ``"search"`` — a single instrumented
      :class:`~repro.search.driver.SearchRun` with any registry
      optimizer (builder chosen by ``model.kind``);
    * ``"portfolio"`` — a :class:`~repro.search.portfolio.PortfolioSearch`
      race over ``search.members``;
    * ``"campaign"`` — a checkpointed
      :func:`~repro.api.runner.run_campaign` sweep over ``scenarios``.
    """

    _nested: ClassVar[dict] = {
        "technology": TechnologyConfig, "model": ModelConfig,
        "engine": EngineConfig, "search": SearchConfig,
        "surrogate": SurrogateConfig, "predict": PredictConfig,
        "scenarios": ("tuple", ScenarioConfig)}

    schema_version: int = SCHEMA_VERSION
    mode: str = "fast"
    benchmark: str = "s298"
    technology: TechnologyConfig = field(default_factory=TechnologyConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)
    search: SearchConfig = field(default_factory=SearchConfig)
    surrogate: SurrogateConfig = field(default_factory=SurrogateConfig)
    predict: PredictConfig = field(default_factory=PredictConfig)
    scenarios: tuple = ()
    checkpoint: str = ""             # campaign checkpoint file ("" = off)
    prefetch: bool = False

    def __post_init__(self):
        _require(self.schema_version == SCHEMA_VERSION,
                 f"config schema_version {self.schema_version} does not "
                 f"match this library's schema {SCHEMA_VERSION}")
        _require(self.mode in MODES,
                 f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "campaign":
            _require(bool(self.scenarios),
                     "campaign mode needs at least one scenario")
        if self.predict.fidelity == "surrogate":
            _require(self.mode in ("fast", "traditional", "search"),
                     f"predict.fidelity='surrogate' supports single-"
                     f"search modes only, not {self.mode!r}")
        for s in self.scenarios:
            _require(isinstance(s, ScenarioConfig),
                     "scenarios entries must be ScenarioConfig mappings")

    # -- JSON round-trip ---------------------------------------------------
    def to_json(self, indent: int = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "StcoConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    def save(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json(), encoding="utf-8")
        return path

    @classmethod
    def load(cls, path) -> "StcoConfig":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def builder_kind(self) -> str:
        """Which characterization path this run uses."""
        if self.mode == "fast":
            return "gnn"
        if self.mode == "traditional":
            return "spice"
        return self.model.kind
