"""run(config, workspace): one dispatcher for the whole pipeline.

Every front door funnels through here:

* ``mode="fast"`` / ``"traditional"`` — the paper's STCO loop (GNN or
  SPICE characterization) on one benchmark;
* ``mode="search"`` — a single instrumented search with any registry
  optimizer;
* ``mode="portfolio"`` — a racing portfolio of optimizers;
* ``mode="campaign"`` — a checkpointed multi-scenario sweep
  (:func:`run_campaign`).

All modes return the same normalized :class:`~repro.api.report.RunReport`.
The execution primitive, :func:`execute_search`, is the one place that
owns the ask → engine → tell loop and its runtime accounting.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from pathlib import Path

from ..obs.trace import Span, span
from .config import SCHEMA_VERSION, ConfigError, ModelConfig, StcoConfig
from .report import RunReport
from .workspace import Workspace

__all__ = ["SearchExecution", "execute_search", "CampaignCheckpointError",
           "run_campaign", "run"]


@dataclass
class SearchExecution:
    """One search's :class:`~repro.search.driver.SearchResult` plus the
    runtime split every report needs (fresh evaluations only — cache
    hits carry the *original* run's timings)."""

    result: object
    runtime_s: float
    charlib_s: float
    flow_s: float


def execute_search(netlist, optimizer, engine, weights, iterations: int,
                   archive=None, hv_reference=None,
                   progress_callback=None) -> SearchExecution:
    """Drive one optimizer against one engine and account the cost.

    ``progress_callback`` is forwarded to
    :meth:`repro.search.driver.SearchRun.run` (one snapshot per
    optimizer round); ``None`` keeps the legacy call shape.
    """
    from ..search.driver import SearchRun
    t0 = time.perf_counter()
    search = SearchRun(netlist, optimizer, engine, weights=weights,
                       archive=archive, hv_reference=hv_reference)
    result = search.run(budget=iterations,
                        progress_callback=progress_callback)
    runtime = time.perf_counter() - t0
    return SearchExecution(
        result=result,
        runtime_s=runtime,
        charlib_s=sum(r.library_runtime_s for r in result.records
                      if not r.cached),
        flow_s=sum(r.flow_runtime_s for r in result.records
                   if not r.cached))


def _coerce_config(config) -> StcoConfig:
    if isinstance(config, StcoConfig):
        return config
    if isinstance(config, dict):
        return StcoConfig.from_dict(config)
    if isinstance(config, (str, Path)):
        return StcoConfig.load(config)
    raise ConfigError(
        f"run() expects an StcoConfig, a mapping, or a path to a JSON "
        f"document; got {type(config).__name__}")


def _effective_model(config: StcoConfig) -> ModelConfig:
    """``mode`` overrides ``model.kind`` for the two STCO modes."""
    kind = config.builder_kind()
    if config.model.kind == kind:
        return config.model
    return replace(config.model, kind=kind)


def _optimizer_options(config: StcoConfig, name: str) -> dict | None:
    """Per-name constructor options: the surrogate block parameterizes
    the Bayesian optimizers, the portfolio scoring mode follows the
    config wherever a portfolio is built (``mode="portfolio"``,
    ``search.optimizer="portfolio"``, or a nested member); everything
    else takes registry defaults."""
    if name in ("bayes", "ucb"):
        return config.surrogate.optimizer_options()
    if name == "portfolio":
        return {"scoring": config.search.portfolio_scoring}
    return None


def _make_optimizer(config: StcoConfig, space, weights, builder):
    from ..search.optimizers import make_optimizer
    from ..search.portfolio import PortfolioSearch
    search = config.search
    if config.mode != "portfolio":
        return make_optimizer(
            search.optimizer, space, seed=search.seed, weights=weights,
            builder=builder,
            options=_optimizer_options(config, search.optimizer))
    if not search.members:
        return make_optimizer(
            "portfolio", space, seed=search.seed, weights=weights,
            builder=builder,
            options=_optimizer_options(config, "portfolio"))
    members = [(name, make_optimizer(
                    name, space, seed=search.seed + i, weights=weights,
                    builder=builder,
                    options=_optimizer_options(config, name)))
               for i, name in enumerate(search.members)]
    return PortfolioSearch(members, scoring=search.portfolio_scoring)


def _cache_stats(engine, workspace: Workspace) -> dict:
    return {"engine": engine.stats(), "workspace": workspace.stats()}


def _surrogate_summary(config: StcoConfig, workspace: Workspace,
                       harvester, result) -> dict:
    """The RunReport ``surrogate`` block: harvest + screening + model."""
    out = dict(result.surrogate)
    if harvester is not None:
        out.update(harvester.stats())
    if config.surrogate.persist_model:
        try:
            model = workspace.surrogate_model(
                config.surrogate.model_config())
        except ValueError as exc:
            # A store still too thin to train on must not discard the
            # finished search — report why the model step was skipped.
            out["model_error"] = str(exc)
        else:
            out["model_fingerprint"] = model.fingerprint()
            out["model_rows"] = model.trained_rows
    return out


def _run_single(config: StcoConfig, workspace: Workspace,
                progress_callback=None) -> RunReport:
    from ..eda.benchmarks import build_benchmark
    model = _effective_model(config)
    engine = workspace.engine(config.technology, model, config.engine)
    space = config.search.space()
    weights = config.search.ppa_weights()
    optimizer = _make_optimizer(config, space, weights, engine.builder)
    schedule = config.surrogate.schedule()
    if schedule is not None:
        from ..surrogate.fidelity import PromotedOptimizer
        optimizer = PromotedOptimizer(
            optimizer, space, schedule=schedule, weights=weights,
            model_config=config.surrogate.model_config(),
            seed=config.surrogate.seed)
    netlist = build_benchmark(config.benchmark)
    harvester = None
    if config.surrogate.harvest or config.surrogate.persist_model:
        from ..surrogate.records import RecordHarvester
        harvester = RecordHarvester(workspace.record_store())
        engine.add_record_listener(harvester.observe)
    try:
        execution = execute_search(netlist, optimizer, engine, weights,
                                   config.search.iterations,
                                   progress_callback=progress_callback)
    finally:
        if harvester is not None:
            engine.remove_record_listener(harvester.observe)
    result = execution.result
    return RunReport(
        surrogate=_surrogate_summary(config, workspace, harvester,
                                     result),
        mode=config.mode,
        design=config.benchmark,
        optimizer=result.optimizer,
        best_corner=result.best_corner,
        best_reward=result.best_reward,
        best_ppa=result.best_record.result.ppa(),
        evaluations=result.evaluations,
        engine_misses=result.engine_misses,
        characterizations=result.characterizations,
        evaluations_to_optimum=result.evaluations_to_optimum,
        pareto_front=result.pareto_front,
        hypervolume=result.hypervolume,
        rewards=[float(r) for r in result.rewards],
        runtime={"total_s": execution.runtime_s,
                 "charlib_s": execution.charlib_s,
                 "flow_s": execution.flow_s},
        cache_stats=_cache_stats(engine, workspace),
        config=config.to_dict())


class CampaignCheckpointError(RuntimeError):
    """A campaign checkpoint exists but cannot be safely resumed."""


_CHECKPOINT_VERSION = 1


def _campaign_fingerprint(engine, space) -> str:
    """Identity of a campaign: builder + design space.

    Deliberately excludes the scenario list, so extending a campaign
    with new scenarios still resumes the already-completed ones
    (results are keyed per scenario id inside the checkpoint).
    """
    if hasattr(space, "vdd_scales"):
        # DesignSpace: keep the historical layout so existing
        # checkpoints stay valid.
        desc = {"vdd": list(space.vdd_scales),
                "vth": list(space.vth_shifts),
                "cox": list(space.cox_scales)}
    else:
        desc = {"axes": [[a.name, list(a.values), a.lo, a.hi, a.step]
                         for a in space.axes]}
    from ..engine.hashing import stable_hash
    return stable_hash({"builder": engine.builder_fingerprint(),
                        "space": desc})


def _load_checkpoint(path: Path | None, fingerprint: str) -> dict:
    """Completed scenario rows by id; ``{}`` when there is nothing
    usable to resume (no file, unreadable, other builder or space)."""
    if path is None or not path.exists():
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return {}
    found = data.get("config_schema", SCHEMA_VERSION)
    if found != SCHEMA_VERSION:
        # A schema change can alter what the recorded scenario fields
        # *mean*; resuming would mix results computed under different
        # interpretations. Refuse loudly — a stale builder/space
        # fingerprint (below) merely re-runs, because there the stored
        # rows are simply unusable, not ambiguous.
        raise CampaignCheckpointError(
            f"checkpoint {path} was written under config schema "
            f"{found}, but this library uses schema {SCHEMA_VERSION}; "
            f"delete the checkpoint, or disable resuming "
            f"(run(resume=False) / `repro run --no-resume`), to start "
            f"fresh instead of mixing results across schemas")
    if (data.get("version") != _CHECKPOINT_VERSION
            or data.get("campaign") != fingerprint):
        return {}
    return dict(data.get("completed", {}))


def _run_scenario(scenario, engine, space) -> dict:
    """One scenario through :func:`execute_search`, as a checkpoint row."""
    from ..eda.benchmarks import build_benchmark
    from ..search.optimizers import make_optimizer
    weights = scenario.ppa_weights()
    optimizer = make_optimizer(scenario.agent, space, seed=scenario.seed,
                               weights=weights, builder=engine.builder)
    execution = execute_search(build_benchmark(scenario.benchmark),
                               optimizer, engine, weights,
                               scenario.iterations)
    result = execution.result
    return {"scenario": scenario.identity(),
            "best_corner": list(result.best_corner),
            "best_reward": result.best_reward,
            "best_ppa": dict(result.best_record.result.ppa()),
            "evaluations": result.evaluations,
            "runtime_s": execution.runtime_s,
            "charlib_s": execution.charlib_s,
            "flow_s": execution.flow_s,
            "history_rewards": list(result.rewards),
            "pareto_front": list(result.pareto_front),
            "hypervolume": result.hypervolume,
            "evaluations_to_optimum": result.evaluations_to_optimum}


def _merged_fronts(rows) -> dict:
    """Per-benchmark non-dominated fronts merged across scenarios.

    Every scenario contributes its archive (different agents and PPA
    weightings explore different regions), so the merged front is the
    campaign's actual multi-objective outcome — the trade-off surface,
    not just each scalarisation's winner.
    """
    from ..search.pareto import non_dominated
    by_benchmark: dict = {}
    for row in rows:
        unique = by_benchmark.setdefault(row["scenario"]["benchmark"], {})
        for entry in row["pareto_front"]:
            unique.setdefault(tuple(entry["corner"]), entry)
    out = {}
    for benchmark, unique in by_benchmark.items():
        entries = list(unique.values())
        vectors = [(e["power_w"], e["delay_s"], e["area_um2"])
                   for e in entries]
        out[benchmark] = [entries[i] for i in non_dominated(vectors)]
    return out


def run_campaign(engine, scenarios, space, checkpoint=None,
                 resume: bool = True, prefetch: bool = False) -> RunReport:
    """Sweep ``scenarios`` through one shared ``engine``.

    Every scenario amortizes the others' characterizations: two agents
    exploring the same ``space`` hit the same corners, and an engine
    with a persistent cache makes a second campaign re-characterize
    nothing.

    Parameters
    ----------
    engine:
        The :class:`~repro.engine.engine.EvaluationEngine` every
        scenario evaluates through.
    scenarios:
        :class:`~repro.api.config.ScenarioConfig` entries; ``agent``
        names any :func:`repro.search.optimizers.make_optimizer`
        strategy.
    space:
        Design space every scenario explores.
    checkpoint:
        JSON file rewritten (atomically) after every scenario. A
        matching file — same builder and space — makes the campaign
        skip the scenarios it already completed; one written under a
        different config schema raises :class:`CampaignCheckpointError`.
    resume:
        ``False`` ignores any existing checkpoint.
    prefetch:
        Characterize the whole space up front through the engine's
        backend before any agent runs. Agents request corners one at
        a time, so this is what lets a parallel engine amortize
        characterization across a campaign.
    """
    from ..utils.io import atomic_write_json
    path = Path(checkpoint) if checkpoint is not None else None
    scenarios = list(scenarios)
    fingerprint = _campaign_fingerprint(engine, space)
    completed = _load_checkpoint(path, fingerprint) if resume else {}
    # The engine may be shared with earlier runs, so its lifetime
    # counters carry their work; report this campaign's deltas.
    misses0 = engine.flow_evaluations
    chars0 = engine.characterizations
    t0 = time.perf_counter()
    if prefetch and {s.scenario_id() for s in scenarios} - set(completed):
        engine.libraries(space.points())
    rows = []
    for scenario in scenarios:
        sid = scenario.scenario_id()
        if sid in completed:
            # Rows written before the search subsystem lack the Pareto
            # fields; default them rather than invalidate the file.
            rows.append({"pareto_front": [], "hypervolume": 0.0,
                         "evaluations_to_optimum": 0,
                         **completed[sid], "resumed": True})
            continue
        row = _run_scenario(scenario, engine, space)
        rows.append(dict(row, resumed=False))
        completed[sid] = row
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_json(path, {"version": _CHECKPOINT_VERSION,
                                     "config_schema": SCHEMA_VERSION,
                                     "campaign": fingerprint,
                                     "completed": completed},
                              sort_keys=False)
    best = max(rows, key=lambda r: r["best_reward"], default=None)
    return RunReport(
        mode="campaign",
        optimizer=best["scenario"]["agent"] if best else "",
        best_corner=tuple(best["best_corner"]) if best else (),
        best_reward=best["best_reward"] if best else 0.0,
        best_ppa=dict(best["best_ppa"]) if best else {},
        evaluations=sum(r["evaluations"] for r in rows),
        engine_misses=engine.flow_evaluations - misses0,
        characterizations=engine.characterizations - chars0,
        pareto_fronts=_merged_fronts(rows),
        hypervolume=max((r["hypervolume"] for r in rows), default=0.0),
        scenarios=rows,
        resumed_scenarios=sum(r["resumed"] for r in rows),
        runtime={"total_s": time.perf_counter() - t0,
                 "charlib_s": sum(r["charlib_s"] for r in rows),
                 "flow_s": sum(r["flow_s"] for r in rows)},
        cache_stats={"engine": engine.stats()})


def _run_campaign(config: StcoConfig, workspace: Workspace,
                  resume: bool) -> RunReport:
    engine = workspace.engine(config.technology, _effective_model(config),
                              config.engine)
    checkpoint = None
    if config.checkpoint:
        # Relative checkpoints live with the workspace, so the same
        # document resumes wherever the artifacts are.
        checkpoint = workspace.root / config.checkpoint
    report = run_campaign(engine, config.scenarios, config.search.space(),
                          checkpoint=checkpoint, resume=resume,
                          prefetch=config.prefetch)
    report.cache_stats = _cache_stats(engine, workspace)
    report.config = config.to_dict()
    return report


def run(config, workspace: Workspace | None = None,
        resume: bool = True, progress_callback=None) -> RunReport:
    """Execute one config document end to end.

    Parameters
    ----------
    config:
        An :class:`~repro.api.config.StcoConfig`, a plain mapping, or a
        path to a JSON document.
    workspace:
        The artifact store to build against. ``None`` runs in a
        throwaway temp workspace (nothing persists) — pass a real
        :class:`~repro.api.workspace.Workspace` to make the second run
        free.
    resume:
        Campaign mode only: honor an existing checkpoint.
    progress_callback:
        Optional per-round snapshot hook for the single-search modes
        (fast / traditional / search / portfolio) — see
        :meth:`repro.search.driver.SearchRun.run`. Campaign mode
        checkpoints per scenario instead and ignores it.
    """
    config = _coerce_config(config)
    workspace = workspace if workspace is not None else \
        Workspace.ephemeral()
    with span("run", mode=config.mode,
              benchmark=config.benchmark or "-") as root:
        if config.mode == "campaign":
            report = _run_campaign(config, workspace, resume)
        elif config.predict.fidelity == "surrogate":
            from ..predict.fidelity import run_surrogate_fidelity
            report = run_surrogate_fidelity(config, workspace,
                                            progress_callback)
        else:
            report = _run_single(config, workspace, progress_callback)
    if isinstance(root, Span):
        report.trace = root.to_dict()
    return report
