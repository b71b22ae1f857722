"""SearchRun: one optimizer, one engine, one design — fully instrumented.

The driver owns the ask → evaluate → tell loop. It routes every candidate
through an :class:`~repro.engine.engine.EvaluationEngine` (so caching
and parallel backends apply untouched), deduplicates repeat
requests within the run, feeds every record into a
:class:`~repro.search.pareto.ParetoArchive`, and measures what the
subsystem is ultimately judged on: **evaluations-to-optimum** — how many
*distinct* design points (and actual engine flows) were spent before the
eventual best was first seen.

``budget`` counts told evaluations (the historical "iterations" of the
RL agents), so an optimizer revisiting known points still consumes
budget — but the unique/miss counters tell the true story.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..engine.records import PPAWeights
from ..obs.metrics import get_registry
from ..obs.trace import span
from .optimizers import Optimizer
from .pareto import ParetoArchive

__all__ = ["SearchResult", "SearchRun"]


@dataclass
class SearchResult:
    """Everything one search run produced (JSON-friendly summaries)."""

    optimizer: str
    best_corner: tuple
    best_reward: float
    best_record: object
    rewards: list                    # per told evaluation, ask order
    evaluations: int                 # distinct corners this run requested
    engine_misses: int               # flows the engine actually ran
    characterizations: int           # corners the engine characterized
    evaluations_to_optimum: int      # unique-eval index of the final best
    pareto_front: list = field(default_factory=list)
    hypervolume: float = 0.0
    runtime_s: float = 0.0
    records: list = field(default_factory=list)   # unique, first-eval order
    surrogate: dict = field(default_factory=dict)  # screening economics

    def to_dict(self) -> dict:
        return {"optimizer": self.optimizer,
                "best_corner": list(self.best_corner),
                "best_reward": float(self.best_reward),
                "rewards": [float(r) for r in self.rewards],
                "evaluations": self.evaluations,
                "engine_misses": self.engine_misses,
                "characterizations": self.characterizations,
                "evaluations_to_optimum": self.evaluations_to_optimum,
                "pareto_front": list(self.pareto_front),
                "hypervolume": float(self.hypervolume),
                "runtime_s": float(self.runtime_s),
                "surrogate": dict(self.surrogate)}


class SearchRun:
    """Wire an optimizer to the evaluation engine and drive it.

    Parameters
    ----------
    netlist:
        Target design.
    optimizer:
        Any :class:`~repro.search.optimizers.Optimizer` (including a
        :class:`~repro.search.portfolio.PortfolioSearch`).
    engine:
        The shared evaluation engine; a warm engine makes repeat corners
        free, and the run's ``engine_misses`` records what it truly cost.
    weights:
        Scalarisation fed to the engine (rewards on records); the
        archive keeps the raw multi-objective vectors regardless.
    archive:
        Pass an existing archive to accumulate a front across runs
        (e.g. one archive per benchmark over a whole campaign).
    hv_reference:
        log10-domain hypervolume reference point. Without it the
        archive's own nadir-plus-margin reference is used — fine for
        tracking one run's progress, but **not comparable across
        runs**; to compare optimizers or scenarios, compute one shared
        reference (e.g. from an exhaustive sweep's archive, as
        ``benchmarks/test_search_quality.py`` does) and pass it to
        every run.
    """

    def __init__(self, netlist, optimizer: Optimizer, engine,
                 weights: PPAWeights | None = None,
                 archive: ParetoArchive | None = None,
                 hv_reference=None):
        self.netlist = netlist
        self.optimizer = optimizer
        self.engine = engine
        self.weights = weights if weights is not None else PPAWeights()
        self.archive = archive if archive is not None else ParetoArchive()
        self.hv_reference = hv_reference

    def run(self, budget: int = 45, max_stalls: int = 5,
            progress_callback=None) -> SearchResult:
        """Drive the loop until ``budget`` evaluations are told.

        ``max_stalls`` bounds consecutive empty asks (a finished grid
        sweep, a portfolio with every member done) so the loop always
        terminates.

        ``progress_callback`` (optional) is invoked once per optimizer
        round — after each ask → evaluate → tell cycle — with a
        JSON-able snapshot dict (round index, told/unique evaluation
        counts, engine misses so far, current best, Pareto size,
        elapsed seconds). Exceptions it raises propagate out of the
        loop, which is how callers abort a run in flight (see
        :mod:`repro.serve.pool`). ``None`` (the default) keeps the loop
        bit-identical to the historical behavior.
        """
        t0 = time.perf_counter()
        seen = {}                       # corner key -> unique-eval index
        unique_records = []
        first_seen_of_best = 0
        best = None
        rewards = []
        misses0 = self.engine.flow_evaluations
        chars0 = self.engine.characterizations
        stalls = 0
        rounds = 0
        ask_timer = get_registry().histogram(
            "repro_optimizer_seconds",
            "Optimizer ask/tell wall-clock per round",
            labels=("phase", "optimizer"))
        name = self.optimizer.name
        while len(rewards) < budget and not self.optimizer.done:
            with span("search.round", round=rounds + 1,
                      optimizer=name):
                with ask_timer.labels(phase="ask",
                                      optimizer=name).time(), \
                        span("optimizer.ask"):
                    corners = self.optimizer.ask()
                if not corners:
                    stalls += 1
                    if stalls >= max_stalls:
                        break
                    continue
                stalls = 0
                corners = corners[:budget - len(rewards)]
                records = self.engine.evaluate_many(self.netlist,
                                                    corners,
                                                    self.weights)
                for record in records:
                    key = record.corner.key()
                    if key not in seen:
                        seen[key] = len(seen) + 1
                        unique_records.append(record)
                    rewards.append(record.reward)
                    if best is None or record.reward > best.reward:
                        best = record
                        first_seen_of_best = seen[key]
                    self.archive.add(record)
                with ask_timer.labels(phase="tell",
                                      optimizer=name).time(), \
                        span("optimizer.tell"):
                    self.optimizer.tell(records)
            rounds += 1
            if progress_callback is not None:
                stats_fn = getattr(self.optimizer, "surrogate_stats",
                                   None)
                progress_callback({
                    **({"surrogate": stats_fn()} if callable(stats_fn)
                       else {}),
                    "round": rounds,
                    "told": len(rewards),
                    "budget": budget,
                    "evaluations": len(seen),
                    "engine_misses":
                        self.engine.flow_evaluations - misses0,
                    "best_reward": float(best.reward),
                    "best_corner": list(best.corner.key()),
                    "pareto_points": len(self.archive),
                    "elapsed_s": time.perf_counter() - t0})
        if best is None:
            raise RuntimeError(
                f"search run produced no evaluations (optimizer "
                f"{self.optimizer.name!r} never asked)")
        stats_fn = getattr(self.optimizer, "surrogate_stats", None)
        return SearchResult(
            surrogate=stats_fn() if callable(stats_fn) else {},
            optimizer=self.optimizer.name,
            best_corner=best.corner.key(),
            best_reward=best.reward,
            best_record=best,
            rewards=rewards,
            evaluations=len(seen),
            engine_misses=self.engine.flow_evaluations - misses0,
            characterizations=self.engine.characterizations - chars0,
            evaluations_to_optimum=first_seen_of_best,
            pareto_front=self.archive.summary(),
            hypervolume=self.archive.hypervolume(self.hv_reference),
            runtime_s=time.perf_counter() - t0,
            records=unique_records)
