"""Surrogate-fidelity runs: an entire search answered by the model.

``predict.fidelity="surrogate"`` reruns the configured search with the
engine replaced by a :class:`SurrogateEngine` — an engine-shaped
adapter whose ``evaluate_many`` is one stacked ensemble forward per
round. The existing :class:`~repro.search.driver.SearchRun` drives it
untouched, so dedup, Pareto archiving and progress snapshots all hold;
``engine_misses`` and ``characterizations`` stay 0 because nothing real
ran — the honest accounting a tier-0 report must carry.

The resulting :class:`~repro.api.report.RunReport` gains an
``uncertainty`` block: per-objective epistemic spread over everything
the search evaluated, the spread at the reported best corner, and —
when ``predict.escalate_threshold`` is exceeded — the id of the
engine-backed job auto-submitted through the serve/coalesce path at
``predict.escalate_url``. The escalated document is the *same* config
with ``predict.fidelity`` flipped to ``"engine"`` (threshold and URL
zeroed), so concurrent escalations of identical surrogate runs
content-key identically and coalesce into exactly one engine
execution — cluster-wide, when the URL is a router.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..engine.records import EvaluationRecord
from ..obs.metrics import get_registry
from ..surrogate.fidelity import PredictedResult
from ..surrogate.records import TARGET_NAMES

__all__ = ["SurrogateEngine", "escalation_config",
           "run_surrogate_fidelity"]


class SurrogateEngine:
    """Engine-shaped adapter over a trained ensemble.

    Implements the only interface :class:`~repro.search.driver.SearchRun`
    needs — ``evaluate_many(netlist, corners, weights)`` plus the
    ``flow_evaluations`` / ``characterizations`` counters — so a whole
    search runs against the surrogate with zero engine work. Records
    carry ``predicted=True`` (never harvested as ground truth) and the
    per-corner member spread accumulates in :attr:`corner_stds` for the
    report's uncertainty block.
    """

    def __init__(self, model, featurizer):
        self.model = model
        self.featurizer = featurizer
        self.flow_evaluations = 0       # honest: the engine never ran
        self.characterizations = 0
        self.predictions = 0
        self.corner_stds: dict = {}     # corner key -> std triple

    def evaluate_many(self, netlist, corners, weights) -> list:
        if not corners:
            return []
        X = np.stack([self.featurizer.features(netlist, c)
                      for c in corners])
        mean, std = self.model.predict(X)
        self.predictions += len(corners)
        records = []
        for i, corner in enumerate(corners):
            result = PredictedResult(
                total_power_w=float(10.0 ** mean[i, 0]),
                min_period_s=float(10.0 ** mean[i, 1]),
                area_um2=float(10.0 ** mean[i, 2]))
            self.corner_stds[corner.key()] = tuple(
                float(s) for s in std[i])
            records.append(EvaluationRecord(
                corner=corner, result=result,
                reward=weights.score(result),
                library_runtime_s=0.0, flow_runtime_s=0.0,
                cached=False, predicted=True))
        return records

    def uncertainty(self, best_corner_key=None) -> dict:
        """Aggregate the spreads seen so far into the report block."""
        if not self.corner_stds:
            return {}
        stds = np.asarray(list(self.corner_stds.values()), dtype=float)
        out = {
            "fidelity": "surrogate",
            "corners": len(self.corner_stds),
            "per_objective": {
                name: {"mean_std": float(stds[:, i].mean()),
                       "max_std": float(stds[:, i].max())}
                for i, name in enumerate(TARGET_NAMES)},
            "mean_std": float(stds.mean()),
            "max_std": float(stds.max()),
        }
        if best_corner_key is not None \
                and tuple(best_corner_key) in self.corner_stds:
            out["best_corner_std"] = float(np.mean(
                self.corner_stds[tuple(best_corner_key)]))
        return out


def escalation_config(config):
    """The engine-backed twin of a surrogate-fidelity document.

    Only the predict block changes (fidelity flipped, gate zeroed), so
    every identical surrogate run escalates to a byte-identical
    document — one content key, one coalesced engine execution.
    """
    return replace(config, predict=replace(
        config.predict, fidelity="engine", escalate_threshold=0.0,
        escalate_url=""))


def _escalate(config, uncertainty: dict) -> None:
    """Submit the engine-backed twin through serve; never fatal — a
    surrogate report with a failed escalation is still a report."""
    from ..serve.client import ServeClient, ServeClientError
    counter = get_registry().counter(
        "repro_predict_escalations_total",
        "Uncertainty-gated escalations by outcome",
        labels=("outcome",))
    url = config.predict.escalate_url
    if not url:
        uncertainty["escalated"] = False
        uncertainty["escalation_error"] = \
            "predict.escalate_url not configured"
        counter.labels(outcome="unconfigured").inc()
        return
    try:
        with ServeClient(url) as client:
            job = client.submit(escalation_config(config).to_dict())
    except (ServeClientError, OSError, ValueError) as exc:
        uncertainty["escalated"] = False
        uncertainty["escalation_error"] = str(exc)
        counter.labels(outcome="error").inc()
        return
    uncertainty["escalated"] = True
    uncertainty["escalated_job_id"] = job.get("job_id", "")
    uncertainty["escalation_coalesced_with"] = \
        job.get("coalesced_with") or ""
    counter.labels(outcome="submitted").inc()


def run_surrogate_fidelity(config, workspace,
                           progress_callback=None):
    """Execute one config document entirely against the surrogate.

    The search itself is the configured one (optimizer, space, budget,
    weights); only the evaluator differs. Requires a servable ensemble
    (enough harvested rows) in ``workspace`` — loading rides the
    ``allow_stale`` read path, so a grown store never forces a retrain
    here (that is the refresher's job).
    """
    from ..api.report import RunReport
    from ..api.runner import _make_optimizer, execute_search
    from ..eda.benchmarks import build_benchmark
    model = workspace.surrogate_model(
        config.surrogate.model_config(),
        min_rows=config.predict.min_rows, allow_stale=True)
    store = workspace.record_store()
    netlist = build_benchmark(config.benchmark)
    space = config.search.space()
    weights = config.search.ppa_weights()
    # No promotion gate: the "engine" already *is* the surrogate.
    optimizer = _make_optimizer(config, space, weights, builder=None)
    engine = SurrogateEngine(model, store.featurizer)
    execution = execute_search(netlist, optimizer, engine, weights,
                               config.search.iterations,
                               progress_callback=progress_callback)
    result = execution.result
    uncertainty = engine.uncertainty(result.best_corner)
    uncertainty["model"] = {"fingerprint": model.fingerprint(),
                            "members": model.config.members,
                            "trained_rows": model.trained_rows}
    threshold = config.predict.escalate_threshold
    uncertainty["threshold"] = threshold
    best_std = uncertainty.get("best_corner_std", 0.0)
    if threshold > 0.0 and best_std > threshold:
        _escalate(config, uncertainty)
    else:
        uncertainty["escalated"] = False
    return RunReport(
        mode=config.mode,
        design=config.benchmark,
        optimizer=result.optimizer,
        best_corner=result.best_corner,
        best_reward=result.best_reward,
        best_ppa=result.best_record.result.ppa(),
        evaluations=result.evaluations,
        engine_misses=0,
        characterizations=0,
        evaluations_to_optimum=result.evaluations_to_optimum,
        pareto_front=result.pareto_front,
        hypervolume=result.hypervolume,
        rewards=[float(r) for r in result.rewards],
        surrogate={"predictions": engine.predictions,
                   "store_rows": len(store),
                   "model_fingerprint": model.fingerprint(),
                   "model_rows": model.trained_rows},
        uncertainty=uncertainty,
        runtime={"total_s": execution.runtime_s,
                 "charlib_s": 0.0, "flow_s": 0.0},
        cache_stats={"workspace": workspace.stats()},
        config=config.to_dict())
