"""Exact surrogate-driven trajectories and trained weights.

``golden_search.json`` was captured before the ensemble's inference and
training paths were merged: the ``bayes`` / ``ucb`` runs on the 45-point
grid, one promotion-gated run through :class:`SearchRun`, and the
fingerprints of a fitted and a warm-refitted ensemble. Every corner,
reward and weight digest must match exactly — the merged forward and
training loop are the same arithmetic, not an approximation of it.

Regenerate (only when a trajectory is *meant* to change) with::

    PYTHONPATH=src python -m tests.surrogate.test_golden_search
"""

import json
from pathlib import Path

import pytest

from repro.engine.records import PPAWeights
from repro.search import RandomOptimizer, SearchRun, make_optimizer
from repro.surrogate import (EnsembleConfig, EnsemblePPAModel,
                             PromotedOptimizer, PromotionSchedule)

from ..search.conftest import FakeEngine
from .conftest import SPACE, synthetic_rows

GOLDEN_PATH = Path(__file__).parent / "golden_search.json"
SEEDS = (0, 1, 2)
BUDGET = 20
SMALL = EnsembleConfig(members=3, hidden=12, epochs=80, seed=0)


def _trajectory(result) -> dict:
    return {"corners": [list(r.corner.key()) for r in result.records],
            "rewards": [float(r) for r in result.rewards],
            "best_corner": list(result.best_corner),
            "best_reward": float(result.best_reward)}


def bayes_run(name: str, seed: int) -> dict:
    optimizer = make_optimizer(name, SPACE, seed=seed)
    return _trajectory(SearchRun(None, optimizer, FakeEngine())
                       .run(budget=BUDGET))


def promoted_run() -> dict:
    inner = RandomOptimizer(SPACE, seed=0, batch=6)
    optimizer = PromotedOptimizer(
        inner, SPACE,
        schedule=PromotionSchedule(screen=12, promote=2,
                                   min_observations=6),
        weights=PPAWeights(),
        model_config=EnsembleConfig(members=2, hidden=8, epochs=30,
                                    seed=0),
        seed=0)
    result = SearchRun(None, optimizer, FakeEngine()).run(budget=26)
    doc = _trajectory(result)
    doc["surrogate"] = {k: result.surrogate[k]
                        for k in ("screened", "promoted", "backfilled",
                                  "fits")}
    return doc


def trained_fingerprints() -> dict:
    X0, Y0 = synthetic_rows(16, seed=1)
    X1, Y1 = synthetic_rows(32, seed=2)
    model = EnsemblePPAModel(SMALL).fit(X0, Y0)
    fit = model.fingerprint()
    model.refit(X1, Y1)
    refit = model.fingerprint()
    model.refit(X1[:20], Y1[:20], epochs=5)
    return {"fit": fit, "refit": refit, "refit_short": model.fingerprint()}


def capture() -> dict:
    return {"budget": BUDGET,
            "runs": {f"{name}-{seed}": bayes_run(name, seed)
                     for name in ("bayes", "ucb") for seed in SEEDS},
            "promoted": promoted_run(),
            "ensemble": trained_fingerprints()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


class TestGoldenSearch:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", ["bayes", "ucb"])
    def test_bayesian_trajectory(self, golden, name, seed):
        assert bayes_run(name, seed) == golden["runs"][f"{name}-{seed}"]

    def test_promoted_trajectory(self, golden):
        assert promoted_run() == golden["promoted"]

    def test_fit_and_refit_weights(self, golden):
        """Fit and warm refit reproduce the captured weights bit for bit
        (the bootstrap seeds are ``seed + 1000k + 1`` for a fit and
        ``+ 7919·len(X)`` more for a refit)."""
        assert trained_fingerprints() == golden["ensemble"]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
