"""Surrogate regressors: ridge baseline, deep ensemble, persistence."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.nn import Adam, Tensor, mse_loss, no_grad
from repro.surrogate import (EnsembleConfig, EnsemblePPAModel,
                             RidgeSurrogate)

from .conftest import synthetic_rows

SMALL = EnsembleConfig(members=3, hidden=12, epochs=80, seed=0)


class TestRidge:
    def test_fits_smooth_map_better_than_mean(self):
        X, Y = synthetic_rows(60, seed=1)
        Xt, Yt = synthetic_rows(40, seed=2)
        model = RidgeSurrogate().fit(X, Y)
        mean, std = model.predict(Xt)
        assert std.max() == 0.0          # no epistemic term
        ridge_err = np.abs(mean - Yt).mean()
        mean_err = np.abs(Y.mean(axis=0) - Yt).mean()
        assert ridge_err < 0.3 * mean_err

    def test_rejects_empty_fit(self):
        with pytest.raises(ValueError, match="zero rows"):
            RidgeSurrogate().fit(np.zeros((0, 3)), np.zeros((0, 3)))


class TestEnsemble:
    def test_predicts_smooth_map(self):
        X, Y = synthetic_rows(60, seed=1)
        Xt, Yt = synthetic_rows(30, seed=2)
        model = EnsemblePPAModel(SMALL).fit(X, Y)
        mean, std = model.predict(Xt)
        assert mean.shape == Yt.shape and std.shape == Yt.shape
        assert np.abs(mean - Yt).mean() < \
            0.5 * np.abs(Y.mean(axis=0) - Yt).mean()
        assert (std >= 0).all()

    def test_uncertainty_shrinks_with_data(self):
        """The epistemic spread at probe points falls as rows accumulate
        — the property acquisition functions rely on."""
        Xt, _ = synthetic_rows(25, seed=9)
        spreads = []
        for n in (8, 64):
            X, Y = synthetic_rows(n, seed=1)
            model = EnsemblePPAModel(SMALL).fit(X, Y)
            _, std = model.predict(Xt)
            spreads.append(std.mean())
        assert spreads[1] < spreads[0]

    def test_members_disagree_far_from_data(self):
        X, Y = synthetic_rows(12, seed=1)
        model = EnsemblePPAModel(SMALL).fit(X, Y)
        near = model.predict(X)[1].mean()
        far = model.predict(np.full((5, 3), 4.0))[1].mean()
        assert far > near

    def test_fit_is_deterministic(self):
        X, Y = synthetic_rows(20, seed=1)
        a = EnsemblePPAModel(SMALL).fit(X, Y)
        b = EnsemblePPAModel(SMALL).fit(X, Y)
        Xt, _ = synthetic_rows(10, seed=3)
        np.testing.assert_array_equal(a.predict(Xt)[0], b.predict(Xt)[0])
        assert a.fingerprint() == b.fingerprint()

    def test_seed_changes_fingerprint(self):
        X, Y = synthetic_rows(20, seed=1)
        a = EnsemblePPAModel(SMALL).fit(X, Y)
        b = EnsemblePPAModel(
            EnsembleConfig(members=3, hidden=12, epochs=80, seed=7)
        ).fit(X, Y)
        assert a.fingerprint() != b.fingerprint()

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="expected X"):
            EnsemblePPAModel(SMALL).fit(np.zeros((4, 3)),
                                        np.zeros((4, 2)))


def member_loop(model, X) -> np.ndarray:
    """The per-member ``Tensor`` forward the stacked one replaced, kept
    here as the reference: each MLP under ``no_grad``, denormalized."""
    Z = model._x_norm.transform(np.asarray(X, dtype=float))
    with no_grad():
        xt = Tensor(Z)
        return np.stack([model._y_norm.inverse(member(xt).data)
                         for member in model._members])


#: (members, depth, hidden, training rows, input width, query rows) —
#: every value of every axis appears at least once.
SWEEP = [(1, 1, 4, 1, 3, 1), (3, 2, 12, 7, 6, 64),
         (5, 3, 32, 200, 11, 2079), (3, 1, 32, 1, 11, 7),
         (5, 2, 4, 200, 3, 333), (1, 3, 16, 24, 6, 2079),
         (3, 3, 8, 50, 3, 1), (5, 1, 12, 3, 6, 128),
         (1, 2, 32, 120, 11, 17)]


def sweep_mismatches() -> list:
    """Sweep cases where the stacked forward differs from the loop."""
    bad = []
    for members, depth, hidden, rows, width, queries in SWEEP:
        rng = np.random.default_rng(rows * 31 + width)
        X = rng.uniform(-1.0, 1.0, size=(rows, width))
        Y = np.column_stack([X.sum(axis=1), np.sin(X[:, 0]),
                             X[:, -1] ** 2]) - 5.0
        model = EnsemblePPAModel(EnsembleConfig(
            members=members, depth=depth, hidden=hidden, epochs=10,
            seed=rows)).fit(X, Y)
        Xq = rng.uniform(-1.5, 1.5, size=(queries, width))
        if not np.array_equal(model.predict_members(Xq),
                              member_loop(model, Xq)):
            bad.append((members, depth, hidden, rows, width, queries))
    return bad


def on_one_blas_thread(sweep: str) -> str:
    """The printed result of this module's ``sweep()`` with BLAS pinned
    to one thread (a fresh process: the thread count is read when numpy
    loads)."""
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    out = subprocess.run(
        [sys.executable, "-c",
         f"from tests.surrogate.test_models import {sweep};"
         f"print({sweep}())"],
        cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


class TestStackedForward:
    def test_matches_per_member_loop_exactly(self):
        """The (K, n, d) stacked path is the same arithmetic as the
        per-member MLP loop — bit-identical, not just close."""
        assert sweep_mismatches() == []
        X, Y = synthetic_rows(24, seed=1)
        model = EnsemblePPAModel(SMALL).fit(X, Y)
        Xt, _ = synthetic_rows(15, seed=4)
        ref = member_loop(model, Xt)
        mean, std = model.predict(Xt)
        np.testing.assert_array_equal(mean, ref.mean(axis=0))
        np.testing.assert_array_equal(std, ref.std(axis=0))

    def test_matches_loop_on_one_blas_thread(self):
        assert on_one_blas_thread("sweep_mismatches") == "[]"

    def test_predict_builds_no_tensor_and_keeps_grad_mode(self,
                                                          monkeypatch):
        import repro.nn.tensor as tensor_mod
        X, Y = synthetic_rows(24, seed=1)
        model = EnsemblePPAModel(SMALL).fit(X, Y)
        Xt, _ = synthetic_rows(9, seed=5)
        expected = member_loop(model, Xt)

        def no_tensor(self, *args, **kwargs):
            raise AssertionError("predict built a Tensor")

        class Untouchable:
            def __getattr__(self, name):
                raise AssertionError("predict read the grad mode")

            def __setattr__(self, name, value):
                raise AssertionError("predict set the grad mode")

        monkeypatch.setattr(tensor_mod.Tensor, "__init__", no_tensor)
        monkeypatch.setattr(tensor_mod, "_GRAD_MODE", Untouchable())
        np.testing.assert_array_equal(model.predict_members(Xt), expected)
        mean, std = model.predict(Xt)
        np.testing.assert_array_equal(mean, expected.mean(axis=0))

    def test_survives_npz_round_trip(self, tmp_path):
        """A float64 ``.npz`` round trip is exact, so the reloaded
        ensemble, which restacks from the member parameters, predicts
        bit for bit what the trained arrays ``fit`` cached do."""
        X, Y = synthetic_rows(24, seed=1)
        model = EnsemblePPAModel(SMALL).fit(X, Y)
        assert model._stacked is not None   # the trainer's own arrays
        path = tmp_path / "e.npz"
        model.save(path)
        loaded = EnsemblePPAModel.load(path)
        Xt, _ = synthetic_rows(9, seed=5)
        cached = model.predict_members(Xt)
        np.testing.assert_array_equal(loaded.predict_members(Xt), cached)
        np.testing.assert_array_equal(member_loop(model, Xt), cached)

    def test_requires_fit(self):
        with pytest.raises(RuntimeError, match="before fit"):
            EnsemblePPAModel(SMALL).predict(np.zeros((2, 3)))


def reference_train(model, X, Y, epochs, bootstrap_seed, fresh):
    """The per-member autograd training loop, kept here as the reference
    the stacked trainer must equal: each member on its own bootstrap,
    ``Tensor`` graph, ``mse_loss`` and a fresh ``nn.Adam``."""
    if fresh:
        model._build(X.shape[1])
        model._x_norm.fit(X)
        model._y_norm.fit(Y)
    Z, T = model._x_norm.transform(X), model._y_norm.transform(Y)
    for k, member in enumerate(model._members):
        rng = np.random.default_rng(bootstrap_seed + 1000 * k)
        idx = (rng.integers(0, len(Z), size=len(Z))
               if len(Z) > 1 else np.zeros(1, dtype=int))
        xb, tb = Tensor(Z[idx]), Tensor(T[idx])
        opt = Adam(member.parameters(), lr=model.config.lr)
        for _ in range(epochs):
            opt.zero_grad()
            loss = mse_loss(member(xb), tb)
            loss.backward()
            opt.step()
    model._stacked = None
    model.trained_rows = len(Z)
    return model


#: (members, depth, hidden, training rows); rows = 1 is the
#: single-row bootstrap branch.
TRAIN_SWEEP = [(members, depth, hidden, rows)
               for members in (1, 4) for depth in (1, 3)
               for hidden, rows in ((8, 1), (16, 7), (4, 300))]


def _weights(model) -> list:
    return [member.state_dict() for member in model._members]


def training_mismatches() -> list:
    """Sweep cases where the stacked trainer differs from the reference
    loop after a fit, a warm refit or an ``epochs=0`` refit."""
    bad = []
    for members, depth, hidden, rows in TRAIN_SWEEP:
        cfg = EnsembleConfig(members=members, depth=depth, hidden=hidden,
                             epochs=15, seed=rows)
        rng = np.random.default_rng(rows)
        X = rng.uniform(-1.0, 1.0, size=(rows + 5, 4))
        Y = np.column_stack([X.sum(axis=1), np.sin(X[:, 0]),
                             X[:, -1] ** 2]) - 5.0
        model = EnsemblePPAModel(cfg)
        ref = EnsemblePPAModel(cfg)
        steps = [
            ("fit", lambda: model.fit(X[:rows], Y[:rows]),
             lambda: reference_train(ref, X[:rows], Y[:rows], cfg.epochs,
                                     cfg.seed + 1, fresh=True)),
            ("refit", lambda: model.refit(X, Y),
             lambda: reference_train(ref, X, Y, cfg.epochs,
                                     cfg.seed + 1 + 7919 * len(X),
                                     fresh=False)),
            ("refit0", lambda: model.refit(X[:rows], Y[:rows], epochs=0),
             lambda: reference_train(ref, X[:rows], Y[:rows], 0,
                                     cfg.seed + 1 + 7919 * rows,
                                     fresh=False))]
        for name, stacked, loop in steps:
            stacked()
            loop()
            same = all(np.array_equal(a[key], b[key])
                       for a, b in zip(_weights(model), _weights(ref))
                       for key in a)
            if not same or model.fingerprint() != ref.fingerprint():
                bad.append((members, depth, hidden, rows, name))
    return bad


class TestStackedTraining:
    def test_matches_per_member_autograd_loop_exactly(self):
        """Fit, warm refit and ``refit(epochs=0)`` leave every weight
        exactly where the per-member ``Tensor`` + ``Adam`` loop does."""
        assert training_mismatches() == []

    def test_matches_loop_on_one_blas_thread(self):
        assert on_one_blas_thread("training_mismatches") == "[]"


class TestRefit:
    def test_warm_refit_improves_on_grown_data(self):
        """Refit continues from the current weights on the grown row
        set; the result predicts the new rows better than the stale
        model did."""
        X0, Y0 = synthetic_rows(16, seed=1)
        model = EnsemblePPAModel(SMALL).fit(X0, Y0)
        X1, Y1 = synthetic_rows(48, seed=2)
        stale_err = np.abs(model.predict(X1)[0] - Y1).mean()
        model.refit(X1, Y1)
        fresh_err = np.abs(model.predict(X1)[0] - Y1).mean()
        assert fresh_err < stale_err
        assert model.trained_rows == 48

    def test_refit_changes_fingerprint_and_keeps_config(self):
        X0, Y0 = synthetic_rows(16, seed=1)
        model = EnsemblePPAModel(SMALL).fit(X0, Y0)
        before = model.fingerprint()
        X1, Y1 = synthetic_rows(24, seed=2)
        model.refit(X1, Y1)
        assert model.fingerprint() != before
        assert model.config == SMALL

    def test_refit_on_unfitted_model_is_a_fit(self):
        X, Y = synthetic_rows(20, seed=1)
        model = EnsemblePPAModel(SMALL)
        model.refit(X, Y)
        assert model.trained_rows == 20
        mean, std = model.predict(X)
        assert mean.shape == Y.shape and (std >= 0).all()

    def test_refit_validates_width(self):
        X, Y = synthetic_rows(16, seed=1)
        model = EnsemblePPAModel(SMALL).fit(X, Y)
        with pytest.raises(ValueError, match="expected X"):
            model.refit(np.zeros((10, 5)), np.zeros((10, 3)))

    def test_refit_is_deterministic(self):
        X0, Y0 = synthetic_rows(16, seed=1)
        X1, Y1 = synthetic_rows(32, seed=2)
        a = EnsemblePPAModel(SMALL).fit(X0, Y0)
        b = EnsemblePPAModel(SMALL).fit(X0, Y0)
        a.refit(X1, Y1)
        b.refit(X1, Y1)
        assert a.fingerprint() == b.fingerprint()


class TestPersistence:
    def test_npz_round_trip(self, tmp_path):
        X, Y = synthetic_rows(24, seed=1)
        model = EnsemblePPAModel(SMALL).fit(X, Y)
        path = tmp_path / "ensemble.npz"
        model.save(path)
        loaded = EnsemblePPAModel.load(path)
        Xt, _ = synthetic_rows(10, seed=4)
        np.testing.assert_array_equal(loaded.predict(Xt)[0],
                                      model.predict(Xt)[0])
        np.testing.assert_array_equal(loaded.predict(Xt)[1],
                                      model.predict(Xt)[1])
        assert loaded.fingerprint() == model.fingerprint()
        assert loaded.trained_rows == 24
        assert loaded.config == model.config

    def test_save_requires_fit(self, tmp_path):
        with pytest.raises(RuntimeError, match="unfitted"):
            EnsemblePPAModel(SMALL).save(tmp_path / "x.npz")
