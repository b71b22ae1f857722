"""System-level PPA surrogates: ridge baseline + deep ensemble.

Two regressors over the rows a :class:`~repro.surrogate.records.RecordStore`
accumulates, both mapping a feature vector to the three log10 objectives
``(log_power, log_delay, log_area)``:

* :class:`RidgeSurrogate` — closed-form ridge regression on a quadratic
  feature expansion. No iterations, no seed, microsecond fits; the
  sanity baseline every learned model must beat and the fallback when
  only a handful of rows exist.
* :class:`EnsemblePPAModel` — K independently-seeded MLPs on the
  :mod:`repro.nn` stack. The member mean is the prediction; the member
  *spread* is the epistemic uncertainty the Bayesian optimizers turn
  into acquisition values — far from data the members disagree, and the
  disagreement shrinks as rows accumulate (asserted in tests).

Both standardize inputs and targets internally (normalizers are part of
the saved artifact), save/load as ``.npz`` via
:mod:`repro.nn.serialization` conventions, and expose a stable
:meth:`fingerprint` so a trained surrogate registers in the
:class:`~repro.api.workspace.Workspace` exactly like trained GNN
weights.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from ..engine.hashing import array_digest, stable_hash
from .records import TARGET_NAMES

__all__ = ["EnsembleConfig", "RidgeSurrogate", "EnsemblePPAModel"]


@dataclass(frozen=True)
class EnsembleConfig:
    """Architecture + training knobs of the deep ensemble."""

    members: int = 3
    hidden: int = 16
    depth: int = 2                  # hidden layers per member
    epochs: int = 60
    lr: float = 1e-2
    seed: int = 0

    def __post_init__(self):
        if self.members < 1:
            raise ValueError("ensemble needs at least one member")
        if self.depth < 1 or self.hidden < 1:
            raise ValueError("ensemble members need hidden >= 1, depth >= 1")


def _carve(buf: np.ndarray, shapes) -> list:
    """``[(W, b), ...]`` views into the flat ``buf``, one pair per layer."""
    views, at = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        views.append(buf[at:at + size].reshape(shape))
        at += size
    return list(zip(views[::2], views[1::2]))


class _Standardizer:
    """Per-column mean/std affine map (degenerate columns pass through)."""

    def __init__(self, mean=None, std=None):
        self.mean = mean
        self.std = std

    def fit(self, X: np.ndarray) -> "_Standardizer":
        self.mean = X.mean(axis=0)
        std = X.std(axis=0)
        self.std = np.where(std > 1e-12, std, 1.0)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean) / self.std

    def inverse(self, Z: np.ndarray) -> np.ndarray:
        return Z * self.std + self.mean


def _quadratic_expand(X: np.ndarray) -> np.ndarray:
    """[x, x^2, upper-triangle cross terms] — the ridge feature map."""
    n, d = X.shape
    cols = [X, X ** 2]
    for i in range(d):
        for j in range(i + 1, d):
            cols.append((X[:, i] * X[:, j])[:, None])
    return np.hstack(cols)


class RidgeSurrogate:
    """Closed-form ridge regression on quadratic features."""

    def __init__(self, alpha: float = 1e-3):
        self.alpha = float(alpha)
        self._w = None                  # (features+1, targets)
        self._x_norm = _Standardizer()
        self._y_norm = _Standardizer()

    @property
    def fitted(self) -> bool:
        return self._w is not None

    def fit(self, X, Y) -> "RidgeSurrogate":
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        if len(X) == 0:
            raise ValueError("cannot fit a surrogate on zero rows")
        Z = self._x_norm.fit(X).transform(X)
        Z = _quadratic_expand(Z)
        T = self._y_norm.fit(Y).transform(Y)
        A = np.hstack([Z, np.ones((len(Z), 1))])
        reg = self.alpha * np.eye(A.shape[1])
        reg[-1, -1] = 0.0               # never shrink the intercept
        self._w = np.linalg.solve(A.T @ A + reg, A.T @ T)
        return self

    def predict(self, X):
        """``(mean, std)`` — std is zero: ridge has no epistemic term."""
        if not self.fitted:
            raise RuntimeError("RidgeSurrogate.predict before fit")
        X = np.asarray(X, dtype=float)
        Z = _quadratic_expand(self._x_norm.transform(X))
        A = np.hstack([Z, np.ones((len(Z), 1))])
        mean = self._y_norm.inverse(A @ self._w)
        return mean, np.zeros_like(mean)


class EnsemblePPAModel:
    """K independently-seeded MLPs; spread = epistemic uncertainty."""

    def __init__(self, config: EnsembleConfig | None = None):
        self.config = config if config is not None else EnsembleConfig()
        self._members = []              # nn.MLP instances
        self._x_norm = _Standardizer()
        self._y_norm = _Standardizer()
        self._in_dim = None
        self._stacked = None            # [(W (K,d_in,d_out), b (K,1,d_out))]
        self.trained_rows = 0

    @property
    def fitted(self) -> bool:
        return bool(self._members)

    # -- training ----------------------------------------------------------
    def _build(self, in_dim: int) -> None:
        from ..nn import MLP
        cfg = self.config
        dims = [in_dim] + [cfg.hidden] * cfg.depth + [len(TARGET_NAMES)]
        self._members = [
            MLP(dims, activation="tanh",
                rng=np.random.default_rng(cfg.seed + 1000 * k))
            for k in range(cfg.members)]
        self._in_dim = in_dim
        self._stacked = None

    @staticmethod
    def _rows(X, Y, width=None):
        """Validated float ``(X, Y)``; ``width`` pins X's column count."""
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        if len(X) == 0:
            raise ValueError("cannot fit a surrogate on zero rows")
        if X.ndim != 2 or Y.ndim != 2 or Y.shape[1] != len(TARGET_NAMES) \
                or width not in (None, X.shape[1]):
            raise ValueError(
                f"expected X (n, {width or 'd'}) and Y "
                f"(n, {len(TARGET_NAMES)}); got {X.shape} / {Y.shape}")
        return X, Y

    def _train(self, Z, T, steps: int, bootstrap_seed: int):
        """Full-batch training of all K members at once, on plain arrays.

        Member k trains on a bootstrap resample drawn from
        ``bootstrap_seed + 1000 * k``, so the spread reflects data
        scarcity, not just init noise. The resamples stack to
        ``(K, n, d)`` and every step is one batched forward, the
        hand-written backward of its mean-squared error and one
        adaptive-moment update (Kingma & Ba: betas 0.9/0.999, eps 1e-8,
        fresh moments per call) over a flat buffer whose views are the
        stacked weights. Each operation is the one the autograd graph
        of a per-member loop performs, in the same order, so the
        trained weights equal that loop's bit for bit.
        """
        start = [a for layer in self._stacked_layers() for a in layer]
        shapes = [a.shape for a in start]
        params = np.concatenate([a.ravel() for a in start])
        grads = np.empty_like(params)
        layers, grad_layers = _carve(params, shapes), _carve(grads, shapes)
        m, v = np.zeros_like(params), np.zeros_like(params)
        beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, self.config.lr

        n = len(Z)
        idx = np.stack([
            np.random.default_rng(bootstrap_seed + 1000 * k)
            .integers(0, n, size=n) if n > 1 else np.zeros(1, dtype=int)
            for k in range(len(self._members))])
        X, Tb = Z[idx], T[idx]
        scale = 1.0 / Tb[0].size        # the loss: mean over rows x targets
        last = len(layers) - 1
        for t in range(1, steps + 1):
            acts = [X]                  # each layer's input
            for i, (W, b) in enumerate(layers):
                H = acts[-1] @ W + b
                acts.append(np.tanh(H) if i < last else H)
            g = (acts.pop() - Tb) * scale
            G = g + g                   # d(diff * diff) reaches diff twice
            for i in range(last, -1, -1):
                W, _ = layers[i]
                gW, gb = grad_layers[i]
                np.matmul(np.swapaxes(acts[i], -1, -2), G, out=gW)
                np.sum(G, axis=1, keepdims=True, out=gb)
                if i:
                    G = (G @ np.swapaxes(W, -1, -2)) * (1.0 - acts[i] ** 2)
            bias1 = 1.0 - beta1 ** t
            bias2 = 1.0 - beta2 ** t
            m *= beta1
            m += (1 - beta1) * grads
            v *= beta2
            v += (1 - beta2) * grads * grads
            params -= lr * (m / bias1) / (np.sqrt(v / bias2) + eps)

        for k, member_layers in enumerate(self._member_linears()):
            for lin, (W, b) in zip(member_layers, layers):
                lin.weight.data = W[k].copy()
                lin.bias.data = b[k, 0].copy()
        self._stacked = layers
        self.trained_rows = n
        return self

    def fit(self, X, Y) -> "EnsemblePPAModel":
        """Train every member from scratch on all rows (full batch).

        Refits are deterministic: member k's init and data order depend
        only on ``config.seed`` and k, never on wall clock or call
        count — the property the ``bayes`` optimizer's seeded
        reproducibility rests on.
        """
        X, Y = self._rows(X, Y)
        self._build(X.shape[1])
        Z = self._x_norm.fit(X).transform(X)
        T = self._y_norm.fit(Y).transform(Y)
        return self._train(Z, T, self.config.epochs, self.config.seed + 1)

    def refit(self, X, Y, epochs: int | None = None) -> "EnsemblePPAModel":
        """Warm-started incremental refit on the full (grown) row set.

        Members keep their current weights and the fitted normalizers,
        then continue training — cheap enough to run on every
        record-store delta, so a served model tracks harvested engine
        truth without periodic full retrains. Falls back to
        :meth:`fit` when the ensemble is untrained. Deterministic: the
        bootstrap stream depends only on ``(seed, member, len(X))``.
        """
        if not self.fitted:
            return self.fit(X, Y)
        X, Y = self._rows(X, Y, width=self._in_dim)
        cfg = self.config
        return self._train(self._x_norm.transform(X),
                           self._y_norm.transform(Y),
                           cfg.epochs if epochs is None else int(epochs),
                           cfg.seed + 1 + 7919 * len(X))

    # -- inference ---------------------------------------------------------
    def _member_linears(self):
        """Each member's ``Linear`` layers, input to output."""
        from ..nn.layers import Linear
        return [[m for m in member.net if isinstance(m, Linear)]
                for member in self._members]

    def _stacked_layers(self):
        """Per-layer ``(W, b)`` arrays stacked across members, cached
        until the weights change (fit / refit / load)."""
        if self._stacked is None:
            per_member = self._member_linears()
            self._stacked = [
                (np.stack([layers[i].weight.data for layers in per_member]),
                 np.stack([layers[i].bias.data
                           for layers in per_member])[:, None, :])
                for i in range(len(per_member[0]))]
        return self._stacked

    def predict_members(self, X) -> np.ndarray:
        """Per-member predictions, shape ``(members, n, targets)``, in
        the original (denormalized) log10-objective units.

        One stacked forward: all K members advance together through
        batched ``(K, n, d) @ (K, d, d')`` matmuls on plain arrays — no
        autograd graph, no grad-mode switch, no per-member loop. The
        arithmetic is each member MLP's own (tanh hidden layers), so the
        outputs equal the members' autograd forwards bit for bit.
        """
        if not self.fitted:
            raise RuntimeError("EnsemblePPAModel.predict before fit")
        Z = self._x_norm.transform(np.asarray(X, dtype=float))
        H = np.broadcast_to(Z, (len(self._members),) + Z.shape)
        layers = self._stacked_layers()
        for i, (W, b) in enumerate(layers):
            H = H @ W + b
            if i < len(layers) - 1:
                H = np.tanh(H)
        return self._y_norm.inverse(H)

    def predict(self, X):
        """``(mean, std)`` over members — std is the epistemic term."""
        preds = self.predict_members(X)
        return preds.mean(axis=0), preds.std(axis=0)

    # -- identity / persistence --------------------------------------------
    def fingerprint(self) -> str:
        """Stable content hash: config + exact member weights."""
        if not self.fitted:
            return stable_hash({"kind": "surrogate-ensemble",
                                "config": asdict(self.config),
                                "state": None})
        digests = []
        for member in self._members:
            state = member.state_dict()
            digests.append(array_digest([state[k] for k in sorted(state)]))
        return stable_hash({
            "kind": "surrogate-ensemble", "config": asdict(self.config),
            "in_dim": self._in_dim,
            "norm": array_digest([self._x_norm.mean, self._x_norm.std,
                                  self._y_norm.mean, self._y_norm.std]),
            "members": digests})

    def save(self, path) -> Path:
        """One ``.npz`` with every member's weights + the normalizers."""
        import json
        if not self.fitted:
            raise RuntimeError("cannot save an unfitted ensemble")
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {}
        for k, member in enumerate(self._members):
            for name, arr in member.state_dict().items():
                payload[f"member{k}.{name}"] = arr
        payload["norm.x_mean"] = self._x_norm.mean
        payload["norm.x_std"] = self._x_norm.std
        payload["norm.y_mean"] = self._y_norm.mean
        payload["norm.y_std"] = self._y_norm.std
        meta = {"config": asdict(self.config), "in_dim": self._in_dim,
                "trained_rows": self.trained_rows,
                "targets": list(TARGET_NAMES)}
        payload["__meta__"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        np.savez(path, **payload)
        return path if path.suffix == ".npz" \
            else path.with_suffix(path.suffix + ".npz")

    @classmethod
    def load(cls, path) -> "EnsemblePPAModel":
        import json
        path = Path(path)
        if not path.exists() and path.with_suffix(".npz").exists():
            path = path.with_suffix(".npz")
        with np.load(path) as archive:
            meta = json.loads(
                bytes(archive["__meta__"].tobytes()).decode("utf-8"))
            model = cls(EnsembleConfig(**meta["config"]))
            model._build(int(meta["in_dim"]))
            for k, member in enumerate(model._members):
                prefix = f"member{k}."
                state = {name[len(prefix):]: archive[name]
                         for name in archive.files
                         if name.startswith(prefix)}
                member.load_state_dict(state)
            model._x_norm = _Standardizer(archive["norm.x_mean"],
                                          archive["norm.x_std"])
            model._y_norm = _Standardizer(archive["norm.y_mean"],
                                          archive["norm.y_std"])
        model.trained_rows = int(meta.get("trained_rows", 0))
        model._stacked = None
        return model
